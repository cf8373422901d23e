"""SG counting, 2-cluster thresholding, verdict sweeps, and frequency filters."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .model import EventTable, _gather_rows, _lexsort, _percentile
from .names import (CV_THRESHOLD, DEFAULT_ALPHA, DEFAULT_CADENCE,
                    DEFAULT_PERCENTILE, DEFAULT_TAU_MIN, DEFAULT_WINDOW,
                    check_nonnegative, iso, topen)

MIN_GROUP_SIZE = 3
MIN_ARRIVALS = 5  # a node votes on a key's period from this many rows on

_SPAN = 1 << 40  # seconds of timestamps SGIndex can sort in one key

VERDICTS = ("normal", "abnormal", "non_responsive")


class SGIndex:
    """A table's rows as one sorted key, answering half-open window counts.

    key holds one int64 per row, node id << 40 | seconds since t0, sorted,
    so node i's rows are key[offset[i]:offset[i + 1]] in time order; an
    unlisted node reads as the last id, which owns no rows. `matrix` keeps
    an edge table: row i holds node i's number of entries before each kept
    edge, as int32. The index never changes after it is built, so the
    table cannot go stale.
    """

    def __init__(self, table: EventTable):
        if len(table) >= 1 << 31:  # the edge table counts rows in int32
            raise ValueError("an SGIndex holds fewer than 2**31 rows")
        if len(table.nodes) >= 1 << 22:  # ids sit above 40 bits of time
            raise ValueError("an SGIndex holds fewer than 2**22 nodes")
        self.t0 = t0 = int(table.ts.min()) if len(table) else 0
        if len(table) and int(table.ts.max()) - t0 >= _SPAN:
            raise ValueError("timestamps span more than 2**40 seconds")
        self.key = table.node.astype(np.int64)
        self.key <<= 40
        self.key += table.ts
        self.key -= t0
        self.key.sort()
        self.offset = np.zeros(len(table.nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(table.node, minlength=len(table.nodes)),
                  out=self.offset[1:])
        self.nodes = table.nodes  # the table's list, which ids index
        self._edges = np.zeros(0, dtype=np.int64)
        self._before = np.zeros((len(self.offset), 0), dtype=np.int32)

    def _ids(self, nodes):
        """The node ids of nodes, len(offset) - 1 for an unlisted one."""
        of = dict(zip(self.nodes, range(len(self.offset) - 1)))
        return np.array([of.get(node, len(of)) for node in nodes], np.int64)

    def _rows_before(self, ids, times):
        """Node ids[j]'s number of rows before times[j], broadcast. A time
        is clipped into the key's span first: below it, it would read rows
        of the node below, above it rows of the node above."""
        at = np.clip(np.asarray(times, dtype=np.int64) - self.t0, 0, _SPAN)
        rows = self.key.searchsorted((ids << 40) + at)
        rows -= self.offset[ids]
        return rows

    def count(self, node, at: int, window: int = DEFAULT_WINDOW) -> int:
        # [at - window, at): the entry at `at` itself is not yet observed
        lo, hi = self._rows_before(self._ids([node]), [at - window, at])
        return int(hi - lo)

    def last_entry_before(self, nodes, times):
        """(anchors, found): per (nodes[j], times[j]), the timestamp of the
        node's last entry strictly before the time, and whether it has one;
        an anchor not found reads 0."""
        ids = self._ids(nodes)
        row = self._rows_before(ids, times)
        found = row > 0
        last = (self.offset[ids] + row)[found] - 1
        anchors = np.zeros(len(ids), dtype=np.int64)
        anchors[found] = (self.key[last] & (_SPAN - 1)) + self.t0
        return anchors, found

    def matrix(self, nodes, moments, window: int = DEFAULT_WINDOW):
        """SG matrix: row r holds the counts of nodes[r] at every moment."""
        hi = np.asarray(moments, dtype=np.int64)
        lo = hi - window
        if not (_found(self._edges, lo) and _found(self._edges, hi)):
            self._keep_edges(_distinct(np.concatenate([lo, hi])))
        # [at - window, at): the entries before at, less those before
        # at - window; the columns are taken first, so no copy of the
        # whole table is made
        rows = self._ids(nodes)
        return np.subtract(
            np.take(np.take(self._before, self._edges.searchsorted(hi),
                            axis=1), rows, axis=0),
            np.take(np.take(self._before, self._edges.searchsorted(lo),
                            axis=1), rows, axis=0), dtype=np.int64)

    def _keep_edges(self, edges):
        """Keep the union of the kept and the new edges, or the new edges
        alone where the union would more than double them; only columns
        of edges not kept before are counted, each node's in its own rows
        of the key, as _rows_before counts."""
        kept, counted = self._edges, self._before
        union = _distinct(np.concatenate([kept, edges]))
        if len(union) > 2 * len(edges):
            union, kept, counted = edges, kept[:0], counted[:, :0]
        before = np.empty((len(self.offset), len(union)), dtype=np.int32)
        new = np.ones(len(union), dtype=bool)
        old = union.searchsorted(kept)
        before[:, old], new[old] = counted, False
        new = np.flatnonzero(new)
        at = np.clip(union[new] - self.t0, 0, _SPAN)
        bounds = self.offset.tolist()
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            before[i, new] = self.key[a:b].searchsorted(at + (i << 40))
        before[-1, new] = 0  # the unlisted id owns no rows
        self._edges, self._before = union, before


def _distinct(values):
    """The sorted distinct values of an int64 array."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _found(edges, values):
    """Whether every value is among the sorted edges."""
    col = edges.searchsorted(values)
    return bool((col < len(edges)).all() and (edges[col] == values).all())


def split_groups(sg, alpha: float = DEFAULT_ALPHA,
                 tau_min: float = DEFAULT_TAU_MIN):
    """Split every row of an SG matrix (cells x n, n >= 2) into two clusters.

    sg holds non-negative integer counts. Each row gets the optimal 1-D
    2-means split of its sorted values, the first split whose cost is more
    than 1e-12 below the best before it, followed by the threshold rule.
    The cost and centres take the same floating-point operations in the
    same order as tests/oracles.py's scalar kmeans_1d_2, so each cell's
    numbers equal the scalar ones exactly. Returns per-cell arrays
    (c_minor, c_major, wcss, tau) and per-node arrays (minority mask,
    verdict codes into VERDICTS), all in the row's own node order.
    """
    sg = np.asarray(sg)
    if sg.dtype.kind not in "iu" or (sg.size and sg.min() < 0):
        raise ValueError("split_groups needs non-negative integer counts")
    cells, n = sg.shape
    if n < 2:
        raise ValueError("split_groups needs rows of at least two counts")
    bits = (n - 1).bit_length()
    if sg.size and int(sg.max()) >= 1 << (63 - bits):
        raise ValueError("counts too large to sort in one int64 key")
    # one key per count, the count above its column: the keys are distinct,
    # so a plain sort orders each row as a stable argsort of the counts would
    key = sg.astype(np.int64)
    key <<= bits
    key |= np.arange(n)
    ordered = np.sort(key, axis=1)
    # from here on split positions run down the rows and cells along them,
    # so every step runs over contiguous cells
    xs = (ordered.T >> bits).astype(np.float64, order="C")
    flat = xs[0] == xs[-1]  # all equal: one lower cluster, no minority
    # cumsum adds down the rows in sequence, as the scalar reference does
    prefix, prefix_sq = np.zeros((2, n + 1, cells))
    np.cumsum(xs, axis=0, out=prefix[1:])
    xs *= xs
    np.cumsum(xs, axis=0, out=prefix_sq[1:])

    # sse(0, k) + sse(k, n) for every split k = 1..n-1, each as
    # max(s2 - s * s / size, 0); the prefixes start at an exact zero
    k = np.arange(1, n)[:, None]
    w = _sse(prefix[1:n], prefix_sq[1:n], k)
    w += _sse(prefix[n:] - prefix[1:n], prefix_sq[n:] - prefix_sq[1:n], n - k)
    # the first split more than 1e-12 below the best before it is the
    # first minimum, unless a cost v > min has v - 1e-12 <= min: only those
    # cells take the split-by-split scan
    best, best_k = w.min(axis=0), w.argmin(axis=0) + 1
    near = w - 1e-12
    near = (near <= best) & (w != best)
    for c in np.flatnonzero(near.any(axis=0)).tolist():
        best[c], best_k[c] = _first_best(w[:, c].tolist())

    cell = np.arange(cells)
    at_k = np.take(prefix, best_k * cells + cell)
    c_lo = at_k / best_k
    c_hi = np.where(flat, c_lo, (prefix[n] - at_k) / (n - best_k))
    wcss = np.where(flat, 0.0, best)
    n_hi = np.where(flat, 0, n - best_k)
    n_lo = n - n_hi
    tau = np.maximum(tau_min, alpha * np.sqrt(wcss / n))
    lower_minor = (n_lo < n_hi) | ((n_lo == n_hi) & (c_lo <= c_hi))
    c_minor = np.where(lower_minor, c_lo, c_hi)
    c_major = np.where(lower_minor, c_hi, c_lo)

    # a column ranks at best_k or above exactly when its key is at least
    # the key sorted to position best_k
    split_key = np.take(ordered, cell * n + best_k)
    minority = (key >= split_key[:, None]) != lower_minor[:, None]
    minority &= ~flat[:, None]
    # a zero SG is non_responsive, a minority member farther than tau from
    # the majority centre abnormal
    far = minority & (np.abs(sg - c_major[:, None]) > tau[:, None])
    return (c_minor, c_major, wcss, tau, minority,
            np.where(sg == 0, 2, far.astype(np.int64)))


def _first_best(costs):
    """The scan: the first split whose cost is more than 1e-12 below the
    best so far, as (cost, split)."""
    best, best_k = math.inf, 1
    for k, cost in enumerate(costs, 1):
        if cost < best - 1e-12:
            best, best_k = cost, k
    return best, best_k


def _sse(s, s2, size):
    """max(s2 - s * s / size, 0) in place of a fresh s * s."""
    w = s * s
    w /= size
    np.subtract(s2, w, out=w)
    return np.maximum(w, 0.0, out=w)


@dataclass
class SweepResult:
    """A sweep's verdicts in columns, one cell per judged (moment, group).

    Cell c judged group group[c] at moment at[c]. Its node-moments are the
    rows offset[c]:offset[c + 1] of the per-row arrays, in the group's
    sorted node order. groups[g] is distinct group g's (name, sorted
    NodeIds) and nodes[i] node i's NodeId; nodes is sorted, so node ids
    order as NodeIds do.
    """
    at: np.ndarray  # per cell: the moment
    group: np.ndarray  # per cell: index into groups
    c_minor: np.ndarray  # per cell: the cluster centres, wcss and tau
    c_major: np.ndarray
    wcss: np.ndarray
    tau: np.ndarray
    offset: np.ndarray  # cells + 1 row offsets
    node: np.ndarray  # per row: index into nodes
    sg: np.ndarray  # per row: the window count
    code: np.ndarray  # per row: index into VERDICTS
    minority: np.ndarray  # per row: in the smaller cluster
    groups: list
    nodes: list
    skipped_groups: list  # (group, size), once each
    moments: list  # every distinct moment of the schedule, sorted

    @property
    def results(self) -> Sequence:
        """The cells as a sequence whose item c has only .verdicts, cell
        c's {NodeId: verdict name} dict, built when it is read. Only
        bench/ reads it, until the benchmark reads the columns."""
        return _CellVerdicts(self)


class _CellVerdicts(Sequence):
    def __init__(self, sweep: SweepResult):
        self._sweep = sweep

    def __len__(self) -> int:
        return len(self._sweep.at)

    def __getitem__(self, c):
        s = self._sweep
        c = range(len(self))[c]  # an IndexError ends iteration
        a, b = s.offset[c:c + 2].tolist()
        return SimpleNamespace(verdicts={
            s.nodes[i]: VERDICTS[k]
            for i, k in zip(s.node[a:b].tolist(), s.code[a:b].tolist())})


def observation_moments(start: int, end: int,
                        cadence: int = DEFAULT_CADENCE,
                        window: int = DEFAULT_WINDOW) -> list:
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    return list(range(start + window, end + 1, cadence))


def sweep_schedule(index: SGIndex, schedule,
                   window: int = DEFAULT_WINDOW,
                   alpha: float = DEFAULT_ALPHA,
                   tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Judge each (groups, moments) pair's usable (name, nodes) groups.

    Cells come in schedule order: moment by moment, group by group. One
    node x moment SG matrix gives the counts, and the cells of each group
    size are split in one batch. A recurring group keeps one groups entry;
    an undersized name goes to skipped_groups once, first seen first.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    check_nonnegative(alpha=alpha, tau_min=tau_min)
    skipped, seen = [], set()
    groups: dict = {}  # (name, frozenset of nodes) -> its index
    entry_ats, entry_groups = [], []  # per schedule entry
    for named, ats in schedule:
        usable = []
        for name, group in named:
            if len(group) >= MIN_GROUP_SIZE:
                usable.append(groups.setdefault((name, frozenset(group)),
                                                len(groups)))
            elif name not in seen:
                seen.add(name)
                skipped.append((name, len(group)))
        entry_ats.append(ats)
        entry_groups.append(usable)
    groups = [(name, tuple(sorted(group))) for name, group in groups]
    nodes = sorted({node for _, members in groups for node in members})
    node_id = {node: i for i, node in enumerate(nodes)}

    # cell c is the moment's usable group c - start[moment] of its entry:
    # each moment repeats as often as its entry has usable groups
    ats = np.fromiter(chain.from_iterable(entry_ats), np.int64)
    used = np.fromiter(chain.from_iterable(entry_groups), np.int64)
    per_entry = np.array([len(u) for u in entry_groups], dtype=np.int64)
    per_moment = np.repeat(per_entry, [len(a) for a in entry_ats])
    first = np.cumsum(per_entry) - per_entry  # the entry's first in used
    base = np.repeat(first, [len(a) for a in entry_ats])
    base -= np.cumsum(per_moment) - per_moment  # less the moment's first cell
    at = np.repeat(ats, per_moment)
    group = used[np.repeat(base, per_moment) + np.arange(len(at))]
    moments = _distinct(ats)
    sizes = np.array([len(members) for _, members in groups], dtype=np.int64)
    cell_size = sizes[group]
    offset = np.zeros(len(at) + 1, dtype=np.int64)
    np.cumsum(cell_size, out=offset[1:])
    rows = int(offset[-1])
    # row r is member r - offset[c] of its cell c's group
    members = np.fromiter((node_id[x] for _, group_nodes in groups
                           for x in group_nodes), np.int64)
    first_member = np.cumsum(sizes) - sizes
    node = members[np.repeat(first_member[group] - offset[:-1], cell_size)
                   + np.arange(rows)]
    matrix = index.matrix(nodes, moments, window)
    sg = np.take(matrix, node * len(moments)
                 + np.repeat(moments.searchsorted(at), cell_size))
    c_minor, c_major, wcss, tau = (np.zeros(len(at)) for _ in range(4))
    code, minority = np.zeros(rows, np.int8), np.zeros(rows, bool)
    # the sizes in order; np.unique(cell_size) would import numpy.ma
    for n in np.flatnonzero(np.bincount(cell_size)).tolist():
        picked = np.flatnonzero(cell_size == n)  # the cells of size n
        row = offset[picked][:, None] + np.arange(n)
        (c_minor[picked], c_major[picked], wcss[picked], tau[picked],
         mask, codes) = split_groups(np.take(sg, row), alpha, tau_min)
        code[row], minority[row] = codes, mask
    return SweepResult(at, group, c_minor, c_major, wcss, tau, offset, node,
                       sg, code, minority, groups, nodes, skipped,
                       moments.tolist())


def run_detection(index: SGIndex, assignment, obs_range,
                  cadence: int = DEFAULT_CADENCE,
                  window: int = DEFAULT_WINDOW,
                  alpha: float = DEFAULT_ALPHA,
                  tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Sweep one fixed assignment over every observation moment of the range."""
    moments = observation_moments(obs_range.start, obs_range.end, cadence, window)
    return sweep_schedule(index, [(zip(assignment.group_names,
                                       assignment.groups), moments)],
                          window=window, alpha=alpha, tau_min=tau_min)


def filter_frequent_raw(table: EventTable, rules,
                        percentile: float = DEFAULT_PERCENTILE):
    """Drop the rows whose template count is above the percentile.

    Returns (kept table, dropped templates, sorted).
    """
    template_id, templates = table.templates(rules)
    drop = _above_percentile(template_id, len(templates), percentile)
    return (table.take(~drop[template_id]),
            sorted(templates[i] for i in np.flatnonzero(drop)))


def _above_percentile(ids, n_ids, percentile):
    """Per id: seen more often than the percentile of the seen ids' counts."""
    counts = np.bincount(ids, minlength=n_ids)
    seen = counts > 0
    if not seen.any():
        return seen
    return seen & (counts > _percentile(counts[seen], percentile))


def filter_frequent_anonymized(table: EventTable, rules,
                               percentile: float = DEFAULT_PERCENTILE,
                               cv_threshold: float = CV_THRESHOLD):
    """Drop the rows of keys above the percentile and of near-periodic keys.

    A key is near-periodic when the median over nodes of its per-node
    inter-arrival coefficient of variation is below cv_threshold (nodes with
    fewer than MIN_ARRIVALS occurrences don't vote). The rules key a text
    table; a keyed table's keys are its own. Returns (kept table,
    dropped keys, sorted). The squared deviations are summed in row order,
    so a coefficient can differ from np.std's pairwise sum in its last bits.
    """
    check_nonnegative(cv_threshold=cv_threshold)
    if not len(table):
        return table, []
    key_id, keys = table.keys(rules)
    drop = _above_percentile(key_id, len(keys), percentile)
    # rows sorted by (key, node, time); gap i joins rows i and i + 1 when
    # both are in one (key, node) group
    order = _lexsort((table.ts, table.node, key_id))
    k, n = key_id[order], table.node[order]
    new = np.ones(len(k), dtype=bool)  # row starts a group
    new[1:] = (k[1:] != k[:-1]) | (n[1:] != n[:-1])
    group = np.cumsum(new, dtype=np.int32) - 1
    m = np.bincount(group) - 1  # gaps per group
    voter = m + 1 >= MIN_ARRIVALS
    in_voter = ~new[1:] & voter[group[1:]]
    gaps = np.diff(table.ts[order])[in_voter]
    label = group[1:][in_voter]
    del order, n, group, in_voter  # freed before the float temporaries
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.bincount(label, gaps, len(m)) / m  # exact sums of integers
        dev = gaps - mean[label]
        std = np.sqrt(np.bincount(label, dev * dev, len(m)) / m)
        cv = np.where(mean > 0, std / mean, 0.0)[voter]
    # each key's median as np.median takes it, from its sorted coefficients
    voting = k[new][voter]  # each voter's key, ascending
    cv = cv[np.lexsort((cv, voting))]
    first = np.flatnonzero(np.diff(voting, prepend=-1))
    size = np.diff(first, append=len(voting))
    median = (cv[first + (size - 1) // 2] + cv[first + size // 2]) / 2
    drop[voting[first][median < cv_threshold]] = True
    return (table.take(~drop[key_id]),
            sorted(keys[i] for i in np.flatnonzero(drop)))


def write_verdicts(sweep: SweepResult, path) -> None:
    """One `time group node verdict sg tau` TSV line per node-moment."""
    stamps = {at: iso(at) for at in sweep.moments}
    heads = [f"{stamps[at]}\t{sweep.groups[g][0]}\t" for at, g in
             zip(sweep.at.tolist(), sweep.group.tolist())]
    tails = [f"\t{tau:.3f}\n" for tau in sweep.tau.tolist()]
    cell = np.repeat(np.arange(len(heads)), np.diff(sweep.offset))
    sgs, sg = np.unique(sweep.sg, return_inverse=True)
    with topen(path, "wb") as fh:
        fh.writelines(_gather_rows(
            len(cell), (heads, cell),
            ([f"{n.name}\t" for n in sweep.nodes], sweep.node),
            ([f"{v}\t" for v in VERDICTS], sweep.code),
            (map(str, sgs.tolist()), sg), (tails, cell)))
