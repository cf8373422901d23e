"""SG counting, 2-cluster thresholding, verdict sweeps, and frequency filters."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .model import EventTable, _gather_rows, _percentile
from .names import (CV_THRESHOLD, DEFAULT_ALPHA, DEFAULT_CADENCE,
                    DEFAULT_PERCENTILE, DEFAULT_TAU_MIN, DEFAULT_WINDOW,
                    iso, topen)

MIN_GROUP_SIZE = 3

_SPAN = 1 << 40  # seconds of timestamps SGIndex can sort in one key

VERDICTS = ("normal", "abnormal", "non_responsive")
VERDICT_NAMES = np.array(VERDICTS, dtype=object)  # verdict code -> name


class SGIndex:
    """Per-node sorted timestamp index answering half-open window counts."""

    def __init__(self, table: EventTable):
        # one int64 key per row, the node id above the seconds since the
        # earliest row: sorting the keys in place groups rows by node with
        # ascending times, and masking the node off leaves those times
        t0 = int(table.ts.min()) if len(table) else 0
        if len(table) and int(table.ts.max()) - t0 >= _SPAN:
            raise ValueError("timestamps span more than 2**40 seconds")
        key = table.node.astype(np.int64)
        key <<= 40
        key += table.ts
        key -= t0
        key.sort()
        key &= _SPAN - 1
        key += t0
        counts = np.bincount(table.node, minlength=len(table.nodes))
        bounds = [0, *np.cumsum(counts).tolist()]
        self.times = {node: key[a:b] for node, a, b in
                      zip(table.nodes, bounds, bounds[1:]) if a < b}

    def count(self, node, at: int, window: int = DEFAULT_WINDOW) -> int:
        ts = self.times.get(node)
        if ts is None:
            return 0
        # [at - window, at): the entry at `at` itself is not yet observed
        return int(ts.searchsorted(at) - ts.searchsorted(at - window))

    def last_entry_before(self, node, t: int):
        """Timestamp of the node's last entry strictly before t, or None."""
        ts = self.times.get(node)
        if ts is None:
            return None
        idx = int(ts.searchsorted(t))
        return int(ts[idx - 1]) if idx else None

    def matrix(self, nodes, moments, window: int = DEFAULT_WINDOW):
        """SG matrix: row r holds the counts of nodes[r] at every moment."""
        at = np.asarray(moments, dtype=np.int64)
        out = np.zeros((len(nodes), len(at)), dtype=np.int64)
        for row, node in enumerate(nodes):
            ts = self.times.get(node)
            if ts is not None:
                out[row] = ts.searchsorted(at) - ts.searchsorted(at - window)
        return out


def kmeans_1d_2(values):
    """Optimal 1-D 2-means: the best split of the sorted values.

    Returns (assign, (c_lo, c_hi), wcss) where assign[i] is 0 for the lower
    cluster. All-equal input degenerates to a single lower cluster with
    wcss 0. The optimum over sorted splits is the global 2-means optimum in
    one dimension, and it is deterministic. This scalar form is the
    reference for split_groups, which the detector runs.
    """
    n = len(values)
    if n < 1:
        raise ValueError("kmeans_1d_2 needs at least one value")
    order = sorted(range(n), key=lambda i: values[i])
    xs = [float(values[i]) for i in order]
    if xs[0] == xs[-1]:
        return [0] * n, (xs[0], xs[0]), 0.0

    prefix = [0.0]
    prefix_sq = [0.0]
    for x in xs:
        prefix.append(prefix[-1] + x)
        prefix_sq.append(prefix_sq[-1] + x * x)

    def sse(i, j):  # over xs[i:j]
        if j <= i:
            return 0.0
        s = prefix[j] - prefix[i]
        s2 = prefix_sq[j] - prefix_sq[i]
        return max(s2 - s * s / (j - i), 0.0)

    best_k, best_wcss = 1, math.inf
    for k in range(1, n):
        w = sse(0, k) + sse(k, n)
        if w < best_wcss - 1e-12:
            best_k, best_wcss = k, w
    c_lo = (prefix[best_k] - prefix[0]) / best_k
    c_hi = (prefix[n] - prefix[best_k]) / (n - best_k)
    assign = [0] * n
    for pos in range(best_k, n):
        assign[order[pos]] = 1
    return assign, (c_lo, c_hi), best_wcss


def split_groups(sg, alpha: float = DEFAULT_ALPHA,
                 tau_min: float = DEFAULT_TAU_MIN):
    """Split every row of an SG matrix (cells x n, n >= 2) into two clusters.

    Row by row this is kmeans_1d_2 followed by the threshold rule, with the
    same floating-point operations in the same order, so each cell's
    numbers equal the scalar ones exactly. Returns per-cell arrays
    (c_minor, c_major, wcss, tau) and per-node arrays (minority mask,
    verdict codes into VERDICTS), all in the row's own node order.
    """
    cells, n = sg.shape
    order = np.argsort(sg, axis=1, kind="stable")
    xs = np.take_along_axis(sg, order, axis=1).astype(np.float64)
    zero = np.zeros((cells, 1))
    prefix = np.hstack([zero, np.cumsum(xs, axis=1)])
    prefix_sq = np.hstack([zero, np.cumsum(xs * xs, axis=1)])

    # sse(0, k) + sse(k, n) for every split k = 1..n-1, as in kmeans_1d_2
    k = np.arange(1, n)
    s = prefix[:, 1:n] - prefix[:, :1]
    s2 = prefix_sq[:, 1:n] - prefix_sq[:, :1]
    w = np.maximum(s2 - s * s / k, 0.0)
    s = prefix[:, n:] - prefix[:, 1:n]
    s2 = prefix_sq[:, n:] - prefix_sq[:, 1:n]
    w = w + np.maximum(s2 - s * s / (n - k), 0.0)
    best = np.full(cells, math.inf)
    best_k = np.ones(cells, dtype=np.int64)
    for j in range(n - 1):
        better = w[:, j] < best - 1e-12
        best[better] = w[better, j]
        best_k[better] = j + 1

    # all-equal rows: one lower cluster, wcss 0, no minority
    flat = xs[:, 0] == xs[:, -1]
    at_k = np.take_along_axis(prefix, best_k[:, None], axis=1)[:, 0]
    c_lo = (at_k - prefix[:, 0]) / best_k
    c_hi = np.where(flat, c_lo, (prefix[:, n] - at_k) / (n - best_k))
    wcss = np.where(flat, 0.0, best)
    n_hi = np.where(flat, 0, n - best_k)
    n_lo = n - n_hi
    tau = np.maximum(tau_min, alpha * np.sqrt(wcss / n))
    lower_minor = (n_lo < n_hi) | ((n_lo == n_hi) & (c_lo <= c_hi))
    c_minor = np.where(lower_minor, c_lo, c_hi)
    c_major = np.where(lower_minor, c_hi, c_lo)

    upper = np.arange(n) >= best_k[:, None]  # in sorted order
    sorted_minority = (upper != lower_minor[:, None]) & ~flat[:, None]
    minority = np.empty_like(sorted_minority)
    np.put_along_axis(minority, order, sorted_minority, axis=1)
    # a zero SG is non_responsive, a minority member farther than tau from
    # the majority centre abnormal
    far = minority & (np.abs(sg - c_major[:, None]) > tau[:, None])
    return (c_minor, c_major, wcss, tau, minority,
            np.where(sg == 0, 2, far.astype(np.int64)))


@dataclass(frozen=True)
class ThresholdReport:
    c_minor: float
    c_major: float
    wcss: float
    tau: float
    minority: frozenset  # NodeIds in the smaller cluster (empty when degenerate)


@dataclass(frozen=True)
class DetectionResult:
    at: int
    group: str
    nodes: tuple  # the group's NodeIds, sorted; shared by its moments
    sg: list  # SG per node, in `nodes` order
    verdict: list  # verdict per node, in `nodes` order
    threshold: ThresholdReport

    @property
    def verdicts(self) -> dict:
        """NodeId -> verdict."""
        return dict(zip(self.nodes, self.verdict))

    @property
    def sgs(self) -> dict:
        """NodeId -> SG."""
        return dict(zip(self.nodes, self.sg))


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
    def results(self) -> CellViews:
        """The cells as a read-only sequence of DetectionResult views."""
        return CellViews(self)


class CellViews(Sequence):
    """A sweep's cells, each read as a DetectionResult built on access."""

    def __init__(self, sweep: SweepResult):
        self._sweep = sweep

    def __len__(self) -> int:
        return len(self._sweep.at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        s = self._sweep
        a, b = s.offset[i:i + 2].tolist()
        name, nodes = s.groups[s.group[i]]
        minority = frozenset(compress(nodes, s.minority[a:b].tolist()))
        report = ThresholdReport(float(s.c_minor[i]), float(s.c_major[i]),
                                 float(s.wcss[i]), float(s.tau[i]), minority)
        return DetectionResult(int(s.at[i]), name, nodes, s.sg[a:b].tolist(),
                               VERDICT_NAMES[s.code[a:b]].tolist(), report)


def observation_moments(start: int, end: int,
                        cadence: int = DEFAULT_CADENCE,
                        window: int = DEFAULT_WINDOW) -> list:
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
    skipped, seen, moments = [], set(), set()
    groups: dict = {}  # (name, frozenset of nodes) -> its index
    # per schedule entry; an empty first piece keeps np.concatenate valid
    cell_at, cell_group = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for named, ats in schedule:
        usable = []
        for name, group in named:
            if len(group) >= MIN_GROUP_SIZE:
                usable.append(groups.setdefault((name, frozenset(group)),
                                                len(groups)))
            elif name not in seen:
                seen.add(name)
                skipped.append((name, len(group)))
        moments.update(ats)
        ats = np.asarray(ats, dtype=np.int64)
        cell_at.append(np.repeat(ats, len(usable)))
        cell_group.append(np.tile(np.asarray(usable, dtype=np.int64),
                                  len(ats)))
    moments = sorted(moments)
    groups = [(name, tuple(sorted(group))) for name, group in groups]
    nodes = sorted({node for _, members in groups for node in members})
    node_id = {node: i for i, node in enumerate(nodes)}
    at, group = np.concatenate(cell_at), np.concatenate(cell_group)
    sizes = np.array([len(members) for _, members in groups], dtype=np.int64)
    cell_size = sizes[group]
    offset = np.zeros(len(at) + 1, dtype=np.int64)
    np.cumsum(cell_size, out=offset[1:])
    c_minor, c_major, wcss, tau = (np.zeros(len(at)) for _ in range(4))
    rows = int(offset[-1])
    node, sg = np.zeros(rows, np.int64), np.zeros(rows, np.int64)
    code, minority = np.zeros(rows, np.int8), np.zeros(rows, bool)

    matrix = index.matrix(nodes, moments, window)
    column = np.searchsorted(np.asarray(moments, dtype=np.int64), at)
    slot = np.zeros(len(groups), dtype=np.int64)  # group -> row of its table
    # the sizes in order; np.unique(cell_size) would import numpy.ma
    for n in np.flatnonzero(np.bincount(cell_size)).tolist():
        sized = np.flatnonzero(sizes == n)
        slot[sized] = np.arange(len(sized))
        table = np.array([[node_id[x] for x in groups[g][1]]
                          for g in sized.tolist()], dtype=np.int64)
        picked = np.flatnonzero(cell_size == n)  # the cells of size n
        ids = table[slot[group[picked]]]
        counts = matrix[ids, column[picked][:, None]]
        (c_minor[picked], c_major[picked], wcss[picked], tau[picked],
         mask, codes) = split_groups(counts, alpha, tau_min)
        row = offset[picked][:, None] + np.arange(n)
        node[row], sg[row], code[row], minority[row] = ids, counts, codes, mask
    return SweepResult(at, group, c_minor, c_major, wcss, tau, offset, node,
                       sg, code, minority, groups, nodes, skipped, moments)


def run_detection(index: SGIndex, assignment, obs_range,
                  cadence: int = DEFAULT_CADENCE,
                  window: int = DEFAULT_WINDOW,
                  alpha: float = DEFAULT_ALPHA,
                  tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Sweep one fixed assignment over every observation moment of the range."""
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    moments = observation_moments(obs_range.start, obs_range.end, cadence, window)
    return sweep_schedule(index, [(zip(assignment.group_names,
                                       assignment.groups), moments)],
                          window=window, alpha=alpha, tau_min=tau_min)


def filter_frequent_raw(table: EventTable, rules,
                        percentile: float = DEFAULT_PERCENTILE):
    """Drop the rows whose template count is above the percentile.

    Returns (kept table, dropped templates, sorted).
    """
    if table.keyed:
        raise ValueError("a keyed table has no message text to template")
    index: dict = {}
    of_msg = np.array([index.setdefault(rules.template(m), len(index))
                       for m in table.messages], dtype=np.int64)
    template_id = of_msg[table.msg]
    drop = _above_percentile(template_id, len(index), percentile)
    names = list(index)
    return (table.take(~drop[template_id]),
            sorted(names[i] for i in np.flatnonzero(drop)))


def _above_percentile(ids, n_ids, percentile):
    """Per id: seen more often than the percentile of the seen ids' counts."""
    counts = np.bincount(ids, minlength=n_ids)
    seen = counts > 0
    if not seen.any():
        return seen
    return seen & (counts > _percentile(counts[seen], percentile))


def filter_frequent_anonymized(table: EventTable,
                               percentile: float = DEFAULT_PERCENTILE,
                               cv_threshold: float = CV_THRESHOLD,
                               min_arrivals: int = 5):
    """Drop the rows of keys above the percentile and of near-periodic keys.

    A key is near-periodic when the median over nodes of its per-node
    inter-arrival coefficient of variation is below cv_threshold (nodes with
    fewer than min_arrivals occurrences don't vote). Returns (kept table,
    dropped keys, sorted). The squared deviations are summed in row order,
    so a coefficient can differ from np.std's pairwise sum in its last bits.
    """
    if not table.keyed:
        raise ValueError("key the table (EventTable.keyed_by) before "
                         "filtering its keys")
    if not len(table):
        return table, []
    key_id, keys = table.keys(None)
    drop = _above_percentile(key_id, len(keys), percentile)
    # rows sorted by (key, node, time); gap i joins rows i and i + 1 when
    # both are in one (key, node) group
    order = np.lexsort((table.ts, table.node, key_id))
    k, n = key_id[order], table.node[order]
    new = np.ones(len(k), dtype=bool)  # row starts a group
    new[1:] = (k[1:] != k[:-1]) | (n[1:] != n[:-1])
    group = np.cumsum(new, dtype=np.int32) - 1
    m = np.bincount(group) - 1  # gaps per group
    voter = m + 1 >= min_arrivals
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
