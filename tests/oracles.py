"""Independent reference implementations used to pin expected values.

Deliberately naive: plain loops, no shared code with the package internals,
except that the line-level parser (parse_syslog_line, which reference_parse
applies line by line) checks a date, a time of day and a tag with the
table parser's own helpers.
columnar_sweep builds a sweep from hand-written cells, and sweep_cells
reads a sweep's cells back from its columns; reference_generate
reuses synth's schedule planners and rebuilds only the per-node streams.
The reference writers format one row at a time with datetime.
"""

import calendar
import gzip
import math
import random
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from logvicinity.detect import VERDICTS, SweepResult
from logvicinity.model import (_month_day, _resolve_fn, _split_tag,
                               format_bsd_time, seconds_of_day)
from logvicinity.names import (NodeId, SyslogParseError, UnknownNodeError,
                               to_epoch)


def naive_two_means(values):
    """Best 2-means of 1-D data by trying every sorted split position.

    Returns (wcss, (lo_center, hi_center), lo_indices) computed with direct
    mean/sum-of-squares loops. Split k=n means a single cluster.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    xs = [values[i] for i in order]
    n = len(xs)

    def sse(part):
        if not part:
            return 0.0
        mean = sum(part) / len(part)
        return sum((x - mean) ** 2 for x in part)

    best = None
    for k in range(1, n + 1):
        lo, hi = xs[:k], xs[k:]
        w = sse(lo) + sse(hi)
        if best is None or w < best[0] - 1e-12:
            lo_mean = sum(lo) / len(lo)
            hi_mean = sum(hi) / len(hi) if hi else lo_mean
            best = (w, (lo_mean, hi_mean), frozenset(order[:k]))
    return best


def kmeans_1d_2(values):
    """Optimal 1-D 2-means: the best split of the sorted values.

    Returns (assign, (c_lo, c_hi), wcss) where assign[i] is 0 for the lower
    cluster. All-equal input degenerates to a single lower cluster with
    wcss 0. The optimum over sorted splits is the global 2-means optimum in
    one dimension, and it is deterministic. This scalar form is the
    reference for detect.split_groups, which repeats its floating-point
    operations in the same order.
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


def scalar_threshold(values, alpha, tau_min):
    """kmeans_1d_2 and the threshold rule for one group's SGs: returns
    (c_minor, c_major, wcss, tau, minority positions). The smaller cluster
    is the minority, the lower one on a tie; all-equal values have none."""
    assign, (c_lo, c_hi), wcss = kmeans_1d_2(values)
    n, n_hi = len(values), sum(assign)
    tau = max(tau_min, alpha * math.sqrt(wcss / n))
    if n_hi == 0:
        return c_lo, c_hi, wcss, tau, set()
    if n - n_hi < n_hi or (n - n_hi == n_hi and c_lo <= c_hi):
        return c_lo, c_hi, wcss, tau, {i for i in range(n) if not assign[i]}
    return c_hi, c_lo, wcss, tau, {i for i in range(n) if assign[i]}


def naive_verdicts(sgs, alpha, tau_min):
    """Verdict per SG of one group, from naive_two_means and the paper's rule.

    A zero SG is non_responsive; a member of the smaller cluster (the lower
    one on a tie) farther than tau from the other centre is abnormal.
    """
    n = len(sgs)
    wcss, (lo_center, hi_center), lo_idx = naive_two_means(sgs)
    tau = max(tau_min, alpha * math.sqrt(wcss / n))
    hi_idx = set(range(n)) - lo_idx
    if len(lo_idx) < len(hi_idx) or (len(lo_idx) == len(hi_idx)
                                     and lo_center <= hi_center):
        minority, major = lo_idx, hi_center
    else:
        minority, major = hi_idx, lo_center
    out = []
    for i, sg in enumerate(sgs):
        if sg == 0:
            out.append("non_responsive")
        elif i in minority and abs(sg - major) > tau:
            out.append("abnormal")
        else:
            out.append("normal")
    return out


def brute_window_count(entries, node, at, window):
    """Entries of `node` in [at - window, at), one comparison at a time."""
    total = 0
    for e in entries:
        if e.node == node and at - window <= e.timestamp < at:
            total += 1
    return total


def sweep_cells(sweep):
    """Each cell of a columnar sweep, read from its columns one at a time:
    its at, group name, c_minor, c_major, wcss and tau, the nodes, sg and
    verdict names of its rows, and the set of its minority nodes."""
    for c in range(len(sweep.at)):
        a, b = sweep.offset[c:c + 2].tolist()
        nodes = tuple(sweep.nodes[i] for i in sweep.node[a:b].tolist())
        yield SimpleNamespace(
            at=int(sweep.at[c]), group=sweep.groups[sweep.group[c]][0],
            c_minor=float(sweep.c_minor[c]), c_major=float(sweep.c_major[c]),
            wcss=float(sweep.wcss[c]), tau=float(sweep.tau[c]), nodes=nodes,
            sg=sweep.sg[a:b].tolist(),
            verdict=[VERDICTS[k] for k in sweep.code[a:b].tolist()],
            minority={n for n, m in zip(nodes, sweep.minority[a:b].tolist()) if m})


def reference_extract_events(sweep, table, cadence, max_gap_moments):
    """Events of a sweep by the plain per-node loop over its cells.

    Per node, its distinct (moment, verdict) flags in order form runs
    split where consecutive flags lie more than (max_gap_moments + 1)
    cadences apart. A run with a non_responsive flag is anchored at the
    node's last entry before its last such moment, any other run at its
    last entry at or before its first moment, each the largest of the
    node's timestamps in the EventTable below the probe; unanchorable runs
    drop.
    Returns (node, anchor, first, last, silent) tuples ordered by
    (anchor, node), runs of one node in time order.
    """
    flagged = {}
    for res in sweep_cells(sweep):
        for node, verdict in zip(res.nodes, res.verdict):
            if verdict != "normal":
                flagged.setdefault(node, []).append((res.at, verdict))

    times = {}
    for node, ts in zip(table.node.tolist(), table.ts.tolist()):
        times.setdefault(table.nodes[node], []).append(ts)
    span = (max_gap_moments + 1) * cadence
    events = []
    for node in sorted(flagged):
        moments = sorted(set(flagged[node]))
        runs, run = [], [moments[0]]
        for item in moments[1:]:
            if item[0] - run[-1][0] > span:
                runs.append(run)
                run = [item]
            else:
                run.append(item)
        runs.append(run)
        for run in runs:
            zeros = [at for at, v in run if v == "non_responsive"]
            probe = zeros[-1] if zeros else run[0][0] + 1
            anchor = max((t for t in times.get(node, ()) if t < probe),
                         default=None)
            if anchor is None:
                continue
            events.append((node, anchor, run[0][0], run[-1][0], bool(zeros)))
    events.sort(key=lambda e: (e[1], e[0]))
    return events


def reference_verdict_lines(sweep):
    """The verdict TSV lines of a sweep, one cell at a time."""
    out = []
    for res in sweep_cells(sweep):
        stamp = datetime.fromtimestamp(res.at, tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")
        for node, verdict, sg in zip(res.nodes, res.verdict, res.sg):
            out.append(f"{stamp}\t{res.group}\t{node.name}\t"
                       f"{verdict}\t{sg}\t{res.tau:.3f}\n")
    return out


def bipartite_max_matching(detections, truth, tolerance):
    """Maximum-cardinality matching via augmenting paths (Hopcroft-free)."""
    edges = [[j for j, (tn, tt) in enumerate(truth)
              if dn == tn and abs(dt - tt) <= tolerance]
             for dn, dt in detections]
    match_of = [None] * len(truth)

    def augment(i, seen):
        for j in edges[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_of[j] is None or augment(match_of[j], seen):
                match_of[j] = i
                return True
        return False

    return sum(1 for i in range(len(detections)) if augment(i, set()))


def naive_percentile(values, q):
    """Linear-interpolation percentile (inclusive), independently coded."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (q / 100.0) * (len(xs) - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(xs):
        return float(xs[-1])
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def chain_by_transitive_closure(instants, interval):
    """Group instants whose pairwise chain spacing is <= interval.

    Quadratic repeated merging; returns sorted tuples of instants.
    """
    groups = [[t] for t in sorted(instants)]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if any(abs(a - b) <= interval
                       for a in groups[i] for b in groups[j]):
                    groups[i] = sorted(groups[i] + groups[j])
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    return sorted(tuple(g) for g in groups)


def reference_allocation_groups(active):
    """Node-level union-find over the active jobs' node sets: one (name,
    nodes) group per component of two or more nodes, named by the ids of
    the jobs touching it, sorted by name; one-node components are
    dropped."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for job in active:
        nodes = sorted(job.nodes)
        for n in nodes:
            parent.setdefault(n, n)
        for n in nodes[1:]:
            ra, rb = find(nodes[0]), find(n)
            if ra != rb:
                parent[rb] = ra

    components: dict = {}
    for n in parent:
        components.setdefault(find(n), set()).add(n)
    buckets = {}
    for nodes in components.values():
        if len(nodes) < 2:
            continue
        ids = sorted({j.job_id for j in active if j.nodes & nodes})
        buckets["job:" + "+".join(ids)] = frozenset(nodes)
    return sorted(buckets.items())


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One syslog line's entry, the row type of the line-level reference."""
    timestamp: int  # epoch seconds, UTC
    node: NodeId
    tag: str
    message: str


def format_syslog_line(entry: LogEntry) -> str:
    head = f"{format_bsd_time(entry.timestamp)} {entry.node.name}"
    if entry.tag:
        return f"{head} {entry.tag}: {entry.message}"
    return f"{head} {entry.message}"


def day_start(year: int, mon_s: str, day_s: str) -> int:
    """Epoch of midnight UTC opening a BSD month and day in year."""
    month, day = _month_day(mon_s, day_s)
    if day > calendar.monthrange(year, month)[1]:
        raise SyslogParseError(f"no {mon_s} {day} in {year}")
    return to_epoch(year, month, day, 0, 0, 0)


def parse_syslog_line(line: str, default_year: int, node_resolver) -> LogEntry:
    """Parse one BSD syslog line ("MMM dd HH:MM:SS host tag: message").

    The year is taken from default_year; rollover is reference_parse's.
    Sub-second precision is not expected and not kept. A date the year
    does not have, or a time of day outside 00:00:00 to 23:59:59, raises
    SyslogParseError.
    """
    parts = line.rstrip("\n").split(None, 4)
    if len(parts) < 4:
        raise SyslogParseError(f"truncated line: {line!r}")
    try:
        ts = (day_start(default_year, parts[0], parts[1])
              + seconds_of_day(parts[2]))
    except SyslogParseError as exc:
        raise SyslogParseError(f"{exc} in line: {line!r}") from None
    node = _resolve_fn(node_resolver)(parts[3])
    if node is None:
        raise UnknownNodeError(parts[3])
    tag, message = _split_tag(parts[4] if len(parts) > 4 else "")
    return LogEntry(ts, node, tag, message)


def reference_parse(lines, default_year, resolver):
    """Entries of a syslog corpus by the documented per-node rollover rule.

    Each line is parsed alone by parse_syslog_line in its host's current
    year, which starts at default_year. An entry more than 180 days before the
    host's previous entry means the calendar year wrapped: it and the
    host's later entries carry the next year. A Feb 29 the host's year
    lacks is compared as Mar 1; unless that wraps the year, the line is
    an error. Blank and '#' lines are ignored; lines of unknown hosts are
    counted and skipped, unless their date is one no year has or their
    time is invalid. Returns (entries, skipped).
    """
    year_of, last_of, entries, skipped = {}, {}, [], 0
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        month, day, rest = line.split(None, 2)
        host = rest.split()[1]
        if resolver.get(host) is None:
            # 2024 has every day some year has: this raises only on a
            # date no year has or a bad time
            parse_syslog_line(line, 2024, lambda name: name)
            skipped += 1
            continue
        year = year_of.get(host, default_year)
        probe = line
        if (month, day) == ("Feb", "29") and not calendar.isleap(year):
            probe = f"Mar  1 {rest}"
        ts = parse_syslog_line(probe, year, resolver).timestamp
        if host in last_of and last_of[host] - ts > 180 * 86400:
            year_of[host] = year = year + 1
        # raises if the year lacks the date
        entry = parse_syslog_line(line, year, resolver)
        last_of[host] = entry.timestamp
        entries.append(entry)
    return entries, skipped


MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def bsd_timestamp(line, year):
    """Epoch of a BSD line's "Mmm dd HH:MM:SS[.frac]" read in year.

    Raises ValueError when the fields are not a real instant of that year.
    """
    month, day, clock = line.split()[:3]
    hour, minute, second = clock.split(":")
    second, _, fraction = second.partition(".")
    for digits in (day, hour, minute, second):
        if not digits or any(c not in "0123456789" for c in digits):
            raise ValueError(f"not a decimal number: {digits!r}")
    if any(c not in "0123456789" for c in fraction):
        raise ValueError(f"not a fraction: {fraction!r}")
    when = datetime(year, MONTHS.index(month) + 1, int(day), int(hour),
                    int(minute), int(second), tzinfo=timezone.utc)
    return int(when.timestamp())


def naive_key_filter(entries, percentile, cv_threshold, min_arrivals=5):
    """Dropped keys of the anonymized filter, by plain loops.

    A key is dropped when its count is above the (linear) percentile of
    all key counts, or when the median over nodes with at least
    min_arrivals entries of the key of the coefficient of variation of the
    node's inter-arrival gaps is below cv_threshold.
    """
    counts, arrivals = {}, {}
    for e in entries:
        counts[e.key] = counts.get(e.key, 0) + 1
        arrivals.setdefault((e.key, e.node), []).append(e.timestamp)
    cut = naive_percentile(list(counts.values()), percentile)
    dropped = {k for k, c in counts.items() if c > cut}
    cvs = {}
    for (key, _node), ts in arrivals.items():
        if len(ts) < min_arrivals:
            continue
        ts = sorted(ts)
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        mean = sum(gaps) / len(gaps)
        std = math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
        cvs.setdefault(key, []).append(std / mean if mean > 0 else 0.0)
    for key, values in cvs.items():
        values.sort()
        mid = len(values) // 2
        median = (values[mid] if len(values) % 2
                  else (values[mid - 1] + values[mid]) / 2)
        if median < cv_threshold:
            dropped.add(key)
    return sorted(dropped)


def columnar_sweep(cells):
    """A SweepResult from hand-written cells, one row per listed node.

    cells: [(at, group name, {NodeId: verdict})], in result order. A
    non_responsive node gets SG 0 and every other node SG 1; the cluster
    numbers are 0 and the minority is the flagged nodes.
    """
    nodes = sorted({node for _, _, verdicts in cells for node in verdicts})
    groups, node, code = [], [], []
    for at, name, verdicts in cells:
        members = tuple(sorted(verdicts))
        groups.append((name, members))
        node += [nodes.index(n) for n in members]
        code += [VERDICTS.index(verdicts[n]) for n in members]
    code = np.array(code, dtype=np.int8)
    zeros = np.zeros(len(cells))
    offset = np.cumsum([0] + [len(g[1]) for g in groups])
    return SweepResult(
        np.array([c[0] for c in cells], dtype=np.int64),
        np.arange(len(cells)), zeros, zeros, zeros, zeros, offset,
        np.array(node, dtype=np.int64),
        (code != VERDICTS.index("non_responsive")).astype(np.int64), code,
        code != 0, groups, nodes, [], sorted({c[0] for c in cells}))


def _text_writer(path):
    """A UTF-8 text file for writing, gzip-compressed for a .gz path."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "wt", encoding="utf-8", newline="")
    return open(path, "w", encoding="utf-8", newline="")


def reference_write_syslog(table, path):
    """Write a raw table as syslog lines, one formatted row at a time:
    "Mon DD HH:MM:SS host tag: message", the tag and its colon left out
    when the tag is empty."""
    with _text_writer(path) as fh:
        for t, n, m in zip(table.ts.tolist(), table.node.tolist(),
                           table.msg.tolist()):
            dt = datetime.fromtimestamp(t, tz=timezone.utc)
            tag, message = table.tags[m], table.messages[m]
            text = f"{tag}: {message}" if tag else message
            fh.write(f"{MONTHS[dt.month - 1]} {dt.day:2d} "
                     f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} "
                     f"{table.nodes[n].name} {text}\n")


def reference_pars_lite(table, path, rules):
    """Write a table as a pars-lite file, one formatted row at a time: a
    version line, then "YYYY-MM-DDTHH:MM:SSZ\tnode\tkey" per row, the key
    of a raw row being rules.key of its message."""
    with _text_writer(path) as fh:
        fh.write(f"#pars-lite v{rules.version}\n")
        for t, n, m in zip(table.ts.tolist(), table.node.tolist(),
                           table.msg.tolist()):
            dt = datetime.fromtimestamp(t, tz=timezone.utc)
            key = table.messages[m] if table.keyed else rules.key(
                table.messages[m])
            fh.write(f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T"
                     f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z\t"
                     f"{table.nodes[n].name}\t{key}\n")


def reference_read_anonymized(path, parse_iso, parse_node_name):
    """(ts, node, key id, nodes, keys, version) of a pars-lite file, one
    text-mode line at a time.

    Stamps and node names are read by the line-level parse_iso and
    parse_node_name. Ids follow first appearance; two spellings of a node
    share its id. A row with other than 3 tab fields, a bad stamp, a bad
    name or a key other than 8 lowercase hex digits raises ValueError
    naming path:lineno.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    version, ts, node, msg = None, [], [], []
    node_ix, key_ix, stamp_of = {}, {}, {}
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = re.match(r"#pars-lite v(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated "
                                 f"fields, got {len(fields)}")
            stamp, name, key = fields
            try:
                if stamp not in stamp_of:
                    stamp_of[stamp] = parse_iso(stamp)
                n = node_ix.setdefault(parse_node_name(name), len(node_ix))
                if key not in key_ix and (len(key) != 8 or any(
                        c not in "0123456789abcdef" for c in key)):
                    raise ValueError(f"key {key!r} is not 8 lowercase hex "
                                     f"digits")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            ts.append(stamp_of[stamp])
            node.append(n)
            msg.append(key_ix.setdefault(key, len(key_ix)))
    return ts, node, msg, list(node_ix), list(key_ix), version


def reference_poisson_message(rng):
    """A Poisson message's (tag, message), by rng.randrange and rng.randint."""
    kind = rng.randrange(3)
    if kind == 0:
        return ("smartd",
                f"Device temperature changed to {rng.randint(28, 71)} Celsius")
    if kind == 1:
        return ("sshd", "Accepted publickey for operator from port "
                        f"{rng.randint(1024, 65000)}")
    return ("nfs", f"server responded after {rng.randint(2, 900)} ms "
                   "retry delay")


def reference_generate(spec):
    """(EventTable, failures) of synth.generate, built one row at a time.

    The per-node streams walk every lattice tick in Python, drawing each
    offset and jitter with rng.uniform, and apply the cut spans with one
    all() per row. Each Poisson message is rng.expovariate, rng.randrange
    and rng.randint calls. The schedule planners and boot bursts are
    synth's own; ids follow the rows' first appearance.
    """
    from logvicinity.model import EventTable
    from logvicinity.synth import (CHATTER, CRON, DAY, GASP,
                                   HEARTBEAT, POISSON_PER_WINDOW,
                                   SHUTDOWN_LINES, STORM_LENGTH, STORM_PERIOD,
                                   WINDOW, InjectedFailure, _boot_entries,
                                   _plan_failures, _plan_jobs,
                                   _plan_maintenance, _plan_storms,
                                   desk_topology)

    def lattice(rng, start, end, period, jitter):
        ticks = []
        t = start + rng.uniform(0, period)
        while t < end:
            ticks.append(t + rng.uniform(-jitter, jitter))
            t += period
        return [tick for tick in ticks if start <= tick < end]

    def node_stream(node, chatter, failures, maint_windows, storms,
                    resolved_out):
        rng = random.Random(f"{spec.seed}:{node.name}")
        start, end = spec.start, spec.end
        heart = [(t, HEARTBEAT[2], HEARTBEAT[3])
                 for t in lattice(rng, start, end, HEARTBEAT[0], HEARTBEAT[1])]
        other = [(t, CRON[2], CRON[3])
                 for t in lattice(rng, start, end, CRON[0], CRON[1])]
        for period, jitter, tag, msg in chatter:
            other.extend((t, tag, msg)
                         for t in lattice(rng, start, end, period, jitter))
        t = start
        mean_gap = WINDOW / POISSON_PER_WINDOW
        while True:
            t += rng.expovariate(1.0 / mean_gap)
            if t >= end:
                break
            tag, msg = reference_poisson_message(rng)
            other.append((t, tag, msg))
        for storm_start in storms:
            tick = storm_start + rng.uniform(0, STORM_PERIOD)
            while tick < storm_start + STORM_LENGTH:
                other.append((tick, CRON[2], CRON[3]))
                tick += STORM_PERIOD + rng.uniform(-3, 3)

        extra, cut_spans, heart_cut = [], [], []
        for failure in failures:
            if failure.cause == "silent_hang":
                last_tick = max(h[0] for h in heart if h[0] <= failure.nominal)
                t_fail, heart_stop = int(last_tick), last_tick
            else:
                t_fail = failure.nominal
                heart_stop = float(t_fail)
                extra.append((float(t_fail), GASP[0], GASP[1]))
            has_reboot = failure.cause != "no_reboot"
            resume = t_fail + failure.downtime if has_reboot else end + DAY
            cut_spans.append((t_fail - failure.quiet, resume))
            heart_cut.append((heart_stop, resume))
            if has_reboot:
                extra.extend(_boot_entries(rng, resume))
            resolved_out.append(InjectedFailure(node, t_fail, has_reboot,
                                                failure.cause))
        for window in maint_windows:
            cutoff = window.start + rng.uniform(60, 300)
            resume = window.end - rng.uniform(600, 1200)
            for offset, (tag, msg) in enumerate(SHUTDOWN_LINES):
                extra.append((cutoff + 5 + 10 * offset, tag, msg))
            cut_spans.append((cutoff, resume))
            heart_cut.append((cutoff, resume))
            extra.extend(_boot_entries(rng, resume))

        merged = [it for it in other
                  if all(not (a < it[0] < b) for a, b in cut_spans)]
        merged.extend(it for it in heart
                      if all(not (a < it[0] < b) for a, b in heart_cut))
        merged.extend(extra)
        return [(int(t), tag, msg) for t, tag, msg in merged if start <= t < end]

    topology = spec.topology or desk_topology()
    rng = random.Random(f"{spec.seed}:schedule")
    maint = _plan_maintenance(spec, topology)
    planned = _plan_failures(spec, topology, maint, rng)
    storms = _plan_storms(spec, topology, planned, maint, rng)
    _plan_jobs(spec, topology, planned, maint, rng)

    failures, msg_ix, rows = [], {}, []
    for n, node in enumerate(topology.nodes):
        for t, tag, msg in node_stream(
                node, CHATTER[topology.architecture_of[node]],
                planned.get(node, []),
                [w for w in maint if w.scope.covers(node)],
                storms.get(node, []), failures):
            rows.append((t, n, tag, msg_ix.setdefault((tag, msg), len(msg_ix))))
    rows.sort(key=lambda r: r[:3])  # stable: ties keep stream order
    failures.sort(key=lambda f: (f.outage_time, f.node))
    table = EventTable(np.array([r[0] for r in rows], np.int64),
                       np.array([r[1] for r in rows], np.int32),
                       np.array([r[3] for r in rows], np.int32),
                       list(topology.nodes), [m for _, m in msg_ix],
                       [tag for tag, _ in msg_ix])
    return table, failures
