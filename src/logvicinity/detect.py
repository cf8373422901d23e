"""SG counting, 2-cluster thresholding, verdict sweeps, and frequency filters."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .model import iso

DEFAULT_WINDOW = 1800  # seconds of log history per observation
DEFAULT_CADENCE = 600  # seconds between observation moments
DEFAULT_ALPHA = 5.0
DEFAULT_TAU_MIN = 5.0
DEFAULT_PERCENTILE = 99.5
CV_THRESHOLD = 0.1
MIN_GROUP_SIZE = 3

VERDICTS = ("normal", "abnormal", "non_responsive")


class GroupTooSmall(ValueError):
    """Vicinity group has fewer than MIN_GROUP_SIZE usable observations."""


class SGIndex:
    """Per-node sorted timestamp index answering half-open window counts."""

    def __init__(self, entries):
        per_node: dict = {}
        for e in entries:
            per_node.setdefault(e.node, []).append(e.timestamp)
        self.times = {}
        for node, ts in per_node.items():
            ts.sort()
            self.times[node] = ts

    def count(self, node, at: int, window: int = DEFAULT_WINDOW) -> int:
        ts = self.times.get(node)
        if not ts:
            return 0
        # [at - window, at): the entry at `at` itself is not yet observed
        return bisect_left(ts, at) - bisect_left(ts, at - window)

    def last_entry_before(self, node, t: int):
        """Timestamp of the node's last entry strictly before t, or None."""
        ts = self.times.get(node)
        if not ts:
            return None
        idx = bisect_left(ts, t)
        return ts[idx - 1] if idx else None


def kmeans_1d_2(values):
    """Optimal 1-D 2-means: the best split of the sorted values.

    Returns (assign, (c_lo, c_hi), wcss) where assign[i] is 0 for the lower
    cluster. All-equal input degenerates to a single lower cluster with
    wcss 0. The optimum over sorted splits is the global 2-means optimum in
    one dimension, and it is deterministic.
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


@dataclass(frozen=True)
class ThresholdReport:
    c_minor: float
    c_major: float
    wcss: float
    tau: float
    members: dict  # NodeId -> cluster index (0 lower, 1 upper)
    minority: frozenset  # NodeIds in the smaller cluster (empty when degenerate)


def deviation_threshold(sgs, alpha: float = DEFAULT_ALPHA,
                        tau_min: float = DEFAULT_TAU_MIN) -> ThresholdReport:
    """Cluster a group's SGs (NodeId -> SG, in sorted node order) into tau."""
    n = len(sgs)
    if n < MIN_GROUP_SIZE:
        raise GroupTooSmall(f"need >= {MIN_GROUP_SIZE} observations, got {n}")
    assign, (c_lo, c_hi), wcss = kmeans_1d_2(list(sgs.values()))
    members = dict(zip(sgs, assign))
    tau = max(tau_min, alpha * math.sqrt(wcss / n))
    n_lo = assign.count(0)
    n_hi = n - n_lo
    if n_hi == 0:  # degenerate: all equal
        return ThresholdReport(c_lo, c_hi, wcss, tau, members, frozenset())
    if n_lo < n_hi or (n_lo == n_hi and c_lo <= c_hi):
        minor_cluster, c_minor, c_major = 0, c_lo, c_hi
    else:
        minor_cluster, c_minor, c_major = 1, c_hi, c_lo
    minority = frozenset(node for node, a in members.items() if a == minor_cluster)
    return ThresholdReport(c_minor, c_major, wcss, tau, members, minority)


@dataclass(frozen=True)
class DetectionResult:
    at: int
    group: str
    verdicts: dict  # NodeId -> verdict
    sgs: dict  # NodeId -> SG
    threshold: ThresholdReport


def detect_abnormal(sgs, report: ThresholdReport, at: int = 0,
                    group: str = "") -> DetectionResult:
    verdicts = {}
    for node, sg in sgs.items():
        if sg == 0:
            verdicts[node] = "non_responsive"
        elif node in report.minority and abs(sg - report.c_major) > report.tau:
            verdicts[node] = "abnormal"
        else:
            verdicts[node] = "normal"
    return DetectionResult(at, group, verdicts, sgs, report)


@dataclass
class SweepResult:
    results: list = field(default_factory=list)
    skipped_groups: list = field(default_factory=list)  # (group, size), once each
    moments: list = field(default_factory=list)


def observation_moments(start: int, end: int,
                        cadence: int = DEFAULT_CADENCE,
                        window: int = DEFAULT_WINDOW) -> list:
    return list(range(start + window, end + 1, cadence))


def sweep_schedule(index: SGIndex, schedule,
                   window: int = DEFAULT_WINDOW,
                   alpha: float = DEFAULT_ALPHA,
                   tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Judge each (assignment, moments) pair's usable groups at its moments.

    Undersized groups go to skipped_groups once per name, in first-seen order.
    """
    sweep = SweepResult()
    seen: set = set()
    moments: set = set()
    for assignment, ats in schedule:
        usable = []
        for name, group in zip(assignment.group_names, assignment.groups):
            if len(group) >= MIN_GROUP_SIZE:
                usable.append((name, sorted(group)))
            elif name not in seen:
                seen.add(name)
                sweep.skipped_groups.append((name, len(group)))
        moments.update(ats)
        for at in ats:
            for name, nodes in usable:
                sgs = {node: index.count(node, at, window) for node in nodes}
                report = deviation_threshold(sgs, alpha=alpha, tau_min=tau_min)
                sweep.results.append(detect_abnormal(sgs, report, at=at, group=name))
    sweep.moments = sorted(moments)
    return sweep


def run_detection(index: SGIndex, assignment, obs_range,
                  cadence: int = DEFAULT_CADENCE,
                  window: int = DEFAULT_WINDOW,
                  alpha: float = DEFAULT_ALPHA,
                  tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Sweep one fixed assignment over every observation moment of the range."""
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    moments = observation_moments(obs_range.start, obs_range.end, cadence, window)
    return sweep_schedule(index, [(assignment, moments)], window=window,
                          alpha=alpha, tau_min=tau_min)


def filter_frequent_raw(entries, rules, percentile: float = DEFAULT_PERCENTILE):
    """Drop entries whose deidentified template count is above the percentile."""
    counts: dict = {}
    for e in entries:
        t = rules.template(e.message)
        counts[t] = counts.get(t, 0) + 1
    if not counts:
        return list(entries), []
    cut = float(np.percentile(list(counts.values()), percentile))
    dropped = sorted(t for t, c in counts.items() if c > cut)
    dropped_set = set(dropped)
    kept = [e for e in entries if rules.template(e.message) not in dropped_set]
    return kept, dropped


def filter_frequent_anonymized(entries, percentile: float = DEFAULT_PERCENTILE,
                               cv_threshold: float = CV_THRESHOLD,
                               min_arrivals: int = 5):
    """Percentile rule on hash keys plus removal of near-periodic keys.

    A key is near-periodic when the median over nodes of its per-node
    inter-arrival coefficient of variation is below cv_threshold (nodes with
    fewer than min_arrivals occurrences don't vote).
    """
    counts: dict = {}
    arrivals: dict = {}
    for e in entries:
        counts[e.key] = counts.get(e.key, 0) + 1
        arrivals.setdefault((e.key, e.node), []).append(e.timestamp)
    if not counts:
        return list(entries), []
    cut = float(np.percentile(list(counts.values()), percentile))
    dropped = {k for k, c in counts.items() if c > cut}

    cvs: dict = {}
    for (key, _node), ts in arrivals.items():
        if len(ts) < min_arrivals:
            continue
        ts = sorted(ts)
        gaps = np.diff(ts)
        mean = float(gaps.mean())
        cv = float(gaps.std() / mean) if mean > 0 else 0.0
        cvs.setdefault(key, []).append(cv)
    for key, node_cvs in cvs.items():
        if float(np.median(node_cvs)) < cv_threshold:
            dropped.add(key)

    kept = [e for e in entries if e.key not in dropped]
    return kept, sorted(dropped)


def write_verdicts(sweep: SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for res in sweep.results:
            for node in sorted(res.verdicts):
                fh.write(f"{iso(res.at)}\t{res.group}\t{node.name}\t"
                         f"{res.verdicts[node]}\t{res.sgs[node]}\t"
                         f"{res.threshold.tau:.3f}\n")

