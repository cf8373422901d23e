import math
import random

import numpy as np
import pytest

import oracles
from logvicinity.anonymize import AnonymizedEntry
from logvicinity.detect import (GroupTooSmall, SGIndex, detect_abnormal,
                                deviation_threshold,
                                filter_frequent_anonymized,
                                filter_frequent_raw, kmeans_1d_2,
                                observation_moments, run_detection)
from logvicinity.model import LogEntry, NodeId, ObservationRange
from logvicinity.vicinity import VicinityAssignment
from logvicinity.anonymize import SubstitutionRuleSet

N = [NodeId(1, 0, p) for p in range(8)]


def _entries(spec):
    """spec: {node: [timestamps]} -> sorted LogEntry list."""
    out = [LogEntry(int(t), node, "t", f"event {i}")
           for node, ts in spec.items() for i, t in enumerate(ts)]
    out.sort(key=lambda e: e.timestamp)
    return out


def test_sg_window_is_half_open():
    idx = SGIndex(_entries({N[0]: [100, 1899, 1900, 3699, 3700]}))
    # [at-window, at): 1900 not yet seen at 1900, 100 aged out at 1901
    assert idx.count(N[0], 1900, window=1800) == 2
    assert idx.count(N[0], 1901, window=1800) == 2
    assert idx.count(N[0], 3700, window=1800) == 2
    assert idx.count(N[0], 3701, window=1800) == 2
    assert idx.count(N[1], 1900, window=1800) == 0


def test_sg_counts_match_brute_force():
    rng = random.Random(31)
    spec = {n: sorted(rng.randrange(0, 50000) for _ in range(rng.randrange(0, 120)))
            for n in N}
    entries = _entries(spec)
    idx = SGIndex(entries)
    for _ in range(2000):
        node = rng.choice(N)
        at = rng.randrange(0, 52000)
        window = rng.choice((600, 1800, 3600))
        assert idx.count(node, at, window) == oracles.brute_window_count(
            entries, node, at, window)


def test_last_entry_before():
    idx = SGIndex(_entries({N[0]: [100, 200, 300]}))
    assert idx.last_entry_before(N[0], 250) == 200
    assert idx.last_entry_before(N[0], 200) == 100
    assert idx.last_entry_before(N[0], 100) is None
    assert idx.last_entry_before(N[1], 100) is None


def test_kmeans_matches_exhaustive_split():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 12)
        values = [rng.randrange(0, 200) for _ in range(n)]
        assign, centers, wcss = kmeans_1d_2(values)
        want_wcss, want_centers, lo_idx = oracles.naive_two_means(values)
        assert math.isclose(wcss, want_wcss, rel_tol=1e-9, abs_tol=1e-9)
        if len(set(values)) > 1:
            assert {i for i, a in enumerate(assign) if a == 0} == lo_idx
            assert centers == pytest.approx(want_centers)


def test_kmeans_separates_outlier():
    assign, (c_lo, c_hi), wcss = kmeans_1d_2([50, 52, 49, 51, 200])
    assert assign == [0, 0, 0, 0, 1]
    assert c_lo == pytest.approx(50.5)
    assert c_hi == 200.0
    assert wcss == pytest.approx(5.0)


def test_kmeans_balanced_pairs():
    assign, centers, wcss = kmeans_1d_2([0, 1, 9, 10])
    assert assign == [0, 0, 1, 1]
    assert centers == pytest.approx((0.5, 9.5))
    assert wcss == pytest.approx(1.0)


def test_kmeans_degenerate_and_tiny():
    assign, centers, wcss = kmeans_1d_2([7, 7, 7])
    assert assign == [0, 0, 0] and wcss == 0.0 and centers == (7.0, 7.0)
    assign, centers, wcss = kmeans_1d_2([4])
    assert assign == [0] and wcss == 0.0
    with pytest.raises(ValueError):
        kmeans_1d_2([])


def _obs(values):
    return {N[i]: v for i, v in enumerate(values)}


def test_threshold_formula():
    rep = deviation_threshold(_obs([50, 52, 49, 51, 200]), alpha=5.0, tau_min=5.0)
    assert rep.tau == pytest.approx(5.0 * math.sqrt(5.0 / 5))
    # wide residual spread lifts tau above the floor
    rep = deviation_threshold(_obs([0, 20, 40]), alpha=5.0, tau_min=5.0)
    assert rep.tau == pytest.approx(5.0 * math.sqrt(200.0 / 3))
    # floor kicks in when the spread is small
    rep = deviation_threshold(_obs([10, 10, 10]), alpha=5.0, tau_min=5.0)
    assert rep.tau == 5.0 and rep.minority == frozenset()


def test_threshold_minority_is_smaller_cluster():
    rep = deviation_threshold(_obs([50, 52, 49, 51, 200]))
    assert rep.minority == frozenset({N[4]})
    assert rep.c_major == pytest.approx(50.5)
    rep = deviation_threshold(_obs([3, 50, 52, 49]))
    assert rep.minority == frozenset({N[0]})
    assert rep.c_major == pytest.approx((50 + 52 + 49) / 3)


def test_threshold_tie_prefers_lower_cluster():
    rep = deviation_threshold(_obs([1, 1, 9, 9]))
    assert rep.minority == frozenset({N[0], N[1]})
    assert rep.c_minor == 1.0 and rep.c_major == 9.0


def test_threshold_group_too_small():
    with pytest.raises(GroupTooSmall):
        deviation_threshold(_obs([5, 6]))


def test_zero_sg_beats_abnormal():
    sgs = _obs([0, 12, 12, 12])
    rep = deviation_threshold(sgs)
    res = detect_abnormal(sgs, rep)
    assert res.verdicts[N[0]] == "non_responsive"
    assert all(res.verdicts[n] == "normal" for n in (N[1], N[2], N[3]))


def test_abnormal_needs_minority_and_margin():
    sgs = _obs([3, 50, 52, 49, 51])
    rep = deviation_threshold(sgs)
    res = detect_abnormal(sgs, rep)
    assert res.verdicts[N[0]] == "abnormal"
    # minority member inside the margin stays normal
    sgs = _obs([10, 11, 11, 11])
    res = detect_abnormal(sgs, deviation_threshold(sgs))
    assert res.verdicts[N[0]] == "normal"


def test_all_zero_group_is_all_non_responsive():
    sgs = _obs([0, 0, 0])
    res = detect_abnormal(sgs, deviation_threshold(sgs))
    assert set(res.verdicts.values()) == {"non_responsive"}


def test_observation_moments():
    assert observation_moments(0, 7200, cadence=600, window=1800) == list(
        range(1800, 7201, 600))
    assert observation_moments(0, 1799, cadence=600, window=1800) == []


def test_run_detection_counts_and_skips():
    big = frozenset(N[:4])
    small = frozenset(N[6:8])
    asg = VicinityAssignment("combined", [big, small], ["big", "small"])
    spec = {n: list(range(0, 7201, 60)) for n in N[:4]}
    spec.update({n: [10] for n in N[6:8]})
    idx = SGIndex(_entries(spec))
    sweep = run_detection(idx, asg, ObservationRange(0, 7200))
    assert sweep.skipped_groups == [("small", 2)]
    assert len(sweep.moments) == 10
    assert len(sweep.results) == 10  # one usable group per moment
    assert all(r.group == "big" for r in sweep.results)
    with pytest.raises(ValueError):
        run_detection(idx, asg, ObservationRange(0, 7200), cadence=0)


def test_percentile_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(200):
        xs = [rng.randrange(0, 1000) for _ in range(rng.randrange(1, 40))]
        for q in (50.0, 90.0, 99.5, 100.0):
            assert float(np.percentile(xs, q)) == pytest.approx(
                oracles.naive_percentile(xs, q))


def test_filter_raw_drops_top_template():
    rules = SubstitutionRuleSet()
    entries = []
    t = 0
    for _ in range(1000):
        entries.append(LogEntry(t, N[0], "c", "very chatty heartbeat"))
        t += 1
    for i in range(10):
        for msg in ("alpha event", "beta event", "gamma event"):
            entries.append(LogEntry(t, N[0], "c", msg))
            t += 1
    kept, dropped = filter_frequent_raw(entries, rules)
    assert dropped == ["very chatty heartbeat"]
    assert len(kept) == 30
    assert all(e.message != "very chatty heartbeat" for e in kept)


def test_filter_raw_keeps_everything_when_flat():
    rules = SubstitutionRuleSet()
    entries = [LogEntry(i, N[0], "c", "unique marker " + "x" * (i + 1))
               for i in range(20)]
    kept, dropped = filter_frequent_raw(entries, rules)
    # every template count equals the cut; strictly-above never holds
    assert dropped == []
    assert len(kept) == 20


def _anon(key, node, times):
    return [AnonymizedEntry(int(t), node, key) for t in times]


def test_filter_anonymized_drops_periodic_key():
    rng = random.Random(17)
    entries = []
    for node in N[:3]:
        entries += _anon("aaaa0001", node, range(0, 6000, 600))  # exact period
        jitter_ts, t = [], 0.0
        while t < 6000:
            jitter_ts.append(t)
            t += rng.uniform(100, 1100)
        entries += _anon("bbbb0002", node, jitter_ts)
    entries.sort(key=lambda e: e.timestamp)
    kept, dropped = filter_frequent_anonymized(entries, percentile=100.0)
    assert dropped == ["aaaa0001"]
    assert {e.key for e in kept} == {"bbbb0002"}


def test_filter_anonymized_min_arrivals_gate():
    # perfectly periodic but too few occurrences per node to vote
    entries = []
    for node in N[:3]:
        entries += _anon("cccc0003", node, [0, 600, 1200, 1800])
    kept, dropped = filter_frequent_anonymized(entries, percentile=100.0)
    assert dropped == []
    assert len(kept) == len(entries)
