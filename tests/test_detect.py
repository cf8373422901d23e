import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from logvicinity import detect
from logvicinity.anonymize import SubstitutionRuleSet
from logvicinity.detect import (MIN_GROUP_SIZE, VERDICTS, SGIndex,
                                filter_frequent_anonymized,
                                filter_frequent_raw, observation_moments,
                                run_detection, split_groups, sweep_schedule)
from logvicinity.model import NodeId, ObservationRange, _lexsort, _percentile
from logvicinity.vicinity import VicinityAssignment
from oracles import LogEntry
from tables import Keyed, rows_of, table_of

N = [NodeId(1, 0, p) for p in range(8)]


def _entries(spec):
    """spec: {node: [timestamps]} -> LogEntry rows in time order."""
    out = [LogEntry(int(t), node, "t", f"event {i}")
           for node, ts in spec.items() for i, t in enumerate(ts)]
    out.sort(key=lambda e: e.timestamp)
    return out


def test_sg_window_is_half_open():
    idx = SGIndex(table_of(_entries({N[0]: [100, 1899, 1900, 3699, 3700]})))
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
    idx = SGIndex(table_of(entries))
    for _ in range(2000):
        node = rng.choice(N)
        at = rng.randrange(0, 52000)
        window = rng.choice((600, 1800, 3600))
        assert idx.count(node, at, window) == oracles.brute_window_count(
            entries, node, at, window)


def test_sg_matrix_equals_the_counts_over_a_sequence_of_calls():
    rng = random.Random(17)
    spec = {n: sorted(rng.randrange(0, 80000) for _ in range(rng.randrange(1, 150)))
            for n in N[:6]}
    idx = SGIndex(table_of(_entries(spec)))
    absent = NodeId(9, 9, 9)
    moments = list(range(10000, 50000, 600))
    shuffled = rng.sample(moments, len(moments))
    calls = [  # (nodes, moments, window), cadence 600
        (N[:6], moments, 900),  # the first table
        (N[:6], moments, 1800),  # a multiple of the cadence: a union
        ([N[5], absent, N[2]], moments, 1000),  # a subset, an absent node
        (N[:6], shuffled, 900),  # unsorted moments: a hit
        (N[:6], [10000, 30250, 49600], 900),  # new edges between kept ones
        (N[:6], list(range(19600, 55600, 600)), 900),  # partly kept
        (N[:6], list(range(500000, 520000, 600)), 3600),  # disjoint
        (N[:6], moments, 900),  # the first range again
    ]
    seen = []
    for nodes, at, window in calls:
        kept = idx._edges
        sg = idx.matrix(nodes, at, window)
        assert sg.dtype == np.int64
        assert sg.tolist() == [[idx.count(n, t, window) for t in at]
                               for n in nodes]
        # a miss keeps the union of the kept and the new edges unless that
        # more than doubles the new ones, which then replace the table
        edges, union = set(at) | {t - window for t in at}, set(kept.tolist())
        union |= edges
        if len(union) == len(kept):
            seen.append("hit")
            assert idx._edges is kept
        elif len(union) <= 2 * len(edges):
            seen.append("union")
            assert idx._edges.tolist() == sorted(union)
        else:
            seen.append("replaced")
            assert idx._edges.tolist() == sorted(edges)
    assert seen == ["union", "union", "union", "hit", "replaced", "union",
                    "replaced", "union"]
    assert len(idx.matrix([], moments, 900)) == 0
    assert idx.matrix(N[:2], [], 900).shape == (2, 0)


def test_sg_index_refuses_more_rows_than_its_edge_table_counts():
    class Huge:  # only the length is read before the check
        def __len__(self):
            return 1 << 31

    with pytest.raises(ValueError, match=r"fewer than 2\*\*31 rows"):
        SGIndex(Huge())

    class Wide:  # node ids share an int64 key with 40 bits of time
        nodes = range(1 << 22)

        def __len__(self):
            return 0

    with pytest.raises(ValueError, match=r"fewer than 2\*\*22 nodes"):
        SGIndex(Wide())


def test_last_entry_before():
    idx = SGIndex(table_of(_entries({N[0]: [100, 200, 300]})))
    anchors, found = idx.last_entry_before([N[0], N[0], N[0], N[1]],
                                           [250, 200, 100, 100])
    assert anchors.tolist() == [200, 100, 0, 0]
    assert found.tolist() == [True, True, False, False]
    anchors, found = SGIndex(table_of([])).last_entry_before([N[0]], [5])
    assert (anchors.tolist(), found.tolist()) == ([0], [False])


def test_counts_and_anchors_hold_far_outside_the_indexed_span():
    # a time 2**40 s or more from the earliest row, unclipped, would read
    # rows of the node below or above in the packed key
    rng = random.Random(5)
    t0, span = 1 << 41, 1 << 40
    spec = {n: sorted(t0 + rng.randrange(0, 5000)
                      for _ in range(rng.randrange(1, 40))) for n in N[:4]}
    spec[N[0]][0] = t0
    entries = _entries(spec)
    idx = SGIndex(table_of(entries))
    times = [t0 + s * span + rng.randrange(-6000, 6000)
             for s in (-1, 0, 1) for _ in range(12)]
    for window in (600, span, 2 * span):
        sg = idx.matrix(N[:5], times, window)
        for r, node in enumerate(N[:5]):
            want = [oracles.brute_window_count(entries, node, at, window)
                    for at in times]
            assert [idx.count(node, at, window) for at in times] == want
            assert sg[r].tolist() == want
    nodes = [node for node in N[:5] for _ in times]
    anchors, found = idx.last_entry_before(nodes, times * 5)
    want = [max((t for t in spec.get(node, ()) if t < at), default=None)
            for node, at in zip(nodes, times * 5)]
    assert [a if f else None for a, f in
            zip(anchors.tolist(), found.tolist())] == want


def test_kmeans_matches_exhaustive_split():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 12)
        values = [rng.randrange(0, 200) for _ in range(n)]
        assign, centers, wcss = oracles.kmeans_1d_2(values)
        want_wcss, want_centers, lo_idx = oracles.naive_two_means(values)
        assert math.isclose(wcss, want_wcss, rel_tol=1e-9, abs_tol=1e-9)
        if len(set(values)) > 1:
            assert {i for i, a in enumerate(assign) if a == 0} == lo_idx
            assert centers == pytest.approx(want_centers)


def test_kmeans_separates_outlier():
    assign, (c_lo, c_hi), wcss = oracles.kmeans_1d_2([50, 52, 49, 51, 200])
    assert assign == [0, 0, 0, 0, 1]
    assert c_lo == pytest.approx(50.5)
    assert c_hi == 200.0
    assert wcss == pytest.approx(5.0)


def test_kmeans_balanced_pairs():
    assign, centers, wcss = oracles.kmeans_1d_2([0, 1, 9, 10])
    assert assign == [0, 0, 1, 1]
    assert centers == pytest.approx((0.5, 9.5))
    assert wcss == pytest.approx(1.0)


def test_kmeans_degenerate_and_tiny():
    assign, centers, wcss = oracles.kmeans_1d_2([7, 7, 7])
    assert assign == [0, 0, 0] and wcss == 0.0 and centers == (7.0, 7.0)
    assign, centers, wcss = oracles.kmeans_1d_2([4])
    assert assign == [0] and wcss == 0.0
    with pytest.raises(ValueError):
        oracles.kmeans_1d_2([])


def _sg_matrix(rng, n, rows=40):
    """Random integer SG rows of width n: ties, outliers, flat and zero rows."""
    out = [[0] * n, [7] * n, [0] * (n - 1) + [3]]
    while len(out) < rows:
        kind = rng.random()
        if kind < 0.3:
            row = [rng.randrange(0, 4) for _ in range(n)]
        elif kind < 0.6:
            row = [rng.randrange(0, 400) for _ in range(n)]
        else:
            base = rng.randrange(0, 80)
            row = [base + rng.randrange(0, 3) for _ in range(n)]
            for i in rng.sample(range(n), rng.randrange(1, n)):
                row[i] = rng.randrange(0, 300) if rng.random() < 0.3 else 0
        out.append(row)
    return np.array(out, dtype=np.int64)


def _assert_split_matches_scalar(sg, alpha=5.0, tau_min=5.0):
    """Every row of split_groups(sg) equals kmeans_1d_2 plus the threshold
    rule exactly, and the naive references within rounding."""
    n = sg.shape[1]
    c_minor, c_major, wcss, tau, minority, codes = split_groups(
        sg, alpha, tau_min)
    for i, row in enumerate(sg.tolist()):
        want = oracles.scalar_threshold(row, alpha, tau_min)
        assign, (c_lo, c_hi), _ = oracles.kmeans_1d_2(row)
        naive_wcss, naive_centers, lo_idx = oracles.naive_two_means(row)
        assert (c_minor[i], c_major[i], wcss[i], tau[i]) == want[:4]
        assert set(np.flatnonzero(minority[i]).tolist()) == want[4]
        assert math.isclose(wcss[i], naive_wcss, rel_tol=1e-9, abs_tol=1e-9)
        if want[4]:  # the naive split is the same, lower cluster first
            assert {j for j in range(n) if not assign[j]} == lo_idx
            assert (c_lo, c_hi) == pytest.approx(naive_centers)
        else:  # all equal: no minority, both centres the value
            assert want[0] == want[1] == row[0]
        assert [VERDICTS[c] for c in codes[i]] == oracles.naive_verdicts(
            row, alpha, tau_min)


def test_split_groups_matches_scalar_and_naive_references():
    rng = random.Random(41)
    for n in range(3, 31):
        _assert_split_matches_scalar(_sg_matrix(rng, n))


# Sorted rows whose two best splits cost the same in exact arithmetic but
# differ by a few ulps in floating point, the lower cost at the later
# split: the first minimum is not the scalar scan's split.
NEAR_TIES = ([0, 1, 1, 2], [1, 2, 2, 3], [1, 1, 2, 3, 3], [2, 2, 4, 6, 6],
             [3, 3, 4, 5, 5], [3, 3, 5, 7, 7])


def test_split_groups_takes_the_scan_on_near_ties(monkeypatch):
    for row in NEAR_TIES:  # the premise: the scan keeps an earlier split
        assign, _, _ = oracles.kmeans_1d_2(row)
        assert assign.count(0) < int(np.argmin(_costs(row))) + 1
    scanned, scan = [], detect._first_best
    monkeypatch.setattr(detect, "_first_best",
                        lambda costs: scanned.append(costs) or scan(costs))
    rng = random.Random(5)
    for n in (4, 5):
        rows = [row for row in NEAR_TIES if len(row) == n]
        # each near tie in a few column orders, between ordinary rows
        sg = np.array([rng.sample(row, n) for row in rows for _ in range(3)]
                      + _sg_matrix(rng, n, rows=6).tolist())
        _assert_split_matches_scalar(sg)
    assert len(scanned) >= 3 * len(NEAR_TIES)


def _costs(row):
    """kmeans_1d_2's cost of every split of the sorted row."""
    xs = sorted(float(x) for x in row)
    prefix, prefix_sq = [0.0], [0.0]
    for x in xs:
        prefix.append(prefix[-1] + x)
        prefix_sq.append(prefix_sq[-1] + x * x)

    def sse(i, j):
        s, s2 = prefix[j] - prefix[i], prefix_sq[j] - prefix_sq[i]
        return max(s2 - s * s / (j - i), 0.0)

    return [sse(0, k) + sse(k, len(xs)) for k in range(1, len(xs))]


@pytest.mark.parametrize("sg", [[[3, -1, 4]], [[3.0, 1.0, 4.0]],
                                [[True, False, True]], [[3], [4]],
                                [[1 << 61, 0, 1]]])
def test_split_groups_rejects_anything_but_counts(sg):
    with pytest.raises(ValueError):
        split_groups(np.array(sg))


def _split(sgs, alpha=5.0, tau_min=5.0):
    """One group's row through split_groups, checked against the naive
    two-means and verdict rule; returns the row's numbers by name."""
    c_minor, c_major, wcss, tau, minority, codes = split_groups(
        np.array([sgs]), alpha, tau_min)
    want_wcss, _, _ = oracles.naive_two_means(sgs)
    assert math.isclose(wcss[0], want_wcss, rel_tol=1e-9, abs_tol=1e-9)
    verdicts = [VERDICTS[c] for c in codes[0]]
    assert verdicts == oracles.naive_verdicts(sgs, alpha, tau_min)
    return SimpleNamespace(c_minor=c_minor[0], c_major=c_major[0],
                           tau=tau[0], verdicts=verdicts,
                           minority=set(np.flatnonzero(minority[0]).tolist()))


def test_threshold_formula():
    rep = _split([50, 52, 49, 51, 200], alpha=5.0, tau_min=5.0)
    assert rep.tau == pytest.approx(5.0 * math.sqrt(5.0 / 5))
    # wide residual spread lifts tau above the floor
    rep = _split([0, 20, 40], alpha=5.0, tau_min=5.0)
    assert rep.tau == pytest.approx(5.0 * math.sqrt(200.0 / 3))
    # floor kicks in when the spread is small
    rep = _split([10, 10, 10], alpha=5.0, tau_min=5.0)
    assert rep.tau == 5.0 and rep.minority == set()


def test_threshold_minority_is_smaller_cluster():
    rep = _split([50, 52, 49, 51, 200])
    assert rep.minority == {4}
    assert rep.c_major == pytest.approx(50.5)
    rep = _split([3, 50, 52, 49])
    assert rep.minority == {0}
    assert rep.c_major == pytest.approx((50 + 52 + 49) / 3)


def test_threshold_tie_prefers_lower_cluster():
    rep = _split([1, 1, 9, 9])
    assert rep.minority == {0, 1}
    assert rep.c_minor == 1.0 and rep.c_major == 9.0


def test_threshold_group_too_small():
    # a group below MIN_GROUP_SIZE is never split: the sweep skips it
    pair = frozenset(N[:MIN_GROUP_SIZE - 1])
    idx = SGIndex(table_of(_entries({n: [100, 200] for n in pair})))
    sweep = run_detection(idx, VicinityAssignment([pair], ["pair"]),
                          ObservationRange(0, 3600))
    assert sweep.skipped_groups == [("pair", 2)]
    assert len(sweep.at) == 0 and len(sweep.moments) == 4


def test_zero_sg_beats_abnormal():
    res = _split([0, 12, 12, 12])
    assert res.verdicts == ["non_responsive", "normal", "normal", "normal"]


def test_abnormal_needs_minority_and_margin():
    res = _split([3, 50, 52, 49, 51])
    assert res.verdicts[0] == "abnormal"
    # minority member inside the margin stays normal
    res = _split([10, 11, 11, 11])
    assert res.minority == {0} and res.verdicts[0] == "normal"


def test_all_zero_group_is_all_non_responsive():
    res = _split([0, 0, 0])
    assert set(res.verdicts) == {"non_responsive"}


def test_observation_moments():
    assert observation_moments(0, 7200, cadence=600, window=1800) == list(
        range(1800, 7201, 600))
    assert observation_moments(0, 1799, cadence=600, window=1800) == []


def test_run_detection_counts_and_skips():
    big = frozenset(N[:4])
    small = frozenset(N[6:8])
    asg = VicinityAssignment([big, small], ["big", "small"])
    spec = {n: list(range(0, 7201, 60)) for n in N[:4]}
    spec.update({n: [10] for n in N[6:8]})
    idx = SGIndex(table_of(_entries(spec)))
    sweep = run_detection(idx, asg, ObservationRange(0, 7200))
    assert sweep.skipped_groups == [("small", 2)]
    assert len(sweep.moments) == 10
    assert len(sweep.at) == 10  # one usable group per moment
    assert all(r.group == "big" for r in oracles.sweep_cells(sweep))
    with pytest.raises(ValueError):
        run_detection(idx, asg, ObservationRange(0, 7200), cadence=0)


@pytest.mark.parametrize("cadence, window, which", [
    (0, 900, "cadence"), (-600, 900, "cadence"), (600, 0, "window"),
    (600, -600, "window")])
def test_window_and_cadence_must_be_positive(cadence, window, which):
    idx = SGIndex(table_of(_entries({n: [10, 700] for n in N[:4]})))
    asg = VicinityAssignment([frozenset(N[:4])], ["g"])
    with pytest.raises(ValueError, match=f"^{which} must be positive$"):
        observation_moments(0, 7200, cadence, window)
    with pytest.raises(ValueError, match=f"^{which} must be positive$"):
        run_detection(idx, asg, ObservationRange(0, 7200), cadence, window)
    if which == "window":  # the path of every schedule, moments or none
        with pytest.raises(ValueError, match="^window must be positive$"):
            sweep_schedule(idx, [], window)


def test_percentile_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(200):
        xs = [rng.randrange(0, 1000) for _ in range(rng.randrange(1, 40))]
        for values in (np.array(xs), np.array([x * rng.random() for x in xs])):
            for q in (0.0, 50.0, 90.0, 99.5, 100.0, rng.uniform(0, 100)):
                assert _percentile(values, q) == float(np.percentile(values, q))
                assert _percentile(values, q) == pytest.approx(
                    oracles.naive_percentile(values.tolist(), q))
    for q in (-1.0, 100.5):
        with pytest.raises(ValueError):
            _percentile(np.arange(3), q)


@st.composite
def _int_columns(draw):
    """One to three integer columns of one length, each of few distinct
    values (ties), small ids to values past 2**32, some negative."""
    n = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        hi = draw(st.sampled_from([0, 3, 200, 70_000, 1 << 40, 1 << 62]))
        lo = draw(st.sampled_from([0, -hi]))
        values = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
        dtype = draw(st.sampled_from([np.int32, np.int64])
                     if hi < 1 << 31 else st.just(np.int64))
        columns.append(np.array(values, dtype))
    return columns


@settings(max_examples=200, deadline=None)
@given(_int_columns())
def test_lexsort_equals_numpy_lexsort(columns):
    assert np.array_equal(_lexsort(columns), np.lexsort(columns))


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
    kept, dropped = filter_frequent_raw(table_of(entries), rules)
    assert dropped == ["very chatty heartbeat"]
    assert len(kept) == 30
    assert all(e.message != "very chatty heartbeat" for e in rows_of(kept))


def test_filter_raw_keeps_everything_when_flat():
    rules = SubstitutionRuleSet()
    entries = [LogEntry(i, N[0], "c", "unique marker " + "x" * (i + 1))
               for i in range(20)]
    kept, dropped = filter_frequent_raw(table_of(entries), rules)
    # every template count equals the cut; strictly-above never holds
    assert dropped == []
    assert len(kept) == 20


def _anon(key, node, times):
    return [Keyed(int(t), node, key) for t in times]


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
    kept, dropped = filter_frequent_anonymized(table_of(entries), None,
                                               percentile=100.0)
    assert dropped == ["aaaa0001"]
    assert {e.key for e in rows_of(kept)} == {"bbbb0002"}


def test_filter_anonymized_min_arrivals_gate():
    # perfectly periodic but too few occurrences per node to vote
    entries = []
    for node in N[:3]:
        entries += _anon("cccc0003", node, [0, 600, 1200, 1800])
    kept, dropped = filter_frequent_anonymized(table_of(entries), None,
                                               percentile=100.0)
    assert dropped == []
    assert len(kept) == len(entries)


def test_filter_anonymized_keys_a_text_table():
    entries = [LogEntry(t, N[0], "cron", "job ran") for t in range(0, 600, 60)]
    rules = SubstitutionRuleSet()
    keyed = table_of(rows_of(table_of(entries), rules))
    kept, dropped = filter_frequent_anonymized(keyed, None, 100.0)
    assert dropped == keyed.messages  # one exactly periodic key
    assert len(kept) == 0
    text_kept, text_dropped = filter_frequent_anonymized(table_of(entries),
                                                         rules, 100.0)
    assert text_dropped == dropped and len(text_kept) == 0
    with pytest.raises(ValueError, match="keyed table has no message text"):
        filter_frequent_raw(keyed, rules)
