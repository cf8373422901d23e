import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logvicinity
from logvicinity import synth
from logvicinity.datasources import load_job_report, load_maintenance, load_outage_db
from logvicinity.evaluate import CAUSES, load_truth
from logvicinity.model import (NodeId, Topology, load_topology,
                               parse_syslog_table, to_epoch, topen)
from logvicinity.synth import (CHATTER, CRON, FOOTPRINT_LINES, GASP,
                               GeneratorSpec, HEARTBEAT, POISSON_PER_WINDOW,
                               SHUTDOWN_LINES, WINDOW, _poisson,
                               _poisson_key, _time_order, _uniforms,
                               desk_topology, generate, scale_topology,
                               taurus_topology, write_corpus_files)
from tables import rows_of

HOUR = 3600


def test_desk_topology_shape():
    topo = desk_topology()
    assert len(topo) == 64
    assert Counter(topo.architecture_of.values()) == {
        "Haswell": 36, "SandyBridge": 16, "GPU": 12}


def _rows(table):
    """(timestamp, node name, tag, message) columns, row by row."""
    node, msg = table.node.tolist(), table.msg.tolist()
    return (table.ts.tolist(), [table.nodes[n].name for n in node],
            [table.tags[m] for m in msg], [table.messages[m] for m in msg])


def _node_entries(table, node):
    """A node's rows as LogEntry objects, in time order."""
    return rows_of(table.take(table.node == table.nodes.index(node)))


def test_same_seed_reproduces_exactly(corpus):
    again = generate(GeneratorSpec())
    assert _rows(again.entries) == _rows(corpus.entries)
    assert again.truth.failures == corpus.truth.failures
    assert again.truth.jobs == corpus.truth.jobs
    assert again.truth.storms == corpus.truth.storms


def test_different_seed_differs(corpus):
    other = generate(GeneratorSpec(seed=8))
    assert _rows(other.entries) != _rows(corpus.entries)
    assert other.truth.failures != corpus.truth.failures


def test_failure_plan_shape(corpus):
    failures = corpus.truth.failures
    spec = corpus.spec
    assert len(failures) == spec.failure_count
    by_node = {}
    for f in failures:
        assert f.cause in CAUSES
        # silent hangs may pin up to one heartbeat period earlier than planned
        assert spec.start + 6 * HOUR - 700 <= f.outage_time <= spec.end - 2 * HOUR
        by_node.setdefault(f.node, []).append(f.outage_time)
    for times in by_node.values():
        times.sort()
        assert all(b - a >= 4.5 * HOUR for a, b in zip(times, times[1:]))
    # no_reboot failures are always the node's last
    for f in failures:
        if f.cause == "no_reboot":
            assert f.outage_time == max(by_node[f.node])
            assert not f.has_reboot
        else:
            assert f.has_reboot


def test_failure_skew(corpus):
    counts = {}
    for f in corpus.truth.failures:
        counts[f.node] = counts.get(f.node, 0) + 1
    assert len(counts) <= 16  # bounded failing roster
    top3 = sum(sorted(counts.values(), reverse=True)[:3])
    assert top3 >= 0.6 * len(corpus.truth.failures)


def test_temporal_clustering(corpus):
    times = sorted(f.outage_time for f in corpus.truth.failures)
    clustered = sum(1 for i, t in enumerate(times)
                    if (i > 0 and t - times[i - 1] <= 600)
                    or (i + 1 < len(times) and times[i + 1] - t <= 600))
    assert clustered >= 6


def test_last_entry_is_the_outage_instant(corpus):
    for f in corpus.truth.failures:
        entries = _node_entries(corpus.entries, f.node)
        at = [e for e in entries if e.timestamp == f.outage_time]
        assert at, f"{f.node.name}: nothing logged at the outage instant"
        if f.cause == "silent_hang":
            assert any(e.message == HEARTBEAT[3] for e in at)
        else:
            assert any(e.message == GASP[1] for e in at)
        after = [e for e in entries if e.timestamp > f.outage_time]
        inside = [e for e in after if e.timestamp < f.outage_time + 2699]
        assert inside == [], f"{f.node.name}: entries inside the dead window"
        if f.has_reboot:
            assert after and after[0].message == FOOTPRINT_LINES[0][1]
            assert after[0].timestamp <= f.outage_time + 5400 + 1
        else:
            assert after == []


def test_every_failure_has_corroborating_evidence(corpus):
    jobs = corpus.truth.jobs
    odb = corpus.truth.outage_records
    for f in corpus.truth.failures:
        near_job = any(f.node in j.nodes and j.status == "node_fail"
                       and abs(j.end - f.outage_time) <= 600 for j in jobs)
        in_db = any(r.covers(f.node, f.outage_time) for r in odb)
        assert near_job or in_db, f"{f.node.name} @ {f.outage_time}"


def test_completed_jobs_avoid_member_failures(corpus):
    failures = {}
    for f in corpus.truth.failures:
        failures.setdefault(f.node, []).append(f.outage_time)
    for job in corpus.truth.jobs:
        if job.status != "completed":
            continue
        for node in job.nodes:
            for t in failures.get(node, ()):
                assert not (job.start - 200 <= t <= job.end + 200)


def test_storm_plan(corpus):
    storms = corpus.truth.storms
    assert len(storms) == corpus.spec.storm_count
    failing = {f.node for f in corpus.truth.failures}
    per_node = {}
    for node, t in storms:
        assert node not in failing
        per_node.setdefault(node, []).append(t)
    for times in per_node.values():
        times.sort()
        assert all(b - a >= 2 * HOUR for a, b in zip(times, times[1:]))


def test_maintenance_windows_have_shutdown_and_boot(corpus):
    windows = corpus.truth.maintenance
    assert len(windows) == 2
    for w in windows:
        covered = [n for n in corpus.topology.nodes if w.scope.covers(n)]
        assert covered
        for node in covered:
            inside = [e for e in _node_entries(corpus.entries, node)
                      if w.start <= e.timestamp <= w.end]
            msgs = [e.message for e in inside]
            for _tag, text in SHUTDOWN_LINES:
                assert text in msgs
            assert FOOTPRINT_LINES[0][1] in msgs  # node comes back inside


def _rate_per_hour(arch):
    """Entries per hour of a class's node: one per period of each
    lattice and POISSON_PER_WINDOW Poisson messages per WINDOW."""
    periods = [s[0] for s in (CRON, HEARTBEAT, *CHATTER[arch])]
    return (sum(HOUR / p for p in periods)
            + POISSON_PER_WINDOW * HOUR / WINDOW)


def test_per_class_rates(corpus):
    failing = {f.node for f in corpus.truth.failures}
    table = corpus.entries
    counts = dict(zip(table.nodes, np.bincount(
        table.node, minlength=len(table.nodes)).tolist()))
    hours = corpus.spec.days * 24
    for arch in ("Haswell", "SandyBridge", "GPU"):
        rates = [counts[n] / hours for n in corpus.topology.nodes
                 if corpus.topology.architecture_of[n] == arch
                 and n not in failing]
        med = statistics.median(rates)
        assert med == pytest.approx(_rate_per_hour(arch), rel=0.25)
    meds = {arch: statistics.median(
        counts[n] / hours for n in corpus.topology.nodes
        if corpus.topology.architecture_of[n] == arch and n not in failing)
        for arch in ("Haswell", "SandyBridge", "GPU")}
    assert meds["GPU"] > meds["SandyBridge"] > meds["Haswell"]


def test_corpus_files_roundtrip(tmp_path):
    gen = generate(GeneratorSpec(days=2.0, failure_count=8, storm_count=10,
                                 background_jobs=30, seed=3))
    paths = write_corpus_files(gen, tmp_path, compress=True)
    assert paths["corpus"].endswith(".gz")

    topo = load_topology(paths["topology"])
    assert topo.nodes == gen.topology.nodes
    assert topo.architecture_of == gen.topology.architecture_of

    with topen(paths["corpus"], "rb") as fh:
        table, stats = parse_syslog_table(fh, 2023, topo.resolver())
    assert stats.skipped_unknown == 0
    assert _rows(table) == _rows(gen.entries)

    assert load_job_report(paths["jobs"]) == gen.truth.jobs
    assert load_outage_db(paths["outage_db"]) == gen.truth.outage_records
    assert load_maintenance(paths["maintenance"]) == gen.truth.maintenance
    assert load_truth(paths["truth"]) == gen.truth.failures


def test_scale_topology_identity_and_shrink():
    taurus = taurus_topology()
    assert scale_topology(taurus, 1.0).nodes == taurus.nodes
    small = scale_topology(taurus, 1 / 32)
    assert len(small) == round(len(taurus) / 32)
    quotas = {arch: count / 32 for arch, count in
              Counter(taurus.architecture_of.values()).items()}
    for arch, got in Counter(small.architecture_of.values()).items():
        assert abs(got - quotas[arch]) <= 1.0
    tiny = scale_topology(taurus, 0.0001)
    assert len(tiny) == 1
    with pytest.raises(ValueError):
        scale_topology(taurus, 0)
    with pytest.raises(ValueError):
        scale_topology(taurus, 1.5)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 400), min_size=1, max_size=6),
       st.floats(0, 1, exclude_min=True))
def test_scale_topology_apportions_the_total_across_classes(sizes, factor):
    nodes = [NodeId(1, c, p) for c, size in enumerate(sizes)
             for p in range(size)]
    topology = Topology(nodes, {n: f"class{n.rack}" for n in nodes})
    small = scale_topology(topology, factor)
    assert len(small.nodes) == max(1, round(len(nodes) * factor))
    assert small.architecture_of == {n: topology.architecture_of[n]
                                     for n in small.nodes}
    kept = Counter(n.rack for n in small.nodes)
    for c, size in enumerate(sizes):
        assert kept[c] <= size
        assert abs(kept[c] - size * factor) <= 1


def test_spec_validation():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(days=0.5))  # no room for any failure


REFERENCE_SPECS = {
    "3.5 days": dict(days=3.5, failure_count=20),
    "seed 1": dict(days=2.0, seed=1, failure_count=6, skew_share=0.0),
    "seed 2": dict(days=2.0, seed=2, failure_count=6, skew_share=0.0),
    "seed 3": dict(days=2.0, seed=3, failure_count=6, skew_share=0.0),
    "taurus x0.25": dict(topology=scale_topology(taurus_topology(), 0.25),
                         days=0.5, failure_count=2, skew_share=0.0),
    "new year": dict(start=to_epoch(2022, 12, 31, 12, 0, 0), days=1.0,
                     failure_count=3, skew_share=0.0),
    "no maintenance": dict(days=2.0, failure_count=6, maintenance=False),
    "many storms": dict(days=2.0, failure_count=6, storm_count=200),
}


def _assert_equals_reference(gen):
    table, failures = oracles.reference_generate(gen.spec)
    got = gen.entries
    np.testing.assert_array_equal(got.ts, table.ts)
    np.testing.assert_array_equal(got.node, table.node)
    np.testing.assert_array_equal(got.msg, table.msg)
    assert got.messages == table.messages
    assert got.tags == table.tags
    assert gen.truth.failures == failures


def test_default_corpus_equals_the_per_row_reference(corpus):
    _assert_equals_reference(corpus)


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_generate_equals_the_per_row_reference(name):
    _assert_equals_reference(generate(GeneratorSpec(**REFERENCE_SPECS[name])))


@pytest.mark.parametrize("seed", ["7:n000", "3:schedule", "11:n1r2p3"])
def test_block_draws_equal_random(seed):
    """_uniforms(rng, n) gives the next n random() values and their state.

    Corpora rest on this: a Python whose getrandbits word order or random()
    formula differs fails here instead of generating other corpora.
    """
    rng, again = random.Random(seed), random.Random(seed)
    for n in (0, 1, 2, 3, 1000):
        assert _uniforms(rng, n).tolist() == [again.random() for _ in range(n)]
        assert rng.getstate() == again.getstate()
    assert rng.random() == again.random()


@pytest.mark.parametrize("seed", ["7:i1r0n0", "3:i3r0n11", "11:x"])
@pytest.mark.parametrize("days", [0.0, 0.01, 0.5, 7.0])
def test_poisson_draws_equal_the_stdlib_calls(seed, days):
    """_poisson gives the messages and times of rng.expovariate,
    rng.randrange(3) and rng.randint, and leaves rng where they do.

    A Python whose expovariate or randrange draws differ fails here instead
    of generating other corpora.
    """
    start = to_epoch(2023, 3, 6, 0, 0, 0)
    end = start + int(days * 86400)
    rng, again = random.Random(seed), random.Random(seed)
    times, codes = _poisson(rng, start, end)
    want_times, want_keys = [], []
    t = start
    while True:
        t += again.expovariate(1.0 / (WINDOW / POISSON_PER_WINDOW))
        if t >= end:
            break
        want_times.append(t)
        want_keys.append(oracles.reference_poisson_message(again))
    assert times.tolist() == want_times
    assert [_poisson_key(code) for code in codes.tolist()] == want_keys
    assert rng.getstate() == again.getstate()


def _lexsorted(ts, counts, rank):
    """_time_order's result by the stable np.lexsort."""
    node = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    order = np.lexsort((rank, node, ts))
    return ts[order], node[order], order


def test_packed_key_sorts_as_the_stable_lexsort():
    rng = random.Random(5)
    counts = np.array([rng.randrange(40) for _ in range(9)] + [0, 1])
    rows = int(counts.sum())
    # six seconds and three ranks: most rows tie with another
    ts = np.array([1_678_060_800 + rng.randrange(6) for _ in range(rows)])
    rank = np.array([rng.randrange(3) for _ in range(rows)], np.int32)
    want = _lexsorted(ts, counts, rank)
    got = _time_order(ts.copy(), counts, rank)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_packed_key_sorts_tied_storm_and_cron_rows(monkeypatch):
    """In "many storms" storm and lattice cron lines share seconds."""
    seen = []

    def spy(ts, counts, rank):
        seen.append((_lexsorted(ts, counts, rank), rank))
        got = _time_order(ts, counts, rank)
        seen.append(got)
        return got

    monkeypatch.setattr(synth, "_time_order", spy)
    generate(GeneratorSpec(**REFERENCE_SPECS["many storms"]))
    ((ts, node, row), rank), got = seen
    # rows equal in time, node and tag: only their order within the node
    # tells them apart
    tied = (np.diff(ts) == 0) & (np.diff(node) == 0) & (np.diff(rank[row]) == 0)
    assert tied.any()
    for g, w in zip(got, (ts, node, row)):
        np.testing.assert_array_equal(g, w)


def test_packed_key_fails_past_63_bits():
    # a 62-bit span and two nodes fill the 63 bits: the rows still sort
    ts, node, row = _time_order(np.array([2**61, 0]), np.array([1, 1]),
                                np.zeros(2, np.int32))
    assert ts.tolist() == [0, 2**61]
    assert node.tolist() == [1, 0] and row.tolist() == [1, 0]
    # a third node needs a 64th bit
    with pytest.raises(ValueError, match="64 bits .* past the limit of 63"):
        _time_order(np.array([2**61, 0, 5]), np.array([1, 1, 1]),
                    np.zeros(3, np.int32))


def test_generate_does_not_import_numpy_random():
    code = ("import sys\n"
            "from logvicinity.synth import GeneratorSpec, generate\n"
            "generate(GeneratorSpec(days=1.0, failure_count=3, skew_share=0.0))\n"
            "print('numpy.random' in sys.modules)\n")
    src = str(Path(logvicinity.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
