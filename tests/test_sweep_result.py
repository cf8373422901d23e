"""The columnar sweep, event extraction and the verdict writer, checked
against the per-cell loops in oracles.py."""

import dataclasses
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logvicinity import pipeline
from logvicinity.detect import (SGIndex, observation_moments,
                                sweep_schedule, write_verdicts)
from logvicinity.model import EventTable, NodeId, ObservationRange
from logvicinity.names import iso, parse_iso
from logvicinity.pipeline import extract_events, sweep_perspective
from logvicinity.synth import GeneratorSpec, generate
from logvicinity.vicinity import (combined_vicinity, hardware_vicinity,
                                  location_vicinity, time_of_failure_vicinity)
from oracles import LogEntry
from tables import table_of

CADENCE = 600
COLUMNS = ("at", "group", "c_minor", "c_major", "wcss", "tau", "offset",
           "node", "sg", "code", "minority")  # a sweep's arrays
N = [NodeId(1, 0, p) for p in range(6)]


def _tuples(events):
    return [(e.node, e.outage_time, e.first_flagged, e.last_flagged,
             e.non_responsive) for e in events]


def _table(spec):
    """spec: {node: [timestamps]}."""
    return table_of(LogEntry(t, node, "t", "m")
                    for node, ts in spec.items() for t in ts)


def _chained_failures(corpus, obs_range):
    """Regular failures of four nodes at a time, a few hours apart, so
    that every failure chain is a usable group."""
    nodes = corpus.topology.nodes
    return [SimpleNamespace(node=nodes[(7 * k + j) % len(nodes)],
                            outage_time=obs_range.start + (k + 1) * 10800 + 60 * j,
                            label="regular_failure")
            for k in range(12) for j in range(4)]


def _schedule(perspective, corpus, obs_range, failures, window):
    """(moment, (name, nodes) pairs) per moment, as the sweep should judge
    them."""
    static = {"hardware": hardware_vicinity, "location": location_vicinity,
              "combined": combined_vicinity}
    if perspective == "time_of_failure":
        return [(at, pairs)
                for pairs, (at,) in time_of_failure_vicinity(failures)]
    moments = observation_moments(obs_range.start, obs_range.end, CADENCE,
                                  window)
    if perspective == "allocation":
        return [(at, oracles.reference_allocation_groups(
                    [j for j in corpus.truth.jobs if j.active_at(at)]))
                for at in moments]
    asg = static[perspective](corpus.topology)
    return [(at, list(zip(asg.group_names, asg.groups))) for at in moments]


@pytest.mark.parametrize("perspective", ["combined", "hardware", "location",
                                         "allocation", "time_of_failure"])
def test_sweep_matches_the_per_cell_loops(perspective, corpus, tmp_path):
    """Three windows swept on one index, each against the per-cell loops,
    then again in the reverse order on a new index: the index's kept
    window-edge counts are built, extended and read again."""
    obs_range = ObservationRange(corpus.range.start,
                                 corpus.range.start + 2 * 86400)
    failures = _chained_failures(corpus, obs_range)
    checked = {}
    for windows in ((900, 1800, 3600), (3600, 1800, 900)):
        index = SGIndex(corpus.entries)
        for window in windows:
            sweep = sweep_perspective(index, perspective, corpus.topology,
                                      obs_range, jobs=corpus.truth.jobs,
                                      failures=failures, window=window)
            if window in checked:  # equal to the sweep checked cell by cell
                for column in COLUMNS:
                    assert np.array_equal(getattr(sweep, column),
                                          getattr(checked[window], column))
                continue
            _assert_sweep_is_the_per_cell_loop(
                sweep, corpus.entries, index, window,
                _schedule(perspective, corpus, obs_range, failures, window),
                tmp_path)
            checked[window] = sweep


def _assert_sweep_is_the_per_cell_loop(sweep, table, index, window,
                                       schedule, tmp_path):
    # every cell, in schedule order, equals its group's row split alone,
    # and its verdicts are the naive rule's
    cells = [(at, name, tuple(sorted(group)))
             for at, pairs in schedule
             for name, group in pairs
             if len(group) >= 3]
    got = list(oracles.sweep_cells(sweep))
    assert len(got) == len(cells) > 0
    for res, (at, name, nodes) in zip(got, cells):
        sg = [index.count(n, at, window) for n in nodes]
        c_minor, c_major, wcss, tau, minority = oracles.scalar_threshold(
            sg, 5.0, 5.0)
        assert (res.at, res.group, res.nodes, res.sg) == (at, name, nodes, sg)
        assert res.verdict == oracles.naive_verdicts(sg, 5.0, 5.0)
        assert (res.c_minor, res.c_major, res.wcss, res.tau) == (
            c_minor, c_major, wcss, tau)
        assert res.minority == {nodes[i] for i in minority}

    flagged = sum(v != "normal" for r in got for v in r.verdict)
    assert int((sweep.code != 0).sum()) == flagged > 0
    assert _tuples(extract_events(sweep, index, CADENCE)) == \
        oracles.reference_extract_events(sweep, table, CADENCE, 3)
    path = tmp_path / "verdicts.tsv"
    write_verdicts(sweep, path)
    assert path.read_text().splitlines(keepends=True) == \
        oracles.reference_verdict_lines(sweep)


def test_results_reads_each_cells_verdicts(corpus):
    """sweep.results, the view the benchmark reads: one item per cell,
    whose .verdicts pair the cell's nodes with its verdict names."""
    cells = [(3000, "g", {N[0]: "abnormal", N[1]: "normal"}),
             (3000, "h", {N[2]: "non_responsive", N[3]: "normal"}),
             (3600, "g", {N[0]: "normal", N[1]: "normal"})]
    results = oracles.columnar_sweep(cells).results
    assert len(results) == 3
    assert [r.verdicts for r in results] == [v for _, _, v in cells]
    assert results[-1].verdicts == cells[-1][2]
    with pytest.raises(IndexError):
        results[3]
    assert list(oracles.columnar_sweep([]).results) == []
    sweep = sweep_perspective(SGIndex(corpus.entries), "allocation",
                              corpus.topology, corpus.range,
                              jobs=corpus.truth.jobs, window=900)
    assert len(sweep.results) == len(sweep.at) > 0
    assert [r.verdicts for r in sweep.results] == [
        dict(zip(c.nodes, c.verdict)) for c in oracles.sweep_cells(sweep)]


@pytest.mark.parametrize("perspective", ["combined", "hardware", "location",
                                         "allocation", "time_of_failure"])
def test_a_time_shift_shifts_every_moment_and_event(perspective, corpus):
    """Shift every timestamp, job, failure and the range by k cadences,
    inside one year: every moment and event shifts by as much, and every
    verdict array stays as it is."""
    obs_range = ObservationRange(corpus.range.start,
                                 corpus.range.start + 2 * 86400)
    failures = _chained_failures(corpus, obs_range)
    table = corpus.entries
    runs = {}
    for k in (0, -11, 37):
        d = k * CADENCE
        index = SGIndex(EventTable(table.ts + d, table.node, table.msg,
                                   table.nodes, table.messages, table.tags))
        sweeps = [sweep_perspective(
            index, perspective, corpus.topology,
            ObservationRange(obs_range.start + d, obs_range.end + d),
            jobs=[dataclasses.replace(j, start=j.start + d, end=j.end + d)
                  for j in corpus.truth.jobs],
            failures=[SimpleNamespace(node=f.node, outage_time=f.outage_time + d,
                                      label=f.label) for f in failures],
            window=window) for window in (900, 3600)]
        runs[d] = [(sweep, _tuples(extract_events(sweep, index, CADENCE)))
                   for sweep in sweeps]
    for d, shifted in runs.items():
        for (sweep, events), (base, base_events) in zip(shifted, runs[0]):
            assert sweep.moments == [t + d for t in base.moments]
            assert np.array_equal(sweep.at, base.at + d)
            for column in COLUMNS[1:]:
                assert np.array_equal(getattr(sweep, column),
                                      getattr(base, column)), column
            # a failure chain is named after its first outage
            assert sweep.groups == [
                ("tof:" + iso(parse_iso(name[4:]) + d)
                 if name.startswith("tof:") else name, members)
                for name, members in base.groups]
            assert (sweep.nodes, sweep.skipped_groups) == (
                base.nodes, base.skipped_groups)
            assert events == [(n, t + d, a + d, b + d, s)
                              for n, t, a, b, s in base_events]
    assert any(len(events) for _, events in runs[0])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_job_order_does_not_change_the_allocation_sweep(seed, corpus,
                                                        tmp_path):
    index = SGIndex(corpus.entries)
    shuffled = list(corpus.truth.jobs)
    random.Random(seed).shuffle(shuffled)
    sweeps = [sweep_perspective(index, "allocation", corpus.topology,
                                corpus.range, jobs=jobs, window=900)
              for jobs in (corpus.truth.jobs, shuffled)]
    names = [[s.groups[g][0] for g in s.group.tolist()] for s in sweeps]
    assert names[0] == names[1]
    assert any("+" in name for name in names[0])  # some union merges jobs
    first, second = sweeps
    for column in ("at", "offset", "node", "sg", "code", "minority", "tau"):
        assert np.array_equal(getattr(first, column), getattr(second, column))
    assert first.nodes == second.nodes
    assert first.skipped_groups == second.skipped_groups != []
    for name, sweep in zip("ab", sweeps):
        write_verdicts(sweep, tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("max_gap", [0, 1, 3])
def test_runs_split_one_moment_past_the_gap_limit(max_gap):
    table = _table({N[0]: [100], N[1]: [100]})
    limit = (max_gap + 1) * CADENCE  # max_gap unflagged moments between
    sweep = oracles.columnar_sweep(
        [(3000, "g", {N[0]: "abnormal", N[1]: "abnormal"}),
         (3000 + limit, "g", {N[0]: "abnormal", N[1]: "normal"}),
         (3000 + limit + CADENCE, "g", {N[0]: "normal", N[1]: "abnormal"})])
    with mock.patch.object(pipeline, "MAX_GAP_MOMENTS", max_gap):
        events = extract_events(sweep, SGIndex(table), CADENCE)
    assert _tuples(events) == oracles.reference_extract_events(
        sweep, table, CADENCE, max_gap)
    assert sorted((e.node, e.first_flagged, e.last_flagged)
                  for e in events) == [
        (N[0], 3000, 3000 + limit),
        (N[1], 3000, 3000), (N[1], 3000 + limit + CADENCE,
                             3000 + limit + CADENCE)]


def test_silent_and_unanchorable_runs():
    table = _table({N[0]: [100, 2500, 4000, 9000], N[1]: [100],
                    N[2]: [20000]})
    cells = [(3000, "g", {N[0]: "abnormal", N[1]: "non_responsive",
                          N[2]: "abnormal"}),
             (3600, "g", {N[0]: "non_responsive", N[1]: "abnormal",
                          N[2]: "normal"}),
             # the same moment judged in a second group
             (3600, "h", {N[0]: "abnormal", N[1]: "non_responsive",
                          N[2]: "normal"}),
             (4800, "g", {N[0]: "non_responsive", N[1]: "normal",
                          N[2]: "normal"}),
             (12000, "g", {N[0]: "abnormal", N[1]: "normal",
                           N[2]: "normal"})]
    sweep = oracles.columnar_sweep(cells)
    events = extract_events(sweep, SGIndex(table), CADENCE)
    assert _tuples(events) == oracles.reference_extract_events(
        sweep, table, CADENCE, 3)
    # a run ending silent anchors before its last zero moment; N[2] has
    # no entry before its run, so it has no event
    assert _tuples(events) == [(N[1], 100, 3000, 3600, True),
                               (N[0], 4000, 3000, 4800, True),
                               (N[0], 9000, 12000, 12000, False)]


def test_no_flags_no_events():
    sweep = oracles.columnar_sweep([(3000, "g", {N[0]: "normal"})])
    assert extract_events(sweep, SGIndex(_table({N[0]: [100]})),
                          CADENCE) == []
    assert extract_events(oracles.columnar_sweep([]), SGIndex(_table({})),
                          CADENCE) == []


@st.composite
def flag_patterns(draw):
    """(cells, entries, max_gap): flags on up to four nodes whose gaps
    cluster around the bridging limit, some moments judged twice."""
    max_gap = draw(st.integers(0, 3))
    nodes = N[:draw(st.integers(1, 4))]
    steps = st.sampled_from([0, 1, max_gap, max_gap + 1, max_gap + 2,
                             max_gap + 3])
    flags = {}  # moment -> {node: verdict}
    for node in nodes:
        m = draw(st.integers(0, 3))
        for step in draw(st.lists(steps, max_size=8)):
            m += step
            verdict = draw(st.sampled_from(["abnormal", "non_responsive"]))
            flags.setdefault(m, {})[node] = verdict
    cells = []
    for m in sorted(flags):
        verdicts = {n: flags[m].get(n, "normal") for n in nodes}
        cells.append((1800 + m * CADENCE, "g", verdicts))
        if draw(st.booleans()):
            again = {n: draw(st.sampled_from(["normal", "abnormal",
                                              "non_responsive"]))
                     for n in nodes}
            cells.append((1800 + m * CADENCE, "h", again))
    last = 1800 + (max(flags, default=0) + 2) * CADENCE
    entries = {n: draw(st.lists(st.integers(0, last), max_size=6))
               for n in nodes}
    return cells, entries, max_gap


@settings(max_examples=300, deadline=None)
@given(flag_patterns())
def test_extract_events_equals_the_reference_loop(pattern):
    cells, entries, max_gap = pattern
    sweep, table = oracles.columnar_sweep(cells), _table(entries)
    with mock.patch.object(pipeline, "MAX_GAP_MOMENTS", max_gap):
        events = extract_events(sweep, SGIndex(table), CADENCE)
    assert _tuples(events) == oracles.reference_extract_events(
        sweep, table, CADENCE, max_gap)


def test_a_node_flagged_twice_at_a_moment_is_one_run():
    """Overlapping groups judge a node more than once per moment, so the
    same (node, moment, verdict) is flagged twice; the runs, anchors and
    silences are still the reference's, which counts each flag once."""
    gen = generate(GeneratorSpec(seed=3, days=2, failure_count=8,
                                 storm_count=10, background_jobs=30))
    nodes = gen.topology.nodes
    pairs = [(f"g{k}", frozenset(nodes[k:k + 12]))
             for k in range(0, len(nodes) - 11, 4)]
    moments = observation_moments(gen.range.start, gen.range.end, CADENCE,
                                  1800)
    index = SGIndex(gen.entries)
    sweep = sweep_schedule(index, [(pairs, moments)], window=1800)
    flagged = np.flatnonzero(sweep.code)
    cell = np.searchsorted(sweep.offset, flagged, side="right") - 1
    triples = set(zip(sweep.node[flagged].tolist(), sweep.at[cell].tolist(),
                      sweep.code[flagged].tolist()))
    assert 0 < len(triples) < len(flagged)  # some flags repeat
    events = extract_events(sweep, index, CADENCE)
    assert events and _tuples(events) == oracles.reference_extract_events(
        sweep, gen.entries, CADENCE, 3)
