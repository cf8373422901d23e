import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from logvicinity.classify import FailureEvent
from logvicinity.datasources import JobRecord
from logvicinity.detect import SGIndex, observation_moments, sweep_schedule
from logvicinity.model import NodeId, ObservationRange, Topology
from logvicinity.names import iso
from logvicinity.pipeline import sweep_perspective
from logvicinity.synth import desk_topology
from logvicinity.vicinity import (VicinityAssignment, allocation_groups,
                                  allocation_schedule, allocation_vicinity,
                                  combined_vicinity, hardware_vicinity,
                                  location_vicinity, time_of_failure_vicinity)
from oracles import LogEntry
from tables import table_of


def test_desk_hardware_groups():
    asg = hardware_vicinity(desk_topology())
    sizes = dict(zip(asg.group_names, map(len, asg.groups)))
    assert sizes == {"Haswell": 36, "SandyBridge": 16, "GPU": 12}


def test_desk_location_groups():
    asg = location_vicinity(desk_topology())
    sizes = dict(zip(asg.group_names, map(len, asg.groups)))
    assert sizes == {"i1r0": 12, "i1r1": 12, "i1r2": 12,
                     "i2r0": 8, "i2r1": 8, "i3r0": 12}


def test_desk_combined_groups():
    asg = combined_vicinity(desk_topology())
    sizes = dict(zip(asg.group_names, map(len, asg.groups)))
    assert sizes == {"Haswell/i1r0": 12, "Haswell/i1r1": 12, "Haswell/i1r2": 12,
                     "SandyBridge/i2r0": 8, "SandyBridge/i2r1": 8,
                     "GPU/i3r0": 12}


@pytest.mark.parametrize("maker", [hardware_vicinity, location_vicinity,
                                   combined_vicinity])
def test_static_perspectives_cover_topology(maker):
    topo = desk_topology()
    asg = maker(topo)
    assert frozenset().union(*asg.groups) == frozenset(topo.nodes)


def test_random_topologies_partition_cleanly():
    """Static groupings are disjoint covers for arbitrary topologies."""
    rng = random.Random(99)
    classes = ("Haswell", "SandyBridge", "GPU", "Westmere", "Broadwell")
    for _ in range(1000):
        nodes, arch = [], {}
        for _ in range(rng.randrange(1, 40)):
            n = NodeId(rng.randrange(1, 4), rng.randrange(3), rng.randrange(30))
            if n in arch:
                continue
            nodes.append(n)
            arch[n] = rng.choice(classes)
        if not nodes:
            continue
        topo = Topology(nodes, arch)
        for maker in (hardware_vicinity, location_vicinity, combined_vicinity):
            asg = maker(topo)
            total = sum(len(g) for g in asg.groups)
            assert total == len(topo.nodes)  # disjointness is enforced on init
            assert frozenset().union(*asg.groups) == frozenset(topo.nodes)


def _job(jid, names, start=0, end=100):
    return JobRecord(jid, frozenset(NodeId(1, 0, p) for p in names), start, end,
                     "completed")


def test_allocation_merges_overlapping_jobs():
    jobs = [_job("a", [0, 1]), _job("b", [1, 2]), _job("c", [5, 6])]
    asg = allocation_vicinity(jobs)
    sizes = sorted(len(g) for g in asg.groups)
    assert sizes == [2, 3]
    names = dict(zip(asg.group_names, asg.groups))
    merged = names["job:a+b"]
    assert {n.position for n in merged} == {0, 1, 2}


def test_allocation_singletons_stay_ungrouped():
    jobs = [_job("a", [0]), _job("b", [1, 2])]
    asg = allocation_vicinity(jobs)
    assert asg.group_names == ["job:b"]
    assert all(NodeId(1, 0, 0) not in g for g in asg.groups)


def test_allocation_respects_job_activity_window():
    jobs = [_job("a", [0, 1], start=0, end=40), _job("b", [2, 3], start=30, end=90)]
    # the caller picks the active jobs; job a already ended
    asg = allocation_vicinity([j for j in jobs if j.active_at(50)])
    assert asg.group_names == ["job:b"]


@st.composite
def active_jobs(draw):
    """Jobs with distinct ids on up to ten nodes, in any order: chains of
    overlapping jobs, one-node jobs, identical node sets, or none."""
    sets = draw(st.lists(st.frozensets(st.integers(0, 9), min_size=1,
                                       max_size=4), max_size=9))
    jobs = [_job(f"j{i}", positions) for i, positions in enumerate(sets)]
    return draw(st.permutations(jobs))


@settings(max_examples=400, deadline=None)
@given(active_jobs())
@example([])
@example([_job("a", [0, 1]), _job("b", [2, 3]), _job("c", [1, 2])])
@example([_job("b", [4]), _job("a", [4, 5]), _job("c", [4, 5]),
          _job("d", [7])])
def test_allocation_groups_equal_the_union_find_reference(jobs):
    want = oracles.reference_allocation_groups(jobs)
    assert allocation_groups(jobs) == want
    got = allocation_vicinity(jobs)
    assert list(zip(got.group_names, got.groups)) == want


def test_allocation_groups_bridge_every_union_a_job_touches():
    jobs = [_job("b", [0, 1]), _job("a", [3, 4]), _job("c", [6, 7]),
            _job("d", [1, 4, 7]), _job("e", [9])]
    assert allocation_groups(jobs) == [
        ("job:a+b+c+d", frozenset(NodeId(1, 0, p) for p in (0, 1, 3, 4, 6, 7)))]


# the allocation schedule, against the reference at every moment

CADENCE = 600
SCHEDULE_NODES = [NodeId(1, 0, p) for p in range(8)]
SCHEDULE_TOPOLOGY = Topology(SCHEDULE_NODES,
                             {n: "Haswell" for n in SCHEDULE_NODES})
OUTSIDE = [NodeId(9, 9, 0), NodeId(9, 9, 1)]  # no topology node
_rng = random.Random(5)
# chatter on the topology's nodes; node 0 is silent from 2400 s to 4800 s
SCHEDULE_INDEX = SGIndex(table_of(
    LogEntry(t, n, "t", "m") for n in SCHEDULE_NODES
    for t in _rng.sample(range(-CADENCE, 13 * CADENCE), 300)
    if not (n == SCHEDULE_NODES[0] and 2400 <= t < 4800)))


@st.composite
def scheduled_jobs(draw):
    """(jobs, range end): up to nine jobs with distinct ids that share
    nodes, some outside the topology; each starts and ends on a moment,
    between moments or outside the range, and some last no time at all.
    A range shorter than one cadence holds no moment."""
    instant = st.one_of(st.integers(-2, 14).map(lambda k: k * CADENCE),
                        st.integers(-CADENCE, 14 * CADENCE))
    length = st.one_of(st.just(0), st.integers(1, 5).map(lambda k: k * CADENCE),
                       st.integers(1, 8 * CADENCE))
    jobs = []
    for i in range(draw(st.integers(0, 9))):
        start = draw(instant)
        jobs.append(JobRecord(
            f"j{i}", draw(st.frozensets(st.sampled_from(SCHEDULE_NODES + OUTSIDE),
                                        min_size=1, max_size=5)),
            start, start + draw(length), "completed"))
    return jobs, draw(st.integers(1, 12 * CADENCE))


@settings(max_examples=300, deadline=None)
@given(scheduled_jobs())
@example(([], CADENCE - 1))
@example(([_job("a", [0, 1], 0, 1200), _job("b", [1, 2], 600, 2400),
           _job("c", [2, 3], 1200, 1200)], 3000))
def test_allocation_schedule_equals_the_reference_at_every_moment(drawn):
    jobs, end = drawn
    moments = observation_moments(0, end, CADENCE, CADENCE)
    schedule = allocation_schedule(
        [(j.job_id, j.nodes, j.start, j.end) for j in jobs], moments)
    judged = [(at, groups) for groups, ats in schedule for at in ats]
    assert [at for at, _ in judged] == moments
    for at, groups in judged:
        assert groups == oracles.reference_allocation_groups(
            [j for j in jobs if j.active_at(at)])
    # a segment starts exactly where the set of active jobs changes
    active = [{j.job_id for j in jobs if j.active_at(at)} for at in moments]
    assert [ats[0] for _, ats in schedule] == [
        at for i, at in enumerate(moments) if i == 0 or active[i] != active[i - 1]]

    # the sweep cuts each job to the topology's nodes and regroups only
    # where a job starts or ends, yet judges what a per-moment schedule does
    known = frozenset(SCHEDULE_NODES)
    cut = [replace(j, nodes=j.nodes & known) for j in jobs if j.nodes & known]
    sweep = sweep_perspective(SCHEDULE_INDEX, "allocation", SCHEDULE_TOPOLOGY,
                              ObservationRange(0, end), jobs=jobs,
                              window=CADENCE, cadence=CADENCE)
    want = sweep_schedule(
        SCHEDULE_INDEX,
        [(oracles.reference_allocation_groups(
            [j for j in cut if j.active_at(at)]), (at,)) for at in moments],
        window=CADENCE)
    for name, value in vars(want).items():
        got = getattr(sweep, name)
        assert (np.array_equal(got, value) and got.dtype == value.dtype
                if isinstance(value, np.ndarray) else got == value), name


def _fe(pos, t, label="regular_failure"):
    return FailureEvent(NodeId(1, 0, pos), t, label, ())


def test_failure_chains_single_linkage():
    events = [_fe(0, 1000), _fe(1, 1500), _fe(2, 2100), _fe(3, 9000)]
    # one schedule entry per chain: its one group, judged at its first outage
    chains = [([(name, len(nodes)) for name, nodes in pairs], ats)
              for pairs, ats in time_of_failure_vicinity(events)]
    assert chains == [([(f"tof:{iso(1000)}", 3)], (1000,)),
                      ([(f"tof:{iso(9000)}", 1)], (9000,))]


def test_failure_chains_ignore_non_regular():
    events = [_fe(0, 1000), _fe(1, 1500, label="planned"),
              _fe(2, 2100, label="ambiguous")]
    [([(_, nodes)], _)] = time_of_failure_vicinity(events)
    assert {n.position for n in nodes} == {0}


def test_failure_chains_match_transitive_closure_oracle():
    rng = random.Random(4242)
    for _ in range(200):
        count = rng.randrange(1, 25)
        events = [_fe(i, rng.randrange(0, 20000)) for i in range(count)]
        chains = time_of_failure_vicinity(events)
        got = sorted(tuple(sorted(e.outage_time for e in events
                                  if e.node in nodes))
                     for [(_, nodes)], _ in chains)
        instants = [e.outage_time for e in events]
        want = oracles.chain_by_transitive_closure(instants, 600)
        assert got == sorted(want)


def test_assignment_rejects_overlap_and_empty():
    a, b = NodeId(1, 0, 0), NodeId(1, 0, 1)
    with pytest.raises(ValueError):
        VicinityAssignment([frozenset({a}), frozenset({a, b})], ["p", "q"])
    with pytest.raises(ValueError):
        VicinityAssignment([frozenset()], ["p"])
