"""Group nodes into comparison vicinities: architecture, rack, jobs, failure time."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .model import Topology
from .names import PERSPECTIVES, iso  # noqa: F401

CHAIN_INTERVAL = 600  # seconds between failures considered related


@dataclass
class VicinityAssignment:
    groups: list  # of frozenset of NodeId
    group_names: list

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty vicinity group")
            if seen & g:
                raise ValueError("vicinity groups must be disjoint")
            seen |= g


def _grouped(topology: Topology, name_of) -> VicinityAssignment:
    """The topology's nodes bucketed by name_of(node), in name order."""
    buckets: dict = {}
    for node in topology.nodes:
        buckets.setdefault(name_of(node), set()).add(node)
    names = sorted(buckets)
    return VicinityAssignment([frozenset(buckets[name]) for name in names],
                              names)


def hardware_vicinity(topology: Topology) -> VicinityAssignment:
    return _grouped(topology, topology.architecture_of.__getitem__)


def location_vicinity(topology: Topology) -> VicinityAssignment:
    return _grouped(topology, lambda node: f"i{node.island}r{node.rack}")


def combined_vicinity(topology: Topology) -> VicinityAssignment:
    """Rack groups within each architecture class (the default detector mode)."""
    arch = topology.architecture_of
    return _grouped(topology,
                    lambda node: f"{arch[node]}/i{node.island}r{node.rack}")


def regroup(unions: list, started=(), ended=frozenset()) -> list:
    """The unions of the active jobs once the `ended` job ids stop and the
    `started` (job id, nodes) pairs begin.

    A union is a (name, nodes, jobs) triple: its name is "job:" and its
    sorted job ids joined by "+", jobs maps each of its job ids to the
    job's nodes, and no two unions share a node. A union that lost a job
    is taken apart; its other jobs and the started ones join one by one,
    each merging every union it shares a node with. Every other union is
    kept as it is, name and nodes and all.
    """
    joining, kept = [], []
    for union in unions:
        if ended and not union[2].keys().isdisjoint(ended):
            joining += [job for job in union[2].items() if job[0] not in ended]
        else:
            kept.append(union)
    unions = kept
    for job_id, job_nodes in [*joining, *started]:
        touching, rest = [], []
        for union in unions:
            (rest if job_nodes.isdisjoint(union[1]) else touching).append(union)
        # grow the largest union it touches: each merge copies the smaller
        largest = max(touching, key=lambda union: len(union[1]),
                      default=(None, set(), {}))
        name, nodes, jobs = largest
        if name is not None:  # a union kept as it is: grow a copy
            nodes, jobs = set(nodes), dict(jobs)
        for union in touching:
            if union is not largest:
                nodes |= union[1]
                jobs.update(union[2])
        nodes |= job_nodes
        jobs[job_id] = job_nodes
        unions = [*rest, (None, nodes, jobs)]  # named once it is complete
    return [union if union[0] else
            ("job:" + "+".join(sorted(union[2])), frozenset(union[1]),
             union[2]) for union in unions]


def _named(unions) -> list:
    """(name, nodes) of each union of two or more nodes, by name."""
    return sorted(((name, nodes) for name, nodes, _ in unions
                   if len(nodes) > 1), key=lambda group: group[0])


def allocation_groups(active) -> list:
    """(name, nodes) of each union of the active jobs' node sets, by name.

    A job joins every union that shares a node with it; a union is named
    "job:" and its sorted job ids joined by "+", and a union of one node is
    dropped. The caller picks the active jobs (JobRecord.active_at).
    """
    return _named(regroup([], [(job.job_id, job.nodes) for job in active]))


def allocation_schedule(jobs, moments) -> list:
    """The allocation perspective as sweep_schedule entries: the
    allocation_groups of the jobs active at each moment, regrouped only
    where a job starts or ends.

    jobs are (job id, nodes, start, end) with distinct ids. A job is
    active on [start, end), as in JobRecord.active_at, so on moments[a:b],
    where a and b are the positions of its start and end in the sorted
    moments (bisect_left). A segment starts at the first moment and at
    every a or b inside the moments; each takes one regroup call.
    """
    if not moments:
        return []
    starting, ending = {}, {}  # segment start -> its started, ended jobs
    for job in jobs:
        a, b = bisect_left(moments, job[2]), bisect_left(moments, job[3])
        if a < b:
            starting.setdefault(a, []).append(job[:2])
            ending.setdefault(b, set()).add(job[0])
    cuts = sorted({0, *starting, *ending} - {len(moments)})
    schedule, unions = [], []
    for s, e in zip(cuts, [*cuts[1:], len(moments)]):
        unions = regroup(unions, starting.get(s, ()),
                         ending.get(s, frozenset()))
        schedule.append((_named(unions), moments[s:e]))
    return schedule


def allocation_vicinity(active) -> VicinityAssignment:
    """allocation_groups as an assignment."""
    pairs = allocation_groups(active)
    return VicinityAssignment([group for _, group in pairs],
                              [name for name, _ in pairs])


def time_of_failure_vicinity(failures) -> list:
    """Chain regular failures whose spacing is at most CHAIN_INTERVAL
    (single linkage). Each chain is one sweep_schedule entry: its nodes,
    named "tof:" and its first outage, judged once, at that outage."""
    regular = sorted((f for f in failures if f.label == "regular_failure"),
                     key=lambda f: f.outage_time)
    chains: list = []
    for ev in regular:
        if (not chains
                or ev.outage_time - chains[-1][-1].outage_time > CHAIN_INTERVAL):
            chains.append([])
        chains[-1].append(ev)
    return [([(f"tof:{iso(chain[0].outage_time)}",
               frozenset(ev.node for ev in chain))], (chain[0].outage_time,))
            for chain in chains]
