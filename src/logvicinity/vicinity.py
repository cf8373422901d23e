"""Group nodes into comparison vicinities: architecture, rack, jobs, failure time."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Topology
from .names import PERSPECTIVES, iso  # noqa: F401

CHAIN_INTERVAL = 600  # seconds between failures considered related


@dataclass
class VicinityAssignment:
    groups: list  # of frozenset of NodeId
    group_names: list
    at: int | None = None

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty vicinity group")
            if seen & g:
                raise ValueError("vicinity groups must be disjoint")
            seen |= g


def _grouped(buckets, at=None):
    names = sorted(buckets)
    return VicinityAssignment([frozenset(buckets[name]) for name in names],
                              [str(name) for name in names], at=at)


def hardware_vicinity(topology: Topology) -> VicinityAssignment:
    buckets: dict = {}
    for node in topology.nodes:
        buckets.setdefault(topology.architecture_of[node], set()).add(node)
    return _grouped(buckets)


def location_vicinity(topology: Topology) -> VicinityAssignment:
    buckets: dict = {}
    for node in topology.nodes:
        buckets.setdefault(f"i{node.island}r{node.rack}", set()).add(node)
    return _grouped(buckets)


def combined_vicinity(topology: Topology) -> VicinityAssignment:
    """Rack groups within each architecture class (the default detector mode)."""
    buckets: dict = {}
    for node in topology.nodes:
        arch = topology.architecture_of[node]
        buckets.setdefault(f"{arch}/i{node.island}r{node.rack}", set()).add(node)
    return _grouped(buckets)


def allocation_groups(active) -> list:
    """(name, nodes) of each union of the active jobs' node sets, by name.

    A job joins every union that shares a node with it; a union is named
    "job:" and its sorted job ids joined by "+", and a union of one node is
    dropped. The caller picks the active jobs (JobRecord.active_at).
    """
    unions = []  # (job ids, nodes), disjoint
    for job in active:
        ids, nodes = [job.job_id], set(job.nodes)
        for union in [u for u in unions if not nodes.isdisjoint(u[1])]:
            unions.remove(union)
            ids += union[0]
            nodes |= union[1]
        unions.append((ids, nodes))
    return sorted((("job:" + "+".join(sorted(ids)), frozenset(nodes))
                   for ids, nodes in unions if len(nodes) > 1),
                  key=lambda group: group[0])


def allocation_vicinity(active, t: int) -> VicinityAssignment:
    """allocation_groups at t, as an assignment."""
    return _grouped(dict(allocation_groups(active)), at=t)


def time_of_failure_vicinity(failures) -> list:
    """Chain regular failures whose spacing is at most CHAIN_INTERVAL
    (single linkage)."""
    regular = sorted((f for f in failures if f.label == "regular_failure"),
                     key=lambda f: f.outage_time)
    assignments = []
    chain: list = []
    for ev in regular:
        if chain and ev.outage_time - chain[-1].outage_time > CHAIN_INTERVAL:
            assignments.append(_chain_assignment(chain))
            chain = []
        chain.append(ev)
    if chain:
        assignments.append(_chain_assignment(chain))
    return assignments


def _chain_assignment(chain) -> VicinityAssignment:
    at = chain[0].outage_time
    nodes = frozenset(ev.node for ev in chain)
    return VicinityAssignment([nodes], [f"tof:{iso(at)}"], at=at)
