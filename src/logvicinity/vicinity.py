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
