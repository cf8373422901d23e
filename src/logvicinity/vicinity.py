"""Group nodes into comparison vicinities: architecture, rack, jobs, failure time."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Topology, iso

PERSPECTIVES = ("hardware", "location", "allocation", "time_of_failure", "combined")

DEFAULT_CHAIN_INTERVAL = 600  # seconds between failures considered related


@dataclass
class VicinityAssignment:
    perspective: str
    groups: list  # of frozenset of NodeId
    group_names: list
    ungrouped: frozenset = frozenset()
    at: int | None = None

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty vicinity group")
            if seen & g:
                raise ValueError("vicinity groups must be disjoint")
            seen |= g

    def covered(self) -> frozenset:
        out = set(self.ungrouped)
        for g in self.groups:
            out |= g
        return frozenset(out)


def _grouped(perspective, buckets, at=None, ungrouped=frozenset()):
    names = sorted(buckets)
    return VicinityAssignment(
        perspective,
        [frozenset(buckets[name]) for name in names],
        [str(name) for name in names],
        ungrouped=frozenset(ungrouped),
        at=at,
    )


def hardware_vicinity(topology: Topology) -> VicinityAssignment:
    buckets: dict = {}
    for node in topology.nodes:
        buckets.setdefault(topology.architecture_of[node], set()).add(node)
    return _grouped("hardware", buckets)


def location_vicinity(topology: Topology) -> VicinityAssignment:
    buckets: dict = {}
    for node in topology.nodes:
        buckets.setdefault(f"i{node.island}r{node.rack}", set()).add(node)
    return _grouped("location", buckets)


def combined_vicinity(topology: Topology) -> VicinityAssignment:
    """Rack groups within each architecture class (the default detector mode)."""
    buckets: dict = {}
    for node in topology.nodes:
        arch = topology.architecture_of[node]
        buckets.setdefault(f"{arch}/i{node.island}r{node.rack}", set()).add(node)
    return _grouped("combined", buckets)


def allocation_vicinity(jobs, t: int) -> VicinityAssignment:
    """Union-merge the node sets of all jobs active at t; singletons stay out."""
    active = [j for j in jobs if j.active_at(t)]
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for job in active:
        nodes = sorted(job.nodes)
        for n in nodes:
            parent.setdefault(n, n)
        for n in nodes[1:]:
            union(nodes[0], n)

    components: dict = {}
    for n in parent:
        components.setdefault(find(n), set()).add(n)
    buckets, ungrouped = {}, set()
    for root, nodes in components.items():
        if len(nodes) < 2:
            ungrouped |= nodes
            continue
        ids = sorted({j.job_id for j in active if j.nodes & nodes})
        buckets["job:" + "+".join(ids)] = nodes
    return _grouped("allocation", buckets, at=t, ungrouped=ungrouped)


def time_of_failure_vicinity(failures, interval=DEFAULT_CHAIN_INTERVAL) -> list:
    """Chain regular failures whose spacing is at most `interval` (single linkage)."""
    regular = sorted((f for f in failures if f.label == "regular_failure"),
                     key=lambda f: f.outage_time)
    assignments = []
    chain: list = []
    for ev in regular:
        if chain and ev.outage_time - chain[-1].outage_time > interval:
            assignments.append(_chain_assignment(chain))
            chain = []
        chain.append(ev)
    if chain:
        assignments.append(_chain_assignment(chain))
    return assignments


def _chain_assignment(chain) -> VicinityAssignment:
    at = chain[0].outage_time
    nodes = frozenset(ev.node for ev in chain)
    return VicinityAssignment("time_of_failure", [nodes], [f"tof:{iso(at)}"], at=at)
