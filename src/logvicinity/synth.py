"""Synthetic cluster corpus with injected failures and full ground truth."""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from .datasources import (JobRecord, MaintenanceWindow, OutageRecord, Scope,
                          write_job_report, write_maintenance, write_outage_db)
from .model import (EventTable, NodeId, ObservationRange, Topology, iso,
                    parse_iso, parse_node_name, read_records, save_topology,
                    to_epoch, topen, write_syslog)

DAY = 86400
HOUR = 3600

# Cluster-wide streams shared by every node: a cron line (top template by
# count, the frequency-filter target and the storm vehicle) and a low-jitter
# heartbeat (the near-periodic template the anonymized filter removes).
CRON = (300, 45, "CRON", "(root) CMD (run-parts /etc/cron.hourly)")
HEARTBEAT = (600, 8, "systemd", "Session heartbeat check completed")

# Per-architecture chatter: jittered lattices sized so class mean rates stay
# a factor >= 2 apart for the classes in the default desk topology, with
# inter-arrival CV comfortably above the periodicity filter's 0.1.
CHATTER = {
    "Haswell": [
        (900, 180, "kernel", "perf interrupt took too long, lowering rate"),
    ],
    "SandyBridge": [
        (240, 45, "slurmd", "health check cycle completed without findings"),
        (400, 60, "kernel", "EDAC MC sdram scrub rate adjusted"),
        (600, 90, "ntpd", "clock discipline loop resynchronized"),
    ],
    "GPU": [
        (75, 12, "nvidiad", "device poll cycle ok, thermals nominal"),
        (150, 24, "slurmd", "gres accounting sample flushed"),
        (300, 45, "kernel", "PCIe bus link state renegotiated"),
    ],
    "Westmere": [
        (1800, 240, "kernel", "machine check poll completed clean"),
    ],
    "Broadwell": [
        (20, 3, "lustre", "ost bulk transfer window advanced"),
        (300, 45, "kernel", "NUMA balancer migrated pages batch"),
        (1800, 240, "mcelog", "periodic scan found no new events"),
    ],
}

POISSON_PER_WINDOW = 1.0  # variable-message rate, every class
# The Poisson messages' kinds, drawn as randrange(3): (tag, head, tail, low,
# high), the text being head, the randint(low, high) value and tail
POISSON_MESSAGES = (
    ("smartd", "Device temperature changed to ", " Celsius", 28, 71),
    ("sshd", "Accepted publickey for operator from port ", "", 1024, 65000),
    ("nfs", "server responded after ", " ms retry delay", 2, 900),
)

GASP = ("kernel", "Kernel panic - not syncing: Fatal Exception")

FOOTPRINT_LINES = [
    ("kernel", "Booting Linux on physical CPU zero"),
    ("kernel", "Initializing cgroup subsys cpuset"),
    ("systemd", "Startup finished in userspace mode"),
]
FOOTPRINT_OFFSETS = [0, 20, 45]

BURST_LINES = [
    ("systemd", "Mounting local filesystems set"),
    ("systemd", "Started session management daemon"),
    ("kernel", "registered protocol family handler"),
    ("network", "interface link becomes ready"),
]

SHUTDOWN_LINES = [
    ("systemd", "Stopping user slices for maintenance"),
    ("systemd", "Reached target final shutdown checkpoint"),
]

STORM_PERIOD = 15  # seconds between storm repetitions of the cron line
STORM_LENGTH = 900

WINDOW = 1800  # the Poisson messages' rate is per WINDOW seconds

CAUSES = ("crash_panic", "silent_hang", "no_reboot")
CAUSE_MIX = (0.5, 0.35, 0.15)  # the weight of each of CAUSES
FAILURE_SKEW = 0.2  # share of the failing roster that is hot
TEMPORAL_CLUSTER_PROB = 0.3  # a failure draws a mate minutes later
RACK_AFFINITY = 0.5  # the mate is sought in the same rack first
SUDDEN_PROB = 0.1  # a non-hang failure has no quiet period before it


@dataclass
class GeneratorSpec:
    topology: Topology | None = None  # None -> desk_topology()
    start: int = to_epoch(2023, 3, 6, 0, 0, 0)
    days: float = 7.0
    seed: int = 7
    failure_count: int = 40
    skew_share: float = 0.7
    storm_count: int = 60
    background_jobs: int = 150
    maintenance: bool = True

    @property
    def end(self) -> int:
        return self.start + int(self.days * DAY)


@dataclass(frozen=True)
class InjectedFailure:
    node: NodeId
    outage_time: int
    has_reboot: bool
    cause: str


@dataclass
class GroundTruth:
    failures: list = field(default_factory=list)
    maintenance: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    outage_records: list = field(default_factory=list)
    storms: list = field(default_factory=list)  # (node, start), for analysis


@dataclass
class GeneratedCorpus:
    """entries: one EventTable in time order, nodes in topology order."""

    entries: EventTable
    truth: GroundTruth
    topology: Topology
    spec: GeneratorSpec

    @property
    def range(self) -> ObservationRange:
        return ObservationRange(self.spec.start, self.spec.end)


def desk_topology() -> Topology:
    """Default 64-node bench topology: 3 classes, no rack below 8 nodes."""
    nodes, arch_of = [], {}

    def rack(island, rck, count, arch):
        for pos in range(count):
            node = NodeId(island, rck, pos)
            nodes.append(node)
            arch_of[node] = arch

    for r in range(3):
        rack(1, r, 12, "Haswell")
    for r in range(2):
        rack(2, r, 8, "SandyBridge")
    rack(3, 0, 12, "GPU")
    return Topology(nodes, arch_of)


TAURUS_LAYOUT = [
    # (island, rack count, nodes per rack, architecture)
    (1, 9, 30, "SandyBridge"),
    (2, 6, 18, "GPU"),
    (3, 6, 30, "Westmere"),
    (4, 2, 16, "Broadwell"),
    (4, 20, 20, "Haswell"),
    (5, 24, 22, "Haswell"),
    (6, 24, 22, "Haswell"),
]


def taurus_topology() -> Topology:
    nodes, arch_of = [], {}
    next_rack: dict = {}
    for island, racks, per_rack, arch in TAURUS_LAYOUT:
        base = next_rack.get(island, 0)
        for r in range(racks):
            for pos in range(per_rack):
                node = NodeId(island, base + r, pos)
                nodes.append(node)
                arch_of[node] = arch
        next_rack[island] = base + racks
    return Topology(nodes, arch_of)


def scale_topology(topology: Topology, factor: float) -> Topology:
    """Shrink a topology keeping per-class proportions and rack grouping."""
    if not 0 < factor <= 1:
        raise ValueError("factor must be in (0, 1]")
    by_class: dict = {}
    for node in topology.nodes:
        by_class.setdefault(topology.architecture_of[node], []).append(node)
    total = max(1, round(len(topology.nodes) * factor))

    # largest-remainder apportionment of `total` across classes
    quotas = {arch: len(ns) * factor for arch, ns in by_class.items()}
    counts = {arch: math.floor(q) for arch, q in quotas.items()}
    leftover = total - sum(counts.values())
    for arch in sorted(quotas, key=lambda a: (quotas[a] - counts[a], quotas[a]),
                       reverse=True):
        if leftover <= 0:
            break
        counts[arch] += 1
        leftover -= 1

    nodes, arch_of = [], {}
    for arch, members in by_class.items():
        want = counts.get(arch, 0)
        for node in members:  # members follow topology order: rack by rack
            if want <= 0:
                break
            nodes.append(node)
            arch_of[node] = arch
            want -= 1
    return Topology(nodes, arch_of)


# ---------------------------------------------------------------------------
# schedule construction

@dataclass
class _NodeFailure:
    nominal: int
    cause: str
    quiet: float  # seconds of reduced logging before the end, 0 when sudden
    downtime: float  # seconds until reboot; irrelevant for no_reboot


def _plan_maintenance(spec: GeneratorSpec, topology: Topology):
    if not spec.maintenance:
        return []
    windows = []
    islands = topology.islands()
    if len(islands) > 1:
        windows.append(MaintenanceWindow(
            spec.start + int(3.5 * DAY), spec.start + int(3.5 * DAY) + 2 * HOUR,
            Scope("island", island=islands[1])))
    first = topology.nodes[0]
    windows.append(MaintenanceWindow(
        spec.start + int(1.25 * DAY), spec.start + int(1.25 * DAY) + 90 * 60,
        Scope("node", node=first)))
    return windows


def _far_from_maintenance(node, t, maint, margin=2 * HOUR) -> bool:
    return all(not (w.start - margin <= t <= w.end + margin)
               or not w.scope.covers(node) for w in maint)


def _plan_failures(spec: GeneratorSpec, topology: Topology, maint, rng):
    """Pick (node, nominal time, cause) for every injected failure."""
    lo = spec.start + 6 * HOUR
    hi = spec.end - int(2.5 * HOUR)
    if hi <= lo or spec.failure_count * HOUR > (hi - lo) * len(topology.nodes) / 5:
        raise ValueError("spec infeasible: more failures than node-hours allow")

    failing_target = min(len(topology.nodes),
                         max(3, round(spec.failure_count * 0.4)))
    hot_count = max(1, round(FAILURE_SKEW * failing_target))
    roster = rng.sample(list(topology.nodes), failing_target)
    hot, cold = roster[:hot_count], roster[hot_count:]
    hot_quota = min(spec.failure_count, round(spec.skew_share * spec.failure_count))

    pool = []
    for i in range(hot_quota):
        pool.append(hot[i % len(hot)])
    for i in range(spec.failure_count - hot_quota):
        pool.append(cold[i % len(cold)] if cold else hot[i % len(hot)])
    # a node's failures stand >= 5 h apart inside [lo, hi]
    fit = (hi - lo) // (5 * HOUR) + 1
    most = max(Counter(pool).values(), default=0)
    if most > fit:
        raise ValueError(f"spec infeasible: a node needs {most} failures 5 h "
                         f"apart; {fit} fit in [start + 6 h, end - 2.5 h]")
    rng.shuffle(pool)

    times_of: dict = {}

    def fits(node, t):
        if not (lo <= t <= hi):
            return False
        if not _far_from_maintenance(node, t, maint):
            return False
        return all(abs(t - u) >= 5 * HOUR for u in times_of.get(node, []))

    def take_node(t, exclude=(), prefer_rack=None):
        order = list(range(len(pool)))
        if prefer_rack is not None:
            order.sort(key=lambda i: (pool[i].island, pool[i].rack) != prefer_rack)
        for i in order:
            node = pool[i]
            if node in exclude or not fits(node, t):
                continue
            pool.pop(i)
            return node
        return None

    failures = []
    guard = 0
    while pool and guard < 200000:
        guard += 1
        t = rng.uniform(lo, hi)
        head = take_node(t)
        if head is None:
            continue
        times_of.setdefault(head, []).append(t)
        failures.append((head, t))
        if pool and rng.random() < TEMPORAL_CLUSTER_PROB:
            t2 = t + rng.uniform(60, 540)
            rack = ((head.island, head.rack)
                    if rng.random() < RACK_AFFINITY else None)
            mate = take_node(t2, exclude={head}, prefer_rack=rack)
            if mate is not None:
                times_of.setdefault(mate, []).append(t2)
                failures.append((mate, t2))
    if pool:
        raise ValueError("spec infeasible: could not place all failures")

    per_node: dict = {}
    planned: dict = {}
    for node, t in sorted(failures, key=lambda f: f[1]):
        per_node.setdefault(node, []).append(t)
    for node, ts in per_node.items():
        last = max(ts)
        for t in ts:
            cause = rng.choices(CAUSES, CAUSE_MIX)[0]
            if cause == "no_reboot" and t != last:
                cause = rng.choices(CAUSES[:2], CAUSE_MIX[:2])[0]
            sudden = cause != "silent_hang" and rng.random() < SUDDEN_PROB
            planned.setdefault(node, []).append(_NodeFailure(
                nominal=int(t),
                cause=cause,
                quiet=0.0 if sudden else rng.uniform(2700, 5400),
                downtime=rng.uniform(2700, 5400),
            ))
    for node in planned:
        planned[node].sort(key=lambda f: f.nominal)
    return planned


def _plan_storms(spec: GeneratorSpec, topology: Topology, planned, maint, rng):
    quiet_nodes = [n for n in topology.nodes if n not in planned]
    storms: dict = {}
    placed = 0
    guard = 0
    while placed < spec.storm_count and guard < 100000 and quiet_nodes:
        guard += 1
        node = rng.choice(quiet_nodes)
        t = rng.uniform(spec.start + 2 * HOUR, spec.end - 2 * HOUR)
        if not _far_from_maintenance(node, t, maint, margin=HOUR):
            continue
        if any(abs(t - u) < 2 * HOUR for u in storms.get(node, [])):
            continue
        storms.setdefault(node, []).append(int(t))
        placed += 1
    return storms


def _plan_jobs(spec: GeneratorSpec, topology: Topology, planned, maint, rng):
    jobs, odb = [], []
    seq = 0
    for node in sorted(planned):
        for failure in planned[node]:
            t = failure.nominal
            seq += 1
            if rng.random() < 0.7:
                # the scheduler notices the node going away slightly before
                # its last log line, so the hang-aligned instant stays inside
                # the classifier's correlation window
                end = t - int(rng.uniform(30, 300))
                start = end - int(rng.uniform(1 * HOUR, 4 * HOUR))
                members = {node}
                if rng.random() < 0.3:
                    peers = [p for p in topology.nodes
                             if (p.island, p.rack) == (node.island, node.rack)
                             and p != node and p not in planned]
                    members |= set(rng.sample(peers, min(len(peers), rng.randint(1, 2))))
                jobs.append(JobRecord(f"f{seq}", frozenset(members), start, end,
                                      "node_fail"))
            else:
                odb.append(OutageRecord(t - 900, t + 1800,
                                        Scope("node", node=node),
                                        "user-visible unavailability"))

    failure_times = {node: [f.nominal for f in fs] for node, fs in planned.items()}
    racks = topology.racks()
    attempts = 0
    made = 0
    while made < spec.background_jobs and attempts < spec.background_jobs * 20:
        attempts += 1
        island, rck = rng.choice(racks)
        members = [n for n in topology.nodes if (n.island, n.rack) == (island, rck)]
        size = rng.randint(1, min(8, len(members)))
        members = rng.sample(members, size)
        start = int(rng.uniform(spec.start, spec.end - HOUR))
        end = min(int(start + rng.uniform(HOUR, 12 * HOUR)), spec.end)
        status = rng.choices(("completed", "cancelled", "timeout"),
                             (0.85, 0.10, 0.05))[0]
        if status == "completed" and any(
                start - 900 <= t < end + 900
                for n in members for t in failure_times.get(n, [])):
            continue  # a completed job must never span a member's failure
        made += 1
        jobs.append(JobRecord(f"b{made}", frozenset(members), start, end, status))
    jobs.sort(key=lambda j: (j.start, j.job_id))
    odb.sort(key=lambda r: r.start)
    return jobs, odb


# ---------------------------------------------------------------------------
# per-node stream synthesis

def _uniforms(rng, n):
    """The next n values of rng.random() as one array, drawn as one block.

    random() builds each double from two 32-bit Mersenne Twister words, a
    and b, as ((a >> 5) * 2**26 + (b >> 6)) / 2**53; getrandbits(64 * n)
    returns those 2n words least significant first, and leaves rng where n
    calls of random() would.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"),
                          "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) \
        / 9007199254740992.0


def _lattice(rng, start, end, period, jitter):
    """Jittered ticks in [start, end), drawn as the per-tick loop would.

    The loop adds period to a random offset until it reaches end and
    jitters each tick by rng.uniform(-jitter, jitter). The accumulate adds
    in the loop's order, so the tick count is known before the jitter draws.
    """
    t0 = start + rng.uniform(0, period)
    # two spare steps: the accumulated grid reaches end before they run out
    steps = np.full(max(0, math.ceil((end - t0) / period)) + 2, float(period))
    steps[0] = t0
    grid = np.add.accumulate(steps)
    count = int(np.searchsorted(grid, end))
    a, b = -jitter, jitter
    ticks = grid[:count] + (a + (b - a) * _uniforms(rng, count))
    return ticks[(start <= ticks) & (ticks < end)]


def _poisson(rng, start, end):
    """The Poisson messages in [start, end): float times and int codes
    kind << 16 | value, drawn as the per-message loop would.

    That loop advances t by rng.expovariate(1 / mean gap) until t reaches
    end, then draws the kind as rng.randrange(3) and the value as
    rng.randint(low, high). Python 3.10 to 3.13 compute expovariate as
    -log(1 - random()) / lambd, and randrange and randint as low plus the
    first getrandbits(k) below the width, k the width's bit length. Called
    directly, random and getrandbits draw the same words in the same order.
    """
    random, getrandbits = rng.random, rng.getrandbits
    kinds = len(POISSON_MESSAGES)
    kind_bits = kinds.bit_length()
    draws = [(high - low + 1, (high - low + 1).bit_length(), kind << 16 | low)
             for kind, (*_texts, low, high) in enumerate(POISSON_MESSAGES)]
    lambd = 1.0 / (WINDOW / POISSON_PER_WINDOW)
    times, codes = [], []
    t = start
    while True:
        t += -math.log(1.0 - random()) / lambd
        if t >= end:
            return np.array(times, float), np.array(codes, np.int64)
        kind = getrandbits(kind_bits)
        while kind >= kinds:
            kind = getrandbits(kind_bits)
        width, k, base = draws[kind]
        value = getrandbits(k)
        while value >= width:
            value = getrandbits(k)
        times.append(t)
        codes.append(base + value)


def _poisson_key(code):
    """The (tag, message) of a _poisson code."""
    tag, head, tail, _low, _high = POISSON_MESSAGES[code >> 16]
    return tag, f"{head}{code & 0xFFFF}{tail}"


def _outside(times, spans):
    """Mask of the times that fall strictly inside none of the (a, b) spans."""
    keep = np.ones(len(times), bool)
    for a, b in spans:
        keep &= ~((a < times) & (times < b))
    return keep


def _where(mask, times, keys):
    """A segment's rows where mask holds; a single key stays shared."""
    if mask.all():
        return times, keys
    if isinstance(keys, np.ndarray):
        keys = keys[mask]
    elif len(keys) != 1:
        keys = list(compress(keys, mask))
    return times[mask], keys


def _node_stream(node, spec, chatter, failures, maint_windows, storms,
                 resolved_out):
    """A node's rows as (float times, keys) segments in row order.

    keys holds one (tag, message) per row, or one for the whole segment, or
    for the Poisson messages an array of one _poisson code per row.
    """
    rng = random.Random(f"{spec.seed}:{node.name}")
    start, end = spec.start, spec.end

    heart = _lattice(rng, start, end, HEARTBEAT[0], HEARTBEAT[1])
    lattices = [(_lattice(rng, start, end, CRON[0], CRON[1]), [CRON[2:]])]
    for period, jitter, tag, msg in chatter:
        lattices.append((_lattice(rng, start, end, period, jitter), [(tag, msg)]))

    poisson = _poisson(rng, start, end)

    storm_ticks = []
    for storm_start in storms:
        tick = storm_start + rng.uniform(0, STORM_PERIOD)
        while tick < storm_start + STORM_LENGTH:
            storm_ticks.append(tick)
            tick += STORM_PERIOD + rng.uniform(-3, 3)

    extra = []
    cut_spans = []  # (cut_from, resume_at) applied to non-heartbeat streams
    heart_cut = []  # (cut_after, resume_at) applied to heartbeats

    for failure in failures:
        if failure.cause == "silent_hang":
            # the hang leaves the heartbeat as the final entry: pin the
            # failure instant to the last tick at or before the planned time
            last_tick = float(heart[heart <= failure.nominal].max())
            t_fail, heart_stop = int(last_tick), last_tick
        else:
            t_fail = failure.nominal
            heart_stop = float(t_fail)
            extra.append((float(t_fail), GASP[0], GASP[1]))
        has_reboot = failure.cause != "no_reboot"
        resume = t_fail + failure.downtime if has_reboot else end + DAY
        cut_spans.append((t_fail - failure.quiet, resume))
        heart_cut.append((heart_stop, resume))
        if has_reboot:
            extra.extend(_boot_entries(rng, resume))
        resolved_out.append(InjectedFailure(node, t_fail, has_reboot,
                                            failure.cause))

    for window in maint_windows:
        cutoff = window.start + rng.uniform(60, 300)
        resume = window.end - rng.uniform(600, 1200)
        # shutdown lines go after the cutoff so the node's final pre-boot
        # entry always falls inside the announced window
        for offset, (tag, msg) in enumerate(SHUTDOWN_LINES):
            extra.append((cutoff + 5 + 10 * offset, tag, msg))
        cut_spans.append((cutoff, resume))
        heart_cut.append((cutoff, resume))
        extra.extend(_boot_entries(rng, resume))

    # the lattices, Poisson messages and storms (placed 2 h inside the
    # range) lie in [start, end); boot bursts can run past end
    other = lattices + [poisson, (np.array(storm_ticks, float), [CRON[2:]])]
    segments = [_where(_outside(t, cut_spans), t, keys) for t, keys in other]
    segments.append(_where(_outside(heart, heart_cut), heart, [HEARTBEAT[2:]]))
    t = np.array([row[0] for row in extra], float)
    segments.append(_where((start <= t) & (t < end), t,
                           [row[1:] for row in extra]))
    return segments


def _boot_entries(rng, boot_time):
    out = [(boot_time + off, tag, msg)
           for off, (tag, msg) in zip(FOOTPRINT_OFFSETS, FOOTPRINT_LINES)]
    t = boot_time + FOOTPRINT_OFFSETS[-1] + 3
    for i in range(28):
        tag, msg = BURST_LINES[i % len(BURST_LINES)]
        out.append((t, tag, msg))
        t += rng.uniform(2, 6)
    return out


_KEY_BITS = 63  # a packed sort key stays a non-negative int64


def _time_order(ts, counts, rank):
    """Sort the rows by (ts, node, rank), ties in row order. The rows come
    node by node, counts[n] of node n.

    Returns the sorted ts, in ts's own buffer, and each sorted row's node
    and index before the sort. One int64 key packs a row's time since the
    first, its node, its rank and its index within its node's rows. The
    keys are distinct, so one unstable sort gives the stable order, and ts
    and node are read back out of the sorted keys. Rows whose key would
    need more than 63 bits raise ValueError.
    """
    t0 = int(ts.min())
    bits = [(int(ts.max()) - t0).bit_length(), (len(counts) - 1).bit_length(),
            int(rank.max()).bit_length(), (int(counts.max()) - 1).bit_length()]
    if sum(bits) > _KEY_BITS:
        raise ValueError(
            f"a sort key of {sum(bits)} bits (time span, nodes, tags and rows "
            f"per node) is past the limit of {_KEY_BITS} bits")
    _, node_bits, rank_bits, row_bits = bits
    first = np.cumsum(counts) - counts  # each node's first row
    key = ts
    key -= t0
    key <<= node_bits + rank_bits
    key += rank
    key <<= row_bits
    key += np.arange(len(key))
    # the node, and the row's index within its node's rows
    key += np.repeat((np.arange(len(counts)) << (rank_bits + row_bits))
                     - first, counts)
    key.sort()
    row = key & ((1 << row_bits) - 1)
    key >>= row_bits + rank_bits
    node = np.bitwise_and(key, (1 << node_bits) - 1,
                          out=np.empty(len(key), np.int32), casting="unsafe")
    row += first[node]
    key >>= node_bits
    key += t0
    return key, node, row


def generate(spec: GeneratorSpec) -> GeneratedCorpus:
    """Produce the corpus, sorted by time, plus authoritative ground truth."""
    topology = spec.topology or desk_topology()

    rng = random.Random(f"{spec.seed}:schedule")
    maint = _plan_maintenance(spec, topology)
    planned = _plan_failures(spec, topology, maint, rng)
    storms = _plan_storms(spec, topology, planned, maint, rng)
    jobs, odb = _plan_jobs(spec, topology, planned, maint, rng)

    resolved: list = []
    msg_ix: dict = {}  # (tag, message) -> message id, by first appearance
    code_ix: dict = {}  # _poisson code -> message id
    times_of, counts = [], []  # counts: each node's rows
    ids, runs = [], []  # runs[i] consecutive rows of message ids[i]
    for node in topology.nodes:
        windows = [w for w in maint if w.scope.covers(node)]
        chatter = CHATTER[topology.architecture_of[node]]
        rows = 0
        for times, keys in _node_stream(node, spec, chatter,
                                        planned.get(node, []), windows,
                                        storms.get(node, []), resolved):
            if not len(times):  # an emptied segment registers no message
                continue
            if isinstance(keys, np.ndarray):  # each text formatted once
                keys = keys.tolist()
                for code in keys:
                    if code not in code_ix:
                        code_ix[code] = msg_ix.setdefault(_poisson_key(code),
                                                          len(msg_ix))
                ids.extend(map(code_ix.__getitem__, keys))
            else:
                ids.extend(msg_ix.setdefault(key, len(msg_ix)) for key in keys)
            runs.extend([1] * len(keys) if len(keys) > 1 else [len(times)])
            times_of.append(times)
            rows += len(times)
        counts.append(rows)
    ts = np.concatenate(times_of, dtype=np.int64, casting="unsafe")
    del times_of
    ids = np.array(ids, np.int32)
    tags = [tag for tag, _ in msg_ix]
    # node ids follow NodeId order and messages of one tag share a dense
    # rank, so the rows go by (timestamp, node, tag)
    rank_of = {tag: r for r, tag in enumerate(sorted(set(tags)))}
    tag_rank = np.array([rank_of[tag] for tag in tags], np.int32)
    ts, node, row = _time_order(ts, np.array(counts),
                                np.repeat(tag_rank[ids], runs))
    entries = EventTable(ts, node, np.repeat(ids, runs)[row],
                         list(topology.nodes), [m for _, m in msg_ix], tags)
    resolved.sort(key=lambda f: (f.outage_time, f.node))

    truth = GroundTruth(
        failures=resolved,
        maintenance=list(maint),
        jobs=jobs,
        outage_records=odb,
        storms=sorted((node, t) for node, ts in storms.items() for t in ts),
    )
    return GeneratedCorpus(entries, truth, topology, spec)


# ---------------------------------------------------------------------------
# file emission

def write_corpus_files(gen: GeneratedCorpus, outdir, compress=False) -> dict:
    """Write the syslog corpus and every auxiliary file; returns their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": outdir / ("corpus.log.gz" if compress else "corpus.log"),
        "topology": outdir / "topology.tsv",
        "jobs": outdir / "jobs.csv",
        "outage_db": outdir / "outage.db",
        "maintenance": outdir / "maintenance.tsv",
        "truth": outdir / "truth.csv",
    }
    write_syslog(gen.entries, paths["corpus"])
    save_topology(gen.topology, paths["topology"])
    write_job_report(gen.truth.jobs, paths["jobs"])
    write_outage_db(gen.truth.outage_records, paths["outage_db"])
    write_maintenance(gen.truth.maintenance, paths["maintenance"])
    write_truth(gen.truth.failures, paths["truth"])
    return {k: str(v) for k, v in paths.items()}


def write_truth(failures, path) -> None:
    with topen(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "outage_time", "has_reboot", "cause"])
        for f in failures:
            writer.writerow([f.node.name, iso(f.outage_time),
                             str(f.has_reboot).lower(), f.cause])


def load_truth(path) -> list:
    """Read back the CSV written by write_truth."""
    def row(fields):
        if fields[0] == "node":  # the header
            return None
        if len(fields) != 4:
            raise ValueError(f"expected 4 fields, got {len(fields)}")
        name, outage_s, has_reboot, cause = fields
        if has_reboot not in ("true", "false"):
            raise ValueError(f"has_reboot must be true or false, not "
                             f"{has_reboot!r}")
        if cause not in CAUSES:
            raise ValueError(f"unknown cause {cause!r}")
        return InjectedFailure(parse_node_name(name), parse_iso(outage_s),
                               has_reboot == "true", cause)

    return read_records(path, row, sep=",")
