"""Core domain types and the BSD syslog line parser shared by every stage."""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

ARCHITECTURES = ("Haswell", "SandyBridge", "Westmere", "Broadwell", "GPU")

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

_NODE_RE = re.compile(r"^i(\d+)r(\d+)n(\d+)$")
_TAG_RE = re.compile(r"^[\w./-]+:$")

HALF_YEAR = 180 * 86400


class SyslogParseError(ValueError):
    """Raised on a malformed syslog line; .offset is the byte offset of the bad field."""

    def __init__(self, message, offset=0):
        super().__init__(message)
        self.offset = offset


class UnknownNodeError(KeyError):
    """Hostname not present in the topology resolver."""


@dataclass(frozen=True, order=True)
class NodeId:
    island: int
    rack: int
    position: int

    @property
    def name(self) -> str:
        return f"i{self.island}r{self.rack}n{self.position}"

    def __str__(self) -> str:
        return self.name


def parse_node_name(name: str) -> NodeId:
    m = _NODE_RE.match(name)
    if not m:
        raise ValueError(f"not a canonical node name: {name!r}")
    return NodeId(int(m.group(1)), int(m.group(2)), int(m.group(3)))


@dataclass(frozen=True, slots=True)
class LogEntry:
    timestamp: int  # epoch seconds, UTC
    node: NodeId
    tag: str
    message: str


@dataclass(frozen=True)
class ObservationRange:
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("observation range must have start < end")

    def __contains__(self, t: int) -> bool:
        return self.start <= t <= self.end


def to_epoch(year, month, day, hour, minute, second) -> int:
    return int(datetime(year, month, day, hour, minute, second,
                        tzinfo=timezone.utc).timestamp())


def iso(t: int) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2})(?::(\d{2}))?\s*(?:Z|\+00:00)?$")


def parse_iso(text: str) -> int:
    m = _ISO_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad timestamp: {text!r}")
    y, mo, d, h, mi = (int(m.group(i)) for i in range(1, 6))
    s = int(m.group(6) or 0)
    return to_epoch(y, mo, d, h, mi, s)


# month-start epoch cache keyed by (year, month); keeps stream parsing cheap
_MONTH_EPOCH: dict = {}


def _month_epoch(year: int, month: int) -> int:
    key = (year, month)
    t = _MONTH_EPOCH.get(key)
    if t is None:
        t = to_epoch(year, month, 1, 0, 0, 0)
        _MONTH_EPOCH[key] = t
    return t


def format_bsd_time(t: int) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    return f"{_MONTH_NAMES[dt.month]} {dt.day:2d} {dt:%H:%M:%S}"


def format_syslog_line(entry: LogEntry) -> str:
    head = f"{format_bsd_time(entry.timestamp)} {entry.node.name}"
    if entry.tag:
        return f"{head} {entry.tag}: {entry.message}"
    return f"{head} {entry.message}"


def parse_syslog_line(line: str, default_year: int, node_resolver) -> LogEntry:
    """Parse one BSD syslog line ("MMM dd HH:MM:SS host tag: message").

    The year is taken from default_year; stream-level rollover is handled by
    parse_syslog_stream. Sub-second precision is not expected and not kept.
    """
    parts = line.rstrip("\n").split(None, 4)
    if len(parts) < 4:
        raise SyslogParseError(f"truncated line: {line!r}", offset=0)
    mon_s, day_s, time_s, host = parts[0], parts[1], parts[2], parts[3]
    rest = parts[4] if len(parts) > 4 else ""
    month = _MONTHS.get(mon_s)
    if month is None:
        raise SyslogParseError(f"bad month {mon_s!r}", offset=0)
    try:
        day = int(day_s)
        hh, mm, ss = time_s.split(":")
        secs = int(hh) * 3600 + int(mm) * 60 + int(float(ss))
    except ValueError:
        raise SyslogParseError(f"bad timestamp in line: {line!r}",
                               offset=line.find(day_s)) from None
    try:
        ts = _month_epoch(default_year, month) + (day - 1) * 86400 + secs
    except ValueError:
        raise SyslogParseError(f"bad calendar day {day_s!r}",
                               offset=line.find(day_s)) from None
    node = node_resolver.get(host) if hasattr(node_resolver, "get") else node_resolver(host)
    if node is None:
        raise UnknownNodeError(host)
    tag, message = "", rest
    first, _, after = rest.partition(" ")
    if first and _TAG_RE.match(first):
        tag, message = first[:-1], after
    return LogEntry(ts, node, tag, message)


def parse_syslog_stream(lines, default_year: int, node_resolver,
                        skip_unknown: bool = True):
    """Yield LogEntry per line with per-node year rollover correction.

    A per-node backward jump of more than 180 days means the calendar year
    wrapped; the node's entries carry the incremented year from then on.
    Unknown hostnames are skipped (counted on .skipped_unknown) unless
    skip_unknown is false.
    """
    year_of: dict = {}
    last_of: dict = {}
    stats = ParseStats()

    def gen():
        for line in lines:
            if not line.strip() or line.startswith("#"):
                continue
            try:
                entry = parse_syslog_line(line, default_year, node_resolver)
            except UnknownNodeError:
                if skip_unknown:
                    stats.skipped_unknown += 1
                    continue
                raise
            node = entry.node
            year = year_of.get(node, default_year)
            ts = entry.timestamp
            if year != default_year:
                ts = _shift_year(entry.timestamp, default_year, year)
            last = last_of.get(node)
            if last is not None and last - ts > HALF_YEAR:
                year += 1
                year_of[node] = year
                ts = _shift_year(entry.timestamp, default_year, year)
            last_of[node] = ts
            stats.parsed += 1
            yield entry if ts == entry.timestamp else LogEntry(
                ts, node, entry.tag, entry.message)

    return gen(), stats


def _shift_year(ts: int, from_year: int, to_year: int) -> int:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return to_epoch(to_year + (dt.year - from_year), dt.month, dt.day,
                    dt.hour, dt.minute, dt.second)


@dataclass
class ParseStats:
    parsed: int = 0
    skipped_unknown: int = 0


def topen(path, mode="rt"):
    """Open a text file, transparently decompressing *.gz."""
    path = str(path)
    if "t" not in mode:
        mode += "t"
    if path.endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode.replace("t", ""), encoding="utf-8")


@dataclass
class Topology:
    """Inventory of nodes with their architecture class and physical place."""

    nodes: list = field(default_factory=list)  # sorted list of NodeId
    architecture_of: dict = field(default_factory=dict)  # NodeId -> class name

    def __post_init__(self):
        self.nodes = sorted(self.nodes)
        self._by_name = {n.name: n for n in self.nodes}

    def __len__(self):
        return len(self.nodes)

    def resolver(self) -> dict:
        return self._by_name

    def class_counts(self) -> dict:
        counts = {}
        for n in self.nodes:
            arch = self.architecture_of[n]
            counts[arch] = counts.get(arch, 0) + 1
        return counts

    def islands(self):
        return sorted({n.island for n in self.nodes})

    def racks(self):
        return sorted({(n.island, n.rack) for n in self.nodes})


def load_topology(path) -> Topology:
    nodes, arch_of = [], {}
    with topen(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            name, arch, island_s, rack_s = parts
            if arch not in ARCHITECTURES:
                raise ValueError(f"{path}:{lineno}: unknown architecture {arch!r}")
            node = parse_node_name(name)
            if (node.island, node.rack) != (int(island_s), int(rack_s)):
                raise ValueError(f"{path}:{lineno}: island/rack disagree with {name}")
            if node in arch_of:
                raise ValueError(f"{path}:{lineno}: duplicate node {name}")
            nodes.append(node)
            arch_of[node] = arch
    return Topology(nodes, arch_of)


def save_topology(topology: Topology, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node\tarchitecture\tisland\track\n")
        for n in topology.nodes:
            fh.write(f"{n.name}\t{topology.architecture_of[n]}\t{n.island}\t{n.rack}\n")


_RANGE_RE = re.compile(r"^(.*n)\[([\d,\-]+)\]$")


def expand_node_spec(spec: str):
    """Expand "i1r0n[0-3,7]" style range syntax to a list of node names."""
    names = []
    for token in spec.split():
        m = _RANGE_RE.match(token)
        if not m:
            names.append(token)
            continue
        prefix, body = m.group(1), m.group(2)
        for piece in body.split(","):
            if "-" in piece:
                lo, hi = piece.split("-")
                names.extend(f"{prefix}{i}" for i in range(int(lo), int(hi) + 1))
            else:
                names.append(f"{prefix}{int(piece)}")
    return names


def compress_node_names(names) -> str:
    """Inverse of expand_node_spec: group consecutive positions per rack."""
    by_prefix: dict = {}
    for name in names:
        node = parse_node_name(name)
        by_prefix.setdefault(f"i{node.island}r{node.rack}n", []).append(node.position)
    specs = []
    for prefix in sorted(by_prefix):
        positions = sorted(set(by_prefix[prefix]))
        pieces, run = [], [positions[0], positions[0]]
        for p in positions[1:]:
            if p == run[1] + 1:
                run[1] = p
            else:
                pieces.append(run)
                run = [p, p]
        pieces.append(run)
        if len(pieces) == 1 and pieces[0][0] == pieces[0][1]:
            specs.append(f"{prefix}{pieces[0][0]}")
        else:
            body = ",".join(str(a) if a == b else f"{a}-{b}" for a, b in pieces)
            specs.append(f"{prefix}[{body}]")
    return " ".join(specs)
