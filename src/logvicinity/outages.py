"""Boot detection from log footprints and bursts, with outage backtracking."""

from __future__ import annotations

import statistics
from bisect import bisect_left
from dataclasses import dataclass

from .anonymize import fnv1a_32
from .model import (NodeId, ObservationRange, iso, parse_iso,
                    parse_node_name, topen)

FOOTPRINT_SPAN = 120  # seconds within which the whole footprint must appear
DEFAULT_BURST_FACTOR = 5
DEFAULT_BURST_MINUTES = 2
DEFAULT_MIN_GAP = 600  # seconds of silence required before a burst boot
DEFAULT_SILENCE_THRESHOLD = 3600


@dataclass(frozen=True)
class BootEvent:
    node: NodeId
    boot_time: int
    confidence: str  # footprint | burst


@dataclass(frozen=True)
class OutageEvent:
    node: NodeId
    outage_time: int
    following_boot: BootEvent | None
    tail: bool

    @property
    def confidence(self) -> str:
        return self.following_boot.confidence if self.following_boot else "tail"


class BootFootprintSpec:
    """Ordered templates (or pre-hashed keys) every healthy boot emits."""

    def __init__(self, items):
        # items: list of ("template", text) or ("key", 8-hex)
        if not items:
            raise ValueError("footprint spec needs at least one item")
        self.items = list(items)

    def keys(self, rules) -> list:
        out = []
        for kind, value in self.items:
            out.append(value if kind == "key" else fnv1a_32(rules.template(value)))
        return out


def load_footprint(path) -> BootFootprintSpec:
    items = []
    with topen(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith("key:"):
                items.append(("key", line[4:].strip()))
            else:
                items.append(("template", line))
    return BootFootprintSpec(items)


def save_footprint(spec: BootFootprintSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for kind, value in spec.items:
            fh.write(f"key:{value}\n" if kind == "key" else f"{value}\n")


def entry_signature(entry, rules) -> str:
    """Hash key of an entry's message; anonymized entries carry it directly."""
    key = getattr(entry, "key", None)
    return key if key is not None else rules.key(entry.message)


def detect_boot_events(entries, footprint: BootFootprintSpec, rules,
                       burst_factor=DEFAULT_BURST_FACTOR,
                       burst_minutes=DEFAULT_BURST_MINUTES,
                       min_gap=DEFAULT_MIN_GAP) -> list:
    """Detect boots in one node's time-ordered entries.

    Footprint: all spec items occur in order within 120 s. Burst: per-minute
    rate above burst_factor x the node's median rate (floored at 1/min) for
    burst_minutes consecutive minutes right after a gap of at least min_gap.
    Footprint wins when both fire within 120 s.
    """
    if not entries:
        return []
    times = [e.timestamp for e in entries]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("entries must be sorted by timestamp")
    keys = footprint.keys(rules)
    sigs = [entry_signature(e, rules) for e in entries]

    events = []
    i, n = 0, len(entries)
    while i < n:
        if sigs[i] == keys[0]:
            end = _match_footprint(sigs, times, i, keys)
            if end is not None:
                events.append(BootEvent(entries[i].node, times[i], "footprint"))
                i = end + 1
                continue
        i += 1

    per_minute: dict = {}
    for t in times:
        m = t // 60
        per_minute[m] = per_minute.get(m, 0) + 1
    span = range(times[0] // 60, times[-1] // 60 + 1)
    median_rate = statistics.median(per_minute.get(m, 0) for m in span)
    threshold = burst_factor * max(median_rate, 1.0)

    footprint_times = [e.boot_time for e in events]
    for j, t in enumerate(times):
        if j > 0 and t - times[j - 1] < min_gap:
            continue
        if j == 0:
            continue  # nothing before the first entry to call a gap
        m0 = t // 60
        if all(per_minute.get(m0 + k, 0) > threshold for k in range(burst_minutes)):
            if not any(abs(t - ft) <= FOOTPRINT_SPAN for ft in footprint_times):
                events.append(BootEvent(entries[0].node, t, "burst"))

    events.sort(key=lambda e: e.boot_time)
    return events


def _match_footprint(sigs, times, start, keys):
    """Return the index of the last matched item, or None."""
    pos = start
    deadline = times[start] + FOOTPRINT_SPAN
    for key in keys[1:]:
        pos += 1
        while pos < len(sigs) and times[pos] <= deadline and sigs[pos] != key:
            pos += 1
        if pos >= len(sigs) or times[pos] > deadline:
            return None
    return pos


def backtrack_outages(entries, boots) -> list:
    """Place one outage at the last entry strictly before each boot."""
    outages = []
    times = [e.timestamp for e in entries]
    for boot in boots:
        idx = bisect_left(times, boot.boot_time)
        if idx == 0:
            continue  # node's first boot in range: nothing to backtrack to
        outages.append(OutageEvent(boot.node, times[idx - 1], boot, tail=False))
    return outages


def detect_tail_outage(entries, obs_range: ObservationRange,
                       silence_threshold=DEFAULT_SILENCE_THRESHOLD):
    if not entries:
        return None
    last = entries[-1].timestamp
    if obs_range.end - last > silence_threshold:
        return OutageEvent(entries[0].node, last, None, tail=True)
    return None


def group_by_node(entries) -> dict:
    by_node: dict = {}
    for e in entries:
        by_node.setdefault(e.node, []).append(e)
    return by_node


def detect_outages(entries, footprint: BootFootprintSpec, rules,
                   obs_range: ObservationRange,
                   silence_threshold=DEFAULT_SILENCE_THRESHOLD,
                   burst_factor=DEFAULT_BURST_FACTOR,
                   burst_minutes=DEFAULT_BURST_MINUTES,
                   min_gap=DEFAULT_MIN_GAP) -> list:
    """Full-corpus outage sweep: footprint/burst boots plus end-of-data tails."""
    outages = []
    for node, node_entries in sorted(group_by_node(entries).items()):
        boots = detect_boot_events(node_entries, footprint, rules,
                                   burst_factor=burst_factor,
                                   burst_minutes=burst_minutes,
                                   min_gap=min_gap)
        outages.extend(backtrack_outages(node_entries, boots))
        tail = detect_tail_outage(node_entries, obs_range, silence_threshold)
        if tail is not None:
            outages.append(tail)
    outages.sort(key=lambda o: (o.node, o.outage_time))
    return outages


def write_outages(outages, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for o in outages:
            boot_s = iso(o.following_boot.boot_time) if o.following_boot else "TAIL"
            fh.write(f"{o.node.name}\t{iso(o.outage_time)}\t{boot_s}\t{o.confidence}\n")


def load_outages(path) -> list:
    """Read back the TSV written by write_outages."""
    out = []
    with topen(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            node = parse_node_name(parts[0])
            t = parse_iso(parts[1])
            if parts[2] == "TAIL":
                out.append(OutageEvent(node, t, None, tail=True))
            else:
                boot = BootEvent(node, parse_iso(parts[2]), parts[3])
                out.append(OutageEvent(node, t, boot, tail=False))
    return out
