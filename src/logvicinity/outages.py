"""Boot detection from log footprints and bursts, with outage backtracking."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import EventTable, _lexsort
from .names import (DEFAULT_BURST_FACTOR, DEFAULT_BURST_MINUTES,
                    DEFAULT_MIN_GAP, DEFAULT_SILENCE_THRESHOLD, NodeId,
                    ObservationRange, check_nonnegative, iso, parse_iso,
                    parse_node_name, read_records, write_records)

FOOTPRINT_SPAN = 120  # seconds within which the whole footprint must appear


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

    @property
    def tail(self) -> bool:
        return self.following_boot is None

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
            out.append(value if kind == "key" else rules.key(value))
        return out


def load_footprint(path) -> BootFootprintSpec:
    def row(line):
        if not line.startswith("key:"):
            return ("template", line)
        key = line[4:].strip()
        if len(key) != 8 or key.strip("0123456789abcdef"):
            raise ValueError(f"key {key!r} is not 8 lowercase hex digits")
        return ("key", key)

    items = read_records(path, row, sep=None)
    if not items:
        raise ValueError(f"{path}: footprint spec needs at least one item")
    return BootFootprintSpec(items)


def save_footprint(spec: BootFootprintSpec, path) -> None:
    """One item per line, a key as key:KEY; one load_footprint reads
    otherwise, or a line write_records refuses, raises ValueError."""
    def row(kind, value):
        if (len(value) != 8 or value.strip("0123456789abcdef") if kind == "key"
                else value.startswith("key:")):
            raise ValueError(f"{path}: footprint {kind} {value!r} would not load")
        return [f"key:{value}" if kind == "key" else value]

    write_records(path, (row(*item) for item in spec.items), sep=None)


def detect_boot_events(table: EventTable, footprint: BootFootprintSpec,
                       rules, burst_factor=DEFAULT_BURST_FACTOR,
                       burst_minutes=DEFAULT_BURST_MINUTES,
                       min_gap=DEFAULT_MIN_GAP) -> list:
    """Detect boots in a table of one node's rows, in time order.

    Footprint: all spec items occur in order within 120 s. Burst: per-minute
    rate above burst_factor x the node's median rate (floored at 1/min) for
    burst_minutes consecutive minutes right after a gap of at least min_gap.
    Footprint wins when both fire within 120 s.
    """
    check_nonnegative(burst_factor=burst_factor, burst_minutes=burst_minutes,
                      min_gap=min_gap)
    if not len(table):
        return []
    if (table.node != table.node[0]).any():
        raise ValueError("boot detection reads one node's rows")
    if (np.diff(table.ts) < 0).any():
        raise ValueError("rows must be sorted by timestamp")
    key_id, keys = table.keys(rules)
    return _boot_events(table.nodes[table.node[0]], table.ts, key_id,
                        _footprint_ids(footprint, rules, keys), burst_factor,
                        burst_minutes, min_gap)


def _footprint_ids(footprint: BootFootprintSpec, rules, keys) -> list:
    """The footprint's key ids among a table's keys; -1 for an absent key."""
    index = {k: i for i, k in enumerate(keys)}
    return [index.get(k, -1) for k in footprint.keys(rules)]


def _boot_events(node, times, sigs, foot, burst_factor, burst_minutes,
                 min_gap) -> list:
    """detect_boot_events on one node's time-sorted columns: times and
    key ids (arrays), foot the footprint's key ids."""
    events = []
    if foot[0] >= 0:
        starts = np.flatnonzero(sigs == foot[0]).tolist()
        times_l, sigs_l = times.tolist(), sigs.tolist()
        done = 0  # entries before this are part of a matched footprint
        for i in starts:
            if i < done:
                continue
            end = _match_footprint(sigs_l, times_l, i, foot)
            if end is not None:
                events.append(BootEvent(node, times_l[i], "footprint"))
                done = end + 1

    first = int(times[0]) // 60
    per_minute = np.bincount(times // 60 - first)
    threshold = burst_factor * max(float(np.median(per_minute)), 1.0)
    per_minute = per_minute.tolist() + [0] * burst_minutes

    footprint_times = [e.boot_time for e in events]
    # a gap of at least min_gap before an entry; the first has none before it
    for j in (np.flatnonzero(np.diff(times) >= min_gap) + 1).tolist():
        t = int(times[j])
        m0 = t // 60 - first
        if all(per_minute[m0 + k] > threshold for k in range(burst_minutes)):
            if not any(abs(t - ft) <= FOOTPRINT_SPAN for ft in footprint_times):
                events.append(BootEvent(node, t, "burst"))

    events.sort(key=lambda e: e.boot_time)
    return events


def _match_footprint(sigs, times, start, keys):
    """Return the index of the last matched item, or None."""
    end = bisect_right(times, times[start] + FOOTPRINT_SPAN, start)
    pos = start
    for key in keys[1:]:
        try:
            pos = sigs.index(key, pos + 1, end)
        except ValueError:
            return None
    return pos


def detect_outages(table: EventTable, footprint: BootFootprintSpec, rules,
                   obs_range: ObservationRange,
                   silence_threshold=DEFAULT_SILENCE_THRESHOLD,
                   burst_factor=DEFAULT_BURST_FACTOR,
                   burst_minutes=DEFAULT_BURST_MINUTES,
                   min_gap=DEFAULT_MIN_GAP) -> list:
    """Full-corpus outage sweep: footprint/burst boots plus end-of-data tails.

    Each boot places an outage at the node's last row strictly before it;
    a boot before the node's first row places none. A node silent for more
    than silence_threshold before the range ends gets a tail outage at its
    last row. Each node's rows are stably sorted by timestamp, so ties keep
    their input order.
    """
    check_nonnegative(silence_threshold=silence_threshold,
                      burst_factor=burst_factor, burst_minutes=burst_minutes,
                      min_gap=min_gap)
    key_id, keys = table.keys(rules)
    foot = _footprint_ids(footprint, rules, keys)
    # rows by node id, then stably by time; node n's are bounds[n]:bounds[n+1]
    order = _lexsort((table.ts, table.node))
    bounds = [0, *np.cumsum(np.bincount(table.node,
                                        minlength=len(table.nodes))).tolist()]
    times, sigs = table.ts[order], key_id[order]
    outages = []
    for n, node in sorted(enumerate(table.nodes), key=lambda p: p[1]):
        a, b = bounds[n], bounds[n + 1]
        if a == b:
            continue
        boots = _boot_events(node, times[a:b], sigs[a:b], foot, burst_factor,
                             burst_minutes, min_gap)
        before = times[a:b].searchsorted([e.boot_time for e in boots]).tolist()
        outages.extend(OutageEvent(node, int(times[a + i - 1]), boot)
                       for boot, i in zip(boots, before) if i)
        if obs_range.end - times[b - 1] > silence_threshold:
            outages.append(OutageEvent(node, int(times[b - 1]), None))
    return outages


def write_outages(outages, path) -> None:
    write_records(path, ([o.node.name, iso(o.outage_time),
                          iso(o.following_boot.boot_time) if o.following_boot
                          else "TAIL", o.confidence] for o in outages))


def load_outages(path) -> list:
    """Read back the TSV written by write_outages."""
    def row(fields):
        name, outage_s, boot_s, confidence = fields
        node, t = parse_node_name(name), parse_iso(outage_s)
        written = ("tail",) if boot_s == "TAIL" else ("footprint", "burst")
        if confidence not in written:
            raise ValueError(f"confidence {confidence!r} is not one of "
                             f"{', '.join(written)}")
        boot = (None if boot_s == "TAIL"
                else BootEvent(node, parse_iso(boot_s), confidence))
        return OutageEvent(node, t, boot)

    return read_records(path, row)
