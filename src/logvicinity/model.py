"""Core domain types, the BSD syslog parser and the columnar event table."""

from __future__ import annotations

import calendar
import io
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .names import (NodeId, ObservationRange, SyslogParseError,  # noqa: F401
                    UnknownNodeError, canonical_node, iso, parse_iso,
                    parse_node_name, to_epoch, topen)

ARCHITECTURES = ("Haswell", "SandyBridge", "Westmere", "Broadwell", "GPU")

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}
_LONGEST_MONTH = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

_TAG_RE = re.compile(r"^[\w./-]+:$")
_DAY_RE = re.compile(r"\d{1,2}", re.ASCII)
_TIME_RE = re.compile(r"(\d{1,2}):(\d{1,2}):(\d{1,2})(?:\.\d*)?", re.ASCII)

HALF_YEAR = 180 * 86400
STREAM_CHUNK = 16384  # lines parse_syslog_stream parses per step


@dataclass(frozen=True, slots=True)
class LogEntry:
    timestamp: int  # epoch seconds, UTC
    node: NodeId
    tag: str
    message: str


def format_bsd_time(t: int) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    return f"{_MONTH_NAMES[dt.month]} {dt.day:2d} {dt:%H:%M:%S}"


def format_syslog_line(entry: LogEntry) -> str:
    head = f"{format_bsd_time(entry.timestamp)} {entry.node.name}"
    if entry.tag:
        return f"{head} {entry.tag}: {entry.message}"
    return f"{head} {entry.message}"


# The one check of a line's date and time: the parser caches its results
# per (month, day) and per time string, parse_syslog_line calls it per line.

def _month_day(mon_s: str, day_s: str) -> tuple:
    """(month, day) of a BSD date that some year has (Feb 29 included)."""
    month = _MONTHS.get(mon_s)
    if month is None:
        raise SyslogParseError(f"bad month {mon_s!r}")
    if not _DAY_RE.fullmatch(day_s) or not (
            1 <= int(day_s) <= _LONGEST_MONTH[month - 1]):
        raise SyslogParseError(f"bad calendar day {mon_s} {day_s!r}")
    return month, int(day_s)


def day_start(year: int, mon_s: str, day_s: str) -> int:
    """Epoch of midnight UTC opening a BSD month and day in year."""
    month, day = _month_day(mon_s, day_s)
    if day > calendar.monthrange(year, month)[1]:
        raise SyslogParseError(f"no {mon_s} {day} in {year}")
    return to_epoch(year, month, day, 0, 0, 0)


def seconds_of_day(time_s: str) -> int:
    """Seconds since midnight of "HH:MM:SS", dropping a fraction of a second."""
    m = _TIME_RE.fullmatch(time_s)
    if m is not None:
        h, mi, s = int(m[1]), int(m[2]), int(m[3])
        if h < 24 and mi < 60 and s < 60:
            return h * 3600 + mi * 60 + s
    raise SyslogParseError(f"bad time of day {time_s!r}")


def _split_tag(rest: str) -> tuple:
    """(tag, message) of the text after the host; the tag may be empty."""
    first, _, after = rest.partition(" ")
    if first and _TAG_RE.match(first):
        return first[:-1], after
    return "", rest


def _resolve_fn(node_resolver):
    return getattr(node_resolver, "get", node_resolver)


def parse_syslog_line(line: str, default_year: int, node_resolver) -> LogEntry:
    """Parse one BSD syslog line ("MMM dd HH:MM:SS host tag: message").

    The year is taken from default_year; stream-level rollover is handled by
    parse_syslog_stream. Sub-second precision is not expected and not kept.
    A date the year does not have, or a time of day outside 00:00:00 to
    23:59:59, raises SyslogParseError.
    """
    parts = line.rstrip("\n").split(None, 4)
    if len(parts) < 4:
        raise SyslogParseError(f"truncated line: {line!r}", offset=0)
    try:
        ts = (day_start(default_year, parts[0], parts[1])
              + seconds_of_day(parts[2]))
    except SyslogParseError as exc:
        raise SyslogParseError(f"{exc} in line: {line!r}",
                               offset=line.find(parts[1])) from None
    node = _resolve_fn(node_resolver)(parts[3])
    if node is None:
        raise UnknownNodeError(parts[3])
    tag, message = _split_tag(parts[4] if len(parts) > 4 else "")
    return LogEntry(ts, node, tag, message)


# Fields of a byte buffer as numpy arrays, for the readers that work on a
# block of lines at once: the syslog parser and anonymize.read_anonymized.

_WIDE = 128  # wider fields are deduplicated one by one
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_PRIME = np.uint64(0x100000001B3)


def _gather(buf, start, width):
    """The width bytes from each start on, as rows; buf ends in _WIDE
    padding bytes, so no row runs past it."""
    return sliding_window_view(buf, width)[start]


def _first_seen(values):
    """Row of each distinct value's first appearance, in row order, and
    each row's index into those."""
    distinct, inverse = np.unique(values, return_inverse=True)
    first = np.full(len(distinct), len(values))
    np.minimum.at(first, inverse, np.arange(len(values)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _percentile(values, q):
    """np.percentile(values, q) of a non-empty 1-D array, bit for bit. Its
    np.unique call (np.median's on floats too) imports numpy.ma, 12 ms."""
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    pos = (len(values) - 1) * (q / 100)  # at most len - 1
    lo, t = int(pos), pos - int(pos)
    a, b = np.sort(values)[[lo, min(lo + 1, len(values) - 1)]].tolist()
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _word(buf, start, size):
    """The first size (at most 8) bytes from each start on, as a uint64
    that is 0 in the bytes after them."""
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # one per byte
    return words[start] & _LOW_BYTES[np.clip(size, 0, 8)]


def _distinct(buf, start, stop):
    """The distinct byte strings buf[start:stop] of the fields, in order of
    first appearance, and each field's index into them."""
    size = stop - start
    width = int(size.max(initial=0))
    if width <= _WIDE:
        words = [_word(buf, start + at, size - at)
                 for at in range(0, width, 8)]
        h = size.astype(np.uint64)
        for word in words:
            h = h * _PRIME ^ word
        first, inverse = _first_seen(h)
        same = first[inverse]
        if all((w == w[same]).all() for w in [size, *words]):
            return [buf[a:b].tobytes() for a, b in
                    zip(start[first].tolist(), stop[first].tolist())], inverse
    index: dict = {}  # wide fields, or two texts share a hash
    inverse = [index.setdefault(buf[a:b].tobytes(), len(index))
               for a, b in zip(start.tolist(), stop.tolist())]
    return list(index), np.array(inverse, np.intp)


# "Mon" as one integer, sorted, and the month number of each
_MONTH_CODE, _MONTH_OF_CODE = (np.array(c) for c in zip(*sorted(
    (int.from_bytes(name.encode(), "big"), month)
    for name, month in _MONTHS.items())))
_LONGEST = np.array((0,) + _LONGEST_MONTH)
_HOST_WINDOW = 64  # bytes searched for the end of a host


def _unprintable(byte):
    """Whether each uint8 is outside printable ASCII ("!" to "~")."""
    return (byte - 0x21) > 0x5D  # bytes below "!" wrap round


def _canonical_fields(pieces, newline):
    """Fields of the lines of bytes pieces, joined, as arrays over one
    padded byte buffer, or None unless every line is canonical: (buf,
    start, host end, rest start, end, month, day, seconds of day) of each
    line that is not blank.

    Lines end at the "\\n" offsets newline holds. A line is blank when it
    is empty or starts with "#", and canonical when it reads "Mon DD
    HH:MM:SS host rest", as write_syslog writes it: single spaces, DD a
    day some year has (space-padded or two digits), a valid time, a host
    of at most _HOST_WINDOW - 1 printable ASCII bytes and a rest that is
    empty or starts with printable ASCII.
    """
    buf = np.frombuffer(b"".join([*pieces, bytes(_WIDE)]), np.uint8)
    size = len(buf) - _WIDE
    start = np.concatenate(([0], newline + 1))
    end = np.append(newline, size)
    keep = (start < end) & (buf[start] != ord("#"))
    start, end = start[keep], end[keep]

    window = _gather(buf, start, 16 + _HOST_WINDOW)
    head = window[:, :16]
    digit = (head - 48) < 10  # uint8: bytes below "0" wrap round
    value = head & 15  # of a digit; 0 of a space
    code = (head[:, 0].astype(np.int64) << 16
            | head[:, 1].astype(np.int64) << 8 | head[:, 2])
    at = np.searchsorted(_MONTH_CODE, code).clip(0, 11)
    month = _MONTH_OF_CODE[at]
    day, hour, minute, second = (value[:, k] * 10 + value[:, k + 1]
                                 for k in (4, 7, 10, 13))
    ok = ((_MONTH_CODE[at] == code) & (end - start > 16)
          & (head[:, [3, 6, 15]] == ord(" ")).all(axis=1)
          & (head[:, [9, 12]] == ord(":")).all(axis=1)
          & digit[:, [5, 7, 8, 10, 11, 13, 14]].all(axis=1)
          & (digit[:, 4] | (head[:, 4] == ord(" ")))
          & (day >= 1) & (day <= _LONGEST[month])
          & (hour < 24) & (minute < 60) & (second < 60))
    # a host ends at the first space, control or non-ASCII byte
    host_end = np.minimum(
        start + 16 + _unprintable(window[:, 16:]).argmax(axis=1), end)
    gap = host_end < end  # " rest" follows the host
    ok &= (host_end > start + 16) & (~gap | (
        (buf[host_end] == ord(" ")) & ~_unprintable(buf[host_end + 1])
        & (host_end + 1 < end)))
    if not ok.all():
        return None
    clock = (hour.astype(np.int64) * 3600 + minute.astype(np.int64) * 60
             + second)
    return (buf, start, host_end, np.where(gap, host_end + 1, end), end,
            month, day, clock)


class _SyslogParser:
    """BSD lines to event table columns, with per-node year rollover.

    Each distinct (month, day), time string, host and message is worked out
    once. A per-node backward jump of more than 180 days means the calendar
    year wrapped; the node's entries carry the incremented year from then
    on. A date the node's year lacks (Feb 29) is read as the day after
    Feb 28: a wrap by that reading carries the line into the next year,
    otherwise the line is an error. State carries over from one feed call
    to the next.
    """

    def __init__(self, default_year, node_resolver, skip_unknown, stats):
        self.year = default_year
        self.resolve = _resolve_fn(node_resolver)
        self.skip_unknown = skip_unknown
        self.stats = stats
        self.nodes, self.tags, self.messages = [], [], []
        self._node_ix: dict = {}
        self._day_of: dict = {}  # (month, day) strings -> default-year epoch
        self._day_in_year: dict = {}  # (year, month, day) -> (epoch, real)
        self._time_of: dict = {}  # time string -> seconds of day
        self._host_of: dict = {}  # host -> node id, -1 if unknown
        self._msg_of: dict = {}  # text after the host -> message id
        self._year_of: list = []  # node id -> year of its latest entry
        self._last_of: list = []  # node id -> its latest timestamp

    def feed(self, lines, ts_out: list, node_out: list, msg_out: list) -> None:
        """Append the rows of lines to the three column lists."""
        default = self.year
        day_of, time_of = self._day_of, self._time_of
        host_of, msg_of = self._host_of, self._msg_of
        year_of, last_of = self._year_of, self._last_of
        add_ts, add_node = ts_out.append, node_out.append
        add_msg = msg_out.append
        before = len(ts_out)
        try:
            for line in lines:
                # the text after the host keeps its newline until it is new
                parts = line.split(None, 4)
                if not parts or line[0] == "#":
                    continue
                if len(parts) < 4:
                    raise SyslogParseError("too few fields")
                mon_s, day_s, time_s, host = parts[:4]
                day = day_of.get((mon_s, day_s))
                if day is None:  # -1 when the default year lacks the day
                    start, real = self._day_in(default, mon_s, day_s)
                    day = day_of[(mon_s, day_s)] = start if real else -1
                secs = time_of.get(time_s)
                if secs is None:
                    secs = time_of[time_s] = seconds_of_day(time_s)
                n = host_of.get(host)
                if n is None:
                    n = self._add_host(host)
                if n < 0:
                    if self.skip_unknown:
                        self.stats.skipped_unknown += 1
                        continue
                    raise UnknownNodeError(host)
                year = year_of[n]
                if year == default and day >= 0:
                    ts = day + secs
                else:
                    start, real = self._day_in(year, mon_s, day_s)
                    ts = start + secs
                    if not real and last_of[n] - ts <= HALF_YEAR:
                        raise SyslogParseError(f"no {mon_s} {day_s} in {year}")
                if last_of[n] - ts > HALF_YEAR:
                    year_of[n] = year = year + 1
                    ts = day_start(year, mon_s, day_s) + secs
                last_of[n] = ts
                rest = parts[4] if len(parts) > 4 else ""
                m = msg_of.get(rest)
                if m is None:
                    m = msg_of[rest] = self._message_id(rest.rstrip("\n"))
                add_ts(ts)
                add_node(n)
                add_msg(m)
        except SyslogParseError as exc:
            raise SyslogParseError(f"{exc} in line: {line!r}") from None
        finally:
            self.stats.parsed += len(ts_out) - before

    def feed_canonical(self, pieces, newline):
        """The (ts, node, msg) arrays of the lines of bytes pieces, or
        None, with no state changed, unless _canonical_fields reads every
        line, every date exists in its node's year and no node's rows wrap
        the year. On such lines it gives feed's rows, ids, counts and
        state; feed parses every other chunk.
        """
        fields = _canonical_fields(pieces, newline)
        if fields is None:
            return None
        buf, start, host_end, rest, end, month, day, clock = fields

        hosts, host_ix = _distinct(buf, start + 16, host_end)
        hosts = [h.decode("ascii") for h in hosts]
        groups: dict = {}  # node -> its index among the chunk's nodes
        group_of_host = []
        for host in hosts:
            n = self._host_of.get(host)
            if n is None:
                try:
                    node = self.resolve(host)
                except Exception:  # feed raises it after the lines before
                    return None
            else:
                node = self.nodes[n] if n >= 0 else None
            group_of_host.append(-1 if node is None else
                                 groups.setdefault(node, len(groups)))
        group = np.array(group_of_host, np.int64)[host_ix]
        known = group >= 0
        if not (self.skip_unknown or known.all()):
            return None
        group = group[known]
        ix = [self._node_ix.get(node) for node in groups]
        year = np.array([self.year if n is None else self._year_of[n]
                         for n in ix], np.int64)[group]
        last = np.array([-(1 << 62) if n is None else self._last_of[n]
                         for n in ix], np.int64)

        # each distinct (node year, month, day) is worked out once
        dates, date_ix = np.unique(
            (year * 13 + month[known]) * 32 + day[known], return_inverse=True)
        starts = [self._day_in(d // 416, _MONTH_NAMES[d // 32 % 13],
                               str(d % 32)) for d in dates.tolist()]
        if not all(real for _, real in starts):
            return None
        ts = np.array([s for s, _ in starts], np.int64)[date_ix] + clock[known]
        # a radix sort for up to 65,536 nodes
        order = np.argsort(group.astype(np.min_scalar_type(len(groups))),
                           kind="stable")
        by_node, by_node_ts = group[order], ts[order]
        first = np.ones(len(order), bool)
        first[1:] = by_node[1:] != by_node[:-1]
        previous = np.empty_like(by_node_ts)
        previous[first] = last[by_node[first]]
        previous[~first] = by_node_ts[:-1][~first[1:]]
        if (previous - by_node_ts > HALF_YEAR).any():
            return None  # a node's year wraps: feed carries it over

        texts, msg_ix = _distinct(buf, rest[known], end[known])
        for host in hosts:  # accepted: record hosts, rows and counts
            if host not in self._host_of:
                self._add_host(host)
        node = np.array([self._host_of[h] for h in hosts],
                        np.int32)[host_ix[known]]
        latest = np.ones(len(order), bool)
        latest[:-1] = first[1:]
        for n, t in zip(node[order][latest].tolist(),
                        by_node_ts[latest].tolist()):
            self._last_of[n] = t
        msg = np.array([self._message_id(t.decode("utf-8")) for t in texts],
                       np.int32)[msg_ix]
        self.stats.parsed += len(ts)
        self.stats.skipped_unknown += len(known) - len(ts)
        return ts, node, msg

    def _day_in(self, year, mon_s, day_s) -> tuple:
        """(epoch, whether year has the day) of a BSD date, cached; Feb 29
        of a common year reads as the day after Feb 28."""
        key = (year, mon_s, day_s)
        if key not in self._day_in_year:
            month, day = _month_day(mon_s, day_s)  # some year has the day
            real = day <= calendar.monthrange(year, month)[1]
            month, day = (month, day) if real else (3, 1)
            self._day_in_year[key] = (to_epoch(year, month, day, 0, 0, 0), real)
        return self._day_in_year[key]

    def _message_id(self, rest) -> int:
        """Id of the text after the host, whichever line ending it had."""
        m = self._msg_of.get(rest)
        if m is None:
            m = self._msg_of[rest] = len(self.messages)
            tag, message = _split_tag(rest)
            self.tags.append(tag)
            self.messages.append(message)
        return m

    def _add_host(self, host) -> int:
        node = self.resolve(host)
        if node is None:
            n = -1
        else:
            n = self._node_ix.get(node)
            if n is None:
                n = self._node_ix[node] = len(self.nodes)
                self.nodes.append(node)
                self._year_of.append(self.year)
                self._last_of.append(-(1 << 62))
        self._host_of[host] = n
        return n

    def table(self, ts, node, msg) -> EventTable:
        return EventTable(ts, node, msg, self.nodes, self.messages, self.tags)


def parse_syslog_table(fh, default_year: int, node_resolver,
                       skip_unknown: bool = True):
    """Parse a whole corpus into (EventTable, ParseStats): the chunks of
    parse_syslog_stream, concatenated. Rows keep line order."""
    chunks, stats = parse_syslog_stream(fh, default_year, node_resolver,
                                        skip_unknown)
    chunks = list(chunks)
    if not chunks:
        return EventTable([], [], [], [], [], []), stats
    last = chunks[-1]  # every chunk shares the parser's growing lists
    return EventTable(*(np.concatenate([getattr(c, col) for c in chunks])
                        for col in ("ts", "node", "msg")),
                      last.nodes, last.messages, last.tags), stats


def parse_syslog_stream(fh, default_year: int, node_resolver,
                        skip_unknown: bool = True):
    """Parse a file opened in binary mode, read by read_blocks,
    STREAM_CHUNK lines at a time; returns (chunks, ParseStats).

    chunks yields one EventTable per STREAM_CHUNK lines. The chunks share
    the parser's nodes, messages and tags lists, which later chunks only
    extend, so an id means the same in every chunk. A per-node backward
    jump of more than 180 days means the calendar year wrapped; the node's
    entries carry the incremented year from then on. Unknown hostnames are
    skipped (counted on .skipped_unknown) unless skip_unknown is false. An
    error is raised after the chunk of the lines before it, invalid UTF-8
    before it. A chunk in write_syslog's shape is parsed as numpy arrays,
    any other line by line; both give the same rows.
    """
    if not isinstance(fh, (io.RawIOBase, io.BufferedIOBase)):
        raise TypeError("a syslog corpus is read from a binary file, such "
                        f'as topen(path, "rb") opens; got {type(fh).__name__}')
    stats = ParseStats()
    parser = _SyslogParser(default_year, node_resolver, skip_unknown, stats)

    def gen():
        for pieces, newline in _file_chunks(fh):
            columns = parser.feed_canonical(pieces, newline)
            if columns is not None:
                stats.array_chunks += 1
                yield parser.table(*columns)
                continue
            stats.line_chunks += 1
            columns, error = ([], [], []), None
            try:  # a chunk split at "\n" only, as text mode does
                parser.feed(io.StringIO(b"".join(pieces).decode()), *columns)
            except Exception as exc:  # re-raised after the parsed lines
                error = exc
            yield parser.table(*columns)
            if error is not None:
                raise error

    return gen(), stats


def _file_chunks(fh):
    """(bytes pieces, their "\\n" offsets) per STREAM_CHUNK lines of fh."""
    pieces, marks, held = [], [], 0  # uncut: pieces, "\n" offsets, size
    for block in read_blocks(fh, BLOCK):
        if not block.isascii():
            block.decode("utf-8")  # raises on invalid UTF-8
        newline = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        view, a, i = memoryview(block), 0, 0  # first uncut byte and "\n"
        for j in range(STREAM_CHUNK - sum(map(len, marks)) - 1, len(newline),
                       STREAM_CHUNK):  # each "\n" that ends a chunk
            b = int(newline[j]) + 1
            yield ([*pieces, view[a:b]],
                   np.concatenate([*marks, newline[i:j + 1] + (held - a)]))
            pieces, marks, held, a, i = [], [], 0, b, j + 1
        pieces.append(view[a:])
        marks.append(newline[i:] + (held - a))
        held += len(block) - a
    if held:
        yield pieces, np.concatenate(marks)


@dataclass
class ParseStats:
    """Rows parsed and skipped, by which two stats are equal, and the
    chunks parsed on the array path and line by line."""
    parsed: int = 0
    skipped_unknown: int = 0
    array_chunks: int = field(default=0, compare=False)
    line_chunks: int = field(default=0, compare=False)


BLOCK = 1 << 19  # bytes read_blocks reads per step


def read_blocks(fh, size: int):
    """Yield binary file fh, read size bytes at a time, as blocks of whole
    lines ending in \\n: \\r\\n and lone \\r become \\n, as in text mode,
    a line longer than a block joins its blocks once and a last line
    without an end gets one."""
    pending = []  # the bytes after the last line end
    while block := fh.read(size):
        while block.endswith(b"\r") and (more := fh.read(1)):
            block += more  # a \r\n the read split stays one line end
        if b"\r" in block:  # replace alone would search the block twice
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, memoryview(block)[:cut]])
            pending.clear()
        pending.append(block[cut:])
    if rest := b"".join(pending):
        yield rest + b"\n"


class EventTable:
    """A corpus as columns, one row per entry, in input order.

    ts holds epoch seconds (int64), node an int32 index into nodes and msg
    an int32 index into messages. A raw corpus has one message per distinct
    (tag, text) pair, its tag in tags; a pars-lite corpus holds its
    distinct template keys as messages, and tags is None.
    """

    def __init__(self, ts, node, msg, nodes, messages, tags=None):
        self.ts = np.asarray(ts, dtype=np.int64)
        self.node = np.asarray(node, dtype=np.int32)
        self.msg = np.asarray(msg, dtype=np.int32)
        self.nodes, self.messages, self.tags = nodes, messages, tags
        self._key_cache = None  # (rules, key id per row, distinct keys)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def keyed(self) -> bool:
        """True when messages are template keys, not text."""
        return self.tags is None

    def keys(self, rules):
        """(key id per row, distinct keys); each distinct message is keyed
        once per rule set."""
        if self.keyed:
            return self.msg, self.messages
        if self._key_cache is None or self._key_cache[0] is not rules:
            index: dict = {}
            of_msg = np.array([index.setdefault(rules.key(m), len(index))
                               for m in self.messages], dtype=np.int32)
            self._key_cache = (rules, of_msg[self.msg], list(index))
        return self._key_cache[1], self._key_cache[2]

    def keyed_by(self, rules) -> EventTable:
        """The keyed table of the same rows: each message's key in its place."""
        key_id, keys = self.keys(rules)
        return EventTable(self.ts, self.node, key_id, self.nodes, keys)

    def take(self, keep) -> EventTable:
        """The rows where the boolean mask keep holds."""
        return EventTable(self.ts[keep], self.node[keep], self.msg[keep],
                          self.nodes, self.messages, self.tags)


_CHUNK = 1 << 14  # rows the writers gather per step


def _stamps(ts, day_text, suffix: bytes):
    """A _gather_rows column of each row's day_text(midnight), "HH:MM:SS"
    and suffix: per slice of rows one uint8 matrix, from each distinct
    day's text and the clock's digits by integer arithmetic."""
    pad = [1] * len(suffix)
    div = np.array([36000, 3600, 1, 600, 60, 1, 10, 1] + pad)
    mod = np.array([10, 10, 1, 6, 10, 1, 6, 10] + pad)
    zero = np.frombuffer(b"00:00:00" + suffix, np.uint8)

    def column(rows):
        day, second = np.divmod(ts[rows], 86400)
        days, day = np.unique(day, return_inverse=True)
        heads = b"".join(day_text(d * 86400).encode() for d in days.tolist())
        out = np.hstack([  # days' texts of unequal width do not reshape
            np.frombuffer(heads, np.uint8).reshape(len(days), -1)[day],
            (second[:, None] // div % mod + zero).astype(np.uint8)])
        return out.view(f"S{out.shape[1]}").ravel()

    return column


def _gather_rows(n, *columns):
    """Yield the bytes of rows 0 to n, _CHUNK rows at a time, a row being
    its columns' fragments in order. A column is (texts, index), a row's
    fragment texts[index[row]] with each text encoded once, or a function
    of a slice of rows giving their fragments."""
    columns = [c if callable(c) else
               (np.array([t.encode("utf-8") for t in c[0]], object), c[1])
               for c in columns]
    for a in range(0, n, _CHUNK):
        rows = slice(a, min(n, a + _CHUNK))
        out = np.empty((rows.stop - a, len(columns)), object)
        for j, c in enumerate(columns):
            out[:, j] = c(rows) if callable(c) else c[0][c[1][rows]]
        yield b"".join(out.ravel().tolist())


def write_syslog(table: EventTable, path) -> None:
    """Write a raw table's rows as format_syslog_line lines.

    Every (tag, message) pair must read back as itself: no line break,
    no leading whitespace, and the tag _split_tag finds. Else ValueError
    names the first pair that does not.
    """
    texts = [f"{t}: {m}" if t else m
             for t, m in zip(table.tags, table.messages)]
    for tag, message, text in zip(table.tags, table.messages, texts):
        if ("\n" in text or "\r" in text or text[:1].isspace()
                or _split_tag(text) != (tag, message)):
            raise ValueError(f"tag {tag!r} with message {message!r} would "
                             f"not read back from a syslog line")
    with topen(path, "wb") as fh:
        fh.writelines(_gather_rows(
            len(table),
            _stamps(table.ts, lambda t: format_bsd_time(t)[:7], b" "),
            ([f"{n.name} " for n in table.nodes], table.node),
            ([f"{t}\n" for t in texts], table.msg)))


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
    with topen(path, "w") as fh:
        fh.write("# node\tarchitecture\tisland\track\n")
        for n in topology.nodes:
            fh.write(f"{n.name}\t{topology.architecture_of[n]}\t{n.island}\t{n.rack}\n")


_RANGE_RE = re.compile(r"(.*n)\[([\d,\-]+)\]", re.ASCII)


def expand_node_spec(spec: str):
    """Expand "i1r0n[0-3,7]" style range syntax to a list of node names."""
    names = []
    for token in spec.split():
        m = _RANGE_RE.fullmatch(token)
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
