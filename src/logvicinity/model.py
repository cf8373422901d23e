"""Core domain types, the BSD syslog parser and the columnar event table."""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from datetime import MAXYEAR, datetime, timezone
from itertools import count

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .names import (NodeId, ObservationRange, SyslogParseError,  # noqa: F401
                    UnknownNodeError, canonical_node, iso, parse_iso,
                    parse_node_name, read_records, to_epoch, topen)

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


def format_bsd_time(t: int) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    return f"{_MONTH_NAMES[dt.month]} {dt.day:2d} {dt:%H:%M:%S}"


# The one check of a line's date and time: the parser caches its results
# per (month, day) and per time string.

def _month_day(mon_s: str, day_s: str) -> tuple:
    """(month, day) of a BSD date that some year has (Feb 29 included)."""
    month = _MONTHS.get(mon_s)
    if month is None:
        raise SyslogParseError(f"bad month {mon_s!r}")
    if not _DAY_RE.fullmatch(day_s) or not (
            1 <= int(day_s) <= _LONGEST_MONTH[month - 1]):
        raise SyslogParseError(f"bad calendar day {mon_s} {day_s!r}")
    return month, int(day_s)


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
    return _in_order(np.unique(values, return_inverse=True)[1])


def _in_order(ix):
    """_first_seen of small non-negative ints ix."""
    first = np.full(int(ix.max(initial=-1)) + 1, len(ix))
    np.minimum.at(first, ix, np.arange(len(ix)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order][:np.count_nonzero(first < len(ix))], rank[ix]


def _percentile(values, q):
    """np.percentile(values, q) of a non-empty 1-D array, bit for bit. Its
    np.unique call (np.median's on floats too) imports numpy.ma, 12 ms."""
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    pos = (len(values) - 1) * (q / 100)  # at most len - 1
    lo, t = int(pos), pos - int(pos)
    a, b = np.sort(values)[[lo, min(lo + 1, len(values) - 1)]].tolist()
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _lexsort(keys):
    """np.lexsort(keys) of integer columns by one stable argsort per key,
    a key of ids narrowed by np.min_scalar_type so numpy radix-sorts it."""
    order = None
    for key in keys:
        if order is not None:
            key = key[order]
        if len(key) and key.min() >= 0:
            key = key.astype(np.min_scalar_type(int(key.max())))
        step = np.argsort(key, kind="stable")
        order = step if order is None else order[step]
    return order


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


def _canonical_fields(data, start, end):
    """(buf, start, host end, rest start, end, month << 5 | day, seconds
    of day, ok) arrays of each line of data that is not blank; the fields
    of a line are undefined unless ok, that is unless it is canonical.

    data ends in _WIDE padding bytes, its lines run from the offsets start
    to the "\\n" offsets end. A line is blank when it is empty or starts
    with "#", and canonical when it reads "Mon DD HH:MM:SS host rest", as
    write_syslog writes it: single spaces, DD a day some year has
    (space-padded or two digits), a valid time, a host of at most
    _HOST_WINDOW - 1 printable ASCII bytes and a rest that is empty or
    starts with printable ASCII.
    """
    buf = np.frombuffer(data, np.uint8)
    keep = (start < end) & (buf[start] != ord("#"))
    start, end = start[keep], end[keep]

    window = _gather(buf, start, 32)  # the head and a host's first 16 bytes
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
    host_end = start + 16 + _unprintable(window[:, 16:]).argmax(axis=1)
    long = np.flatnonzero(~_unprintable(buf[host_end]))  # 16 bytes or more
    stop = _unprintable(_gather(buf, start[long] + 32, _HOST_WINDOW - 16))
    host_end[long] = np.where(stop.any(axis=1), 32 + stop.argmax(axis=1),
                              16) + start[long]
    host_end = np.minimum(host_end, end)
    gap = host_end < end  # " rest" follows the host
    ok &= (host_end > start + 16) & (~gap | (
        (buf[host_end] == ord(" ")) & ~_unprintable(buf[host_end + 1])
        & (host_end + 1 < end)))
    clock = (hour.astype(np.int64) * 3600 + minute.astype(np.int64) * 60
             + second)
    return (buf, start, host_end, np.where(gap, host_end + 1, end), end,
            month << 5 | day, clock, ok)


def _midnights(years, date):
    """Epochs of (year, month << 5 | day) midnights, per distinct date."""
    keys, ix = np.unique(years << 9 | date, return_inverse=True)
    return (_days(keys >> 9, keys >> 5 & 15, keys & 31) * 86400)[ix]


def _leap(year):
    return (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))


def _days(year, month, day):
    """Days from 1970-01-01 of proleptic Gregorian dates (days from
    civil); day 29 of February in a common year is Mar 1."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


class _SyslogParser:
    """BSD lines to event table columns, with per-node year rollover, a
    chunk at a time: arrays read the fields of its canonical lines,
    _line_fields those of the others, and one array step takes every row.
    """

    def __init__(self, default_year, node_resolver, skip_unknown, stats):
        self.year = default_year
        self.resolve = _resolve_fn(node_resolver)
        self.skip_unknown = skip_unknown
        self.stats = stats
        self.nodes, self.tags, self.messages = [], [], []
        self._node_ix: dict = {}  # node -> node id
        self._host_of: dict = {}  # host -> node, None if unknown
        self._msg_of: dict = {}  # text after the host -> message id
        self._state: dict = {}  # node -> (year, timestamp) of its last row
        self._date_of: dict = {}  # (month, day) strings -> month << 5 | day
        self._clock_of: dict = {}  # "HH:MM:SS" -> seconds of day

    def parse(self, data, start, end):
        """(EventTable, error) of the lines of a _line_blocks block: the
        rows before the first bad line and its error, or every row and
        None."""
        buf, start, host_end, rest, end, date, clock, ok = (
            _canonical_fields(data, start, end))
        host, text = np.zeros((2, len(start)), np.intp)  # distinct ids
        hosts, host[ok] = _distinct(buf, start[ok] + 16, host_end[ok])
        texts, text[ok] = _distinct(buf, rest[ok], end[ok])
        hosts, texts = [h.decode() for h in hosts], [t.decode() for t in texts]
        stop, error = len(start), None  # the first bad line, its error
        odd = np.flatnonzero(~ok)
        if len(odd):  # the lines the arrays reject, one by one
            read, bad, error, fields = self._line_fields(
                [data[a:b].decode() for a, b in
                 zip(start[odd].tolist(), end[odd].tolist())])
            self.stats.lines_one_by_one += min(bad + 1, len(odd))
            if error is not None:
                stop = int(odd[bad])
            at = odd[read]
            date[at], clock[at] = fields[:2]
            for names, ix, new in ((hosts, host, fields[2]),
                                   (texts, text, fields[3])):
                index = dict(zip(dict.fromkeys(new), count(len(names))))
                ix[at] = [*map(index.get, new)]
                names += index
            ok[at] = True

        # each host is resolved once; a refused host's first line is bad
        faults: dict = {}  # host -> its error
        for name in hosts:
            try:
                if name not in self._host_of:
                    self._host_of[name] = self.resolve(name)
                if self._host_of[name] is None and not self.skip_unknown:
                    raise UnknownNodeError(name)
            except Exception as exc:
                faults[name] = exc
        groups: dict = {}  # node -> its index among the chunk's nodes
        group = np.array([-1 if node is None else
                          groups.setdefault(node, len(groups))
                          for node in map(self._host_of.get, hosts)], np.int64)
        rows = np.flatnonzero(ok[:stop])
        host, group = host[rows], group[host[rows]]
        hit = np.flatnonzero(np.array([h in faults for h in hosts], bool)[host])
        if len(hit):
            stop, error = int(rows[hit[0]]), faults[hosts[host[hit[0]]]]
        unknown = rows[group < 0]  # lines of unknown hosts
        keep = (group >= 0) & (rows < stop)
        at, group = rows[keep], group[keep]
        date, clock, text = date[at], clock[at], text[at]

        year, last = np.array([self._state.get(node, (self.year, -(1 << 62)))
                               for node in groups], np.int64).reshape(-1, 2).T
        ts, year, bad = self._times(group, date, clock, year, last)
        if bad < len(at):
            stop = int(at[bad])
            y = int(year[bad])
            error = SyslogParseError(f"year {y} is out of range" if y > MAXYEAR
                                     else f"no Feb 29 in {y}")
        if isinstance(error, SyslogParseError):  # it names its line
            line = data[start[stop]:end[stop] + 1].decode()
            error = SyslogParseError(f"{error} in line: {line!r}")
        self.stats.skipped_unknown += int(np.searchsorted(unknown, stop))
        self.stats.parsed += bad
        ts, year, group, text = ts[:bad], year[:bad], group[:bad], text[:bad]
        nodes = list(groups)
        for i in (bad - 1 - _in_order(group[::-1])[0]).tolist():  # last rows
            self._state[nodes[group[i]]] = (int(year[i]), int(ts[i]))
        (first, rank), (seen, index) = _in_order(group), _in_order(text)
        node = [self._node_id(nodes[g]) for g in group[first].tolist()]
        msg = [self._message_id(texts[t]) for t in text[seen].tolist()]
        return EventTable(ts, np.array(node, np.int32)[rank],
                          np.array(msg, np.int32)[index], self.nodes,
                          self.messages, self.tags), error

    def _line_fields(self, lines) -> tuple:
        """(index of each line read, index and error of the first bad line
        or len(lines) and None, and the month << 5 | day, seconds of day,
        host and rest of each line read) of lines by str.split(None, 4),
        each distinct date and time of day checked once. Lines of
        whitespace and lines from the bad one on are not read."""
        date_of, clock_of = self._date_of, self._clock_of
        dates, clocks, hosts, rests, blank = [], [], [], [], []
        bad, error = len(lines), None
        for k, line in enumerate(lines):
            parts = line.split(None, 4)
            try:
                if len(parts) < 4:
                    if parts:
                        raise SyslogParseError("too few fields")
                    blank.append(k)
                    continue
                date = date_of.get((parts[0], parts[1]))
                if date is None:
                    month, day = _month_day(parts[0], parts[1])
                    date = date_of[parts[0], parts[1]] = month << 5 | day
                clock = clock_of.get(parts[2])
                if clock is None:  # keyed by "HH:MM:SS": a fraction is dropped
                    hms, _, frac = parts[2].partition(".")
                    clock = clock_of.get(hms)
                    if clock is None or frac.strip("0123456789"):
                        clock = clock_of[hms] = seconds_of_day(parts[2])
            except SyslogParseError as exc:
                bad, error = k, exc
                break
            dates.append(date)
            clocks.append(clock)
            hosts.append(parts[3])
            rests.append(parts[4] if len(parts) > 4 else "")
        return (np.delete(np.arange(bad), blank), bad, error,
                (dates, clocks, hosts, rests))

    def _times(self, group, date, clock, year, last):
        """(ts, year) of the rows, of group g from year[g] and timestamp
        last[g] on, and the first row on a Feb 29 its year lacks or in a
        year past MAXYEAR. A row wraps when it is more than HALF_YEAR
        before its node's previous row, both read in the previous row's
        year (Feb 29 of a common year as Mar 1). Each pass marks the wraps
        under the last pass's years; row i's mark is final after i + 1
        passes, all after two as a rule."""
        order = _lexsort([group])  # by node
        by_node = group[order]
        first = np.diff(by_node, prepend=-1) != 0  # a node's first row
        head = np.flatnonzero(first)
        years, wraps = year[group], np.zeros(len(group), bool)  # by node
        while True:
            ts = _midnights(years, date) + clock
            by_node_ts = read = ts[order]
            if wraps.any():  # read each row in its previous row's year
                back = np.empty_like(wraps)
                back[order] = wraps
                read = (_midnights(years - back, date) + clock)[order]
            previous = np.append(0, by_node_ts[:-1])  # the node's last row
            previous[head] = last[by_node[head]]
            marks = previous - read > HALF_YEAR
            if np.array_equal(marks, wraps):
                bad = np.flatnonzero(((date == 2 << 5 | 29) & ~_leap(years))
                                     | (years > MAXYEAR))
                return ts, years, int(bad[0]) if len(bad) else len(date)
            wraps = marks
            seen = np.cumsum(wraps)  # wraps up to each row, per node
            years = year[group]
            years[order] += seen - (seen - wraps)[head][np.cumsum(first) - 1]

    def _node_id(self, node) -> int:
        n = self._node_ix.setdefault(node, len(self.nodes))
        if n == len(self.nodes):
            self.nodes.append(node)
        return n

    def _message_id(self, rest) -> int:
        """Id of the text after the host."""
        m = self._msg_of.get(rest)
        if m is None:
            m = self._msg_of[rest] = len(self.messages)
            tag, message = _split_tag(rest)
            self.tags.append(tag)
            self.messages.append(message)
        return m


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
    """Parse a file opened in binary mode; returns (chunks, ParseStats).

    chunks yields one EventTable per _line_blocks block. The chunks share
    the parser's nodes, messages and tags lists, which later chunks only
    extend, so an id means the same in every chunk. A per-node backward
    jump of more than 180 days means the calendar year wrapped; the node's
    entries carry the incremented year from then on. Unknown hostnames are
    skipped (counted on .skipped_unknown) unless skip_unknown is false.
    The first bad line, malformed or invalid UTF-8, raises its error after
    the chunk of the lines before it. Arrays read lines in write_syslog's
    shape, str.split others.
    """
    if not isinstance(fh, (io.RawIOBase, io.BufferedIOBase)):
        raise TypeError("a syslog corpus is read from a binary file, such "
                        f'as topen(path, "rb") opens; got {type(fh).__name__}')
    stats = ParseStats()
    parser = _SyslogParser(default_year, node_resolver, skip_unknown, stats)

    def gen():
        for block in _line_blocks(fh):
            table, error = parser.parse(*block)
            yield table
            if error:
                raise error

    return gen(), stats


@dataclass
class ParseStats:
    """Rows parsed and skipped, by which two stats are equal, and the
    lines whose fields were extracted one by one."""
    parsed: int = 0
    skipped_unknown: int = 0
    lines_one_by_one: int = field(default=0, compare=False)


BLOCK = 1 << 20  # bytes read_blocks reads per step


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


def _line_blocks(fh):
    """Yield (block + _WIDE padding bytes, its lines' starts, their "\\n"
    offsets) per read_blocks(fh, BLOCK) block. A block with invalid UTF-8
    is cut before the line that holds it, whose UnicodeDecodeError is
    raised when the reader asks for the next block."""
    for block in read_blocks(fh, BLOCK):
        error = None
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as exc:
            cut = block.rfind(b"\n", 0, exc.start) + 1
            block, error = block[:cut], exc
        end = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        yield block + bytes(_WIDE), np.concatenate(([0], end + 1))[:-1], end
        if error:
            raise error


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
        self._index = None  # (rules, rules.index of messages)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def keyed(self) -> bool:
        """True when messages are template keys, not text."""
        return self.tags is None

    def _indexed(self, rules):
        """rules.index of the messages, run once per rule set."""
        if self.keyed:
            raise ValueError("a keyed table has no message text to template")
        if self._index is None or self._index[0] is not rules:
            self._index = (rules, rules.index(self.messages))
        return self._index[1]

    def templates(self, rules):
        """(template id per row, distinct templates) of a text table."""
        template_id, _, templates, _ = self._indexed(rules)
        return template_id[self.msg], templates

    def keys(self, rules):
        """(key id per row, distinct keys); a keyed table's own columns."""
        if self.keyed:
            return self.msg, self.messages
        _, key_id, _, keys = self._indexed(rules)
        return key_id[self.msg], keys

    def take(self, keep) -> EventTable:
        """The rows where the boolean mask keep holds."""
        return EventTable(self.ts[keep], self.node[keep], self.msg[keep],
                          self.nodes, self.messages, self.tags)


_CHUNK = 1 << 14  # rows the writers gather per step


def _stamps(ts, day_text, suffix: bytes):
    """A _gather_rows column of each row's day_text(midnight), "HH:MM:SS"
    and suffix: per slice of rows one uint8 matrix, from each distinct
    day's text and a table of every second's clock and suffix."""
    digits = np.frombuffer(b"".join(b"%02d" % i for i in range(60)),
                           np.uint8).reshape(60, 2)
    clock = np.empty((24, 60, 60, 8 + len(suffix)), np.uint8)
    clock[..., 0:2] = digits[:24, None, None]
    clock[..., 3:5] = digits[:, None]
    clock[..., 6:8] = digits
    clock[..., 2] = clock[..., 5] = ord(":")
    clock[..., 8:] = np.frombuffer(suffix, np.uint8)
    clock = clock.reshape(86400, -1)  # row s: second s of a day

    def column(rows):
        day, second = np.divmod(ts[rows], 86400)
        days, day = np.unique(day, return_inverse=True)
        heads = b"".join(day_text(d * 86400).encode() for d in days.tolist())
        out = np.hstack([  # days' texts of unequal width do not reshape
            np.frombuffer(heads, np.uint8).reshape(len(days), -1)[day],
            clock[second]])
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
    """Write a raw table's rows as "Mon dd HH:MM:SS host tag: message"
    lines, with no "tag: " where the tag is empty.

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

    def islands(self):
        return sorted({n.island for n in self.nodes})

    def racks(self):
        return sorted({(n.island, n.rack) for n in self.nodes})


def load_topology(path) -> Topology:
    arch_of = {}

    def row(line):
        # outer blanks, a trailing tab included, were never part of a field
        name, arch, island_s, rack_s = line.strip().split("\t")
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}")
        node = parse_node_name(name)
        if (node.island, node.rack) != (int(island_s), int(rack_s)):
            raise ValueError(f"island/rack disagree with {name}")
        if node in arch_of:
            raise ValueError(f"duplicate node {name}")
        arch_of[node] = arch
        return node

    return Topology(read_records(path, row, sep=None), arch_of)


def save_topology(topology: Topology, path) -> None:
    with topen(path, "w") as fh:
        fh.write("# node\tarchitecture\tisland\track\n")
        for n in topology.nodes:
            fh.write(f"{n.name}\t{topology.architecture_of[n]}\t{n.island}\t{n.rack}\n")


_RANGE_RE = re.compile(r"(.*n)\[([\d,\-]+)\]", re.ASCII)
_PIECE_RE = re.compile(r"(\d+)(?:-(\d+))?", re.ASCII)


def expand_node_spec(spec: str):
    """Expand "i1r0n[0-3,7]" style range syntax to a list of node names;
    a range piece other than N or LO-HI with LO <= HI raises ValueError."""
    names = []
    for token in spec.split():
        m = _RANGE_RE.fullmatch(token)
        if not m:
            names.append(token)
            continue
        prefix, body = m.group(1), m.group(2)
        for piece in body.split(","):
            span = _PIECE_RE.fullmatch(piece)
            if not span:
                raise ValueError(f"bad range piece {piece!r} in {token!r}")
            lo, hi = int(span[1]), int(span[2] or span[1])
            if lo > hi:
                raise ValueError(f"range {piece!r} in {token!r} runs backwards")
            names.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
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
