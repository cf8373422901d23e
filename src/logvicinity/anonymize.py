"""Full message anonymization: variable substitution plus 32-bit template keys."""

from __future__ import annotations

import re

import numpy as np

from .model import (EventTable, _concat, _days, _distinct, _first_seen,
                    _gather, _gather_rows, _id_of, _leap, _line_blocks, _stamps,
                    _word, iso, parse_iso, parse_node_name, topen)
from .names import numbered_lines

RULE_VERSION = "1"

# Order matters: usernames and cron payloads first (they contain paths and
# numbers that must not decay into <PATH>/<NUM> separately), datetimes before
# bare integers, paths before hex so hex-looking path chunks stay <PATH>.
DEFAULT_RULES = [
    (r"^\([A-Za-z][\w.\-]*\)(?=\s)", "(<USER>)"),
    (r"CMD\s+\(.*\)", "CMD (<CMDLINE>)"),
    (r"(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{1,2}\s+"
     r"\d{2}:\d{2}:\d{2}"
     r"|\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}(?::\d{2})?(?:Z|[+-]\d{2}:?\d{2})?)?"
     r"|\b\d{1,2}:\d{2}:\d{2}\b", "<TIME>"),
    (r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
     r"|\b[0-9A-Fa-f]{2}(?::[0-9A-Fa-f]{2}){5}\b"
     r"|\b(?:[0-9A-Fa-f]{1,4}:){2,7}[0-9A-Fa-f]{1,4}\b", "<ADDR>"),
    (r"(?:^|(?<=[\s=(>\"']))/[^\s)\"',;]+", "<PATH>"),
    (r"\b0[xX][0-9A-Fa-f]+\b"
     r"|\b(?=[0-9A-Fa-f]{4,}\b)(?=[0-9A-Fa-f]*\d)(?=[0-9A-Fa-f]*[A-Fa-f])"
     r"[0-9A-Fa-f]+\b", "<HEX>"),
    (r"\b\d+\b", "<NUM>"),
]


class SubstitutionRuleSet:
    """Ordered substitution rules; application is idempotent by construction."""

    def __init__(self, rules=None, version=RULE_VERSION):
        raw = DEFAULT_RULES if rules is None else list(rules)
        self.rules = [(re.compile(p), token) for p, token in raw]
        self.patterns = [p for p, _ in raw]
        self.version = version

    def template(self, message: str) -> str:
        for pattern, token in self.rules:
            message = pattern.sub(token, message)
        return message

    def key(self, message: str) -> str:
        return fnv1a_32(self.template(message))

    def index(self, messages):
        """(template id, key id, distinct templates, distinct keys): the
        ids are int32 arrays, one entry per message, numbered in first
        appearance. Each message is templated once and each distinct
        template hashed once; many messages share a template."""
        templates: dict = {}
        template_id = np.array([templates.setdefault(self.template(m),
                                                     len(templates))
                                for m in messages], dtype=np.int32)
        keys: dict = {}
        of_template = np.array([keys.setdefault(fnv1a_32(t), len(keys))
                                for t in templates], dtype=np.int32)
        return (template_id, of_template[template_id], list(templates),
                list(keys))


def fnv1a_32(text: str) -> str:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return f"{h:08x}"


def anonymize_stream(table: EventTable, rules: SubstitutionRuleSet):
    """Yield the pars-lite lines of the table's rows as UTF-8 bytes, one
    chunk per model._CHUNK rows: ISO time, node name and key,
    tab-separated, each line ending in \\n.

    A keyed table's keys pass through. Each distinct message is keyed
    once, and each node name and key is encoded once.
    """
    key_id, keys = table.keys(rules)
    yield from _gather_rows(
        len(table), _stamps(table.ts, lambda t: iso(t)[:11], b"Z\t"),
        ([f"{n.name}\t" for n in table.nodes], table.node),
        ([f"{k}\n" for k in keys], key_id))


def load_rules(path) -> SubstitutionRuleSet:
    """The rules of a save_rules file. Only empty lines are skipped, as a
    pattern may be blanks; a bad line fails as "PATH:LINE: reason"."""
    rules, version = [], RULE_VERSION
    for lineno, line in numbered_lines(path):
        if not line:
            continue
        if line.startswith("#"):  # only save_rules's header
            m = re.match(r"# substitution rules v(\S+)", line)
            if m:
                version = m.group(1)
            continue
        pattern, _, token = line.partition("\t")
        if not token:
            raise ValueError(f"{path}:{lineno}: rules line needs "
                             f"<pattern>\\t<token>: {line!r}")
        try:
            re.compile(pattern)
        except re.error as exc:
            raise ValueError(f"{path}:{lineno}: bad pattern "
                             f"{pattern!r}: {exc}") from None
        rules.append((pattern, token))
    return SubstitutionRuleSet(rules, version=version)


def _version_word(rules: SubstitutionRuleSet, path) -> str:
    """The rules version, which the readers of both version lines read
    back as v(\\S+); ValueError naming path if it is not one word."""
    if not re.fullmatch(r"\S+", str(rules.version)):
        raise ValueError(f"{path}: rules version {rules.version!r} is not one word")
    return str(rules.version)


def save_rules(rules: SubstitutionRuleSet, path) -> None:
    """Write load_rules's file; a version or rule it would read otherwise
    ("#" leads a comment, a tab ends the pattern) raises ValueError."""
    with topen(path, "w") as fh:
        fh.write(f"# substitution rules v{_version_word(rules, path)}\n")
        for pattern, (_, token) in zip(rules.patterns, rules.rules):
            if (pattern.startswith("#") or "\t" in pattern or not token
                    or re.search("[\r\n]", pattern + token)):
                raise ValueError(f"{path}: rule {pattern!r} -> {token!r} "
                                 f"would not load back as it is")
            fh.write(f"{pattern}\t{token}\n")


def write_anonymized(table: EventTable, path,
                     rules: SubstitutionRuleSet) -> None:
    """Write a pars-lite file: a version line, then anonymize_stream's rows;
    a version that is not one word raises ValueError."""
    with topen(path, "wb") as fh:
        fh.write(f"#pars-lite v{_version_word(rules, path)}\n".encode())
        fh.writelines(anonymize_stream(table, rules))


_KEY_RE = re.compile(rb"[0-9a-f]{8}")
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", np.uint8)  # 0: any digit
_CLASS = np.arange(256, dtype=np.uint8)  # byte -> itself, a digit -> "0"
_CLASS[np.frombuffer(b"0123456789", np.uint8)] = ord("0")
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def read_anonymized(path):
    """Load a pars-lite file as a keyed EventTable; returns (table, version).

    A row needs exactly 3 tab-separated fields and a key of 8 lowercase hex
    digits. The file is read by model._line_blocks, the parser's read
    loop; arrays find and check the fields of a block and decode its keys
    and canonical ISO stamps. Each distinct node name and other stamp
    spelling is parsed once. The first bad line, malformed or invalid
    UTF-8, raises its line error, "PATH:LINE: reason".
    """
    reader = _ParsLiteReader()
    with topen(path, "rb") as fh:
        return _concat(_line_blocks(fh, reader.feed), None), reader.version


class _ParsLiteReader:
    """Columns of a pars-lite file fed as blocks of whole lines.

    Node and key ids follow first appearance in the file.
    """

    def __init__(self):
        self.version = None
        self.stamp_of: dict = {}  # stamp bytes -> epoch, None if bad
        self.node_of: dict = {}  # name bytes -> node id, -1 if bad
        self.node_ix: dict = {}  # NodeId -> node id
        self.key_of: dict = {}  # key bytes -> key id, -1 if bad
        self.nodes: list = []
        self.keys: list = []

    def feed(self, data: bytes, starts, ends):
        """(EventTable, bad) of a model._line_blocks block (data, its
        lines' starts and ends): the rows before the first bad row and
        (its offset in data, its error), or every row and None."""
        buf = np.frombuffer(data, np.uint8)
        heads = buf[starts]  # a blank line's head is its \n
        for i in np.flatnonzero(heads == ord("#")).tolist():
            m = re.match(r"#pars-lite v(\S+)",
                         data[starts[i]:ends[i]].decode("utf-8"))
            if m:
                self.version = m.group(1)
        line = np.flatnonzero((heads != ord("\n")) & (heads != ord("#")))
        start, end = starts[line], ends[line]
        tabs = np.flatnonzero(buf == ord("\t"))
        tab = np.searchsorted(tabs, start)
        shaped = np.searchsorted(tabs, end) - tab == 2
        n = len(line) if shaped.all() else int(np.argmin(shaped))
        start, end, tab = start[:n], end[:n], tab[:n]
        t1, t2 = tabs[tab], tabs[tab + 1]
        ts, ts_ok = self._stamps(buf, start, t1)
        node = self._nodes(buf, t1 + 1, t2)
        key, key_ok = self._keys(buf, t2 + 1, end)
        ok = ts_ok & (node >= 0) & key_ok
        bad = n if ok.all() else int(np.argmin(ok))
        chunk = EventTable(ts[:bad], node[:bad], key[:bad], self.nodes,
                           self.keys)
        if bad < len(line):
            i = int(line[bad])
            return chunk, (int(starts[i]), ValueError(_row_error(
                data[starts[i]:ends[i]].decode("utf-8"))))
        return chunk, None

    def _stamps(self, buf, start, stop):
        """(epoch, valid) of each stamp field."""
        ts, ok = _canonical_stamps(buf, start, stop)
        other = np.flatnonzero(~ok)
        if len(other):
            texts, inverse = _distinct(buf, start[other], stop[other])
            epochs = [self._stamp(t) for t in texts]
            ts[other] = np.array([e or 0 for e in epochs], np.int64)[inverse]
            ok[other] = np.array([e is not None for e in epochs])[inverse]
        return ts, ok

    def _stamp(self, text: bytes):
        if text not in self.stamp_of:
            try:
                self.stamp_of[text] = parse_iso(text.decode("utf-8"))
            except ValueError:
                self.stamp_of[text] = None
        return self.stamp_of[text]

    def _nodes(self, buf, start, stop):
        """Node id of each name field, -1 for a bad name; two spellings of
        a node share its id."""
        texts, inverse = _distinct(buf, start, stop)
        return np.array([self._node(t) for t in texts], np.int32)[inverse]

    def _node(self, text: bytes) -> int:
        n = self.node_of.get(text)
        if n is None:
            try:
                n = _id_of(self.node_ix, self.nodes,
                           parse_node_name(text.decode("utf-8")))
            except ValueError:
                n = -1
            self.node_of[text] = n
        return n

    def _keys(self, buf, start, stop):
        """(key id, valid) of each key field."""
        first, inverse = _first_seen(_word(buf, start, 8))
        ids = np.array([self._key(buf[i:i + 8].tobytes())
                        for i in start[first].tolist()], np.int32)[inverse]
        return ids, (stop - start == 8) & (ids >= 0)

    def _key(self, text: bytes) -> int:
        k = self.key_of.get(text)
        if k is None:
            k = -1
            if _KEY_RE.fullmatch(text):
                k = len(self.keys)
                self.keys.append(text.decode("ascii"))
            self.key_of[text] = k
        return k


def _row_error(line: str) -> str:
    """Why a pars-lite row is malformed."""
    fields = line.split("\t")
    if len(fields) != 3:
        return f"expected 3 tab-separated fields, got {len(fields)}"
    ts_s, name, key = fields
    try:
        parse_iso(ts_s)
        parse_node_name(name)
    except ValueError as exc:
        return str(exc)
    return f"key {key!r} is not 8 lowercase hex digits"


def _canonical_stamps(buf, start, stop):
    """(epoch, valid) of "YYYY-MM-DDTHH:MM:SSZ" fields; valid is false for
    any other field and for a date or time datetime rejects. A run of
    equal stamps is decoded once."""
    text = _gather(buf, start, len(_STAMP))
    words = text.view(np.uint32)
    head = np.ones(len(text), bool)
    head[1:] = (words[1:] != words[:-1]).any(axis=1)
    run = np.cumsum(head) - 1
    text = text[head]
    ok = (_CLASS[text] == _CLASS[_STAMP]).all(axis=1)
    d = text.astype(np.int64) - ord("0")

    def number(at, size):
        return d[:, at:at + size] @ 10 ** np.arange(size - 1, -1, -1)

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    month_days = (_MONTH_DAYS[np.clip(month, 0, 12)]
                  + (_leap(year) & (month == 2)))
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60))
    epoch = (_days(year, month, day) * 86400 + hour * 3600 + minute * 60
             + second)
    return epoch[run], ok[run] & (stop - start == len(_STAMP))
