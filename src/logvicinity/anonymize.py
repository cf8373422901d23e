"""Full message anonymization: variable substitution plus 32-bit template keys."""

from __future__ import annotations

import re

from .model import (EventTable, _day_clock, _format_rows, iso, parse_iso,
                    parse_node_name, topen)

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


_KEY_RE = re.compile(r"[0-9a-f]{8}")


class SubstitutionRuleSet:
    """Ordered substitution rules; application is idempotent by construction."""

    def __init__(self, rules=None, version=RULE_VERSION):
        raw = DEFAULT_RULES if rules is None else list(rules)
        self.rules = [(re.compile(p), token) for p, token in raw]
        self.patterns = [p for p, _ in raw]
        self.version = version
        self._template_cache: dict = {}
        self._key_cache: dict = {}

    def template(self, message: str) -> str:
        out = self._template_cache.get(message)
        if out is None:
            out = message
            for pattern, token in self.rules:
                out = pattern.sub(token, out)
            self._template_cache[message] = out
        return out

    def key(self, message: str) -> str:
        k = self._key_cache.get(message)
        if k is None:
            k = fnv1a_32(self.template(message))
            self._key_cache[message] = k
        return k


def fnv1a_32(text: str) -> str:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return f"{h:08x}"


def anonymize_stream(table: EventTable, rules: SubstitutionRuleSet):
    """Yield the pars-lite line of each table row: ISO time, node name and
    key, tab-separated.

    A keyed table's keys pass through. Each distinct message is keyed
    once, and each day's "YYYY-MM-DDT" and each second's "HH:MM:SS" is
    formatted once.
    """
    key_id, keys = table.keys(rules)
    dates, day, secs, clock = _day_clock(table.ts, lambda t: iso(t)[:-9])
    names = [n.name for n in table.nodes]
    yield from _format_rows(
        lambda d, s, n, k: f"{dates[d]}{clock[s]}Z\t{names[n]}\t{keys[k]}\n",
        day, secs, table.node, key_id)


def load_rules(path) -> SubstitutionRuleSet:
    rules, version = [], RULE_VERSION
    with topen(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = re.search(r"\bv(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            pattern, _, token = line.partition("\t")
            if not token:
                raise ValueError(f"rules line needs <pattern>\\t<token>: {line!r}")
            rules.append((pattern, token))
    return SubstitutionRuleSet(rules, version=version)


def save_rules(rules: SubstitutionRuleSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# substitution rules v{rules.version}\n")
        for pattern, (_, token) in zip(rules.patterns, rules.rules):
            fh.write(f"{pattern}\t{token}\n")


def write_anonymized(table: EventTable, path,
                     rules: SubstitutionRuleSet) -> None:
    """Write a pars-lite file: a version line, then anonymize_stream's rows."""
    with topen(path, "w") as fh:
        fh.write(f"#pars-lite v{rules.version}\n")
        fh.writelines(anonymize_stream(table, rules))


def read_anonymized(path):
    """Load a pars-lite file as a keyed EventTable; returns (table, version).

    A row needs exactly 3 tab-separated fields and a key of 8 lowercase hex
    digits; anything else raises ValueError naming path:lineno. Each
    distinct timestamp, node and key is parsed once.
    """
    version = None
    ts, node, msg, keys = [], [], [], []
    stamp_of: dict = {}
    node_of: dict = {}  # name -> node id
    node_ix: dict = {}  # NodeId -> node id
    key_of: dict = {}
    with topen(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = re.match(r"#pars-lite v(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated "
                                 f"fields, got {len(fields)}")
            ts_s, name, key = fields
            try:
                t = stamp_of.get(ts_s)
                if t is None:
                    t = stamp_of[ts_s] = parse_iso(ts_s)
                n = node_of.get(name)
                if n is None:  # two spellings of a node share its id
                    n = node_of[name] = node_ix.setdefault(
                        parse_node_name(name), len(node_ix))
                k = key_of.get(key)
                if k is None:
                    if not _KEY_RE.fullmatch(key):
                        raise ValueError(f"key {key!r} is not 8 lowercase "
                                         f"hex digits")
                    k = key_of[key] = len(keys)
                    keys.append(key)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            ts.append(t)
            node.append(n)
            msg.append(k)
    return EventTable(ts, node, msg, list(node_ix), keys), version
