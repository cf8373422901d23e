"""Full message anonymization: variable substitution plus 32-bit template keys."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import NodeId, iso, parse_iso, parse_node_name, topen

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


@dataclass(frozen=True, slots=True)
class AnonymizedEntry:
    timestamp: int  # epoch seconds, UTC
    node: NodeId
    key: str  # 8 lowercase hex digits


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


def deidentify(message: str, rules: SubstitutionRuleSet) -> str:
    return rules.template(message)


def anonymize_stream(entries, rules: SubstitutionRuleSet):
    for entry in entries:
        yield AnonymizedEntry(entry.timestamp, entry.node, rules.key(entry.message))


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


def write_anonymized(entries, path, rules: SubstitutionRuleSet) -> None:
    with topen(path, "w") as fh:
        fh.write(f"#pars-lite v{rules.version}\n")
        for e in entries:
            fh.write(f"{iso(e.timestamp)}\t{e.node.name}\t{e.key}\n")


def read_anonymized(path):
    """Load an anonymized corpus file; returns (entries, rule_version)."""
    entries, version = [], None
    node_cache: dict = {}
    with topen(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = re.match(r"#pars-lite v(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            ts_s, name, key = line.split("\t")
            node = node_cache.get(name)
            if node is None:
                node = node_cache.setdefault(name, parse_node_name(name))
            entries.append(AnonymizedEntry(parse_iso(ts_s), node, key))
    return entries, version
