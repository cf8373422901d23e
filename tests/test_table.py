"""The columnar event table: parser oracle, round trips and metamorphic checks."""

import random

import numpy as np
import pytest

import oracles
from logvicinity.anonymize import SubstitutionRuleSet, anonymize_stream
from logvicinity.detect import filter_frequent_anonymized
from logvicinity.model import (AnonymizedEntry, EventTable, LogEntry, NodeId,
                               SyslogParseError, Topology, UnknownNodeError,
                               format_bsd_time, format_syslog_line,
                               parse_syslog_line,
                               parse_syslog_stream, parse_syslog_table,
                               to_epoch, topen, write_syslog)
from logvicinity.outages import detect_boot_events, detect_outages
from logvicinity.pipeline import VARIANTS, run_variant

NODES = [NodeId(1, 0, p) for p in range(5)]
TOPOLOGY = Topology(NODES, {n: "Haswell" for n in NODES})
MESSAGES = [("sshd", "session opened for user 17"), ("", "no tag here"),
            ("kernel", "eth0: link up"), ("cron", "no tag here"),
            ("x", "")]


def _wrapping_corpus(seed):
    """Lines of five nodes and two unknown hosts from Dec 28 into March.

    Each node's clock runs forward with gaps of up to 9 h, so every node
    wraps into the (leap) year after its first lines and some reach
    Feb 29. Lines are in time order up to a little jitter between hosts,
    with blank and comment lines mixed in.
    """
    rng = random.Random(seed)
    start = to_epoch(2023, 12, 28, 0, 0, 0)
    end = to_epoch(2024, 3, 2, 0, 0, 0)
    rows = []
    for host in [n.name for n in NODES] + ["login01", "i9r9n9"]:
        t = start + rng.randrange(3600)
        while t < end:
            tag, msg = rng.choice(MESSAGES)
            text = f"{tag}: {msg}" if tag else msg
            rows.append((t + rng.randrange(-600, 600),
                         f"{format_bsd_time(t)} {host} {text}\n"))
            t += rng.randrange(1, 9 * 3600)
    rows.sort()
    lines = [line for _, line in rows]
    for _ in range(20):
        lines.insert(rng.randrange(len(lines)),
                     rng.choice(["\n", "   \n", "# a comment\n"]))
    return lines


def test_table_columns_follow_the_line_parser_and_rollover_rule():
    lines = _wrapping_corpus(41)
    resolver = TOPOLOGY.resolver()
    expected, skipped = oracles.reference_parse(lines, 2023, resolver,
                                                parse_syslog_line)
    assert skipped > 0 and any(e.timestamp >= to_epoch(2024, 2, 29, 0, 0, 0)
                               for e in expected)
    table, stats = parse_syslog_table(lines, 2023, resolver)
    assert table.entries() == expected
    assert (stats.parsed, stats.skipped_unknown) == (len(expected), skipped)
    assert table.ts.dtype == np.int64 and table.node.dtype == np.int32
    assert len(table.messages) == len(set(MESSAGES))  # one per distinct pair
    gen, stream_stats = parse_syslog_stream(lines, 2023, resolver)
    assert list(gen) == expected and stream_stats == stats
    with pytest.raises(UnknownNodeError):
        parse_syslog_table(lines, 2023, resolver, skip_unknown=False)


@pytest.mark.parametrize("before, year, wraps", [
    ("Dec 31 23:59:00 i1r0n0", 2023, True),
    # the day after Feb 28 is 180 days and 1 s before the node's last line
    ("Aug 28 00:00:02 i1r0n0", 2023, True),
    ("Aug 28 00:00:01 i1r0n0", 2023, False),  # 180 days: no wrap
    ("Feb 28 23:59:59 i1r0n0", 2023, False),
    ("Dec 31 23:59:00 i1r0n1", 2023, False),  # the node's first line
    ("Dec 31 23:59:00 i1r0n0", 2022, False),  # 2023 lacks Feb 29 too
])
def test_feb_29_is_read_as_the_day_after_feb_28(before, year, wraps):
    lines = [f"{before} a: b\n", "Feb 29 00:00:01 i1r0n0 a: b\n"]
    resolver = TOPOLOGY.resolver()
    if not wraps:
        with pytest.raises(SyslogParseError, match="no Feb 29 in"):
            parse_syslog_table(lines, year, resolver)
        with pytest.raises(SyslogParseError, match="no Feb 29 in"):
            oracles.reference_parse(lines, year, resolver, parse_syslog_line)
        return
    table, _ = parse_syslog_table(lines, year, resolver)
    assert table.ts[-1] == to_epoch(year + 1, 2, 29, 0, 0, 1)
    expected, _ = oracles.reference_parse(lines, year, resolver,
                                          parse_syslog_line)
    assert table.entries() == expected


def test_a_message_is_one_message_with_or_without_its_newline():
    lines = ["Mar  1 10:00:00 i1r0n0 a: x\n", "Mar  1 10:00:01 i1r0n0 a: x"]
    table, _ = parse_syslog_table(lines, 2023, TOPOLOGY.resolver())
    assert (table.tags, table.messages) == (["a"], ["x"])
    assert table.msg.tolist() == [0, 0]


def _columns(table):
    return (table.ts.tolist(), table.node.tolist(), table.msg.tolist(),
            table.nodes, table.messages, table.tags)


def test_from_entries_round_trips(tmp_path):
    lines = _wrapping_corpus(42)
    entries = list(parse_syslog_stream(lines, 2023, TOPOLOGY.resolver())[0])
    table = EventTable.from_entries(entries)
    assert table.entries() == entries
    # rows with an empty tag, an empty message, a year wrap and many days
    assert "" in table.tags and "" in table.messages
    assert table.ts[-1] - table.ts[0] > 30 * 86400
    assert table.ts[-1] >= to_epoch(2024, 1, 1, 0, 0, 0) > table.ts[0]
    for name in ("corpus.log", "corpus.log.gz"):
        path = tmp_path / name
        write_syslog(table, path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        with topen(path) as fh:
            written = fh.readlines()
        assert written == [format_syslog_line(e) + "\n" for e in entries]
        again, _ = parse_syslog_table(written, 2023, TOPOLOGY.resolver())
        assert _columns(again) == _columns(table)
    assert len(table) == len(entries)
    assert sorted(zip(table.tags, table.messages)) == sorted(set(MESSAGES))
    rules = SubstitutionRuleSet()
    keyed = list(anonymize_stream(entries, rules))
    assert table.entries(rules) == keyed
    keyed_table = EventTable.from_entries(keyed)
    assert keyed_table.keyed and keyed_table.entries() == keyed
    assert EventTable.from_entries([]).entries() == []
    assert EventTable.of(table) is table


def test_each_distinct_message_is_keyed_once(monkeypatch):
    table, _ = parse_syslog_table(_wrapping_corpus(43), 2023,
                                  TOPOLOGY.resolver())
    rules = SubstitutionRuleSet()
    keyed = []
    real_key = rules.key
    monkeypatch.setattr(rules, "key", lambda m: keyed.append(m) or real_key(m))
    key_id, keys = table.keys(rules)
    assert table.keys(rules)[0] is key_id  # cached per rule set
    assert sorted(keyed) == sorted(table.messages)
    assert [keys[k] for k in key_id.tolist()] == [
        e.key for e in anonymize_stream(table.entries(), rules)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_variant_on_a_table_equals_its_entry_list(corpus, rules, variant):
    head = corpus.entries.take(np.arange(len(corpus.entries)) < 60000)
    entries = head.entries()
    lines = [format_syslog_line(e) for e in entries]
    table, _ = parse_syslog_table(lines, 2023, corpus.topology.resolver())
    args = (corpus.topology, corpus.range, variant, rules,
            corpus.truth.maintenance)
    from_table, from_list = run_variant(table, *args), run_variant(entries, *args)
    assert from_table.events == from_list.events
    assert from_table.dropped == from_list.dropped
    assert [(r.at, r.group, r.sg, r.verdict) for r in from_table.sweep.results] \
        == [(r.at, r.group, r.sg, r.verdict) for r in from_list.sweep.results]
    if variant.startswith("filtered"):
        assert from_table.dropped


def test_outages_do_not_depend_on_line_order(corpus, footprint, rules):
    shuffled = corpus.entries.entries()
    random.Random(8).shuffle(shuffled)
    outages = detect_outages(corpus.entries, footprint, rules, corpus.range)
    assert outages
    assert detect_outages(shuffled, footprint, rules, corpus.range) == outages
    table = EventTable.from_entries(shuffled)
    assert detect_outages(table, footprint, rules, corpus.range) == outages


def test_key_filter_matches_naive_oracle():
    rng = random.Random(19)
    for _ in range(30):
        entries = []
        for k in range(rng.randrange(1, 8)):
            key = f"{k:08x}"
            period = rng.choice((60, 600, 3600))
            jitter = rng.choice((0, 0, 1, 30, period))
            for node in NODES[:rng.randrange(1, 6)]:
                t = rng.randrange(5000)
                for _ in range(rng.randrange(1, 40)):
                    entries.append(AnonymizedEntry(t, node, key))
                    t += period + rng.randrange(-jitter, jitter + 1)
        rng.shuffle(entries)
        percentile = rng.choice((90.0, 99.5, 100.0))
        _, dropped = filter_frequent_anonymized(entries, percentile, 0.1)
        assert dropped == oracles.naive_key_filter(entries, percentile, 0.1)


def test_key_filter_edges():
    def periodic(key, times):
        return [AnonymizedEntry(t, n, key) for n in NODES[:3] for t in times]

    entries = (periodic("00000005", range(0, 3000, 600))  # 5 arrivals vote
               + periodic("00000004", range(0, 2400, 600))  # 4 do not
               + periodic("00000000", [7] * 6)  # no gap at all: cv 0
               + periodic("0000000a", [0, 5, 600, 700, 1900, 2000]))
    _, dropped = filter_frequent_anonymized(entries, 100.0, 0.1)
    assert dropped == ["00000000", "00000005"]
    assert dropped == oracles.naive_key_filter(entries, 100.0, 0.1)


def test_footprint_must_end_within_its_span(footprint, rules):
    node = NODES[0]
    for last, found in ((120, True), (121, False)):
        steps = [0, 60, last][:len(footprint.items)]
        entries = [LogEntry(t, node, "x", "tick") for t in range(0, 9000, 300)]
        entries += [LogEntry(5000 + dt, node, "boot", msg) for dt, (_, msg)
                    in zip(steps, footprint.items)]
        entries.sort(key=lambda e: e.timestamp)
        boots = [b for b in detect_boot_events(entries, footprint, rules)
                 if b.confidence == "footprint"]
        assert bool(boots) == found


MUTANT_FIELDS = {
    0: ["Feb", "feb", "Foo", "", "Dec"],
    1: ["0", "32", "29", "31", "-1", "+1", "1.5", "٣", "01", "123"],
    2: ["inf", "nan", "1e3", "-1:00:00", "24:00:00", "23:59:60", "1:2:3",
        "10:00:00.5", "10:00:00.", "10:00:00.x", "10:00", "10::00:00",
        "١٠:00:00", "99:99:99", "00:00:00"],
    3: ["i1r0n1", "i1r0n9", "login01", ""],
}


def _mutate(line, rng):
    choice = rng.randrange(5)
    if choice == 0:  # swap one field for a nasty value
        fields = line.split(" ")
        fields = [f for f in fields if f] if rng.random() < 0.5 else fields
        field = rng.choice(list(MUTANT_FIELDS))
        if field < len(fields):
            fields[field] = rng.choice(MUTANT_FIELDS[field])
        return " ".join(fields)
    pos = rng.randrange(len(line) + 1)
    char = rng.choice("0123456789:. -+eE\tx\x00٣")
    if choice == 1:
        return line[:pos] + char + line[pos:]
    if choice == 2:
        return line[:pos] + line[pos + 1:]
    if choice == 3:
        return line[:pos] + char + line[pos + 1:]
    return line[:pos]


def test_malformed_line_fuzz():
    rng = random.Random(29)
    resolver = TOPOLOGY.resolver()
    base = [format_syslog_line(LogEntry(to_epoch(2023, m, d, h, 7, 9), node,
                                        tag, msg))
            for m, d, h in ((1, 1, 0), (2, 28, 23), (3, 9, 12), (12, 31, 5))
            for node in NODES[:2] for tag, msg in MESSAGES[:3]]
    outcomes = {"ok": 0, "SyslogParseError": 0, "UnknownNodeError": 0}
    for _ in range(4000):
        line = _mutate(rng.choice(base), rng)
        try:
            entry = parse_syslog_line(line, 2023, resolver)
        except (SyslogParseError, UnknownNodeError) as exc:
            entry = type(exc).__name__
        else:
            assert entry.timestamp == oracles.bsd_timestamp(line, 2023), line
        if not line.strip() or line.startswith("#"):
            continue
        outcomes["ok" if isinstance(entry, LogEntry) else entry] += 1
        # the table parser agrees line by line
        try:
            table, _ = parse_syslog_table([line], 2023, resolver,
                                          skip_unknown=False)
            assert table.entries() == [entry], line
        except (SyslogParseError, UnknownNodeError) as exc:
            assert type(exc).__name__ == entry, line
    assert min(outcomes.values()) > 20, outcomes
