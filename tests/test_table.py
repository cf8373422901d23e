"""The columnar event table: parser oracle, round trips and metamorphic checks."""

import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from logvicinity import model, names
from logvicinity.anonymize import SubstitutionRuleSet, fnv1a_32
from logvicinity.detect import filter_frequent_anonymized
from logvicinity.model import (NodeId, SyslogParseError, Topology,
                               UnknownNodeError, format_bsd_time, iso,
                               parse_syslog_stream, parse_syslog_table,
                               to_epoch, topen, write_syslog)
from logvicinity.outages import detect_boot_events, detect_outages
from logvicinity.pipeline import VARIANTS, run_variant
from logvicinity.synth import (GeneratorSpec, generate, scale_topology,
                               taurus_topology)
from oracles import LogEntry, format_syslog_line, parse_syslog_line
from tables import Keyed, rows_of, syslog_file, table_of

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
    expected, skipped = oracles.reference_parse(lines, 2023, resolver)
    assert skipped > 0 and any(e.timestamp >= to_epoch(2024, 2, 29, 0, 0, 0)
                               for e in expected)
    table, stats = parse_syslog_table(syslog_file(lines), 2023, resolver)
    assert rows_of(table) == expected
    assert (stats.parsed, stats.skipped_unknown) == (len(expected), skipped)
    assert table.ts.dtype == np.int64 and table.node.dtype == np.int32
    assert len(table.messages) == len(set(MESSAGES))  # one per distinct pair
    chunks, stream_stats = parse_syslog_stream(syslog_file(lines), 2023,
                                               resolver)
    assert [e for chunk in chunks for e in rows_of(chunk)] == expected
    assert stream_stats == stats
    with pytest.raises(UnknownNodeError):
        parse_syslog_table(syslog_file(lines), 2023, resolver,
                           skip_unknown=False)


def _parsed(lines):
    """parse_syslog_table's columns, nodes, messages, tags and stats, or
    its error."""
    try:
        table, stats = parse_syslog_table(syslog_file(lines), 2023,
                                          TOPOLOGY.resolver())
    except SyslogParseError as exc:
        return str(exc)
    return (table.ts.tolist(), table.node.tolist(), table.msg.tolist(),
            table.nodes, table.messages, table.tags, stats)


def test_chunk_size_does_not_change_the_parse(monkeypatch):
    """Metamorphic: BLOCK bytes per read, from one byte (a line per chunk)
    to more than the corpus holds, give one result; rollover state,
    unknown hosts and the error of a malformed last line cross chunk
    bounds."""
    lines = _wrapping_corpus(44)
    bad = lines + ["Mar 32 10:00:00 i1r0n0 a: z\n"]
    monkeypatch.setattr(names, "BLOCK", len("".join(bad).encode()))
    whole, error = _parsed(lines), _parsed(bad)
    assert whole[-1].skipped_unknown > 0
    assert error == f"<stream>:{len(bad)}: bad calendar day Mar '32'"
    assert max(whole[0]) >= to_epoch(2024, 2, 29, 0, 0, 0)
    shortest = min(len(line) for line in lines
                   if line.strip() and not line.startswith("#"))
    for size in (1, 7, 4096):
        monkeypatch.setattr(names, "BLOCK", size)
        assert _parsed(lines) == whole
        assert _parsed(bad) == error
        chunks, stats = parse_syslog_stream(syslog_file(bad), 2023,
                                            TOPOLOGY.resolver())
        sizes = []
        with pytest.raises(SyslogParseError):
            for chunk in chunks:
                sizes.append(len(chunk))
        # a chunk's rows but the first lie inside one read
        assert max(sizes) <= 1 + size // shortest and len(sizes) > 1
        assert sum(sizes) == stats.parsed and stats == whole[-1]


# A grammar of syslog lines: the canonical shape write_syslog emits, mixed
# with every shape only the per-line parser reads, and malformed lines.
RESTS = ["a: x", "", "sshd: session opened for user 17", "no tag here",
         "kernel: caf\u00e9 \u3000 ok", "x\ty  ", "cron:", "#not: a comment"]
WHITESPACE = ["\t", "  ", "\xa0", "\x85", "\u3000", "\x1c", " \xa0"]
BAD_STAMPS = ["Mar 32 10:00:00", "Feb 30 10:00:00", "Mar  0 10:00:00",
              "Mar  1 24:00:00", "Mar  1 10:60:00", "Mar  1 10:00:60"]


@st.composite
def syslog_lines(draw):
    """Lines from a start in late December, mid-February or July, with
    forward gaps, jumps of two months and Feb 29 lines, so that nodes
    wrap the year and some Feb 29 lines are errors."""
    t = draw(st.sampled_from([to_epoch(2023, 12, 28, 0, 0, 0),
                              to_epoch(2023, 2, 20, 0, 0, 0),
                              to_epoch(2023, 7, 1, 0, 0, 0)]))
    hosts = [n.name for n in NODES] + ["login01", "i1r0n0\u00e9"]
    kinds = ["canonical"] * 10 + ["feb29", "comment"]
    if draw(st.booleans()):  # else the array path may take whole chunks
        kinds += ["whitespace", "fraction", "leading", "blank", "malformed",
                  "two_in_one", "two_in_one", "short"]
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.one_of(st.integers(0, 3 * 86400), st.just(60 * 86400)))
        kind = draw(st.sampled_from(kinds))
        host = draw(st.sampled_from(hosts))
        rest = draw(st.sampled_from(RESTS))
        fields = format_bsd_time(t).split(" ")
        if kind == "feb29":
            fields = ["Feb", "29", fields[-1]]
        if kind == "fraction":
            fields[-1] += draw(st.sampled_from([".5", ".", ".123456"]))
        if kind == "malformed":  # a known host: the oracle skips the others
            fields = draw(st.sampled_from(BAD_STAMPS)).split(" ")
            host = NODES[1].name
        seps = [" "] * 4
        if kind == "whitespace":
            seps[draw(st.integers(0, 3))] = draw(st.sampled_from(WHITESPACE))
        head = fields[0] + seps[0] + " ".join(fields[1:-1])
        line = (f"{head}{seps[1]}{fields[-1]}{seps[2]}{host}"
                + (f"{seps[3]}{rest}" if rest else ""))
        if kind == "leading":
            line = draw(st.sampled_from([" ", "\t", "\xa0"])) + line
        if kind == "comment":
            line = "# " + line
        if kind == "short":  # one to three fields: too few
            line = " ".join(line.split()[:draw(st.integers(1, 3))])
        if kind == "two_in_one":  # one drawn line with a "\n" inside
            line += "\n" + draw(st.sampled_from([line, ""])) + "\n"
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t \u3000"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r", ""])))
    return lines


def _reference(lines):
    """The oracle's rows and (parsed, skipped) counts of the text of
    lines, split into lines as text mode splits it, and its error: then
    the rows and counts are those of the lines before the first line it
    rejects. As in the reader, a last line without an end gets one."""
    lines = list(io.StringIO("".join(lines), newline=None))
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n"

    def parse(head):
        entries, skipped = oracles.reference_parse(
            head, 2023, TOPOLOGY.resolver())
        return entries, (len(entries), skipped)

    try:
        return *parse(lines), None
    except SyslogParseError as exc:
        for k in range(len(lines)):
            try:
                parse(lines[:k + 1])
            except SyslogParseError:
                return *parse(lines[:k]), str(exc)


def _streamed(lines):
    """The rows of every chunk parse_syslog_stream yields, its counts, and
    the error it raises after them."""
    chunks, stats = parse_syslog_stream(syslog_file(lines), 2023,
                                        TOPOLOGY.resolver())
    rows, error = [], None
    try:
        for chunk in chunks:
            rows += rows_of(chunk)
    except SyslogParseError as exc:
        error = str(exc)
    return rows, (stats.parsed, stats.skipped_unknown), error


@settings(max_examples=300, deadline=None)
@given(syslog_lines())
def test_chunked_parse_equals_the_line_parser(lines):
    """Whichever path parses a chunk, the table holds the rows, and the
    stats the counts, of the line-by-line reference, or both raise the
    same error after the rows of the lines before it."""
    expected = _reference(lines)
    for size in (1, 7, 4096):
        with mock.patch.object(names, "BLOCK", size):
            assert _streamed(lines) == expected
            if expected[-1] is None:
                table, stats = parse_syslog_table(syslog_file(lines), 2023,
                                                  TOPOLOGY.resolver())
                assert (rows_of(table), (stats.parsed, stats.skipped_unknown),
                        None) == expected


def test_written_corpora_are_never_read_line_by_line(corpus, tmp_path):
    taurus = generate(GeneratorSpec(
        topology=scale_topology(taurus_topology(), 0.0625), days=0.5,
        failure_count=1, skew_share=0.0, seed=5))
    for gen in (corpus, taurus):
        entries = gen.entries.take(np.arange(len(gen.entries)) < 60000)
        path = tmp_path / "corpus.log"
        write_syslog(entries, path)
        with topen(path, "rb") as fh:  # as the CLI opens a corpus
            table, stats = parse_syslog_table(fh, 2023,
                                              gen.topology.resolver())
        assert path.stat().st_size > 2 * names.BLOCK
        assert stats.parsed == len(entries)
        assert rows_of(table) == rows_of(entries)
        assert stats.lines_one_by_one == 0


def test_year_wraps_are_read_by_the_arrays(monkeypatch):
    lines = [line for line in _wrapping_corpus(45)
             if line.strip() and not line.startswith("#")]
    resolver = TOPOLOGY.resolver()
    entries, _ = oracles.reference_parse(lines, 2023, resolver)
    size, year_of, wraps = 2048, {}, set()  # wraps: blocks of year changes
    ends = np.cumsum([len(line.encode()) for line in lines])
    known = [i for i, line in enumerate(lines) if line.split()[3] in resolver]
    for entry, i in zip(entries, known):
        year = iso(entry.timestamp)[:4]
        if year_of.setdefault(entry.node, year) != year:
            wraps.add((ends[i] - 1) // size)
        year_of[entry.node] = year
    monkeypatch.setattr(names, "BLOCK", size)
    table, stats = parse_syslog_table(syslog_file(lines), 2023, resolver)
    assert rows_of(table) == entries
    assert 0 < len(wraps) < ends[-1] // size // 2
    assert stats.lines_one_by_one == 0


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
            parse_syslog_table(syslog_file(lines), year, resolver)
        with pytest.raises(SyslogParseError, match="no Feb 29 in"):
            oracles.reference_parse(lines, year, resolver)
        return
    table, _ = parse_syslog_table(syslog_file(lines), year, resolver)
    assert table.ts[-1] == to_epoch(year + 1, 2, 29, 0, 0, 1)
    expected, _ = oracles.reference_parse(lines, year, resolver)
    assert rows_of(table) == expected


def test_a_year_past_9999_is_an_error_after_the_rows_before_it():
    lines = ["Aug  1 00:00:00 i1r0n0 a: b\n", "Jan  1 00:00:00 i1r0n0 a: b\n"]
    chunks, stats = parse_syslog_stream(syslog_file(lines), 9999,
                                        TOPOLOGY.resolver())
    read = []
    with pytest.raises(SyslogParseError) as err:
        read.extend(chunk.ts.tolist() for chunk in chunks)
    assert str(err.value) == "<stream>:2: year 10000 is out of range"
    assert read == [[to_epoch(9999, 8, 1, 0, 0, 0)]] and stats.parsed == 1


# Backward jumps within a day of 180 days across Feb 29: whether a line
# wraps the year depends on whether the node's year is a leap year.
BOUNDARY_DATES = ["Aug 26", "Aug 27", "Aug 28", "Aug 29", "Feb 27", "Feb 28",
                  "Feb 29", "Mar  1", "Mar  2", "Dec 31", "Jan  1"]


@settings(max_examples=200, deadline=None)
@example([("Aug 27", 43200, "i1r0n0"), ("Feb 28", 46800, "i1r0n0")] * 8, 2024)
@given(st.lists(st.tuples(st.sampled_from(BOUNDARY_DATES),
                          st.integers(0, 86399),
                          st.sampled_from(["i1r0n0", "i1r0n1", "login01"])),
                max_size=40),
       st.sampled_from([2020, 2023, 2024, 2100]))
def test_leap_dependent_wraps_follow_the_line_parser(rows, year):
    """The wrap passes settle on the line-by-line rule, also where a wrap
    turns on the node's year being a leap year, and fail alike. In the
    example a jump back from Aug 27 to Feb 28 wraps only when read in a
    leap year, so only the first one does, which takes four passes."""
    lines = [f"{date} {format_bsd_time(t)[7:]} {host} a: b\n"
             for date, t, host in rows]
    resolver = TOPOLOGY.resolver()
    try:
        expected = oracles.reference_parse(lines, year, resolver)
    except SyslogParseError as exc:
        with pytest.raises(SyslogParseError, match="no Feb 29 in") as got:
            parse_syslog_table(syslog_file(lines), year, resolver)
        assert str(got.value) == str(exc)
        return
    table, stats = parse_syslog_table(syslog_file(lines), year, resolver)
    assert (rows_of(table), stats.skipped_unknown) == expected


def test_host_length_decides_only_the_path():
    """Hosts of every length round the arrays' 16- and 64-byte windows
    give the line parser's rows; from 64 bytes on a line is read one by
    one."""
    lengths = [1, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 100]
    hosts = ["h" * (n - 1) + "x" for n in lengths]
    resolver = {h: NodeId(1, 0, k) for k, h in enumerate(hosts)}
    lines = [f"Mar  6 10:00:{k:02d} {h} a: b{k}\n"
             for k, h in enumerate(hosts * 2)] + ["Mar  6 10:01:00 n x\n"]
    expected, skipped = oracles.reference_parse(lines, 2023, resolver)
    table, stats = parse_syslog_table(syslog_file(lines), 2023, resolver)
    assert rows_of(table) == expected and stats.skipped_unknown == skipped
    assert stats.lines_one_by_one == 2 * sum(n >= 64 for n in lengths)


def test_fractions_of_a_second_share_their_second():
    """Lines read one by one cache each "HH:MM:SS" once, whatever its
    fraction, and a bad fraction still fails with the line parser's
    text."""
    lines = [f"Mar  6 10:00:0{k % 2}.{k:06d} i1r0n0 a: b\n" for k in range(50)]
    parser = model._SyslogParser(2023, TOPOLOGY.resolver(), True,
                                 model.ParseStats())
    table = model._concat(model._line_blocks(syslog_file(lines),
                                             parser.parse), [])
    assert len(parser._clock_of) == 2
    assert table.ts.tolist() == [e.timestamp for e in oracles.reference_parse(
        lines, 2023, TOPOLOGY.resolver())[0]]
    for bad in ("10:00:00.5x", "10:00:00.\u0665", "10:00:00..5"):
        line = f"Mar  6 {bad} i1r0n0 a: b\n"
        with pytest.raises(SyslogParseError) as got:
            parse_syslog_table(syslog_file(lines + [line]), 2023,
                               TOPOLOGY.resolver())
        with pytest.raises(SyslogParseError) as want:
            parse_syslog_line(line, 2023, TOPOLOGY.resolver())
        assert str(got.value) == f"<stream>:51: {want.value}"


def test_a_message_is_one_message_with_or_without_its_newline():
    lines = ["Mar  1 10:00:00 i1r0n0 a: x\n", "Mar  1 10:00:01 i1r0n0 a: x"]
    table, _ = parse_syslog_table(syslog_file(lines), 2023, TOPOLOGY.resolver())
    assert (table.tags, table.messages) == (["a"], ["x"])
    assert table.msg.tolist() == [0, 0]


def _columns(table):
    return (table.ts.tolist(), table.node.tolist(), table.msg.tolist(),
            table.nodes, table.messages, table.tags)


def test_table_rows_round_trip(tmp_path):
    lines = _wrapping_corpus(42)
    entries = rows_of(parse_syslog_table(syslog_file(lines), 2023,
                                         TOPOLOGY.resolver())[0])
    table = table_of(entries)
    assert rows_of(table) == entries
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
        with topen(path, "rb") as fh:
            again, _ = parse_syslog_table(fh, 2023, TOPOLOGY.resolver())
        assert _columns(again) == _columns(table)
    assert len(table) == len(entries)
    assert sorted(zip(table.tags, table.messages)) == sorted(set(MESSAGES))
    rules = SubstitutionRuleSet()
    keyed = rows_of(table, rules)
    assert keyed == [Keyed(e.timestamp, e.node, rules.key(e.message))
                     for e in entries]
    keyed_table = table_of(keyed)
    assert keyed_table.keyed and rows_of(keyed_table) == keyed
    assert rows_of(table_of([])) == []


def test_each_distinct_message_is_keyed_once(monkeypatch):
    table, _ = parse_syslog_table(syslog_file(_wrapping_corpus(43)), 2023,
                                  TOPOLOGY.resolver())
    rules = SubstitutionRuleSet()
    templated = []
    real_template = rules.template
    monkeypatch.setattr(rules, "template",
                        lambda m: templated.append(m) or real_template(m))
    key_id, keys = table.keys(rules)
    template_id, templates = table.templates(rules)
    assert np.array_equal(table.keys(rules)[0], key_id)  # one pass per rules
    assert sorted(templated) == sorted(table.messages)
    assert [keys[k] for k in key_id.tolist()] == [
        fnv1a_32(rules.template(e.message)) for e in rows_of(table)]
    assert [templates[t] for t in template_id.tolist()] == [
        rules.template(e.message) for e in rows_of(table)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_variant_on_a_table_equals_its_entry_list(corpus, rules, variant):
    """A table parsed from the formatted lines of the generated entries
    runs as the generated table itself, whose nodes and messages are
    numbered in another order."""
    head = corpus.entries.take(np.arange(len(corpus.entries)) < 60000)
    lines = [format_syslog_line(e) + "\n" for e in rows_of(head)]
    table, _ = parse_syslog_table(syslog_file(lines), 2023,
                                  corpus.topology.resolver())
    args = (corpus.topology, corpus.range, variant, rules,
            corpus.truth.maintenance)
    from_table, from_list = run_variant(table, *args), run_variant(head, *args)
    assert from_table.events == from_list.events
    assert from_table.dropped == from_list.dropped
    assert [(r.at, r.group, r.sg, r.verdict)
            for r in oracles.sweep_cells(from_table.sweep)] == \
        [(r.at, r.group, r.sg, r.verdict)
         for r in oracles.sweep_cells(from_list.sweep)]
    if variant.startswith("filtered"):
        assert from_table.dropped


def test_outages_do_not_depend_on_line_order(corpus, footprint, rules):
    shuffled = rows_of(corpus.entries)
    random.Random(8).shuffle(shuffled)
    outages = detect_outages(corpus.entries, footprint, rules, corpus.range)
    assert outages
    table = table_of(shuffled)
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
                    entries.append(Keyed(t, node, key))
                    t += period + rng.randrange(-jitter, jitter + 1)
        rng.shuffle(entries)
        percentile = rng.choice((90.0, 99.5, 100.0))
        _, dropped = filter_frequent_anonymized(table_of(entries), None,
                                                percentile, 0.1)
        assert dropped == oracles.naive_key_filter(entries, percentile, 0.1)


def test_key_filter_edges():
    def periodic(key, times):
        return [Keyed(t, n, key) for n in NODES[:3] for t in times]

    entries = (periodic("00000005", range(0, 3000, 600))  # 5 arrivals vote
               + periodic("00000004", range(0, 2400, 600))  # 4 do not
               + periodic("00000000", [7] * 6)  # no gap at all: cv 0
               + periodic("0000000a", [0, 5, 600, 700, 1900, 2000]))
    _, dropped = filter_frequent_anonymized(table_of(entries), None, 100.0,
                                            0.1)
    assert dropped == ["00000000", "00000005"]
    assert dropped == oracles.naive_key_filter(entries, 100.0, 0.1)


def test_key_filter_takes_the_mean_of_an_even_vote():
    # two voters with cv 0 and 0.5: the key's median is 0.25
    entries = ([Keyed(t, NODES[0], "0000000e") for t in range(0, 3000, 600)]
               + [Keyed(t, NODES[1], "0000000e")
                  for t in (0, 300, 1200, 1500, 2400)])
    for cv_threshold, dropped in ((0.3, ["0000000e"]), (0.2, [])):
        assert filter_frequent_anonymized(table_of(entries), None, 100.0,
                                          cv_threshold)[1] == dropped
        assert oracles.naive_key_filter(entries, 100.0, cv_threshold) \
            == dropped


def test_footprint_must_end_within_its_span(footprint, rules):
    node = NODES[0]
    for last, found in ((120, True), (121, False)):
        steps = [0, 60, last][:len(footprint.items)]
        entries = [LogEntry(t, node, "x", "tick") for t in range(0, 9000, 300)]
        entries += [LogEntry(5000 + dt, node, "boot", msg) for dt, (_, msg)
                    in zip(steps, footprint.items)]
        entries.sort(key=lambda e: e.timestamp)
        boots = [b for b in detect_boot_events(table_of(entries), footprint,
                                               rules)
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
            table, _ = parse_syslog_table(syslog_file([line]), 2023,
                                          resolver, skip_unknown=False)
            assert rows_of(table) == [entry], line
        except (SyslogParseError, UnknownNodeError) as exc:
            assert type(exc).__name__ == entry, line
    assert min(outcomes.values()) > 20, outcomes
