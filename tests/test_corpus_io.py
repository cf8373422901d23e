"""Corpus files as bytes: the row writers against per-row oracles, the
write_syslog round-trip check, and the block reader behind both readers."""

import gzip
import io
import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from logvicinity import model, names
from logvicinity.anonymize import SubstitutionRuleSet, write_anonymized
from logvicinity.cli import main
from logvicinity.model import (EventTable, NodeId, canonical_node,
                               parse_syslog_stream, parse_syslog_table,
                               to_epoch, topen, write_syslog)
from logvicinity.synth import (GeneratorSpec, generate, scale_topology,
                               taurus_topology)
from tables import rows_of, table_of

NODES = [NodeId(1, 0, 0), NodeId(2, 13, 7), NodeId(11, 0, 112)]
TAGS = ["", "sshd", "kernel", "café", "a.b/c-d_1", "x"]
# month ends, a leap day, year ends and the epoch
EDGES = [to_epoch(2023, 1, 31, 23, 59, 0), to_epoch(2024, 2, 28, 23, 59, 0),
         to_epoch(2024, 2, 29, 23, 59, 0), to_epoch(2023, 12, 31, 23, 58, 0),
         to_epoch(2024, 12, 31, 23, 59, 30), 0]


def _reads_back(tag, message):
    """Whether a syslog line reads (tag, message) back: no line break, no
    leading whitespace, and a first word that reads as a tag exactly when
    there is one."""
    text = f"{tag}: {message}" if tag else message
    first = text.split(" ", 1)[0]
    tagged = (first.endswith(":") and len(first) > 1 and all(
        c.isalnum() or c in "_./-" for c in first[:-1]))
    return ("\n" not in text and "\r" not in text
            and not text[:1].isspace() and tagged == bool(tag))


MESSAGES = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\n\r"), max_size=12)


@st.composite
def tables(draw, rows, valid=True):
    """A raw table of rows rows near month and year ends, in time order,
    with non-ASCII, empty and tag-like texts."""
    pairs = st.tuples(st.sampled_from(TAGS), MESSAGES | st.sampled_from(
        ["", " lead", "a b: x", "café: ok", "x\ty  ", "　x"]))
    if valid:
        pairs = pairs.filter(lambda p: _reads_back(*p))
    messages = draw(st.lists(pairs, min_size=1, max_size=6, unique=True))
    edge = draw(st.sampled_from(EDGES))
    ts = sorted(edge + draw(st.integers(-2 * 86400, 2 * 86400))
                for _ in range(rows))
    node = [draw(st.integers(0, len(NODES) - 1)) for _ in range(rows)]
    msg = [draw(st.integers(0, len(messages) - 1)) for _ in range(rows)]
    return EventTable(ts, node, msg, NODES, [m for _, m in messages],
                      [t for t, _ in messages])


def _year(t) -> int:
    return datetime.fromtimestamp(int(t), tz=timezone.utc).year


def _text(path) -> bytes:
    with topen(path, "rb") as fh:
        return fh.read()


def _same_bytes(table, suffix, rules=None):
    """Whether a writer and its oracle write the same bytes to a path with
    suffix; for a .gz path, also whether the writer compressed."""
    with tempfile.TemporaryDirectory() as tmp:
        got, expect = Path(tmp) / f"got{suffix}", Path(tmp) / f"ref{suffix}"
        if rules is None:
            write_syslog(table, got)
            oracles.reference_write_syslog(table, expect)
        else:
            write_anonymized(table, got, rules)
            oracles.reference_pars_lite(table, expect, rules)
        compressed = got.read_bytes()[:2] == b"\x1f\x8b"
        return (_text(got) == _text(expect)
                and compressed == suffix.endswith(".gz"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 4, 5, 11]).flatmap(tables),
       st.sampled_from([".log", ".log.gz"]))
def test_writers_equal_their_per_row_oracles(table, suffix):
    """Oracle: 0, 1, _CHUNK and _CHUNK + 1 rows and more, with _CHUNK 4."""
    rules = SubstitutionRuleSet()
    with mock.patch.object(model, "_CHUNK", 4):
        assert _same_bytes(table, suffix)
        assert _same_bytes(table, suffix, rules)
        assert _same_bytes(table_of(rows_of(table, rules)), suffix, rules)


@pytest.mark.parametrize("rows", [0, 1, model._CHUNK, model._CHUNK + 1])
def test_writers_equal_their_oracles_at_the_chunk_size(rows):
    second = np.arange(rows, dtype=np.int64) * 37
    table = EventTable(EDGES[3] + second, second % 3, second % 2, NODES,
                       ["café ok", ""], ["kernel", ""])
    rules = SubstitutionRuleSet()
    for suffix in (".log", ".log.gz"):
        assert _same_bytes(table, suffix)
        assert _same_bytes(table, suffix, rules)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: tables(n, valid=False)))
def test_write_syslog_writes_what_reads_back(table):
    """A table writes exactly when each of its (tag, message) pairs reads
    back, and the file then parses to the table's rows."""
    bad = [p for p in zip(table.tags, table.messages) if not _reads_back(*p)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.log"
        if bad:
            with pytest.raises(ValueError, match="would not read back"):
                write_syslog(table, path)
            return
        write_syslog(table, path)
        # a syslog line has no year: each node's first line is in this one
        year = _year(table.ts[0])
        assume(all(_year(table.ts[np.argmax(table.node == n)]) == year
                   for n in set(table.node.tolist())))
        with topen(path, "rb") as fh:
            again, _ = parse_syslog_table(fh, year, canonical_node)
    assert rows_of(again) == rows_of(table)


@pytest.mark.parametrize("tag, message", [
    ("", "a\nb"),  # two lines, the second too short
    ("", "  lead"),  # reads back as "lead"
    ("a b", "x"),  # reads back as the message "a b: x" with no tag
])
def test_write_syslog_rejects_what_does_not_read_back(tmp_path, tag, message):
    table = EventTable([0, 1], [0, 0], [0, 1], NODES, ["fine", message],
                       ["cron", tag])
    with pytest.raises(ValueError) as exc:
        write_syslog(table, tmp_path / "corpus.log")
    assert repr(tag) in str(exc.value) and repr(message) in str(exc.value)
    assert not (tmp_path / "corpus.log").exists()


def test_write_syslog_refuses_a_keyed_table(tmp_path):
    """A keyed table has no text to write; the path is never opened."""
    table = EventTable([0], [0], [0], NODES, ["deadbeef"])
    with pytest.raises(ValueError, match="keyed table"):
        write_syslog(table, tmp_path / "corpus.log")
    assert list(tmp_path.iterdir()) == []


def test_generated_and_parsed_tables_still_write(corpus, tmp_path):
    taurus = generate(GeneratorSpec(
        topology=scale_topology(taurus_topology(), 0.0625), days=0.5,
        failure_count=1, skew_share=0.0, seed=5)).entries
    for i, table in enumerate([corpus.entries, taurus]):
        path = tmp_path / f"corpus{i}.log"
        write_syslog(table, path)
        with topen(path, "rb") as fh:
            parsed, _ = parse_syslog_table(fh, 2023, canonical_node)
        write_syslog(parsed, tmp_path / "again.log")
        assert (tmp_path / "again.log").read_bytes() == path.read_bytes()


def test_generated_corpus_round_trips_through_gz(tmp_path):
    table = generate(GeneratorSpec(days=1.0, failure_count=3,
                                   skew_share=0.0)).entries
    write_syslog(table, tmp_path / "corpus.log")
    write_syslog(table, tmp_path / "corpus.log.gz")
    packed = (tmp_path / "corpus.log.gz").read_bytes()
    assert packed[:2] == b"\x1f\x8b"
    assert gzip.decompress(packed) == (tmp_path / "corpus.log").read_bytes()
    with topen(tmp_path / "corpus.log.gz", "rb") as fh:
        again, stats = parse_syslog_table(fh, 2023, canonical_node)
    assert stats.parsed == len(table)
    assert rows_of(again) == rows_of(table)


# The block reader: every spelling of one corpus file parses alike.

@pytest.fixture(scope="module")
def odd_corpus(tmp_path_factory):
    """3,000 generated rows as a syslog file, with a comment, a blank
    line, an unknown host, a double space and non-ASCII text between."""
    table = generate(GeneratorSpec(
        days=1.0, failure_count=3, skew_share=0.0, storm_count=5,
        background_jobs=10, seed=11)).entries
    path = tmp_path_factory.mktemp("odd") / "rows.log"
    write_syslog(table.take(np.arange(len(table)) < 3000), path)
    lines = path.read_bytes().splitlines(keepends=True)
    for at, line in [(2500, b"Mar  6 10:00:00  i1r0n0 two spaces\n"),
                     (1700, "Mar  6 10:00:00 i1r0n1 café: ü\n".encode()),
                     (900, b"Mar  6 10:00:00 login01 not a node\n"),
                     (400, b"\n"), (10, b"# a comment\n")]:
        lines.insert(at, line)
    return b"".join(lines)


def _parse_file(path):
    with topen(path, "rb") as fh:
        table, stats = parse_syslog_table(fh, 2023, canonical_node)
    return ((table.ts.tolist(), table.node.tolist(), table.msg.tolist(),
             table.nodes, table.messages, table.tags),
            (stats.parsed, stats.skipped_unknown, stats.lines_one_by_one))


@pytest.mark.parametrize("block", [1, 7, 4096, None])
def test_file_spellings_parse_alike(odd_corpus, tmp_path, monkeypatch, block):
    """Metamorphic: .gz, \\r\\n, lone \\r and no final newline, at any
    block size, give the plain file's table and stats, the count of
    lines read one by one included."""
    (tmp_path / "plain.log").write_bytes(odd_corpus)
    expect = _parse_file(tmp_path / "plain.log")
    parsed, skipped, one_by_one = expect[1]
    assert parsed > 3000 and skipped == 1 and one_by_one == 1
    if block:
        monkeypatch.setattr(names, "BLOCK", block)
    spellings = {"gz.log.gz": gzip.compress(odd_corpus),
                 "crlf.log": odd_corpus.replace(b"\n", b"\r\n"),
                 "cr.log": odd_corpus.replace(b"\n", b"\r"),
                 "open.log": odd_corpus.rstrip(b"\n")}
    for name, data in spellings.items():
        (tmp_path / name).write_bytes(data)
        assert _parse_file(tmp_path / name) == expect, name


def test_only_a_binary_file_is_parsed(tmp_path):
    """A list of lines or a text-mode file raises, naming the opener."""
    line = "Mar  6 10:00:00 i1r0n0 kernel: ok\n"
    (tmp_path / "one.log").write_text(line)
    with topen(tmp_path / "one.log") as text:
        for source in ([line], text):
            for parse in (parse_syslog_stream, parse_syslog_table):
                with pytest.raises(TypeError, match='topen\\(path, "rb"\\)'):
                    parse(source, 2023, canonical_node)


@pytest.mark.parametrize("bad", [b"Mar  6 10:00:01 i1r0n0 caf\xe9 ok\n",
                                 b"# caf\xff\n",
                                 b"Mar  6 10:00:01  i1r0n0 \xff\n"])
def test_invalid_utf8_fails_parse_and_writes_nothing(tmp_path, capsys, bad):
    """In a message of a canonical chunk, in a comment and in a chunk
    the per-line parser reads."""
    good = b"Mar  6 10:00:00 i1r0n0 kernel: ok\n"
    (tmp_path / "bad.log").write_bytes(good * 3 + bad + good)
    out = tmp_path / "out.log"
    assert main(["parse", "--corpus", str(tmp_path / "bad.log"), "--year",
                 "2023", "--output", str(out)]) == 2
    assert "can't decode" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.log"]


@pytest.mark.parametrize("block", [7, None])
def test_the_first_bad_line_wins_malformed_or_invalid_utf8(
        tmp_path, capsys, monkeypatch, block):
    """One error rule: a malformed line 2 is the error of a file with
    invalid UTF-8 on line 4, and invalid UTF-8 on line 4 of a file whose
    lines are otherwise good, each after the rows of the lines before."""
    if block:
        monkeypatch.setattr(names, "BLOCK", block)
    good = b"Mar  6 10:00:00 i1r0n0 kernel: ok\n"
    malformed = b"Mar 32 10:00:00 i1r0n0 kernel: ok\n"
    bad_byte = b"Mar  6 10:00:01 i1r0n0 caf\xe9 ok\n"
    for data, rows, error in [
            (good + malformed + good + bad_byte + good, 1,
             "<stream>:2: bad calendar day Mar '32'"),
            (good * 3 + bad_byte + malformed, 3,
             "<stream>:4: 'utf-8' codec can't decode byte 0xe9 in position "
             "26: invalid continuation byte")]:
        chunks, stats = parse_syslog_stream(io.BytesIO(data), 2023,
                                            canonical_node)
        seen = []
        with pytest.raises(ValueError) as err:
            for chunk in chunks:
                seen += chunk.ts.tolist()
        assert str(err.value) == error
        assert len(seen) == stats.parsed == rows
    path = tmp_path / "bad.log"
    path.write_bytes(good + malformed + good + bad_byte)
    assert main(["parse", "--corpus", str(path), "--year", "2023"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:2: bad calendar day Mar '32'\n")


@pytest.mark.parametrize("year, error", [
    ("9999", "{corpus}:2: year 10000 is out of range"),
    ("10000", "--year 10000 is out of range 1..9999"),
    ("0", "--year 0 is out of range 1..9999"),
])
def test_parse_fails_on_a_year_out_of_range(tmp_path, capsys, year, error):
    corpus = tmp_path / "corpus.log"
    corpus.write_text("Aug  1 00:00:00 i1r0n0 a: b\n"
                      "Jan  1 00:00:00 i1r0n0 a: b\n")
    assert main(["parse", "--corpus", str(corpus), "--year", year]) == 2
    assert capsys.readouterr().err == f"error: {error.format(corpus=corpus)}\n"


def test_parse_counts_the_lines_read_one_by_one(odd_corpus, tmp_path,
                                               monkeypatch, capsys):
    """A canonical corpus has no line read one by one; each odd line
    counts once, and `parse` prints the count."""
    monkeypatch.setattr(names, "BLOCK", 1 << 15)
    lines = odd_corpus.splitlines(keepends=True)
    canonical = b"".join(line for line in lines if b"  i1" not in line)
    odd = canonical.replace(b"\n", b"\nMar  6 10:00:00  i1r0n0 odd\n", 1)
    for data, one_by_one in [(canonical, 0), (odd, 1)]:
        (tmp_path / "corpus.log").write_bytes(data)
        assert main(["parse", "--corpus", str(tmp_path / "corpus.log"),
                     "--year", "2023", "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["lines_one_by_one"] == one_by_one
        assert "array_chunks" not in summary and "line_chunks" not in summary


# Spellings of a line that str.split reads as the canonical line reads
ODD_SPELLINGS = [
    lambda line: line[:16] + line[16:].replace(b" ", b"  ", 1),  # "host  "
    lambda line: line[:15] + b"\t" + line[16:],
    lambda line: line[:15] + b".5" + line[15:],  # a fraction of a second
    lambda line: b" " + line,
    lambda line: line[:3] + b"\xc2\xa0" + line[4:],  # a no-break space
]


def test_one_odd_line_per_chunk_is_the_only_line_read_one_by_one(
        corpus, tmp_path, monkeypatch):
    """Metamorphic: respelling the line in the middle of every BLOCK so
    that the arrays reject it gives the canonical corpus's table, and
    exactly those lines are read one by one."""
    monkeypatch.setattr(names, "BLOCK", 1 << 17)
    write_syslog(corpus.entries.take(np.arange(len(corpus.entries)) < 30000),
                 tmp_path / "canonical.log")
    lines = (tmp_path / "canonical.log").read_bytes().splitlines(True)
    ends = np.cumsum([len(line) for line in lines])
    odd = np.searchsorted(ends, np.arange(names.BLOCK // 2, ends[-1],
                                          names.BLOCK), side="right")
    for k, i in enumerate(odd):
        lines[i] = ODD_SPELLINGS[k % len(ODD_SPELLINGS)](lines[i])
    (tmp_path / "odd.log").write_bytes(b"".join(lines))
    expect = _parse_file(tmp_path / "canonical.log")
    assert expect[1] == (30000, 0, 0)
    assert _parse_file(tmp_path / "odd.log") == (expect[0],
                                                 (30000, 0, len(odd)))
    assert len(odd) == 16
