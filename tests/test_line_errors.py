"""One error rule for every input: a bad line fails as "PATH:LINE: reason"
and damaged compression as "PATH: reason", whichever reader reads it.

The corpus readers (syslog and pars-lite) read model._line_blocks blocks,
record files names.numbered_lines; each case runs at several block sizes,
plain and gzipped, with \\n and \\r\\n line ends, and the line number is
the bad line's place in the file, blank and comment lines counted.
"""

import gzip
import io

import pytest

from logvicinity import names
from logvicinity.anonymize import read_anonymized
from logvicinity.cli import main
from logvicinity.evaluate import load_events
from logvicinity.model import (SyslogParseError, UnknownNodeError,
                               canonical_node, parse_syslog_table, topen)

SPELLINGS = [("", b"\n"), ("", b"\r\n"), (".gz", b"\n"), (".gz", b"\r\n")]


@pytest.fixture(params=[1, 7, 4099, None], ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    """The one block size, the corpus readers' and the record files'."""
    if request.param:
        monkeypatch.setattr(names, "BLOCK", request.param)
    return request.param


def _lines(good, fillers, count=120):
    """count good lines with filler lines (blank, comment ...) among them;
    a good line is good(i)."""
    lines = []
    for i in range(count):
        lines.append(good(i))
        if i % 5 == 2:
            lines.append(fillers[i % len(fillers)])
    return lines


def _syslog(i):
    return b"Aug  1 10:%02d:%02d i1r0n0 kernel: ok %d" % (i // 60, i % 60, i)


def _pars_lite(i):
    return b"2023-08-01T10:%02d:%02dZ\ti1r0n%d\tdeadbeef" % (i // 60, i % 60,
                                                            i % 3)


def _event(i):
    return (b"i1r0n%d\t2023-08-01T10:00:%02dZ\t2023-08-01T10:10:00Z\t"
            b"2023-08-01T10:20:00Z\tfalse" % (i % 3, i % 60))


def _read_syslog(year, strict=False):
    def read(path):
        with topen(path, "rb") as fh:
            parse_syslog_table(fh, year, canonical_node,
                               skip_unknown=not strict)
    return read


READERS = {
    "syslog": (_syslog, [b"", b"# a comment", b"   "], _read_syslog(2023)),
    "pars-lite": (_pars_lite, [b"", b"# a comment"], read_anonymized),
    "events": (_event, [b"", b"# a comment", b"   "], load_events),
}

# (reader, bad line, error class, reason, reader override)
CASES = [
    ("syslog", b"Foo  1 10:00:00 i1r0n0 kernel: x", SyslogParseError,
     "bad month 'Foo'", None),
    ("syslog", b"Feb 29 10:00:00 i1r0n0 kernel: x", SyslogParseError,
     "no Feb 29 in 2023", None),
    ("syslog", b"Jan  1 00:00:00 i1r0n0 kernel: x", SyslogParseError,
     "year 10000 is out of range", _read_syslog(9999)),
    ("syslog", b"Aug  1 10:00:00 i1r0n0 caf\xff ok", ValueError,
     "'utf-8' codec can't decode byte 0xff in position 26: "
     "invalid start byte", None),
    ("syslog", b"Aug  1 10:00:00 zz9 kernel: x", UnknownNodeError,
     "unknown host 'zz9'", _read_syslog(2023, strict=True)),
    ("pars-lite", b"2023-08-01T10:00:00Z\ti1r0n0\tnot-a-key", ValueError,
     "key 'not-a-key' is not 8 lowercase hex digits", None),
    ("pars-lite", b"2023-02-30T10:00:00Z\ti1r0n0\tdeadbeef", ValueError,
     "day is out of range for month", None),
    ("pars-lite", b"10000-01-01T10:00:00Z\ti1r0n0\tdeadbeef", ValueError,
     "bad timestamp: '10000-01-01T10:00:00Z'", None),
    ("pars-lite", b"2023-08-01T10:00:00Z\ti1r0n0\tdead\xffbeef", ValueError,
     "'utf-8' codec can't decode byte 0xff in position 32: "
     "invalid start byte", None),
    ("events", b"i1r0n0\t2023-08-01T10:00:00Z\tfalse", ValueError,
     "expected 5 tab-separated fields, got 3", None),
    ("events", _event(0).replace(b"08-01T10:00", b"02-30T10:00"), ValueError,
     "day is out of range for month", None),
    ("events", _event(0).replace(b"2023-08-01T10:00", b"10000-08-01T10:00"),
     ValueError, "bad timestamp: '10000-08-01T10:00:00Z'", None),
    ("events", _event(0).replace(b"i1r0n0", b"i1r0n\xe9"), ValueError,
     "'utf-8' codec can't decode byte 0xe9 in position 5: "
     "invalid continuation byte", None),
]


def _write(tmp_path, name, lines, suffix, end):
    data = b"".join(line + end for line in lines)
    path = tmp_path / f"{name}{suffix}"
    path.write_bytes(gzip.compress(data, mtime=0) if suffix else data)
    return path


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[3][:24]}")
def test_a_bad_line_is_named_by_its_file_and_line(tmp_path, block, case):
    name, bad, kind, reason, read = case
    good, fillers, default_read = READERS[name]
    read = read or default_read
    lines = _lines(good, fillers)
    lines.insert(len(lines) - 3, bad)  # after every filler but one
    lineno = len(lines) - 3
    for suffix, end in SPELLINGS:
        path = _write(tmp_path, name, lines, suffix, end)
        with pytest.raises(ValueError) as err:
            read(path)
        assert type(err.value) is kind
        assert str(err.value) == f"{path}:{lineno}: {reason}"


@pytest.mark.parametrize("name", READERS)
def test_damaged_compression_is_named_by_its_file(tmp_path, block, name):
    good, fillers, read = READERS[name]
    data = b"".join(line + b"\n" for line in _lines(good, fillers, 40))
    whole = gzip.compress(data, mtime=0)
    for damage, reason in [
            (whole[:-12], "Compressed file ended before the end-of-stream "
                          "marker was reached"),
            (data, f"Not a gzipped file ({data[:2]!r})"),
            (whole[:-8] + bytes(8), "CRC check failed")]:
        path = tmp_path / f"{name}.gz"
        path.write_bytes(damage)
        with pytest.raises(ValueError) as err:
            read(path)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{path}: {reason}")


def test_a_stream_without_a_name_is_named_stream():
    with pytest.raises(SyslogParseError) as err:
        parse_syslog_table(io.BytesIO(b"\n" + _syslog(0) + b"\nFoo\n"), 2023,
                           canonical_node)
    assert str(err.value) == "<stream>:3: too few fields"


@pytest.mark.parametrize("argv, bad, error", [
    (["parse", "--year", "2023", "--corpus"], b"Foo  1 10:00:00 i1r0n0 a: x",
     "{path}:{lineno}: bad month 'Foo'"),
    (["parse", "--year", "2023", "--strict", "--corpus"],
     b"Aug  1 10:00:00 zz9 a: x", "{path}:{lineno}: unknown host 'zz9'"),
])
def test_the_cli_prints_the_error_and_exits_2(tmp_path, capsys, argv, bad,
                                              error):
    lines = _lines(_syslog, [b"", b"# a comment"], 30)
    lines.insert(20, bad)
    path = _write(tmp_path, "corpus.log", lines, "", b"\n")
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error.format(path=path, lineno=21)}\n"


def test_evaluate_on_a_truncated_gzip_exits_2(tmp_path, capsys):
    truth = tmp_path / "truth.csv.gz"
    truth.write_bytes(gzip.compress(
        b"node,outage_time,has_reboot,cause\n"
        + b"i1r0n0,2023-08-01T10:00:00Z,true,crash_panic\n" * 50)[:-12])
    events = _write(tmp_path, "events.tsv", [_event(0)], "", b"\n")
    assert main(["evaluate", "--detected", str(events), "--truth",
                 str(truth)]) == 2
    assert capsys.readouterr().err == (
        f"error: {truth}: Compressed file ended before the end-of-stream "
        "marker was reached\n")


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_a_config_file_is_a_record_file(tmp_path, capsys, suffix):
    """Plain or .gz; a line that is not UTF-8 names its file and line."""
    corpus = _write(tmp_path, "corpus.log", [_syslog(0)], "", b"\n")
    config = _write(tmp_path, "run.conf", [b"# defaults", b"",
                                           b"year = 2023  # of the corpus",
                                           b"format=json"], suffix, b"\r\n")
    assert main(["parse", "--config", str(config), "--corpus",
                 str(corpus)]) == 0
    assert '"entries": 1' in capsys.readouterr().out
    config = _write(tmp_path, "run.conf", [b"# defaults", b"",
                                           b"year = 2023 # caf\xe9"], suffix,
                    b"\n")
    assert main(["parse", "--config", str(config), "--corpus",
                 str(corpus)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}:3: 'utf-8' codec can't decode byte 0xe9 in "
        "position 17: unexpected end of data\n")
