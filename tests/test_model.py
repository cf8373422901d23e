import gzip
from collections import Counter

import pytest

from logvicinity.model import (NodeId, ObservationRange, SyslogParseError,
                               Topology, UnknownNodeError, canonical_node,
                               compress_node_names, expand_node_spec, iso,
                               load_topology, parse_iso, parse_node_name,
                               parse_syslog_stream, save_topology, to_epoch,
                               topen)
from oracles import LogEntry, format_syslog_line, parse_syslog_line
from tables import syslog_file


def test_node_name_roundtrip():
    node = NodeId(3, 12, 7)
    assert node.name == "i3r12n7"
    assert parse_node_name("i3r12n7") == node


def test_node_id_is_its_plain_tuple():
    node = NodeId(3, 12, 7)
    assert node == (3, 12, 7) and hash(node) == hash((3, 12, 7))
    assert (node.island, node.rack, node.position) == (3, 12, 7)
    assert str(node) == "i3r12n7"
    assert sorted([NodeId(2, 0, 0), NodeId(1, 5, 9), node]) == [
        NodeId(1, 5, 9), NodeId(2, 0, 0), node]


@pytest.mark.parametrize("bad", ["i1r2", "n5r2i1", "i1r2n", "rack3", "", "i1r2nx"])
def test_bad_node_names_rejected(bad):
    with pytest.raises(ValueError):
        parse_node_name(bad)


@pytest.mark.parametrize("bad", ["i\u0661r0n0", "i1r0n\uff10", "i1r0n0\n"])
def test_node_names_want_ascii_digits_and_nothing_after(bad):
    assert canonical_node(bad) is None
    with pytest.raises(ValueError):
        parse_node_name(bad)


@pytest.mark.parametrize("bad", [
    "\u0662\u0660\u0662\u0663-03-06T00:00:00Z", "2023-03-06T00:00:0\u0661Z",
    "2023-03-06T00:00:00\u00a0Z"])
def test_iso_wants_ascii_digits_and_spaces(bad):
    with pytest.raises(ValueError, match="bad timestamp"):
        parse_iso(bad)


def test_parse_line_fields():
    line = "Mar  1 00:00:01 i1r0n0 CRON: (root) CMD (run-parts /etc/cron.hourly)"
    entry = parse_syslog_line(line, 2023, parse_node_name)
    assert entry.timestamp == to_epoch(2023, 3, 1, 0, 0, 1)
    assert entry.node == NodeId(1, 0, 0)
    assert entry.tag == "CRON"
    assert entry.message == "(root) CMD (run-parts /etc/cron.hourly)"


def test_parse_line_without_tag():
    entry = parse_syslog_line("Jun 15 12:30:00 i2r1n3 no colon here", 2020,
                              parse_node_name)
    assert entry.tag == ""
    assert entry.message == "no colon here"


def test_parse_truncated_line_raises():
    with pytest.raises(SyslogParseError):
        parse_syslog_line("Mar 1 00:00", 2023, parse_node_name)
    with pytest.raises(SyslogParseError):
        parse_syslog_line("Xxx 1 00:00:01 i1r0n0 m: x", 2023, parse_node_name)


@pytest.mark.parametrize("stamp", [
    "Feb 31 10:00:00",   # no such day: not Mar 3
    "Mar  0 10:00:00",   # not Feb 28
    "Feb 29 10:00:00",   # 2023 is no leap year: not Mar 1
    "Apr 31 10:00:00",
    "Mar  1 24:00:00",   # not midnight of the next day
    "Mar  1 25:99:99",   # not a roll into the next day
    "Mar  1 -1:00:00",   # not a roll into the day before
    "Mar  1 10:60:00",
    "Mar  1 10:00:1e3",  # not 16 minutes later
    "Mar  1 10:00:inf",  # not an OverflowError
])
def test_impossible_dates_and_times_are_rejected(stamp):
    line = f"{stamp} i1r0n0 a: x"
    with pytest.raises(SyslogParseError):
        parse_syslog_line(line, 2023, parse_node_name)
    chunks, _ = parse_syslog_stream(syslog_file([line]), 2023, parse_node_name)
    with pytest.raises(SyslogParseError):
        list(chunks)


@pytest.mark.parametrize("stamp", ["Feb 30 10:00:00", "Mar  1 24:00:00"])
def test_impossible_stamp_of_an_unknown_host_is_not_skipped(stamp):
    # no year has them, so the line is malformed whichever node sent it
    chunks, stats = parse_syslog_stream(syslog_file([f"{stamp} login01 a: x"]),
                                        2023, {})
    with pytest.raises(SyslogParseError):
        list(chunks)
    assert stats.skipped_unknown == 0


def test_subsecond_times_and_leap_days_are_accepted():
    for stamp in ("Mar  1 10:00:00.5", "Mar  1 10:00:00"):
        entry = parse_syslog_line(f"{stamp} i1r0n0 a: x", 2023, parse_node_name)
        assert entry.timestamp == to_epoch(2023, 3, 1, 10, 0, 0)
    entry = parse_syslog_line("Feb 29 23:59:59 i1r0n0 a: x", 2024,
                              parse_node_name)
    assert entry.timestamp == to_epoch(2024, 2, 29, 23, 59, 59)


def test_leap_day_after_a_wrap_into_a_leap_year():
    lines = ["Dec 31 23:00:00 i1r0n0 a: x\n", "Jan  2 00:00:00 i1r0n0 a: x\n",
             "Feb 29 12:00:00 i1r0n0 a: x\n", "Dec 31 23:00:00 i1r0n1 a: x\n"]
    chunks, _ = parse_syslog_stream(syslog_file(lines), 2023, parse_node_name)
    assert [t for chunk in chunks for t in chunk.ts.tolist()] == [
        to_epoch(2023, 12, 31, 23, 0, 0), to_epoch(2024, 1, 2, 0, 0, 0),
        to_epoch(2024, 2, 29, 12, 0, 0), to_epoch(2023, 12, 31, 23, 0, 0)]


def test_stream_raises_after_the_entries_before_the_bad_line():
    lines = ["Mar  1 10:00:00 i1r0n0 a: x\n", "Mar  1 10:00:01 i1r0n0 a: y\n",
             "Mar 32 10:00:02 i1r0n0 a: z\n"]
    chunks, stats = parse_syslog_stream(syslog_file(lines), 2023,
                                        parse_node_name)
    chunk = next(chunks)
    assert [chunk.messages[m] for m in chunk.msg.tolist()] == ["x", "y"]
    with pytest.raises(SyslogParseError) as err:
        next(chunks)
    assert str(err.value) == "<stream>:3: bad calendar day Mar '32'"
    assert stats.parsed == 2


def test_format_parse_roundtrip():
    entry = LogEntry(to_epoch(2023, 11, 30, 23, 59, 59), NodeId(2, 3, 4),
                     "kernel", "subsystem ready")
    again = parse_syslog_line(format_syslog_line(entry), 2023, parse_node_name)
    assert again == entry


def test_stream_year_rollover():
    lines = [
        "Dec 31 23:59:58 i1r0n0 a: before midnight\n",
        "Dec 31 23:59:59 i1r0n0 a: still before\n",
        "Jan  1 00:00:02 i1r0n0 a: after midnight\n",
    ]
    chunks, _stats = parse_syslog_stream(syslog_file(lines), 2022,
                                         parse_node_name)
    ts = [t for chunk in chunks for t in chunk.ts.tolist()]
    assert ts == sorted(ts)
    assert ts[2] - ts[1] == 3  # Jan 1 belongs to the next year


def test_stream_rollover_is_per_node():
    lines = [
        "Dec 31 23:59:59 i1r0n0 a: wrap on this node\n",
        "Jan  1 00:00:01 i1r0n0 a: wrapped\n",
        "Dec 31 23:59:59 i1r0n1 a: other node still in the old year\n",
    ]
    chunks, _ = parse_syslog_stream(syslog_file(lines), 2022, parse_node_name)
    ts = [t for chunk in chunks for t in chunk.ts.tolist()]
    assert ts[1] - ts[0] == 2
    assert ts[2] == ts[0]


def test_stream_skips_unknown_hosts():
    topo = Topology([NodeId(1, 0, 0)], {NodeId(1, 0, 0): "Haswell"})
    lines = [
        "Mar  1 00:00:01 i1r0n0 a: known\n",
        "Mar  1 00:00:02 i9r9n9 a: not in topology\n",
    ]
    chunks, stats = parse_syslog_stream(syslog_file(lines), 2023,
                                        topo.resolver())
    assert sum(len(chunk) for chunk in chunks) == 1
    assert stats.parsed == 1
    assert stats.skipped_unknown == 1

    chunks, _ = parse_syslog_stream(syslog_file(lines), 2023, topo.resolver(),
                                    skip_unknown=False)
    with pytest.raises(UnknownNodeError):
        list(chunks)


def test_iso_roundtrip():
    t = to_epoch(2021, 7, 4, 12, 0, 30)
    assert parse_iso(iso(t)) == t
    assert parse_iso("2021-07-04T12:00:30+00:00") == t
    assert parse_iso("2021-07-04 12:00:30") == t


def test_observation_range():
    r = ObservationRange(100, 200)
    assert (r.start, r.end) == (100, 200)
    for start, end in ((5, 5), (6, 5)):
        with pytest.raises(ValueError):
            ObservationRange(start, end)


def test_topen_gzip_roundtrip(tmp_path):
    path = tmp_path / "log.gz"
    with topen(path, "w") as fh:
        fh.write("hello\nworld\n")
    raw = gzip.decompress(path.read_bytes()).decode()
    assert raw == "hello\nworld\n"
    with topen(path) as fh:
        assert fh.read().splitlines() == ["hello", "world"]


def test_topology_roundtrip(tmp_path):
    nodes = [NodeId(1, 0, i) for i in range(3)] + [NodeId(2, 1, 0)]
    arch = {n: ("GPU" if n.island == 2 else "Haswell") for n in nodes}
    topo = Topology(nodes, arch)
    path = tmp_path / "topo.tsv"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded.nodes == sorted(nodes)
    assert loaded.architecture_of == arch
    assert Counter(loaded.architecture_of.values()) == {"Haswell": 3,
                                                        "GPU": 1}


def test_topology_gz_roundtrip(tmp_path):
    nodes = [NodeId(1, 0, i) for i in range(3)] + [NodeId(2, 1, 0)]
    topo = Topology(nodes, {n: "Haswell" for n in nodes})
    save_topology(topo, tmp_path / "topo.tsv")
    save_topology(topo, tmp_path / "topo.tsv.gz")
    assert (tmp_path / "topo.tsv.gz").read_bytes()[:2] == b"\x1f\x8b"
    with topen(tmp_path / "topo.tsv.gz") as fh:
        assert fh.read() == (tmp_path / "topo.tsv").read_text()
    loaded = load_topology(tmp_path / "topo.tsv.gz")
    assert (loaded.nodes, loaded.architecture_of) == (
        topo.nodes, topo.architecture_of)


@pytest.mark.parametrize("row", [
    "i1r0n0\tNotAnArch\t1\t0",      # unknown class
    "i1r0n0\tHaswell\t2\t0",        # island column disagrees with the name
    "i1r0n0\tHaswell",              # short row
])
def test_topology_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "topo.tsv"
    path.write_text(row + "\n")
    with pytest.raises(ValueError):
        load_topology(path)


def test_topology_rejects_non_ascii_digits(tmp_path):
    path = tmp_path / "topo.tsv"
    path.write_text("i\u0661r0n0\tHaswell\t1\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a canonical node name"):
        load_topology(path)


def test_topology_rejects_duplicates(tmp_path):
    path = tmp_path / "topo.tsv"
    path.write_text("i1r0n0\tHaswell\t1\t0\ni1r0n0\tHaswell\t1\t0\n")
    with pytest.raises(ValueError):
        load_topology(path)


def test_expand_node_spec():
    assert expand_node_spec("i1r0n[0-2,5]") == [
        "i1r0n0", "i1r0n1", "i1r0n2", "i1r0n5"]
    assert expand_node_spec("i1r0n3 i2r1n0") == ["i1r0n3", "i2r1n0"]


@pytest.mark.parametrize("spec", ["i1r0n[\u0661-3]", "i1r0n[1,\uff13]"])
def test_expand_node_spec_wants_ascii_digits(spec):
    """A range spelled with other digits is not a range: it stays one
    name, which is not a node name."""
    assert expand_node_spec(spec) == [spec]
    with pytest.raises(ValueError):
        parse_node_name(expand_node_spec(spec)[0])


def test_compress_node_names_roundtrip():
    names = ["i1r0n0", "i1r0n1", "i1r0n2", "i1r0n7", "i2r0n0"]
    spec = compress_node_names(names)
    assert spec == "i1r0n[0-2,7] i2r0n0"
    assert sorted(expand_node_spec(spec)) == sorted(names)
