import pytest

from logvicinity.datasources import (JobRecord, MaintenanceWindow,
                                     OutageRecord, Scope, load_job_report,
                                     load_maintenance, load_outage_db,
                                     parse_scope, write_job_report,
                                     write_maintenance, write_outage_db)
from logvicinity.model import NodeId, parse_node_name


def _job(start, end, nodes=("i1r0n0",), status="completed", job_id="j1"):
    return JobRecord(job_id, frozenset(parse_node_name(n) for n in nodes),
                     start, end, status)


def test_job_active_half_open():
    job = _job(100, 200)
    assert not job.active_at(99)
    assert job.active_at(100)
    assert job.active_at(199)
    assert not job.active_at(200)


def _gzipped(path):
    """Whether the file is gzip data exactly when its name ends in .gz."""
    return (path.read_bytes()[:2] == b"\x1f\x8b") == (path.suffix == ".gz")


def test_job_report_roundtrip(tmp_path):
    jobs = [
        _job(1600000000, 1600003600, nodes=("i1r0n0", "i1r0n1", "i1r0n2")),
        _job(1600000500, 1600001000, nodes=("i2r1n4",), status="node_fail",
             job_id="j2"),
    ]
    for path in (tmp_path / "jobs.csv", tmp_path / "jobs.csv.gz"):
        write_job_report(jobs, path)
        assert _gzipped(path)
        assert load_job_report(path) == jobs


_BAD_JOB_ROWS = [  # (row, reason)
    ("j1,i1r0n0,2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,exploded",
     "unknown status 'exploded'"),
    ("j1,i1r0n0,2020-01-01T02:00:00Z,2020-01-01T01:00:00Z,completed",
     "start after end"),
    ("j1,,2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,completed",
     "empty node list"),
    ("j1,i1r0n0,not-a-time,2020-01-01T01:00:00Z,completed",
     "bad timestamp: 'not-a-time'"),
    ("j1,i1r0n0 i1r0n[5-3],2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,completed",
     "range '5-3' in 'i1r0n[5-3]' runs backwards"),
    ("j1,i1r0n[1-2-3],2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,completed",
     "bad range piece '1-2-3' in 'i1r0n[1-2-3]'"),
]


@pytest.mark.parametrize("row,reason", [pytest.param(row, reason, id=row)
                                        for row, reason in _BAD_JOB_ROWS])
def test_job_report_rejects_bad_rows(tmp_path, row, reason):
    path = tmp_path / "jobs.csv"
    path.write_text("job_id,nodes,start,end,status\n" + row + "\n")
    with pytest.raises(ValueError) as err:
        load_job_report(path)
    assert str(err.value) == f"{path}:2: {reason}"


def test_job_report_rejects_a_repeated_job_id(tmp_path):
    path = tmp_path / "jobs.csv"
    path.write_text(
        "job_id,nodes,start,end,status\n"
        "a,i1r0n[0-2],2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,completed\n"
        "b,i1r0n3,2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,completed\n"
        "a,i1r0n[5-7],2020-01-01T00:00:00Z,2020-01-01T01:00:00Z,completed\n")
    with pytest.raises(ValueError) as err:
        load_job_report(path)
    assert str(err.value) == f"{path}:4: duplicate job id 'a'"


def test_parse_scope():
    assert parse_scope("system") == Scope("system")
    assert parse_scope("entire_system") == Scope("system")
    assert parse_scope("island:3") == Scope("island", island=3)
    assert parse_scope("node:i1r2n3") == Scope("node", node=NodeId(1, 2, 3))
    with pytest.raises(ValueError):
        parse_scope("rack:5")


def test_scope_covers():
    n = NodeId(2, 1, 0)
    assert Scope("system").covers(n)
    assert Scope("island", island=2).covers(n)
    assert not Scope("island", island=1).covers(n)
    assert Scope("node", node=n).covers(n)
    assert not Scope("node", node=NodeId(2, 1, 1)).covers(n)


def test_windows_cover_closed_interval():
    n = NodeId(1, 0, 0)
    for cls in (OutageRecord, MaintenanceWindow):
        w = cls(100, 200, Scope("system"))
        assert w.covers(n, 100) and w.covers(n, 200)
        assert not w.covers(n, 99) and not w.covers(n, 201)


def test_outage_db_roundtrip(tmp_path):
    records = [
        OutageRecord(1600000000, 1600007200, Scope("island", island=2), "power work"),
        OutageRecord(1600100000, 1600101000, Scope("node", node=NodeId(1, 0, 3)), ""),
        OutageRecord(1600200000, 1600201000, Scope("system"), "rack A\tPSU swap"),
    ]
    for path in (tmp_path / "outage.db", tmp_path / "outage.db.gz"):
        write_outage_db(records, path)
        assert _gzipped(path)
        assert load_outage_db(path) == records


def test_maintenance_roundtrip(tmp_path):
    windows = [MaintenanceWindow(1600000000, 1600007200, Scope("system"))]
    for path in (tmp_path / "maint.tsv", tmp_path / "maint.tsv.gz"):
        write_maintenance(windows, path)
        assert _gzipped(path)
        assert load_maintenance(path) == windows
    # a window with a note, which may hold tabs, as an outage db row has
    noted = OutageRecord(1600100000, 1600101000, Scope("island", island=2),
                         "rack A\tPSU swap")
    write_outage_db([noted], tmp_path / "noted.tsv")
    assert load_maintenance(tmp_path / "noted.tsv") == [
        MaintenanceWindow(noted.start, noted.end, noted.scope)]


@pytest.mark.parametrize("line", [
    "2020-01-01T00:00:00Z\tsystem",                      # no span separator
    "2020-01-01T00:00:00Z..2020-01-01T01:00:00Z",        # missing scope column
])
def test_windows_reject_malformed_lines(tmp_path, line):
    path = tmp_path / "maintenance.tsv"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        load_maintenance(path)
