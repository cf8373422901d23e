"""Record files: every reader goes through names.read_records.

Each format reads back what its writer wrote, plain and .gz; blank,
whitespace-only and "#" lines are skipped; a bad row fails the read, and
the command that reads it, with "PATH:LINE: reason".
"""

import gzip

import pytest

from logvicinity.classify import FailureEvent, load_classified, write_classified
from logvicinity.cli import _load_instants, main
from logvicinity.datasources import (JobRecord, MaintenanceWindow, OutageRecord,
                                     Scope, load_job_report, load_maintenance,
                                     load_outage_db, write_job_report,
                                     write_maintenance, write_outage_db)
from logvicinity.model import NodeId, Topology, load_topology, save_topology
from logvicinity.outages import (BootEvent, BootFootprintSpec, OutageEvent,
                                 load_footprint, load_outages, save_footprint,
                                 write_outages)
from logvicinity.pipeline import ExtractedEvent, load_events, write_events
from logvicinity.synth import InjectedFailure, load_truth, write_truth

A, B = NodeId(1, 0, 0), NodeId(1, 0, 1)
T = 1_672_531_200  # 2023-01-01T00:00:00Z
TOPOLOGY = Topology([A, B], {A: "Haswell", B: "GPU"})
JOBS = [JobRecord("j1", frozenset({A, B}), T, T + 3600, "completed"),
        JobRecord("j2", frozenset({B}), T + 60, T + 120, "node_fail")]
OUTAGE_DB = [OutageRecord(T, T + 7200, Scope("island", island=1), "power work"),
             OutageRecord(T + 60, T + 120, Scope("node", node=B),
                          "rack A\tPSU swap")]
MAINTENANCE = [MaintenanceWindow(T, T + 7200, Scope("system")),
               MaintenanceWindow(T + 60, T + 120, Scope("node", node=A))]
FOOTPRINT = [("template", "Booting Linux  on CPU 0"), ("key", "deadbeef")]
OUTAGES = [OutageEvent(A, T, BootEvent(A, T + 600, "footprint"), tail=False),
           OutageEvent(B, T + 60, None, tail=True)]
CLASSIFIED = [FailureEvent(OutageEvent(A, T, None, tail=False),
                           "regular_failure", ("in_outage_db", "no_job_info")),
              FailureEvent(OutageEvent(B, T + 60, None, tail=False), "planned",
                           ())]
EVENTS = [ExtractedEvent(A, T, T + 600, T + 1200, False),
          ExtractedEvent(B, T + 60, T + 660, T + 660, True)]
TRUTH = [InjectedFailure(A, T, True, "crash_panic"),
         InjectedFailure(B, T + 60, False, "silent_hang")]


def _topology(path):
    topology = load_topology(path)
    return topology.nodes, topology.architecture_of


# format: (write the records to a path, read a path, the records, a bad row)
FORMATS = {
    "topology": (lambda path: save_topology(TOPOLOGY, path), _topology,
                 ([A, B], TOPOLOGY.architecture_of), "i1r0n9\tHaswell\tx\t0"),
    "jobs": (lambda path: write_job_report(JOBS, path), load_job_report, JOBS,
             "j3,i1r0n0,not-a-time,2023-01-01T01:00:00Z,completed"),
    "outage_db": (lambda path: write_outage_db(OUTAGE_DB, path),
                  load_outage_db, OUTAGE_DB, "2023-01-01T00:00:00Z\tsystem"),
    "maintenance": (lambda path: write_maintenance(MAINTENANCE, path),
                    load_maintenance, MAINTENANCE,
                    "2023-01-01T00:00:00Z..\tsystem"),
    "footprint": (lambda path: save_footprint(BootFootprintSpec(FOOTPRINT), path),
                  lambda path: load_footprint(path).items, FOOTPRINT,
                  "key:DEADBEEF"),
    "outages": (lambda path: write_outages(OUTAGES, path), load_outages,
                OUTAGES, "i1r0n0\t2023-01-01T00:00:00Z"),
    "classified": (lambda path: write_classified(CLASSIFIED, path),
                   load_classified, CLASSIFIED,
                   "i1r0n0,2023-01-01T00:00:00Z,mystery,"),
    "events": (lambda path: write_events(EVENTS, path), load_events, EVENTS,
               "i1r0n0\tnot-a-time\t2023-01-01T00:00:00Z\t"
               "2023-01-01T00:10:00Z\tfalse"),
    "truth": (lambda path: write_truth(TRUTH, path), load_truth, TRUTH,
              "i1r0n0,2023-01-01T00:00:00Z"),
}


@pytest.mark.parametrize("name", FORMATS)
def test_every_record_file_reads_back_what_its_writer_wrote(tmp_path, name):
    write, read, records, _bad = FORMATS[name]
    for path in (tmp_path / name, tmp_path / f"{name}.gz"):
        write(path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == (path.suffix == ".gz")
        assert read(path) == records
    # blank, whitespace-only and comment lines anywhere are skipped
    first, *rest = (tmp_path / name).read_text().splitlines(keepends=True)
    text = "\n \t \n" + first + "   \n\t\n  # a note\n\n" + "".join(rest) + " "
    (tmp_path / name).write_text(text)
    with gzip.open(tmp_path / f"{name}.gz", "wt") as fh:
        fh.write(text)
    assert read(tmp_path / name) == read(tmp_path / f"{name}.gz") == records


def _with_bad_third_line(path, name, bad=None):
    """path, written as a file of the format whose first two lines are
    its writer's and whose third is a bad row (text, or bytes), the
    format's by default."""
    write, _read, _records, bad_row = FORMATS[name]
    write(path)
    head = path.read_bytes().splitlines(keepends=True)[:2]
    bad = bad or bad_row
    path.write_bytes(b"".join(head)
                     + (bad if isinstance(bad, bytes) else bad.encode()) + b"\n")
    return path


@pytest.mark.parametrize("name", FORMATS)
def test_a_bad_row_names_its_file_and_line(tmp_path, name):
    path = _with_bad_third_line(tmp_path / name, name)
    with pytest.raises(ValueError) as err:
        FORMATS[name][1](path)
    assert str(err.value).startswith(f"{path}:3: ")
    assert len(str(err.value)) > len(f"{path}:3: ")  # and gives a reason


@pytest.mark.parametrize("name", FORMATS)
def test_a_line_that_is_not_utf8_names_its_file_and_line(tmp_path, name):
    path = _with_bad_third_line(tmp_path / name, name, b"i1r0n0\xff")
    with pytest.raises(ValueError) as err:
        FORMATS[name][1](path)
    assert str(err.value).startswith(f"{path}:3: 'utf-8' codec can't decode")


@pytest.mark.parametrize("name, bad", [
    ("outages", "i1r0n0\t2023-01-01T00:00:00Z\t2023-01-01T00:10:00Z\tnonsense"),
    ("outages", "i1r0n0\t2023-01-01T00:00:00Z\tTAIL\tfootprint"),
    ("outages", "i1r0n0\t2023-01-01T00:00:00Z\t2023-01-01T00:10:00Z\ttail"),
    ("events", "i1r0n0\t2023-01-01T00:00:00Z\t2023-01-01T00:00:00Z\t"
               "2023-01-01T00:10:00Z\tyes"),
    ("truth", "i1r0n0,2023-01-01T00:00:00Z,true,crash_panic,"),
    ("truth", "i1r0n0,2023-01-01T00:00:00Z,yes,crash_panic"),
    ("truth", "i1r0n0,2023-01-01T00:00:00Z,true,mystery"),
    ("classified", ",2023-01-01T00:00:00Z,regular_failure,"),
], ids=["confidence", "tail-confidence-footprint", "boot-confidence-tail",
        "silent", "truth-fields", "has-reboot", "cause", "empty-node"])
def test_a_value_its_writer_never_writes_names_its_line(tmp_path, name, bad):
    path = _with_bad_third_line(tmp_path / name, name, bad)
    with pytest.raises(ValueError) as err:
        FORMATS[name][1](path)
    assert str(err.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("name", ["outage_db", "maintenance"])
def test_a_window_that_runs_backwards_names_its_line(tmp_path, name):
    path = _with_bad_third_line(
        tmp_path / name, name, "2023-01-01T00:00:01Z..2023-01-01T00:00:00Z\tsystem")
    with pytest.raises(ValueError) as err:
        FORMATS[name][1](path)
    assert str(err.value) == f"{path}:3: start after end"


@pytest.mark.parametrize("name, bad", [
    ("events", FORMATS["events"][3]),
    ("classified", "i1r0n0,not-a-time,regular_failure,"),
    ("classified", FORMATS["classified"][3]),  # an unknown label
    ("truth", "node7,2023-01-01T00:00:00Z,true,crash_panic"),
])
def test_scored_instants_name_the_bad_line(tmp_path, name, bad):
    path = _with_bad_third_line(tmp_path / name, name, bad)
    with pytest.raises(ValueError) as err:
        _load_instants(path)
    assert str(err.value).startswith(f"{path}:3: ")


# (format, the arguments of a command that reads a file of it)
CLI_READS = [
    ("topology", ["parse", "--year", "2023", "--corpus", "{corpus}",
                  "--topology", "{bad}"]),
    ("outages", ["classify", "--outages", "{bad}", "--output", "{out}"]),
    ("jobs", ["classify", "--outages", "{outages}", "--jobs-file", "{bad}",
              "--output", "{out}"]),
    ("outage_db", ["classify", "--outages", "{outages}", "--outage-db",
                   "{bad}", "--output", "{out}"]),
    ("maintenance", ["classify", "--outages", "{outages}", "--maintenance",
                     "{bad}", "--output", "{out}"]),
    ("classified", ["detect-anomalies", "--year", "2023", "--corpus",
                    "{corpus}", "--topology", "{topology}",
                    "--failures-file", "{bad}"]),
    ("events", ["evaluate", "--detected", "{bad}", "--truth", "{truth}"]),
]


@pytest.mark.parametrize("name, argv", CLI_READS, ids=[n for n, _ in CLI_READS])
def test_cli_fails_on_a_bad_row_with_its_file_and_line(tmp_path, capsys, name,
                                                      argv):
    files = {"bad": _with_bad_third_line(tmp_path / f"bad_{name}", name),
             "out": tmp_path / "out.csv", "corpus": tmp_path / "corpus.log"}
    files["corpus"].write_text("Jan  1 00:00:00 i1r0n0 a: b\n"
                               "Jan  1 01:00:00 i1r0n1 a: b\n")
    for other in ("outages", "topology", "truth"):
        files[other] = tmp_path / other
        FORMATS[other][0](files[other])
    assert main([arg.format(**files) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {files['bad']}:3: ")


def test_evaluate_fails_on_an_unknown_label(tmp_path, capsys):
    """A classified row whose label is not one of LABELS is no detection."""
    bad = _with_bad_third_line(tmp_path / "classified.csv", "classified",
                               "i1r0n0,2023-01-01T00:00:00Z,mystery,")
    write_truth(TRUTH, tmp_path / "truth.csv")
    assert main(["evaluate", "--detected", str(bad),
                 "--truth", str(tmp_path / "truth.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:3: ")


def test_cli_names_the_line_that_is_not_utf8(tmp_path, capsys):
    jobs = _with_bad_third_line(tmp_path / "jobs.csv", "jobs",
                                     b"j3,i1r0n0,caf\xe9")
    write_outages(OUTAGES, tmp_path / "outages.tsv")
    assert main(["classify", "--outages", str(tmp_path / "outages.tsv"),
                 "--jobs-file", str(jobs),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {jobs}:3: 'utf-8' codec can't decode byte 0xe9")
