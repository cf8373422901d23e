"""The output rule: every file the package writes goes through
names.topen, so it is written whole or not at all, its lines end in \\n,
a .gz header holds the output's own name and mtime 0, and an error
creating or renaming it names the output, not a temporary file."""

import gzip
import os

import numpy as np
import pytest

from logvicinity import anonymize
from logvicinity.anonymize import save_rules, write_anonymized
from logvicinity.classify import write_classified
from logvicinity.cli import main
from logvicinity.datasources import write_job_report, write_windows
from logvicinity.detect import write_verdicts
from logvicinity.evaluate import (EvaluationReport, ExtractedEvent,
                                  render_reports, write_events, write_truth)
from logvicinity.model import NodeId, save_topology, write_syslog
from logvicinity.outages import detect_outages, save_footprint, write_outages
from oracles import LogEntry
from tables import table_of

# one output of each library writer, by the name it is written under
OUTPUTS = ("corpus.log", "anon.txt", "events.tsv", "verdicts.tsv",
           "truth.csv", "jobs.csv", "outage.db", "maintenance.tsv",
           "classified.csv", "outages.tsv", "topology.tsv", "boot.footprint",
           "subst.rules")


@pytest.fixture(scope="module")
def writers(corpus, rules, footprint, variant_runs, classified_events):
    """name -> a function that writes that output to a path."""
    c = corpus
    table = c.entries.take(np.arange(len(c.entries)) < 5000)
    run = variant_runs["filtered_anonymized"]
    outages = detect_outages(c.entries, footprint, rules, c.range)
    return {
        "corpus.log": lambda p: write_syslog(table, p),
        "anon.txt": lambda p: write_anonymized(table, p, rules),
        "events.tsv": lambda p: write_events(run.events, p),
        "verdicts.tsv": lambda p: write_verdicts(run.sweep, p),
        "truth.csv": lambda p: write_truth(c.truth.failures, p),
        "jobs.csv": lambda p: write_job_report(c.truth.jobs, p),
        "outage.db": lambda p: write_windows(c.truth.outage_records, p),
        "maintenance.tsv": lambda p: write_windows(c.truth.maintenance, p),
        "classified.csv": lambda p: write_classified(classified_events, p),
        "outages.tsv": lambda p: write_outages(outages, p),
        "topology.tsv": lambda p: save_topology(c.topology, p),
        "boot.footprint": lambda p: save_footprint(footprint, p),
        "subst.rules": lambda p: save_rules(rules, p),
    }


@pytest.mark.parametrize("name", OUTPUTS)
def test_a_written_line_ends_in_a_newline_alone(tmp_path, writers, name):
    writers[name](tmp_path / name)
    data = (tmp_path / name).read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") > 1
    assert b"\r" not in data


@pytest.mark.parametrize("name", OUTPUTS)
def test_a_gz_header_names_the_output_and_holds_no_time(tmp_path, writers,
                                                        name):
    writers[name](tmp_path / name)
    writers[name](tmp_path / f"{name}.gz")
    data = (tmp_path / f"{name}.gz").read_bytes()
    assert data[:3] == b"\x1f\x8b\x08" and data[3] == 0x08  # FNAME alone
    assert int.from_bytes(data[4:8], "little") == 0  # the mtime
    assert data[10:data.index(b"\0", 10)] == name.encode()
    assert gzip.decompress(data) == (tmp_path / name).read_bytes()


def test_a_csv_report_ends_its_lines_in_a_newline_alone():
    text = render_reports({"a": EvaluationReport(3, 1, 2),
                           "b": EvaluationReport(0, 0, 4)}, "csv")
    assert "\r" not in text
    assert text.split("\n") == [
        "variant,tp,fp,fn,precision,recall", "a,3,1,2,0.7500,0.6000",
        "b,0,0,4,1.0000,0.0000"]


def _fail_part_way(kind, path, monkeypatch):
    """Write path with a text or a binary writer that raises after it
    has written rows."""
    node = NodeId(1, 0, 0)
    if kind == "text":  # the second event's node has no name
        write_events([ExtractedEvent(node, 600, 1200, 1800, False),
                      ExtractedEvent((1, 0, 1), 600, 1200, 1800, False)], path)
        return
    stream = anonymize.anonymize_stream

    def stopping(table, rules):
        yield from stream(table, rules)
        raise RuntimeError("stopped part way")

    monkeypatch.setattr(anonymize, "anonymize_stream", stopping)
    write_anonymized(table_of(LogEntry(t, node, "kernel", f"up {t}")
                              for t in range(0, 60000, 60)),
                     path, anonymize.SubstitutionRuleSet())


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gz"])
@pytest.mark.parametrize("kind", ["text", "binary"])
def test_a_writer_that_fails_part_way_leaves_the_path_as_it_was(
        tmp_path, monkeypatch, kind, suffix, existing):
    path = tmp_path / f"out.tsv{suffix}"
    if existing:
        path.write_bytes(b"the bytes before\n")
    with pytest.raises((AttributeError, RuntimeError)):
        _fail_part_way(kind, path, monkeypatch)
    assert os.listdir(tmp_path) == ([path.name] if existing else [])
    if existing:
        assert path.read_bytes() == b"the bytes before\n"


@pytest.mark.parametrize("output", ["o.tsv", "o.tsv.gz", "m.json"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_a_cli_output_that_cannot_be_written_is_named(tmp_path, capsys,
                                                      output, where):
    """An output in a missing directory, or at a directory's path, exits
    2 with an error naming the output and leaves no temporary file."""
    (tmp_path / "empty.log").write_text("")
    target = tmp_path / "missing" / output
    if where == "a-dir":
        target = tmp_path / output
        target.mkdir()
    args = ["detect-outages", "--corpus", str(tmp_path / "empty.log"),
            "--year", "2023", "--from", "2023-01-01T00:00",
            "--to", "2023-01-02T00:00", "--output", str(tmp_path / "o.txt")]
    if output == "m.json":
        args += ["--manifest", str(target)]
    else:
        args[-1] = str(target)
    assert main(args) == 2
    err = capsys.readouterr().err
    reason = ("No such file or directory" if where == "missing-dir"
              else "Is a directory")
    assert err.startswith("error: [Errno ") and ".tmp." not in err
    assert err.endswith(f"] {reason}: {str(target)!r}\n")
    left = {p.name for p in tmp_path.iterdir()} - {"empty.log", "o.txt"}
    assert left == ({output} if where == "a-dir" else set())
