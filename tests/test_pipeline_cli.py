import json
import os
import random

import pytest

from logvicinity.anonymize import AnonymizedEntry, read_anonymized
from logvicinity.cli import main
from logvicinity.datasources import JobRecord, MaintenanceWindow, Scope
from logvicinity.detect import (DetectionResult, SGIndex, SweepResult,
                                run_detection, write_verdicts)
from logvicinity.model import (LogEntry, NodeId, ObservationRange, Topology,
                               format_syslog_line, parse_iso,
                               parse_node_name, to_epoch)
from logvicinity.outages import load_outages
from logvicinity.pipeline import (ExtractedEvent, drop_maintenance_events,
                                  extract_events, load_events, prepare_stream,
                                  run_manifest, run_variant, sweep_perspective,
                                  write_events)
from logvicinity.synth import GeneratorSpec, generate
from logvicinity.vicinity import VicinityAssignment

X = NodeId(1, 0, 0)
Y = NodeId(1, 0, 1)


def _index(ts, node=X):
    return SGIndex([LogEntry(int(t), node, "t", "m") for t in ts])


def _sweep(moment_verdicts, node=X):
    """moment_verdicts: [(at, verdict)] for a single node."""
    sweep = SweepResult()
    for at, verdict in moment_verdicts:
        sweep.results.append(DetectionResult(
            at, "g", {node: verdict}, {}, None))
        sweep.moments.append(at)
    return sweep


def test_extract_abnormal_run_anchor():
    idx = _index([100, 2000, 2500, 9000])
    sweep = _sweep([(3000, "abnormal"), (3600, "abnormal")])
    events = extract_events(sweep, idx, cadence=600)
    assert events == [ExtractedEvent(X, 2500, 3000, 3600, False)]


def test_extract_silent_run_anchors_before_last_zero():
    idx = _index([100, 2000, 2500, 9000])
    sweep = _sweep([(3000, "abnormal"), (3600, "non_responsive"),
                    (4200, "non_responsive")])
    events = extract_events(sweep, idx, cadence=600)
    assert events == [ExtractedEvent(X, 2500, 3000, 4200, True)]


def test_extract_bridges_gaps_up_to_limit():
    idx = _index([100])
    # 3 unflagged moments between flags: still one run
    sweep = _sweep([(3000, "abnormal"), (5400, "abnormal")])
    events = extract_events(sweep, idx, cadence=600, max_gap_moments=3)
    assert len(events) == 1
    assert (events[0].first_flagged, events[0].last_flagged) == (3000, 5400)
    # 4 unflagged moments: two runs
    sweep = _sweep([(3000, "abnormal"), (6000, "abnormal")])
    events = extract_events(sweep, idx, cadence=600, max_gap_moments=3)
    assert [(e.first_flagged, e.last_flagged) for e in events] == [
        (3000, 3000), (6000, 6000)]


def test_extract_skips_unanchorable_runs():
    idx = _index([5000])  # nothing before the flagged moments
    sweep = _sweep([(3000, "abnormal")])
    assert extract_events(sweep, idx, cadence=600) == []


def test_extract_keeps_nodes_separate():
    entries = [LogEntry(t, n, "t", "m") for n in (X, Y) for t in (100, 2500)]
    idx = SGIndex(entries)
    sweep = SweepResult()
    sweep.results.append(DetectionResult(3000, "g", {X: "abnormal", Y: "normal"},
                                         {}, None))
    sweep.results.append(DetectionResult(3600, "g", {X: "normal", Y: "abnormal"},
                                         {}, None))
    events = extract_events(sweep, idx, cadence=600)
    assert {(e.node, e.first_flagged) for e in events} == {(X, 3000), (Y, 3600)}


def test_drop_maintenance_events():
    events = [ExtractedEvent(X, 5000, 6000, 6600, False),
              ExtractedEvent(Y, 5000, 6000, 6600, False)]
    win = MaintenanceWindow(4000, 5500, Scope("node", node=X))
    kept = drop_maintenance_events(events, [win])
    assert [e.node for e in kept] == [Y]
    assert drop_maintenance_events(events, []) == events


def test_events_file_roundtrip(tmp_path):
    events = [ExtractedEvent(X, 5000, 6000, 6600, False),
              ExtractedEvent(Y, 7000, 7800, 9000, True)]
    path = tmp_path / "events.tsv"
    write_events(events, path)
    assert load_events(path) == events


def test_prepare_stream_variants():
    entries = [LogEntry(t, X, "c", "alpha beta") for t in range(0, 600, 60)]
    raw, dropped = prepare_stream(entries, "raw")
    assert raw == entries and dropped == []
    anon, _ = prepare_stream(entries, "anonymized")
    assert all(isinstance(e, AnonymizedEntry) for e in anon)
    assert len({e.key for e in anon}) == 1
    with pytest.raises(ValueError):
        prepare_stream(entries, "mystery")


def test_run_manifest_fields():
    man = run_manifest({"alpha": 5.0}, seed=7)
    assert man["tool"] == "logvicinity"
    assert man["seed"] == 7
    assert man["config"] == {"alpha": 5.0}
    assert set(man) == {"tool", "version", "python", "created", "seed", "config"}


def test_run_variant_smoke(corpus, rules):
    run = run_variant(corpus.entries[:20000], corpus.topology,
                      corpus.range, "filtered_raw", rules)
    assert run.name == "filtered_raw"
    assert isinstance(run.dropped, list)
    assert run.sweep.results


# ---------------------------------------------------------------------------
# every perspective goes through one sweep loop

JOB_NODES = [NodeId(1, 0, p) for p in range(8)]
JOB_RANGE = ObservationRange(0, 4 * 3600)


def _job_index():
    """Random chatter on eight nodes; node 0 goes silent for 50 minutes."""
    rng = random.Random(11)
    entries = [LogEntry(t, n, "t", "m") for n in JOB_NODES
               for t in rng.sample(range(JOB_RANGE.end), 400)
               if not (n == JOB_NODES[0] and 6000 <= t < 9000)]
    return SGIndex(entries)


def _job(job_id, nodes, start=0):
    return JobRecord(job_id, frozenset(nodes), start, JOB_RANGE.end + 1,
                     "completed")


def _rows(sweep):
    return [(r.at, r.group, r.verdicts, r.sgs, r.threshold.tau)
            for r in sweep.results]


def test_allocation_sweep_of_one_steady_job_equals_static_sweep():
    index = _job_index()
    job = _job("j1", JOB_NODES[:4])
    alloc = sweep_perspective(index, "allocation", None, JOB_RANGE,
                              jobs=[job])
    static = run_detection(
        index, VicinityAssignment("combined", [job.nodes], ["job:j1"]),
        JOB_RANGE)
    assert alloc.moments == static.moments
    assert _rows(alloc) == _rows(static)
    assert any(v != "normal" for r in alloc.results
               for v in r.verdicts.values())


@pytest.mark.parametrize("perspective", ["allocation", "location"])
def test_verdict_sg_column_is_the_window_count(perspective, tmp_path):
    index = _job_index()
    topology = Topology(JOB_NODES, {n: "Haswell" for n in JOB_NODES})
    sweep = sweep_perspective(index, perspective, topology, JOB_RANGE,
                              jobs=[_job("j1", JOB_NODES[:5])], window=900)
    path = tmp_path / "verdicts.tsv"
    write_verdicts(sweep, path)
    rows = path.read_text().splitlines()
    assert len(rows) == sum(len(r.verdicts) for r in sweep.results) > 0
    for row in rows:
        at, _group, name, _verdict, sg, _tau = row.split("\t")
        assert int(sg) == index.count(parse_node_name(name), parse_iso(at), 900)


def test_undersized_allocation_group_is_skipped_once():
    index = _job_index()
    jobs = [_job("j1", JOB_NODES[:4]), _job("j2", JOB_NODES[4:6]),
            _job("j0", JOB_NODES[6:8], start=2 * 3600)]
    sweep = sweep_perspective(index, "allocation", None, JOB_RANGE, jobs=jobs)
    assert len(sweep.moments) > 1
    # first-seen order, not name order: j0 only starts half-way through
    assert sweep.skipped_groups == [("job:j2", 2), ("job:j0", 2)]
    assert {r.group for r in sweep.results} == {"job:j1"}


# ---------------------------------------------------------------------------
# command-line surface

GEN_ARGS = ["--seed", "3", "--days", "2", "--failures", "8",
            "--storms", "10", "--background-jobs", "30"]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    rc = main(["generate", "--out", str(path)] + GEN_ARGS)
    assert rc == 0
    return path


def test_cli_generate_outputs(cli_dir):
    for name in ("corpus.log", "topology.tsv", "jobs.csv", "outage.db",
                 "maintenance.tsv", "truth.csv", "run_manifest.json"):
        assert (cli_dir / name).exists(), name
    manifest = json.loads((cli_dir / "run_manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["days"] == 2.0
    assert not list(cli_dir.glob("*.tmp*"))


def test_cli_parse_summary(cli_dir, capsys):
    rc = main(["parse", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"),
               "--year", "2023", "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["nodes"] == 64
    assert summary["skipped_unknown"] == 0
    assert summary["entries"] > 10000


def test_cli_anonymize(cli_dir, capsys):
    out = cli_dir / "anon.tsv"
    rc = main(["anonymize", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"),
               "--year", "2023", "--output", str(out)])
    assert rc == 0
    head = out.read_text().splitlines()[:2]
    assert head[0].startswith("#pars-lite v")
    assert len(head[1].split("\t")) == 3


def test_cli_anonymize_gz_output_is_compressed(cli_dir, tmp_path, capsys):
    outs = {}
    for name in ("anon.txt", "anon.txt.gz"):
        outs[name] = tmp_path / name
        rc = main(["anonymize", "--corpus", str(cli_dir / "corpus.log"),
                   "--topology", str(cli_dir / "topology.tsv"),
                   "--year", "2023", "--output", str(outs[name])])
        assert rc == 0
    assert outs["anon.txt.gz"].read_bytes()[:2] == b"\x1f\x8b"
    assert read_anonymized(outs["anon.txt.gz"]) == read_anonymized(
        outs["anon.txt"])
    rc = main(["detect-anomalies", "--anonymized",
               "--corpus", str(outs["anon.txt.gz"]),
               "--topology", str(cli_dir / "topology.tsv"),
               "--variant", "anonymized"])
    assert rc == 0


def test_cli_results_do_not_depend_on_line_order(cli_dir, tmp_path, capsys):
    lines = (cli_dir / "corpus.log").read_text().splitlines(keepends=True)
    grouped = tmp_path / "grouped.log"
    # stable sort by host: each node's lines stay in time order
    grouped.write_text("".join(sorted(lines, key=lambda l: l.split()[3])))
    assert grouped.read_text() != (cli_dir / "corpus.log").read_text()
    outputs = []
    for corpus in (cli_dir / "corpus.log", grouped):
        events = tmp_path / f"{corpus.stem}.events.tsv"
        common = ["--corpus", str(corpus), "--year", "2023"]
        capsys.readouterr()
        assert main(["parse", "--format", "json"] + common) == 0
        summary = json.loads(capsys.readouterr().out)
        assert main(["detect-anomalies", "--events", str(events),
                     "--topology", str(cli_dir / "topology.tsv")]
                    + common) == 0
        outputs.append((summary, events.read_text()))
    assert outputs[0] == outputs[1]


def test_cli_outages_classify_evaluate(cli_dir, capsys):
    outages = cli_dir / "outages.tsv"
    rc = main(["detect-outages", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"),
               "--year", "2023", "--output", str(outages)])
    assert rc == 0
    assert load_outages(outages)

    classified = cli_dir / "classified.csv"
    rc = main(["classify", "--outages", str(outages),
               "--jobs-file", str(cli_dir / "jobs.csv"),
               "--outage-db", str(cli_dir / "outage.db"),
               "--maintenance", str(cli_dir / "maintenance.tsv"),
               "--output", str(classified)])
    assert rc == 0
    tally = capsys.readouterr().out
    assert "regular_failure=" in tally and "planned=" in tally

    rc = main(["evaluate", "--detected", str(classified),
               "--truth", str(cli_dir / "truth.csv"),
               "--name", "classified", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)["classified"]
    assert report["tp"] == 8 and report["fn"] == 0


def test_cli_detect_anomalies_and_events(cli_dir, capsys):
    verdicts = cli_dir / "verdicts.tsv"
    events = cli_dir / "events.tsv"
    rc = main(["detect-anomalies", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"),
               "--year", "2023", "--variant", "raw",
               "--maintenance", str(cli_dir / "maintenance.tsv"),
               "--output", str(verdicts), "--events", str(events)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "events" in out
    assert load_events(events)
    first = verdicts.read_text().splitlines()[0].split("\t")
    assert len(first) == 6

    rc = main(["evaluate", "--detected", str(events),
               "--truth", str(cli_dir / "truth.csv"), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "variant,tp,fp,fn,precision,recall"


def test_cli_anonymized_input_route(cli_dir, capsys):
    rc = main(["detect-anomalies", "--corpus", str(cli_dir / "anon.tsv"),
               "--anonymized", "--variant", "anonymized",
               "--topology", str(cli_dir / "topology.tsv"),
               "--output", str(cli_dir / "verdicts_anon.tsv")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["detect-anomalies", "--corpus", str(cli_dir / "anon.tsv"),
               "--anonymized", "--variant", "raw",
               "--topology", str(cli_dir / "topology.tsv")])
    assert rc == 2  # raw text is gone; only hashed variants remain


def test_cli_constant_corpus_location_is_quiet(tmp_path, capsys):
    nodes = [parse_node_name(f"i1r0n{p}") for p in range(4)]
    start = to_epoch(2023, 3, 6, 0, 0, 0)
    with open(tmp_path / "flat.log", "w") as fh:
        for t in range(start, start + 6 * 3600, 60):
            for n in nodes:
                fh.write(format_syslog_line(LogEntry(t, n, "cron", "tick")) + "\n")
    with open(tmp_path / "topo.tsv", "w") as fh:
        for n in nodes:
            fh.write(f"{n.name}\tHaswell\t1\t0\n")
    rc = main(["detect-anomalies", "--corpus", str(tmp_path / "flat.log"),
               "--topology", str(tmp_path / "topo.tsv"), "--year", "2023",
               "--vicinity", "location"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("0 flagged")


def test_cli_config_file_and_flag_precedence(cli_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=7.5\ncadence=1200\n# comment\n")
    manifest = tmp_path / "m.json"
    rc = main(["detect-anomalies", "--config", str(cfg),
               "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"),
               "--year", "2023", "--alpha", "9",
               "--manifest", str(manifest)])
    assert rc == 0
    config = json.loads(manifest.read_text())["config"]
    assert config["alpha"] == 9.0      # explicit flag beats the file
    assert config["cadence"] == 1200   # file beats the built-in default


def test_cli_pipeline_generate(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["pipeline", "--generate", "--workdir", "run",
               "--format", "json"] + GEN_ARGS)
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports["raw"] == reports["anonymized"]
    assert set(reports) == {"raw", "anonymized", "filtered_raw",
                            "filtered_anonymized", "classified_outages"}
    for name in ("classified.csv", "report.json", "run_manifest.json",
                 "events_raw.tsv", "events_filtered_anonymized.tsv"):
        assert (tmp_path / "run" / name).exists(), name


def test_cli_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--bogus-flag"])
    assert exc.value.code == 1
    rc = main(["parse", "--corpus", str(tmp_path / "missing.log")])
    assert rc == 2
