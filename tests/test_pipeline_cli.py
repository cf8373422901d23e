import gzip
import json
import os
import random
from datetime import datetime, timezone

import numpy as np
import oracles
import pytest

from logvicinity import anonymize, evaluate
from logvicinity.anonymize import SubstitutionRuleSet, read_anonymized
from logvicinity.classify import (FailureEvent, load_classified,
                                  write_classified)
from logvicinity.cli import main
from logvicinity.datasources import JobRecord, Scope, Window
from logvicinity.detect import (MIN_GROUP_SIZE, SGIndex, observation_moments,
                                run_detection, sweep_schedule, write_verdicts)
from logvicinity.evaluate import (ExtractedEvent, load_events, load_truth,
                                  write_events)
from logvicinity.model import (NodeId, ObservationRange, Topology, iso,
                               parse_iso, parse_node_name, to_epoch, topen)
from logvicinity.names import DEFAULT_CADENCE, run_manifest
from logvicinity.outages import (BootFootprintSpec, detect_boot_events,
                                 load_outages)
from logvicinity.pipeline import (MAX_GAP_MOMENTS, drop_maintenance_events,
                                  extract_events, prepare_stream, run_variant,
                                  run_variants, sweep_perspective)
from logvicinity.synth import GeneratorSpec, generate
from logvicinity.vicinity import (VicinityAssignment, allocation_groups,
                                  combined_vicinity, hardware_vicinity,
                                  regroup, time_of_failure_vicinity)
from oracles import LogEntry, format_syslog_line
from tables import rows_of, table_of

X = NodeId(1, 0, 0)
Y = NodeId(1, 0, 1)


def _index(ts, node=X):
    return SGIndex(table_of(LogEntry(int(t), node, "t", "m") for t in ts))


def _sweep(moment_verdicts, node=X):
    """moment_verdicts: [(at, verdict)] for a single node."""
    return oracles.columnar_sweep([(at, "g", {node: verdict})
                                   for at, verdict in moment_verdicts])


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
    events = extract_events(sweep, idx, cadence=600)
    assert len(events) == 1
    assert (events[0].first_flagged, events[0].last_flagged) == (3000, 5400)
    # 4 unflagged moments: two runs
    sweep = _sweep([(3000, "abnormal"), (6000, "abnormal")])
    events = extract_events(sweep, idx, cadence=600)
    assert [(e.first_flagged, e.last_flagged) for e in events] == [
        (3000, 3000), (6000, 6000)]


def test_extract_skips_unanchorable_runs():
    idx = _index([5000])  # nothing before the flagged moments
    sweep = _sweep([(3000, "abnormal")])
    assert extract_events(sweep, idx, cadence=600) == []


def test_extract_keeps_nodes_separate():
    entries = [LogEntry(t, n, "t", "m") for n in (X, Y) for t in (100, 2500)]
    idx = SGIndex(table_of(entries))
    sweep = oracles.columnar_sweep([(3000, "g", {X: "abnormal", Y: "normal"}),
                                    (3600, "g", {X: "normal", Y: "abnormal"})])
    events = extract_events(sweep, idx, cadence=600)
    assert {(e.node, e.first_flagged) for e in events} == {(X, 3000), (Y, 3600)}


def test_drop_maintenance_events():
    events = [ExtractedEvent(X, 5000, 6000, 6600, False),
              ExtractedEvent(Y, 5000, 6000, 6600, False)]
    win = Window(4000, 5500, Scope("node", node=X))
    kept = drop_maintenance_events(events, [win])
    assert [e.node for e in kept] == [Y]
    assert drop_maintenance_events(events, []) == events


def test_events_file_roundtrip(tmp_path):
    events = [ExtractedEvent(X, 5000, 6000, 6600, False),
              ExtractedEvent(Y, 7000, 7800, 9000, True)]
    for name in ("events.tsv", "events.tsv.gz"):
        path = tmp_path / name
        write_events(events, path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        assert load_events(path) == events


def test_prepare_stream_variants():
    entries = [LogEntry(t, X, "c", "alpha beta") for t in range(0, 600, 60)]
    table = table_of(entries)
    raw, dropped = prepare_stream(table, "raw")
    assert rows_of(raw) == entries and dropped == []
    anon, _ = prepare_stream(table, "anonymized")
    assert anon is table  # keying leaves (timestamp, node) as is
    assert len({e.key for e in rows_of(anon, SubstitutionRuleSet())}) == 1
    with pytest.raises(ValueError):
        prepare_stream(table, "mystery")


def test_run_manifest_fields():
    man = run_manifest({"alpha": 5.0}, seed=7)
    assert man["tool"] == "logvicinity"
    assert man["seed"] == 7
    assert man["config"] == {"alpha": 5.0}
    assert set(man) == {"tool", "version", "python", "created", "seed", "config"}


def _head(table, n):
    """The first n rows of a table."""
    return table.take(np.arange(len(table)) < n)


def test_run_variant_smoke(corpus, rules):
    run = run_variant(_head(corpus.entries, 20000), corpus.topology,
                      corpus.range, "filtered_raw", rules)
    assert run.name == "filtered_raw"
    assert isinstance(run.dropped, list)
    assert len(run.sweep.at)


def test_run_variants_shares_the_raw_run_with_anonymized(corpus, rules):
    entries = _head(corpus.entries, 20000)
    args = (entries, corpus.topology, corpus.range)
    runs = run_variants(*args, rules, variants=("raw", "anonymized"))
    alone = run_variant(*args, "anonymized", rules)
    assert runs["anonymized"].name == "anonymized"
    assert runs["anonymized"].events == alone.events
    assert runs["anonymized"].sweep is runs["raw"].sweep


WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliett "
         "kilo lima mike november oscar papa quebec romeo sierra tango "
         "uniform victor whiskey xray yankee zulu").split()


@pytest.mark.parametrize("variant", ["filtered_raw", "filtered_anonymized"])
def test_a_filtered_variant_anchors_at_the_last_line(variant):
    """Four nodes log a heartbeat a minute and a job step of a random
    kind every two minutes. X's job steps stop at 6 h and its heartbeats
    at 7 h; both filters drop the heartbeat alone, so the sweep sees X
    silent from 6 h on, but its outage is anchored at its last
    heartbeat, as in raw."""
    nodes = [NodeId(1, 0, p) for p in range(4)]
    start = to_epoch(2023, 3, 6, 0, 0, 0)
    rng = random.Random(0)
    beat = "Session heartbeat check completed"
    rows = []
    for node in nodes:
        steps = start + 6 * 3600 if node == X else start + 12 * 3600
        beats = start + 7 * 3600 if node == X else start + 12 * 3600
        rows += [LogEntry(t, node, "sessiond", beat)
                 for t in range(start + 30, beats, 60)]
        rows += [LogEntry(t, node, "slurmd", f"job step {rng.choice(WORDS)}")
                 for t in range(start, steps, 120)]
    table = table_of(rows)
    topology = Topology(nodes, dict.fromkeys(nodes, "Haswell"))
    obs_range = ObservationRange(start, start + 12 * 3600)
    runs = run_variants(table, topology, obs_range,
                        variants=("raw", variant), perspective="location")
    rules = SubstitutionRuleSet()
    assert runs[variant].dropped == [
        rules.key(beat) if variant == "filtered_anonymized"
        else rules.template(beat)]
    last_beat = start + 7 * 3600 - 30
    for run in runs.values():
        assert [(e.node, e.outage_time, e.non_responsive)
                for e in run.events] == [(X, last_beat, True)]
    assert runs[variant].events[0].first_flagged < last_beat


def test_every_variant_anchors_as_the_reference_on_the_whole_table(
        corpus, variant_runs):
    """The seed-7 runs of all four variants, against the per-node loop
    over the whole table, less the events in maintenance windows."""
    maintenance = corpus.truth.maintenance
    for run in variant_runs.values():
        want = [e for e in oracles.reference_extract_events(
            run.sweep, corpus.entries, DEFAULT_CADENCE, MAX_GAP_MOMENTS)
            if not any(w.covers(e[0], e[1]) for w in maintenance)]
        assert want and [(e.node, e.outage_time, e.first_flagged,
                          e.last_flagged, e.non_responsive)
                         for e in run.events] == want


# ---------------------------------------------------------------------------
# every perspective goes through one sweep loop

JOB_NODES = [NodeId(1, 0, p) for p in range(8)]
JOB_RANGE = ObservationRange(0, 4 * 3600)
JOB_TOPOLOGY = Topology(JOB_NODES, {n: "Haswell" for n in JOB_NODES})


def _job_index():
    """Random chatter on eight nodes; node 0 goes silent for 50 minutes."""
    rng = random.Random(11)
    entries = [LogEntry(t, n, "t", "m") for n in JOB_NODES
               for t in rng.sample(range(JOB_RANGE.end), 400)
               if not (n == JOB_NODES[0] and 6000 <= t < 9000)]
    return SGIndex(table_of(entries))


def _job(job_id, nodes, start=0):
    return JobRecord(job_id, frozenset(nodes), start, JOB_RANGE.end + 1,
                     "completed")


def _rows(sweep):
    return [(r.at, r.group, dict(zip(r.nodes, r.verdict)),
             dict(zip(r.nodes, r.sg)), r.tau)
            for r in oracles.sweep_cells(sweep)]


def test_allocation_sweep_of_one_steady_job_equals_static_sweep():
    index = _job_index()
    job = _job("j1", JOB_NODES[:4])
    alloc = sweep_perspective(index, "allocation", JOB_TOPOLOGY, JOB_RANGE,
                              jobs=[job])
    static = run_detection(
        index, VicinityAssignment([job.nodes], ["job:j1"]),
        JOB_RANGE)
    assert alloc.moments == static.moments
    assert _rows(alloc) == _rows(static)
    assert any(v != "normal" for r in oracles.sweep_cells(alloc)
               for v in r.verdict)


@pytest.mark.parametrize("perspective", ["allocation", "location"])
def test_verdict_sg_column_is_the_window_count(perspective, tmp_path):
    index = _job_index()
    sweep = sweep_perspective(index, perspective, JOB_TOPOLOGY, JOB_RANGE,
                              jobs=[_job("j1", JOB_NODES[:5])], window=900)
    path = tmp_path / "verdicts.tsv"
    write_verdicts(sweep, path)
    rows = path.read_text().splitlines()
    assert len(rows) == sum(len(r.nodes)
                            for r in oracles.sweep_cells(sweep)) > 0
    for row in rows:
        at, _group, name, _verdict, sg, _tau = row.split("\t")
        assert int(sg) == index.count(parse_node_name(name), parse_iso(at), 900)


def test_undersized_allocation_group_is_skipped_once():
    index = _job_index()
    jobs = [_job("j1", JOB_NODES[:4]), _job("j2", JOB_NODES[4:6]),
            _job("j0", JOB_NODES[6:8], start=2 * 3600)]
    sweep = sweep_perspective(index, "allocation", JOB_TOPOLOGY,
                              JOB_RANGE, jobs=jobs)
    assert len(sweep.moments) > 1
    # first-seen order, not name order: j0 only starts half-way through
    assert sweep.skipped_groups == [("job:j2", 2), ("job:j0", 2)]
    assert {r.group for r in oracles.sweep_cells(sweep)} == {"job:j1"}


def test_window_longer_than_range_gives_no_moments():
    index = _job_index()
    asg = VicinityAssignment([frozenset(JOB_NODES)], ["all"])
    sweep = run_detection(index, asg, JOB_RANGE, window=JOB_RANGE.end + 1)
    assert (sweep.moments, len(sweep.at)) == ([], 0)
    sweep = sweep_perspective(index, "allocation", JOB_TOPOLOGY, JOB_RANGE,
                              jobs=[_job("j1", JOB_NODES)],
                              window=JOB_RANGE.end + 1)
    assert (sweep.moments, len(sweep.at),
            sweep.skipped_groups) == ([], 0, [])


def test_silent_group_node_and_minimum_group_size():
    rng = random.Random(3)
    entries = [LogEntry(t, n, "t", "m") for n in JOB_NODES[:5]
               for t in rng.sample(range(JOB_RANGE.end), 300)]
    index = SGIndex(table_of(entries))
    silent = JOB_NODES[7]  # in a group, but has no entries at all
    groups = [frozenset(JOB_NODES[:MIN_GROUP_SIZE]),
              frozenset({JOB_NODES[3], JOB_NODES[4], silent})]
    sweep = run_detection(index, VicinityAssignment(
        groups, ["min", "with_silent"]), JOB_RANGE)
    cells = list(oracles.sweep_cells(sweep))
    assert [len(r.nodes) for r in cells[:2]] == [MIN_GROUP_SIZE] * 2
    assert len(cells) == 2 * len(sweep.moments)
    for r in cells[1::2]:
        i = r.nodes.index(silent)
        assert r.sg[i] == 0 and r.verdict[i] == "non_responsive"
    for r in cells:
        assert r.sg == [oracles.brute_window_count(entries, n, r.at, 1800)
                        for n in r.nodes]
        assert r.verdict == oracles.naive_verdicts(r.sg, 5.0, 5.0)


def test_allocation_regroups_only_when_the_job_set_changes(monkeypatch):
    index = _job_index()
    # j3 starts and ends on observation moments: [start, end) is half-open
    jobs = [_job("j1", JOB_NODES[:4]), _job("j2", JOB_NODES[4:6]),
            JobRecord("j3", frozenset(JOB_NODES[3:7]), 3600, 3 * 3600,
                      "completed"),
            _job("j0", JOB_NODES[6:8], start=2 * 3600)]
    moments = observation_moments(JOB_RANGE.start, JOB_RANGE.end)
    per_moment = sweep_schedule(
        index, [(allocation_groups([j for j in jobs if j.active_at(at)]),
                 (at,)) for at in moments])
    calls = []

    def counted(unions, started=(), ended=frozenset()):
        calls.append(([job_id for job_id, _ in started], sorted(ended)))
        return regroup(unions, started, ended)

    monkeypatch.setattr("logvicinity.vicinity.regroup", counted)
    sweep = sweep_perspective(index, "allocation", JOB_TOPOLOGY,
                              JOB_RANGE, jobs=jobs)
    # one update per segment, at the moments 1800, 3600, 7200 and 10800 s,
    # given the jobs that start there (in job order) and those that end
    assert calls == [(["j1", "j2"], []), (["j3"], []), (["j0"], []),
                     ([], ["j3"])]
    assert sweep.moments == per_moment.moments == moments
    assert sweep.skipped_groups == per_moment.skipped_groups
    assert _rows(sweep) == _rows(per_moment)
    assert {r.group for r in oracles.sweep_cells(sweep)} == {
        "job:j1", "job:j1+j2+j3", "job:j0+j1+j2+j3"}


def test_allocation_rejects_a_repeated_job_id():
    jobs = [_job("a", JOB_NODES[:3]), _job("b", JOB_NODES[3:5]),
            _job("a", JOB_NODES[5:8])]
    with pytest.raises(ValueError, match="unique job ids"):
        sweep_perspective(_job_index(), "allocation", JOB_TOPOLOGY,
                          JOB_RANGE, jobs=jobs)


@pytest.mark.parametrize("perspective, error", [
    ("time_of_failure", "time_of_failure perspective needs failure events"),
    ("rack", "unknown perspective: 'rack'"),
])
def test_sweep_perspective_refuses_what_it_cannot_group(perspective, error):
    with pytest.raises(ValueError) as err:
        sweep_perspective(_job_index(), perspective, JOB_TOPOLOGY, JOB_RANGE)
    assert str(err.value) == error


def test_jobs_and_failures_count_only_the_topology_nodes():
    """A node outside the topology has no rows: a job or a failure that
    names one sweeps as if it named only the topology's nodes."""
    index = _job_index()
    stranger, other = NodeId(9, 9, 0), NodeId(9, 9, 1)

    def failed(nodes, t):
        return [FailureEvent(n, t + 60 * i, "regular_failure", ())
                for i, n in enumerate(nodes)]

    known_jobs = [_job("j1", JOB_NODES[:4]), _job("j2", JOB_NODES[4:7]),
                  _job("j8", JOB_NODES[7:])]
    named_jobs = [_job("j1", [*JOB_NODES[:4], stranger]), known_jobs[1],
                  _job("j8", [JOB_NODES[7], other]),
                  _job("j9", [stranger, other])]
    # two chains of three, which the strangers' failures would link
    known_failures = failed(JOB_NODES[:3], 5400) + failed(JOB_NODES[3:6], 7200)
    named_failures = (known_failures + failed([stranger], 6000)
                      + failed([other], 6600))
    for perspective in ("allocation", "time_of_failure"):
        known, named = (sweep_perspective(index, perspective, JOB_TOPOLOGY,
                                          JOB_RANGE, jobs=jobs,
                                          failures=failures)
                        for jobs, failures in ((known_jobs, known_failures),
                                               (named_jobs, named_failures)))
        assert len(known.at) > 0
        for name, value in vars(known).items():
            got = getattr(named, name)
            assert (np.array_equal(got, value) if isinstance(value, np.ndarray)
                    else got == value), (perspective, name)


def test_sweep_does_not_depend_on_node_or_entry_order(corpus):
    table = corpus.entries
    entries = rows_of(table.take(table.ts < corpus.range.start + 86400))
    obs_range = ObservationRange(corpus.range.start,
                                 corpus.range.start + 86400)
    rng = random.Random(13)
    nodes = list(corpus.topology.nodes)
    rng.shuffle(nodes)
    arch = {n: corpus.topology.architecture_of[n] for n in nodes}
    shuffled_entries = list(entries)
    rng.shuffle(shuffled_entries)
    index = SGIndex(table_of(entries))
    shuffled_index = SGIndex(table_of(shuffled_entries))
    for maker in (combined_vicinity, hardware_vicinity):
        sweep = run_detection(index, maker(corpus.topology), obs_range)
        shuffled = run_detection(shuffled_index, maker(Topology(nodes, arch)),
                                 obs_range)
        assert _rows(shuffled) == _rows(sweep)
        assert any(v != "normal" for r in oracles.sweep_cells(sweep)
                   for v in r.verdict)
    for r in oracles.sweep_cells(sweep):
        assert r.verdict == oracles.naive_verdicts(r.sg, 5.0, 5.0)


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


def test_cli_generate_manifest_records_the_corpus_range(cli_dir, tmp_path):
    spec = GeneratorSpec()
    manifest = json.loads((cli_dir / "run_manifest.json").read_text())
    assert manifest["config"]["start"] is None
    assert manifest["start"] == iso(spec.start)
    assert manifest["end"] == iso(spec.start + 2 * 86400)
    assert manifest["year"] == 2023

    out = tmp_path / "wrap"
    assert main(["generate", "--out", str(out), "--start", "2022-12-31T12:00:00Z",
                 "--days", "1", "--failures", "2", "--storms", "2",
                 "--background-jobs", "5"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["start"] == iso(to_epoch(2022, 12, 31, 12, 0, 0))
    assert manifest["end"] == "2023-01-01T12:00:00Z"
    assert manifest["year"] == 2022


def test_cli_parse_summary(cli_dir, capsys):
    rc = main(["parse", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"),
               "--year", "2023", "--format", "json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["nodes"] == 64
    assert summary["skipped_unknown"] == 0
    assert summary["entries"] > 10000
    # the generated corpus is in time order: normalizing it changes nothing
    written = (cli_dir / "corpus.log").read_bytes()
    for name in ("normal.log", "normal.log.gz"):
        out = cli_dir / name
        assert main(["parse", "--corpus", str(cli_dir / "corpus.log"),
                     "--year", "2023", "--output", str(out)]) == 0
        assert (out.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        with topen(out) as fh:
            assert fh.read().encode() == written


def test_cli_parse_does_not_depend_on_compression_or_line_ends(
        cli_dir, tmp_path, capsys):
    """Metamorphic: the corpus, its gzip and its \\r\\n copy parse alike."""
    written = (cli_dir / "corpus.log").read_bytes()
    copies = {"corpus.log": written, "corpus.log.gz": gzip.compress(written),
              "crlf.log": written.replace(b"\n", b"\r\n")}
    results = set()
    for name, data in copies.items():
        (tmp_path / name).write_bytes(data)
        out = tmp_path / f"{name}.out.log"
        assert main(["parse", "--corpus", str(tmp_path / name),
                     "--topology", str(cli_dir / "topology.tsv"),
                     "--year", "2023", "--format", "json",
                     "--output", str(out)]) == 0
        results.add((capsys.readouterr().out, out.read_bytes()))
    assert len(results) == 1
    (summary, output), = results
    assert json.loads(summary)["entries"] > 10000 and output == written


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
    (gz, gz_version), (plain, version) = (
        read_anonymized(outs[name]) for name in ("anon.txt.gz", "anon.txt"))
    assert (rows_of(gz), gz_version) == (rows_of(plain), version)
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
    shuffled = tmp_path / "shuffled.log"
    random.Random(5).shuffle(lines)
    shuffled.write_text("".join(lines))
    assert grouped.read_text() != (cli_dir / "corpus.log").read_text()
    outputs = []
    for corpus in (cli_dir / "corpus.log", grouped, shuffled):
        events = tmp_path / f"{corpus.stem}.events.tsv"
        outages = tmp_path / f"{corpus.stem}.outages.tsv"
        common = ["--corpus", str(corpus), "--year", "2023"]
        capsys.readouterr()
        assert main(["parse", "--format", "json"] + common) == 0
        summary = json.loads(capsys.readouterr().out)
        assert main(["detect-anomalies", "--events", str(events),
                     "--topology", str(cli_dir / "topology.tsv")]
                    + common) == 0
        assert main(["detect-outages", "--output", str(outages)]
                    + common) == 0
        # the pars-lite file keeps line order; its rows and verdicts do not
        anon = tmp_path / f"{corpus.stem}.anon.txt"
        anon_events = tmp_path / f"{corpus.stem}.anon.events.tsv"
        assert main(["anonymize", "--output", str(anon)] + common) == 0
        assert main(["detect-anomalies", "--corpus", str(anon),
                     "--anonymized", "--variant", "anonymized",
                     "--events", str(anon_events),
                     "--topology", str(cli_dir / "topology.tsv")]) == 0
        outputs.append((summary, events.read_text(), outages.read_text(),
                        sorted(anon.read_text().splitlines()[1:]),
                        anon_events.read_text()))
    assert outputs[0][2] and len(outputs[0][3]) == summary["entries"]
    assert outputs[0][4] == outputs[0][1]  # the detector reads no text
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_detect_outages_anonymized_route(cli_dir, tmp_path, capsys):
    common = ["--topology", str(cli_dir / "topology.tsv")]
    anon = tmp_path / "anon.txt"
    assert main(["anonymize", "--corpus", str(cli_dir / "corpus.log"),
                 "--year", "2023", "--output", str(anon)] + common) == 0
    raw_out, anon_out = tmp_path / "raw.tsv", tmp_path / "anon.tsv"
    assert main(["detect-outages", "--corpus", str(cli_dir / "corpus.log"),
                 "--year", "2023", "--output", str(raw_out)] + common) == 0
    assert main(["detect-outages", "--corpus", str(anon), "--anonymized",
                 "--output", str(anon_out)] + common) == 0
    assert load_outages(raw_out)
    assert anon_out.read_text() == raw_out.read_text()


def test_cli_noncanonical_host_without_topology(cli_dir, tmp_path, capsys):
    head = (cli_dir / "corpus.log").read_text().splitlines(keepends=True)[:400]
    corpus = tmp_path / "mixed.log"
    corpus.write_text("".join(head[:200]) + "Mar  6 00:10:00 login01 sshd: "
                      "session opened\n" + "".join(head[200:]))
    common = ["--corpus", str(corpus), "--year", "2023"]
    capsys.readouterr()
    assert main(["parse", "--format", "json"] + common) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["entries"], summary["skipped_unknown"]) == (400, 1)
    anon = tmp_path / "anon.txt"
    assert main(["anonymize", "--output", str(anon)] + common) == 0
    assert len(read_anonymized(anon)[0]) == 400
    assert main(["detect-outages", "--output",
                 str(tmp_path / "outages.tsv")] + common) == 0
    capsys.readouterr()
    assert main(["parse", "--strict"] + common) == 2
    assert "login01" in capsys.readouterr().err


@pytest.mark.parametrize("host", ["i\u0661r0n0", "i1r0n\uff10"])
def test_cli_parse_treats_non_ascii_digits_as_unknown(tmp_path, capsys, host):
    """Without --topology every canonical name is a node; a name spelled
    with other than ASCII digits is not one."""
    corpus = tmp_path / "corpus.log"
    corpus.write_text(f"Mar  6 00:00:00 i1r0n0 a: b\n"
                      f"Mar  6 00:00:01 {host} a: b\n", encoding="utf-8")
    common = ["--corpus", str(corpus), "--year", "2023"]
    capsys.readouterr()
    assert main(["parse", "--format", "json"] + common) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["entries"], summary["skipped_unknown"]) == (1, 1)
    assert main(["parse", "--strict"] + common) == 2


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


def test_cli_config_rejects_an_unknown_key(cli_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    truth = str(cli_dir / "truth.csv")
    args = ["evaluate", "--config", str(cfg), "--detected", truth,
            "--truth", truth]
    cfg.write_text("windw = 900\n")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "'windw'" in err
    # one file serves every subcommand: another one's option is allowed
    cfg.write_text("window = 900\ntolerance = 300\n")
    assert main(args) == 0


@pytest.mark.parametrize("head, row, why", [
    ("node,outage_time,has_reboot,cause", "i1r0n0", "expected 4 fields, got 1"),
    ("node,outage_time,has_reboot,cause", "i1r0n0,yesterday,true,crash_panic",
     "bad timestamp: 'yesterday'"),
    ("node,outage_time,has_reboot,cause",
     "node7,2023-03-06T00:00:00Z,true,crash_panic",
     "not a canonical node name: 'node7'"),
    # a header no writer writes: the file is read as events, and refused
    ("node,outage_time", "i1r0n0,2023-03-06T00:00:00Z",
     "expected 5 tab-separated fields, got 1"),
], ids=["fields", "time", "node", "node-instant-header"])
def test_evaluate_names_the_line_of_a_bad_row(cli_dir, tmp_path, capsys,
                                              head, row, why):
    truth = tmp_path / "truth.csv"
    truth.write_text(f"{head}\ni1r0n1,2023-03-06T01:00:00Z,true,crash_panic\n"
                     f"{row}\n")
    line = 1 if head == "node,outage_time" else 3
    assert main(["evaluate", "--detected", str(cli_dir / "truth.csv"),
                 "--truth", str(truth)]) == 2
    assert capsys.readouterr().err == f"error: {truth}:{line}: {why}\n"


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
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["start"] == iso(GeneratorSpec().start)


def test_cli_manifest_gz_is_compressed(cli_dir, tmp_path, capsys):
    manifests = []
    for name in ("m.json", "m.json.gz"):
        path = tmp_path / name
        assert main(["evaluate", "--detected", str(cli_dir / "truth.csv"),
                     "--truth", str(cli_dir / "truth.csv"),
                     "--manifest", str(path)]) == 0
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        with topen(path) as fh:
            manifests.append(json.load(fh))
    assert manifests[0]["config"] == manifests[1]["config"]
    assert manifests[1]["tool"] == "logvicinity"


def test_cli_warns_about_the_assumed_year(cli_dir, capsys):
    args = ["parse", "--corpus", str(cli_dir / "corpus.log"),
            "--topology", str(cli_dir / "topology.tsv"), "--format", "json"]
    year = datetime.now(timezone.utc).year
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and str(year) in err
    assert main(args + ["--year", str(year)]) == 0
    assert capsys.readouterr() == (out, "")


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--bogus-flag"])
    assert exc.value.code == 1
    rc = main(["parse", "--corpus", str(tmp_path / "missing.log")])
    assert rc == 2

    def broken(path):
        raise AssertionError("a broken invariant")

    monkeypatch.setattr(evaluate, "load_scored", broken)
    capsys.readouterr()
    assert main(["evaluate", "--detected", "d", "--truth", "t"]) == 3
    assert capsys.readouterr().err == (
        "internal invariant violated: a broken invariant\n")


@pytest.mark.parametrize("argv, error", [
    (["detect-outages", "--corpus", "{empty}", "--year", "2023",
      "--output", "{tmp}/o.tsv"],
     "empty corpus and no --from/--to bounds given"),
    (["pipeline", "--workdir", "{tmp}/run"],
     "pipeline needs --generate or --corpus + --topology"),
    (["pipeline", "--corpus", "{empty}", "--workdir", "{tmp}/run"],
     "pipeline needs --generate or --corpus + --topology"),
    (["evaluate", "--config", "{cfg}", "--detected", "d", "--truth", "t"],
     "{cfg}:2: expected key=value"),
], ids=["empty-corpus", "no-input", "no-topology", "config-line"])
def test_cli_refuses_what_it_cannot_run(tmp_path, capsys, argv, error):
    files = {"tmp": tmp_path, "empty": tmp_path / "empty.log",
             "cfg": tmp_path / "run.cfg"}
    files["empty"].write_text("")
    files["cfg"].write_text("tolerance = 300\nwindow 900\n")
    assert main([arg.format(**files) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {error.format(**files)}\n"


def _failures_file(cli_dir, tmp_path):
    """The corpus's true failures as a classified file of regular failures."""
    path = tmp_path / "failures.csv"
    write_classified([FailureEvent(f.node, f.outage_time, "regular_failure", ())
                      for f in load_truth(cli_dir / "truth.csv")], path)
    return path


@pytest.mark.parametrize("vicinity, option, value", [
    ("combined", "--window", "0"), ("combined", "--window", "-600"),
    ("combined", "--cadence", "0"), ("allocation", "--window", "0"),
    ("allocation", "--cadence", "0"), ("allocation", "--cadence", "-600"),
    ("time_of_failure", "--cadence", "0"),
    ("time_of_failure", "--cadence", "-600"),
])
def test_cli_detect_anomalies_rejects_a_window_or_cadence_below_one(
        cli_dir, tmp_path, capsys, vicinity, option, value):
    rc = main(["detect-anomalies", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"), "--year", "2023",
               "--vicinity", vicinity, "--jobs-file", str(cli_dir / "jobs.csv"),
               "--failures-file", str(_failures_file(cli_dir, tmp_path)),
               option, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {option[2:]} must be positive\n"


def test_cli_time_of_failure_runs_on_a_range_shorter_than_one_window(
        cli_dir, tmp_path, capsys):
    """time_of_failure judges at the failures, not at observation moments;
    the count is of the moments of the chains large enough to judge."""
    failures = _failures_file(cli_dir, tmp_path)
    rc = main(["detect-anomalies", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"), "--year", "2023",
               "--vicinity", "time_of_failure",
               "--failures-file", str(failures),
               "--from", "2023-03-06T00:00:00Z",
               "--to", "2023-03-06T00:10:00Z"])
    assert rc == 0
    judged = {at for [(_, nodes)], (at,) in time_of_failure_vicinity(
        load_classified(failures)) if len(nodes) >= MIN_GROUP_SIZE}
    assert capsys.readouterr().out.endswith(
        f" flagged node-moments over {len(judged)} moments\n")


@pytest.mark.parametrize("option, value", [("--window", "0"),
                                           ("--cadence", "-600")])
def test_cli_pipeline_rejects_a_window_or_cadence_below_one(
        cli_dir, tmp_path, capsys, option, value):
    rc = main(["pipeline", "--corpus", str(cli_dir / "corpus.log"),
               "--topology", str(cli_dir / "topology.tsv"), "--year", "2023",
               "--variant", "raw", "--workdir", str(tmp_path / "run"),
               option, value])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {option[2:]} must be positive\n"


def _command_args(command, cli_dir, tmp_path):
    """A command's arguments on the cli_dir corpus and its records."""
    corpus = ["--corpus", str(cli_dir / "corpus.log"), "--year", "2023",
              "--topology", str(cli_dir / "topology.tsv")]
    if command == "classify":
        outages = tmp_path / "outages.tsv"
        assert main(["detect-outages", "--output", str(outages)]
                    + corpus) == 0
        return ["classify", "--outages", str(outages),
                "--jobs-file", str(cli_dir / "jobs.csv"),
                "--outage-db", str(cli_dir / "outage.db"),
                "--maintenance", str(cli_dir / "maintenance.tsv"),
                "--output", str(tmp_path / "c.csv")]
    return {
        "detect-anomalies": ["detect-anomalies"] + corpus,
        "detect-outages": ["detect-outages", "--output",
                           str(tmp_path / "o.tsv")] + corpus,
        "evaluate": ["evaluate", "--detected", str(cli_dir / "truth.csv"),
                     "--truth", str(cli_dir / "truth.csv")],
        "pipeline": ["pipeline", "--variant", "raw",
                     "--workdir", str(tmp_path / "run")] + corpus,
    }[command]


@pytest.mark.parametrize("command, option, value", [
    ("detect-anomalies", "--alpha", "-5"),
    ("detect-anomalies", "--alpha", "nan"),
    ("detect-anomalies", "--tau-min", "nan"),
    ("detect-anomalies", "--tau-min", "-0.5"),
    ("detect-anomalies", "--cv-threshold", "nan"),
    ("detect-outages", "--burst-minutes", "-2"),
    ("detect-outages", "--min-gap", "-5"),
    ("detect-outages", "--silence-threshold", "-1"),
    ("detect-outages", "--burst-factor", "nan"),
    ("detect-outages", "--burst-factor", "inf"),
    ("classify", "--correlation-window", "-1"),
    ("evaluate", "--tolerance", "-600"),
    ("pipeline", "--tau-min", "inf"),
    ("pipeline", "--tolerance", "-600"),
])
def test_cli_rejects_a_negative_or_non_finite_parameter(
        cli_dir, tmp_path, capsys, command, option, value):
    args = _command_args(command, cli_dir, tmp_path)
    if option == "--cv-threshold":
        args += ["--variant", "filtered_anonymized"]
    capsys.readouterr()
    assert main(args + [option, value]) == 2
    name = option[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(
        f"error: {name} must be a finite number >= 0, not ")


def test_cli_config_file_values_are_checked_too(cli_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_gap = -5\n")
    args = _command_args("detect-outages", cli_dir, tmp_path)
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        capsys.readouterr()
        assert main(args + spelling) == 2
        assert capsys.readouterr().err == \
            "error: min_gap must be a finite number >= 0, not -5\n"


@pytest.mark.parametrize("command, line, error", [
    ("detect-outages", "burst_minutes = 2.5",
     "config key 'burst_minutes': invalid int value: '2.5'"),
    ("detect-anomalies", "window = 1800.5",
     "config key 'window': invalid int value: '1800.5'"),
    ("detect-anomalies", "anonymized = yes",
     "config key 'anonymized': invalid bool value: 'yes'"),
    ("detect-anomalies", "window = 1800", None),
])
def test_cli_config_values_are_read_as_their_flags(cli_dir, tmp_path, capsys,
                                                   command, line, error):
    """A config value is converted by its option's own type: a fraction
    for an integer option fails as the flag would, naming the file and
    the key, where it once ended in a traceback."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    args = _command_args(command, cli_dir, tmp_path)
    capsys.readouterr()
    if error is None:
        manifest = tmp_path / "m.json"
        assert main(args + ["--config", str(cfg),
                            "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["config"]["window"] == 1800
    else:
        assert main(args + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {error}")


def test_boot_detection_rejects_a_negative_or_non_finite_parameter():
    table = table_of(LogEntry(t, X, "t", "m") for t in range(0, 6000, 60))
    footprint = BootFootprintSpec([("template", "m")])
    rules = SubstitutionRuleSet()
    assert detect_boot_events(table, footprint, rules, min_gap=0)
    for params in ({"burst_factor": float("nan")}, {"burst_minutes": -1},
                   {"min_gap": -60}):
        with pytest.raises(ValueError, match=f"^{next(iter(params))} must"):
            detect_boot_events(table, footprint, rules, **params)


@pytest.mark.parametrize("command", ["detect-anomalies", "pipeline"])
def test_cli_refuses_a_range_shorter_than_one_window(cli_dir, tmp_path,
                                                      capsys, command):
    args = _command_args(command, cli_dir, tmp_path)
    start = "2023-03-06T00:00:00Z"
    capsys.readouterr()
    assert main(args + ["--from", start, "--to", "2023-03-06T00:10:00Z"]) == 2
    assert capsys.readouterr().err == (
        f"error: the range {start} to 2023-03-06T00:10:00Z holds no "
        f"observation moment: it is shorter than one window (1800 s)\n")
    # a range of exactly one window holds one moment
    assert main(args + ["--from", start, "--to", "2023-03-06T00:30:00Z"]) == 0
    if command == "detect-anomalies":
        assert capsys.readouterr().out.endswith(" over 1 moments\n")


def test_cli_refuses_anonymized_input_before_reading_it(tmp_path, capsys,
                                                        monkeypatch):
    """The default variant is raw, which anonymized input lacks: the
    refusal comes before the topology or the corpus is read."""
    def unread(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(anonymize, "read_anonymized", unread)
    missing = str(tmp_path / "missing")
    assert main(["detect-anomalies", "--corpus", missing, "--anonymized",
                 "--topology", missing]) == 2
    assert capsys.readouterr().err == (
        "error: anonymized input supports only the anonymized and "
        "filtered_anonymized variants\n")
