"""Smoke tests of the benchmark itself, on tiny corpora.

    python3 -m pytest bench/test_bench.py

Each workload runs once untraced and once traced at tiny scale (1-day
corpora, one to two minutes in all). The tests check that every metric
``BENCHMARK.json`` names is emitted with its unit, that traced spans nest,
that a broken output or a changed work count fails the run, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import self_times  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=list(run.WORKLOADS))
def records(request, tmp_path_factory):
    """(untraced, traced) run records of one workload at tiny scale."""
    name = request.param
    out = []
    for trace in (False, True):
        workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
        out.append(run.run(name, 7, 0, trace, workdir, tiny=True))
    return out


def test_workloads_match_manifest():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(run.WORKLOADS)


def test_every_metric_emitted_with_its_unit(records):
    plain, traced = (run.summary(r) for r in records)
    for summary, declared in ((plain, MANIFEST["end_to_end"]),
                              (traced, MANIFEST["per_layer"])):
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= 1
        got = {k: v["unit"] for k, v in summary["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}
    for name, metric in plain["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_outputs_equal_untraced(records):
    plain, traced = records
    prints = {json.dumps(op["fingerprints"], sort_keys=True)
              for rec in records for op in rec["ops"]}
    assert len(prints) == 1
    assert plain["precision"] == traced["precision"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_spans_nest_and_self_time_is_not_negative(name, tmp_path):
    wl = run.WORKLOADS[name](name, 7, tmp_path, tiny=True)
    wl.setup(1)
    wl.prepare()
    op = wl.run_op(True, time.monotonic() + 120)
    assert not op.errors and op.traces
    for trace in op.traces:
        spans = {s["id"]: s for s in trace["spans"]}
        assert spans
        selfs = self_times(trace["spans"])
        for s in spans.values():
            assert s["start"] <= s["end"]
            assert selfs[s["id"]] >= 0, s["name"]
            parent = spans.get(s["parent"])
            if parent is not None:
                assert parent["tid"] == s["tid"]
                assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_broken_output_counts_as_failed_run(tmp_path, monkeypatch):
    real_check = run.check_pipeline

    def corrupting_check(op, out):
        path = out / "events_anonymized.tsv"
        path.write_text(path.read_text() + "i9r9n9\tbroken\n")
        real_check(op, out)

    monkeypatch.setattr(run, "check_pipeline", corrupting_check)
    record = run.run("pipeline_desk64", 7, 0, False, tmp_path, tiny=True)
    summary = run.summary(record)
    assert summary["failed"] == summary["attempted"] == run.MIN_OPS
    assert summary["correct"] is False


def test_changed_work_counts_fail_the_traced_run(tmp_path, monkeypatch):
    import tracer
    real_metrics = tracer.layer_metrics
    calls = []

    def drifting_metrics(traces, wall_s):
        metrics = real_metrics(traces, wall_s)
        metrics["model.lines_parsed"] += len(calls)  # 0 first, then 1
        calls.append(metrics)
        return metrics

    monkeypatch.setattr(tracer, "layer_metrics", drifting_metrics)
    record = run.run("pipeline_desk64", 7, 0, True, tmp_path, tiny=True)
    summary = run.summary(record)
    assert len(calls) == run.MIN_TRACED_OPS
    assert summary["failed"] == 1 and summary["correct"] is False


def test_roundtrip_check_catches_changed_events(tmp_path):
    anon, events, ref = (tmp_path / n for n in ("a.txt", "e.tsv", "r.tsv"))
    anon.write_text("#pars-lite v1\n")
    ref.write_text("# node\toutage\tfirst_flagged\tlast_flagged\tsilent\n")
    events.write_text(ref.read_text() + "i1r0n0\t2023-03-06T01:00:00Z\t"
                      "2023-03-06T01:00:00Z\t2023-03-06T01:00:00Z\tfalse\n")
    table = ("variant   tp  fp  fn  precision  recall\n"
             "--------  --  --  --  ---------  ------\n"
             "detected  0   1   0   0.0000     1.0000\n")
    op = run.Op()
    run.check_roundtrip(op, anon, events, ref, table)
    assert op.errors and op.rows == [["detected", 0, 1, 0]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload",
         "pipeline_desk64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
