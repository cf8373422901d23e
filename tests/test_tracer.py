"""The benchmark tracer's targets against the library's current API.

bench/tracer.py wraps library functions by name and reads work counts off
their arguments and results. The benchmark's own tests run whole
workloads; these check, in a second, that every name it wraps exists and
that each function returns what the tracer expects of it.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import logvicinity
from logvicinity.anonymize import (SubstitutionRuleSet, read_anonymized,
                                   write_anonymized)
from logvicinity.cli import main
from logvicinity.detect import filter_frequent_anonymized, filter_frequent_raw
from logvicinity.model import NodeId, ParseStats

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
import tracer  # noqa: E402

from oracles import LogEntry, format_syslog_line  # noqa: E402
from tables import syslog_file, table_of  # noqa: E402

NODE = NodeId(1, 0, 0)
# one template in two thirds of the rows, at irregular times
ENTRIES = [LogEntry(t, NODE, "cron", ("alpha", "beta", "alpha")[i % 3])
           for i, t in enumerate(sorted(random.Random(5).sample(
               range(86400), 30)))]


def _target(mod_name, attr):
    obj = importlib.import_module(f"logvicinity.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=[f"{t[0]}.{t[1]}" for t in tracer.TARGETS])
def test_every_target_resolves(target):
    mod_name, attr, _layer, kind, _counts = target
    assert kind in ("call", "gen", "gen_stats")
    assert callable(_target(mod_name, attr))


def test_generator_targets_return_iterators():
    kinds = {(m, a): k for m, a, _, k, _ in tracer.TARGETS}
    rules = SubstitutionRuleSet()
    lines = [format_syslog_line(e) + "\n" for e in ENTRIES]
    calls = {("model", "parse_syslog_stream"): (syslog_file(lines), 2023,
                                                {NODE.name: NODE}),
             ("anonymize", "anonymize_stream"): (table_of(ENTRIES), rules)}
    assert {key for key, kind in kinds.items() if kind != "call"} == set(calls)
    for key, args in calls.items():
        result = _target(*key)(*args)
        if kinds[key] == "gen_stats":
            result, stats = result
            assert isinstance(stats, ParseStats)
        assert isinstance(result, Iterator)
        assert sum(len(item) for item in result) > 0


def test_count_lambdas_accept_what_the_targets_return(tmp_path):
    counts = {(m, a): c for m, a, _, _, c in tracer.TARGETS}
    rules = SubstitutionRuleSet()
    table = table_of(ENTRIES)
    path = tmp_path / "anon.txt"
    write_anonymized(table, path, rules)
    read = read_anonymized(path)
    assert counts[("anonymize", "read_anonymized")](
        (path,), read) == {"rows": len(ENTRIES)}
    keyed = read[0]
    for name, fn, args in (
            ("filter_frequent_raw", filter_frequent_raw, (table, rules, 50.0)),
            ("filter_frequent_anonymized", filter_frequent_anonymized,
             (keyed, 50.0))):
        result = fn(*args)
        got = counts[("detect", name)](args, result)
        assert got == {"input": len(ENTRIES), "kept": len(result[0])}
        assert 0 < got["kept"] < got["input"]


def test_tracer_wraps_modules_the_cli_imports_late(tmp_path):
    """cli imports a subcommand's modules when it runs; the traced layers
    must still record spans, or a layer would read 0 in the benchmark."""
    gen = tmp_path / "gen"
    assert main(["generate", "--out", str(gen), "--seed", "3", "--days", "0.5",
                 "--failures", "2", "--storms", "2",
                 "--background-jobs", "5"]) == 0
    year = json.loads((gen / "run_manifest.json").read_text())["year"]
    code = """
import json, sys
import tracer
t = tracer.Tracer()
t.install()
from logvicinity import cli
corpus, truth, anon, year = sys.argv[1:]
assert cli.main(["anonymize", "--corpus", corpus, "--year", year,
                 "--output", anon]) == 0
assert cli.main(["evaluate", "--detected", truth, "--truth", truth]) == 0
t.uninstall_gc()
print(json.dumps(sorted({s["name"] for s in t.dump()["spans"]})))
"""
    src = str(Path(logvicinity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, BENCH))}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(gen / "corpus.log"),
         str(gen / "truth.csv"), str(tmp_path / "anon.txt"), str(year)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"model.parse_syslog_stream", "anonymize.write_anonymized",
            "anonymize.anonymize_stream", "evaluate.score",
            "cli.main"} <= names
