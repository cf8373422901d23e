"""The import boundary: what `import logvicinity` and each subcommand load.

Each check runs in a fresh interpreter, because this test process has
loaded every module already.
"""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logvicinity
from logvicinity.classify import FailureEvent, write_classified
from logvicinity.cli import build_parser, main
from logvicinity.evaluate import ExtractedEvent, write_events
from logvicinity.model import NodeId, iso

SRC = str(Path(logvicinity.__file__).resolve().parents[1])
NO_NUMPY = "import sys\nsys.modules['numpy'] = None  # any numpy import fails\n"
LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules\n"
          "                        if m == 'numpy' or m.startswith('logvicinity'))))\n")
T0 = 1_690_000_000


def _child(code, *args, env=None) -> str:
    """Run code in a fresh interpreter with args as sys.argv[1:], in this
    environment or env; its stdout."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(stdout) -> set:
    return set(json.loads(stdout.splitlines()[-1]))


def test_import_package_loads_no_module():
    assert _loaded(_child("import logvicinity\n" + LOADED)) == {"logvicinity"}


def test_every_export_resolves_lazily():
    code = """
import importlib, logvicinity
ns = {}
exec("from logvicinity import *", ns)
for name in logvicinity.__all__:
    module = importlib.import_module("logvicinity." + logvicinity._MODULE_OF[name])
    assert ns[name] is getattr(module, name) is getattr(logvicinity, name), name
assert not hasattr(logvicinity, "no_such_name")
assert set(logvicinity.__all__) <= set(dir(logvicinity))
print(len(logvicinity.__all__))
"""
    assert int(_child(code)) == len(logvicinity.__all__) > 70


def _score_inputs(tmp_path):
    """evaluate's arguments for an events file against a truth file, and
    for a classified file against the truth file gzipped."""
    nodes = [NodeId(1, 0, i) for i in range(4)]
    events = tmp_path / "events.tsv"
    write_events([ExtractedEvent(n, T0 + 900 * i, T0 + 900 * i + 600,
                                 T0 + 900 * i + 1200, i % 2 == 0)
                  for i, n in enumerate(nodes[:3])], events)
    classified = tmp_path / "classified.csv"
    write_classified([FailureEvent(n, T0 + 900 * i, label, ())
                      for i, (n, label) in enumerate(zip(nodes, (
                          "regular_failure", "planned", "regular_failure",
                          "not_failure")))], classified)
    text = "node,outage_time,has_reboot,cause\n" + "".join(
        f"{n.name},{iso(T0 + 900 * i + 300 * (i % 2))},true,crash_panic\n"
        for i, n in enumerate(nodes[1:], 1))
    truth = tmp_path / "truth.csv"
    truth.write_text(text)
    with gzip.open(tmp_path / "truth.csv.gz", "wt") as fh:
        fh.write(text)
    return [["evaluate", "--detected", str(events), "--truth", str(truth)],
            ["evaluate", "--detected", str(classified),
             "--truth", f"{truth}.gz"]]


def test_classify_loads_no_numpy(tmp_path):
    code = """
import sys
from logvicinity.classify import FailureEvent, load_classified, write_classified
from logvicinity.names import NodeId
events = [FailureEvent(NodeId(1, 0, 0), 1690000000, "planned", ("in_maintenance",))]
write_classified(events, sys.argv[1])
assert load_classified(sys.argv[1]) == events
""" + LOADED
    assert _loaded(_child(code, str(tmp_path / "classified.csv"))) == {
        "logvicinity", "logvicinity.classify", "logvicinity.names"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or (os.cpu_count() or 1) < 2,
                    reason="needs /proc and more than one CPU")
def test_cli_starts_no_openblas_worker_thread():
    """numpy's OpenBLAS starts a spinning worker per CPU unless told not
    to; nothing here calls BLAS. A value the user set is kept."""
    code = ("import os\nimport logvicinity.cli\nimport numpy\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'],"
            " len(os.listdir('/proc/self/task')))\n")
    unset = {k: v for k, v in os.environ.items()
             if k != "OPENBLAS_NUM_THREADS"}
    assert _child(code, env=unset).split() == ["1", "1"]
    assert _child(code, env={**unset, "OPENBLAS_NUM_THREADS": "2"}).split()[0] \
        == "2"


def test_cli_runs_evaluate_help_and_version_without_numpy(tmp_path, capsys):
    runs = _score_inputs(tmp_path)
    for argv in runs:
        assert main(argv) == 0
    expected = capsys.readouterr().out
    # the classified run scores its regular failures only
    assert expected.endswith("detected  1   1   2   0.5000     0.3333\n")
    subcommands = build_parser()._subparsers._group_actions[0].choices
    code = NO_NUMPY + """
import contextlib, io, json
from logvicinity.cli import main
for argv in [["--help"], ["--version"]] + [[c, "--help"] for c in json.loads(sys.argv[2])]:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    except SystemExit as exc:
        assert exc.code == 0, argv
    else:
        raise AssertionError(f"{argv} did not exit")
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
"""
    manifest = str(tmp_path / "m.json")
    runs[-1] += ["--manifest", manifest]
    out = _child(code, json.dumps(runs), json.dumps(sorted(subcommands)))
    assert out == expected
    assert json.loads(Path(manifest).read_text())["tool"] == "logvicinity"


def test_anonymize_loads_only_what_it_runs(tmp_path):
    corpus = tmp_path / "corpus.log"
    corpus.write_text("".join(f"Jul 22 0{h}:00:00 i1r0n{n} cron: run {n}\n"
                              for h in range(3) for n in range(3)))
    out = tmp_path / "anon.txt"
    code = "from logvicinity.cli import main\n" \
           "assert main(sys.argv[1:]) == 0\n" + LOADED
    loaded = _loaded(_child("import sys\n" + code, "anonymize", "--corpus",
                            str(corpus), "--year", "2023",
                            "--output", str(out)))
    assert out.read_text().count("\n") == 10
    assert {"logvicinity.anonymize", "logvicinity.model"} <= loaded
    assert not loaded & {f"logvicinity.{m}" for m in (
        "synth", "pipeline", "detect", "outages", "classify")}


def test_detection_and_outages_never_load_numpy_ma(tmp_path):
    # np.percentile, np.unique without indices (np.union1d's too) and
    # np.median on floats import numpy.ma on their first call; parsing and
    # detection do without them
    code = """
import sys
from logvicinity.anonymize import SubstitutionRuleSet
from logvicinity.detect import SGIndex
from logvicinity.model import parse_syslog_table, write_syslog
from logvicinity.outages import BootFootprintSpec
from logvicinity.pipeline import detect_and_classify, run_variants, sweep_perspective
from logvicinity.synth import FOOTPRINT_LINES, GeneratorSpec, generate
c = generate(GeneratorSpec(seed=3, days=1.0, failure_count=3, skew_share=0.0,
                           storm_count=5, background_jobs=10))
write_syslog(c.entries, sys.argv[1])
with open(sys.argv[1], "rb") as fh:
    table, _ = parse_syslog_table(fh, 2023, c.topology.resolver())
assert len(table) == len(c.entries)
run_variants(c.entries, c.topology, c.range,
             maintenance=c.truth.maintenance)
sweep_perspective(SGIndex(c.entries), "allocation", c.topology, c.range,
                  jobs=c.truth.jobs)
footprint = BootFootprintSpec([("template", m) for _, m in FOOTPRINT_LINES])
print(len(detect_and_classify(c.entries, footprint, SubstitutionRuleSet(),
                              c.range)))
print("numpy.ma" in sys.modules)
"""
    outages, loaded = _child(code, str(tmp_path / "corpus.log")).split()
    assert int(outages) > 0
    assert loaded == "False"
