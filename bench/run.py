"""logvicinity benchmark: end-to-end runs in fresh processes, plus a traced run.

Usage, from the root of a checkout::

    python3 bench/run.py                       # every workload, seed 7, untraced and traced
    python3 bench/run.py --workload pipeline_desk64 --seed 3 --seconds 10 --trace 0

Workloads (inputs generated from ``--seed``; one process at a time):

* ``pipeline_desk64``: ``logvicinity pipeline`` on corpus files of the default
  64-node desk layout, 3.5 days, 20 failures.
* ``anon_roundtrip_taurus512``: ``anonymize`` to a plain-text pars-lite file,
  ``detect-anomalies --anonymized`` reading it back, ``evaluate``; 512-node
  Taurus layout (``scale_topology(taurus_topology(), 0.25)``), half a day.
* ``perspectives_desk64``: library run on the in-memory default corpus, one
  ``SGIndex`` and a hardware/combined/allocation x 900/1800/3600 s grid of
  ``sweep_perspective`` + ``extract_events`` + ``score``.

``--trace 0`` reports the end-to-end metrics (``run_s``, ``cpu_s``,
``peak_rss_mb``, ``setup_s``); ``--trace 1`` runs operations in pairs, one
untraced and one traced (``bench/tracer.py``), and reports the per-layer
metrics, the tracing overhead and a failed operation where the work counts of
two traced operations differ. Operations repeat until ``--seconds`` have
passed and at least ``MIN_OPS`` (traced: ``MIN_TRACED_OPS`` pairs) ran; time
metrics are their medians. Each run's correctness checks make failed
operations. The last
line printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the full record (environment, every
operation, fingerprints).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

N_SETUP = 3      # set-ups per untraced run; setup_s is their median
MIN_OPS = 3      # untraced operations per run, at least
MIN_TRACED_OPS = 2  # untraced + traced pairs per traced run, at least
DEADLINE_S = 170  # a run never lets a child outlive this

# Why each invocation looks the way it does:
HYGIENE = {
    "--from/--to": "without them a file-based run starts its moment grid at "
                   "the first entry, which shifts it (86/31 fp instead of the "
                   "README's 88/32 on seed 7)",
    "no --jobs": "the default is what users get, and the flag is slated "
                 "for removal",
    "plain-text pars-lite": ".gz outputs are currently written uncompressed; "
                            "fixing that must not read as a regression",
}

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _spec_kwargs(workload: str, seed: int, tiny: bool) -> dict:
    """Scalar GeneratorSpec arguments; the topology is added separately.

    ``tiny`` shrinks every workload to a 1-day corpus for smoke tests.
    """
    if tiny:
        return {"seed": seed, "days": 1.0, "failure_count": 3,
                "skew_share": 0.0, "storm_count": 5, "background_jobs": 10}
    # The file workloads are shorter than the default 7-day corpus so that
    # set-up plus MIN_OPS operations fit the run budget. Failures keep the
    # default density where placeable: the generator puts 5 h between two
    # failures of a node, which half a day only allows with skew_share 0.
    if workload == "pipeline_desk64":
        return {"seed": seed, "days": 3.5, "failure_count": 20}
    if workload == "anon_roundtrip_taurus512":
        return {"seed": seed, "days": 0.5, "failure_count": 2,
                "skew_share": 0.0}
    return {"seed": seed}


def _make_spec(workload: str, kwargs: dict, tiny: bool = False):
    from logvicinity.synth import GeneratorSpec, scale_topology, taurus_topology
    if workload == "anon_roundtrip_taurus512":
        factor = 0.0625 if tiny else 0.25
        return GeneratorSpec(topology=scale_topology(taurus_topology(), factor),
                             **kwargs)
    return GeneratorSpec(**kwargs)


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows_from_table(text: str) -> list:
    """[name, tp, fp, fn] rows of a rendered score table."""
    lines = text.strip().splitlines()
    if len(lines) < 3 or not lines[1].startswith("--"):
        raise ValueError(f"not a score table: {text[:200]!r}")
    rows = []
    for line in lines[2:]:
        cells = line.split()
        rows.append([cells[0], int(cells[1]), int(cells[2]), int(cells[3])])
    return rows


class Op:
    """One operation: its processes' costs, outputs and check failures."""

    def __init__(self):
        self.run_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.rows = []
        self.fingerprints = {}
        self.errors = []
        self.traces = []
        self.setup_s = None  # library workload: set-up runs in the child

    def spawn(self, argv, outdir: Path, label: str, deadline: float):
        """Run a child to completion, adding its wall, CPU and RSS."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = outdir / f"{label}.stdout"
        err = outdir / f"{label}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env,
                                    cwd=outdir)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        # reaped by wait4 above; tell Popen so it does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.run_s += wall
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            tail = err.read_text(errors="replace")[-400:]
            self.errors.append(f"{label}: exit {proc.returncode}: {tail}")
        return proc.returncode == 0, out.read_text(errors="replace")


def _cli(traced: bool, spans: Path) -> list:
    if traced:
        return [sys.executable, str(BENCH / "tracer.py"), str(spans)]
    return [sys.executable, "-m", "logvicinity.cli"]


def _load_trace(op: Op, spans: Path):
    if spans.exists():
        op.traces.append(json.loads(spans.read_text()))


class Workload:
    """Set-up in this process, operations in child processes."""

    def __init__(self, name, seed, workdir: Path, tiny=False):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.tiny = tiny
        self.spec_kwargs = _spec_kwargs(name, seed, tiny)
        self.inputs = workdir / "inputs"
        self.ops = 0

    def setup(self, times: int) -> list:
        """Generate and write the inputs `times` times; returns timings."""
        from logvicinity.synth import generate, write_corpus_files
        samples = []
        for _ in range(times):
            corpus = self.corpus = None  # free the previous corpus first
            t0 = time.perf_counter()
            corpus = generate(_make_spec(self.name, self.spec_kwargs, self.tiny))
            t1 = time.perf_counter()
            write_corpus_files(corpus, self.inputs)
            t2 = time.perf_counter()
            samples.append({"setup_s": t2 - t0, "generate_s": t1 - t0,
                            "write_files_s": t2 - t1})
            self.corpus = corpus
        spec = self.corpus.spec
        from logvicinity.model import iso
        self.range_args = ["--from", iso(spec.start), "--to", iso(spec.end)]
        self.year = time.gmtime(spec.start).tm_year
        return samples

    def prepare(self):
        """Untimed work after set-up (references for the checks)."""
        self.corpus = None

    def _opdir(self) -> Path:
        self.ops += 1
        d = self.workdir / f"op{self.ops}"
        d.mkdir(parents=True)
        return d

    def run_op(self, traced: bool, deadline: float) -> Op:
        raise NotImplementedError


class PipelineDesk64(Workload):
    """`logvicinity pipeline` on files of the default corpus."""

    def run_op(self, traced, deadline):
        op, d = Op(), self._opdir()
        i = self.inputs
        spans = d / "spans.json"
        out = d / "run"
        ok, _ = op.spawn(_cli(traced, spans) + [
            "pipeline", "--workdir", str(out),
            "--corpus", str(i / "corpus.log"),
            "--topology", str(i / "topology.tsv"),
            "--truth", str(i / "truth.csv"),
            "--jobs-file", str(i / "jobs.csv"),
            "--outage-db", str(i / "outage.db"),
            "--maintenance", str(i / "maintenance.tsv"),
            "--year", str(self.year), *self.range_args], d, "pipeline",
            deadline)
        _load_trace(op, spans)
        if not ok:
            return op
        check_pipeline(op, out)
        return op


def check_pipeline(op: Op, out: Path):
    """Fingerprint a pipeline work dir and check its outputs."""
    for path in sorted(out.iterdir()):
        if path.name != "run_manifest.json":  # holds its creation time
            op.fingerprints[path.name] = _sha(path)
    try:
        report = (out / "report.table").read_text()
        op.rows = _rows_from_table(report)
        raw = (out / "events_raw.tsv").read_bytes()
        anon = (out / "events_anonymized.tsv").read_bytes()
    except (OSError, ValueError) as exc:
        op.errors.append(f"pipeline outputs: {exc}")
        return
    if raw != anon:
        op.errors.append("events_raw.tsv and events_anonymized.tsv differ")
    names = [r[0] for r in op.rows]
    if names != ["raw", "anonymized", "filtered_raw", "filtered_anonymized",
                 "classified_outages"]:
        op.errors.append(f"unexpected report rows {names}")


class AnonRoundtripTaurus512(Workload):
    """anonymize -> pars-lite file -> detect-anomalies --anonymized -> evaluate."""

    def prepare(self):
        # The reference: the same variant run in-process on the generated
        # entries. Computed once, outside set-up and every timed run.
        from logvicinity.anonymize import SubstitutionRuleSet
        from logvicinity.pipeline import run_variant, write_events
        c = self.corpus
        ref = run_variant(c.entries, c.topology, c.range,
                          "filtered_anonymized", SubstitutionRuleSet(),
                          maintenance=c.truth.maintenance)
        self.reference = self.workdir / "reference_events.tsv"
        write_events(ref.events, self.reference)
        self.corpus = None

    def run_op(self, traced, deadline):
        op, d = Op(), self._opdir()
        i = self.inputs
        anon, events = d / "anon.txt", d / "events.tsv"
        steps = [
            ("anonymize", ["anonymize", "--corpus", str(i / "corpus.log"),
                           "--topology", str(i / "topology.tsv"),
                           "--year", str(self.year), "--output", str(anon)]),
            ("detect", ["detect-anomalies", "--corpus", str(anon),
                        "--anonymized", "--topology", str(i / "topology.tsv"),
                        "--variant", "filtered_anonymized",
                        "--maintenance", str(i / "maintenance.tsv"),
                        *self.range_args, "--events", str(events)]),
            ("evaluate", ["evaluate", "--detected", str(events),
                          "--truth", str(i / "truth.csv")]),
        ]
        stdout = ""
        for label, args in steps:
            spans = d / f"spans_{label}.json"
            ok, stdout = op.spawn(_cli(traced, spans) + args, d, label,
                                  deadline)
            _load_trace(op, spans)
            if not ok:
                return op
        check_roundtrip(op, anon, events, self.reference, stdout)
        anon.unlink()  # the largest file; fingerprinted above
        return op


def check_roundtrip(op: Op, anon: Path, events: Path, reference: Path,
                    evaluate_stdout: str):
    try:
        op.fingerprints = {
            "anon.txt": _sha(anon), "events.tsv": _sha(events),
            "evaluate": hashlib.sha256(evaluate_stdout.encode()).hexdigest()}
        op.rows = _rows_from_table(evaluate_stdout)
        if events.read_bytes() != reference.read_bytes():
            op.errors.append("events read back from the pars-lite file differ "
                             "from the in-process filtered_anonymized run")
    except (OSError, ValueError) as exc:
        op.errors.append(f"round-trip outputs: {exc}")


class PerspectivesDesk64(Workload):
    """Library grid in a fresh child that builds the corpus in memory.

    Each child generates its corpus, timed as set-up (so an untraced run
    has MIN_OPS >= N_SETUP set-ups), then times the grid alone. Its
    ``run_s`` and ``cpu_s`` are therefore the grid's, without interpreter
    start-up and imports, while ``peak_rss_mb`` is the whole child's.
    """

    def setup(self, times):
        return []

    def run_op(self, traced, deadline):
        op, d = Op(), self._opdir()
        result = d / "result.json"
        argv = [sys.executable, str(BENCH / "library.py"),
                "--spec", json.dumps(self.spec_kwargs), "--result", str(result)]
        if traced:
            argv.append("--trace")
        ok, _ = op.spawn(argv, d, "library", deadline)
        if not ok:
            return op
        try:
            res = json.loads(result.read_text())
        except (OSError, ValueError) as exc:
            op.errors.append(f"library result: {exc}")
            return op
        # the child's set-up is not part of the run
        op.run_s = res["run_ns"] / 1e9
        op.cpu_s = res["cpu_ns"] / 1e9
        op.setup_s = res["setup_s"]
        op.rows, op.fingerprints = res["rows"], res["fingerprints"]
        op.errors += res["errors"]
        if "trace" in res:
            op.traces.append(res["trace"])
        return op


WORKLOADS = {
    "pipeline_desk64": PipelineDesk64,
    "anon_roundtrip_taurus512": AnonRoundtripTaurus512,
    "perspectives_desk64": PerspectivesDesk64,
}


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg())}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (see ``summary``)."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    env_start = environment()
    wl = WORKLOADS[name](name, seed, workdir, tiny)
    setups = wl.setup(1 if trace else N_SETUP)
    wl.prepare()

    # a traced run needs two traced operations to compare their work counts
    min_ops = MIN_TRACED_OPS if trace else MIN_OPS
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        plain.append(wl.run_op(False, deadline))
        if trace:
            traced.append(wl.run_op(True, deadline))
        if len(plain) >= min_ops and time.monotonic() - t0 >= seconds:
            break

    ops = plain + traced
    setups += [{"setup_s": op.setup_s, "generate_s": op.setup_s}
               for op in ops if op.setup_s is not None]
    # determinism: every repetition, traced or not, has the first's outputs
    for op in ops[1:]:
        if op.fingerprints != ops[0].fingerprints and not op.errors:
            op.errors.append("outputs differ from the run's first operation")

    if trace:
        metrics = _layer_metrics(plain, traced, setups)
    else:
        metrics = {
            "run_s": _median(op.run_s for op in plain),
            "cpu_s": _median(op.cpu_s for op in plain),
            "peak_rss_mb": _median(op.peak_rss_mb for op in plain),
            "setup_s": _median(s["setup_s"] for s in setups),
        }
    rows = ops[0].rows
    tp = sum(r[1] for r in rows)
    precision = tp / max(1, sum(r[1] + r[2] for r in rows))
    recall = tp / max(1, sum(r[1] + r[3] for r in rows))
    if trace:
        metrics["evaluate.precision"] = precision
        metrics["evaluate.recall"] = recall
    return {
        "workload": name, "seed": seed, "trace": trace,
        "env": {"start": env_start, "end": environment()},
        "hygiene": HYGIENE,
        "setups": setups,
        "ops": [{"traced": op in traced, "run_s": op.run_s, "cpu_s": op.cpu_s,
                 "peak_rss_mb": op.peak_rss_mb, "rows": op.rows,
                 "fingerprints": op.fingerprints, "errors": op.errors}
                for op in ops],
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.errors),
        "precision": precision, "recall": recall, "metrics": metrics,
        "elapsed_s": time.monotonic() - started,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layer_metrics(plain, traced, setups) -> dict:
    """Median per-layer metrics of the traced operations.

    Work counts must repeat exactly: a traced operation whose counts differ
    from the first one's fails. GC collections are left out; they depend on
    allocation timing, not on the work done.
    """
    from tracer import layer_metrics
    per_op = [layer_metrics(op.traces, op.run_s) for op in traced]
    counts = [{k: v for k, v in m.items()
               if unit_of(k) == "count" and k != "runtime.gc_collections"}
              for m in per_op]
    for op, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            op.errors.append("work counts differ from the first traced "
                             "operation")
    metrics = {k: _median(m[k] for m in per_op) for k in per_op[0]}
    metrics["synth.generate_s"] = _median(s["generate_s"] for s in setups)
    metrics["synth.write_files_s"] = _median(
        s["write_files_s"] for s in setups if "write_files_s" in s)
    metrics["trace.overhead"] = _median(
        t.run_s / p.run_s - 1 for p, t in zip(plain, traced) if p.run_s)
    return metrics


UNITS = {"_s": "s", "_us_per_line": "us", "_us_per_node_moment": "us",
         "_ratio": "ratio", "_per_entry": "ratio", "_share": "ratio",
         "overhead": "ratio", "precision": "ratio", "recall": "ratio"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def summary(record: dict) -> dict:
    """The contract's last line: correct, attempted, failed, metrics."""
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in record["metrics"].items()}}


def report_lines(record: dict) -> list:
    n = sum(1 for op in record["ops"] if not op["traced"])
    lines = [f"# {record['workload']} seed={record['seed']} "
             f"trace={int(record['trace'])}: {record['attempted']} attempted, "
             f"{record['failed']} failed, precision "
             f"{record['precision']:.4f}, recall {record['recall']:.4f}"]
    for k, v in record["metrics"].items():
        note = ""
        if k in ("run_s", "cpu_s"):
            # a tail percentile needs ten samples beyond it: n > 20
            note = f"  (median of n={n}; too few samples for a tail percentile)"
        elif k == "setup_s":
            note = f"  (median of n={len(record['setups'])})"
        lines.append(f"  {k:34s} {v:>14.6g} {unit_of(k)}{note}")
    for op in record["ops"]:
        for err in op["errors"]:
            lines.append(f"  FAILED: {err}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="default: both, for --workload all")
    args = ap.parse_args(argv)

    if not (SRC / "logvicinity" / "__init__.py").is_file():
        print(f"error: no logvicinity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS
                for t in ((args.trace,) if args.trace is not None else (0, 1))]
    else:
        jobs = [(args.workload, args.trace or 0)]

    records = []
    for name, trace in jobs:
        workdir = WORK / f"{name}-s{args.seed}-t{trace}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            records.append(run(name, args.seed, args.seconds, bool(trace),
                               workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for line in report_lines(records[-1]):
            print(line)
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    if len(records) == 1:
        print(json.dumps(summary(records[0])))
    else:
        merged = {"correct": all(r["failed"] == 0 for r in records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "metrics": {}}
        for r in records:
            for k, v in summary(r)["metrics"].items():
                merged["metrics"][f"{r['workload']}.{k}"] = v
        print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
