"""In-memory span tracer wrapped around logvicinity's public functions.

The tracer replaces each traced function in every ``logvicinity`` module
namespace that holds it (``cli`` and ``pipeline`` import names directly, so
patching only the defining module would miss calls), records one span per
call and writes the spans out once, at the end of the traced process.

A span is ``{id, name, parent, tid, start, end, cpu, counts}``: wall-clock
``start``/``end`` in ns (``perf_counter_ns``), ``cpu`` is the thread CPU time
the span was active (``thread_time_ns``), ``parent`` the id of the span open
on the same thread when it started. Self time is computed per thread: a
span's CPU minus the CPU of its children, which always run on its thread.
CPU rather than wall time is used so that the pipeline's thread pool, whose
workers wait on the GIL in turn, does not count a wait as work.

Functions that return generators are timed while the generator is consumed:
the wrapper pulls items in chunks of ``CHUNK`` under one clock reading, so
the consumer's own work (writing rows, say) stays outside the span and the
clocks are not read once per item.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import sys
import threading
import time

CHUNK = 4096


def _sweep_counts(sweep) -> dict:
    node_moments = flagged = 0
    for res in sweep.results:
        node_moments += len(res.verdicts)
        flagged += sum(1 for v in res.verdicts.values() if v != "normal")
    return {"group_moments": len(sweep.results), "node_moments": node_moments,
            "flagged_node_moments": flagged}


def _filter_counts(args, result) -> dict:
    return {"input": len(args[0]), "kept": len(result[0])}


# (module, function, layer, kind, counts): kind is "call", "gen" (returns a
# generator) or "gen_stats" (returns (generator, stats)); counts maps
# (args, result) to a dict of work counts recorded on the span.
TARGETS = [
    ("model", "parse_syslog_stream", "model", "gen_stats", None),
    ("model", "load_topology", "model", "call", None),
    ("anonymize", "anonymize_stream", "anonymize", "gen", None),
    ("anonymize", "write_anonymized", "anonymize", "call", None),
    ("anonymize", "read_anonymized", "anonymize", "call",
     lambda a, r: {"rows": len(r[0])}),
    ("detect", "SGIndex.__init__", "detect", "call", None),
    ("detect", "run_detection", "detect", "call",
     lambda a, r: _sweep_counts(r)),
    ("pipeline", "sweep_perspective", "detect", "call",
     lambda a, r: _sweep_counts(r)),
    ("detect", "filter_frequent_raw", "detect", "call", _filter_counts),
    ("detect", "filter_frequent_anonymized", "detect", "call", _filter_counts),
    ("vicinity", "hardware_vicinity", "vicinity", "call", None),
    ("vicinity", "location_vicinity", "vicinity", "call", None),
    ("vicinity", "combined_vicinity", "vicinity", "call", None),
    ("vicinity", "allocation_vicinity", "vicinity", "call", None),
    ("pipeline", "prepare_stream", "pipeline", "call", None),
    ("pipeline", "run_variant", "pipeline", "call", None),
    ("pipeline", "extract_events", "pipeline", "call",
     lambda a, r: {"events": len(r)}),
    ("pipeline", "write_events", "pipeline", "call", None),
    ("outages", "detect_outages", "outages", "call",
     lambda a, r: {"outages": len(r)}),
    ("classify", "classify_all", "classify", "call",
     lambda a, r: {"labelled": len(r)}),
    ("datasources", "load_job_report", "datasources", "call", None),
    ("datasources", "load_outage_db", "datasources", "call", None),
    ("datasources", "load_maintenance", "datasources", "call", None),
    ("evaluate", "score", "evaluate", "call", None),
    ("cli", "main", "cli", "call", None),
]


class Tracer:
    """Records spans and GC pauses of the current process in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = {}

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "tid": threading.get_ident(), "start": None, "end": None,
                "cpu": 0, "counts": {}}
        self.spans.append(span)
        return span

    def _enter(self, span):
        self._stack().append(span)
        cpu0, wall0 = time.thread_time_ns(), time.perf_counter_ns()
        if span["start"] is None:
            span["start"] = wall0
        return cpu0

    def _leave(self, span, cpu0):
        span["cpu"] += time.thread_time_ns() - cpu0
        span["end"] = time.perf_counter_ns()
        self._stack().pop()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, kind="call", counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kind != "call":
                result = fn(*args, **kwargs)
                if kind == "gen":
                    return _TracedIter(tracer, name, result, None)
                gen, stats = result
                return _TracedIter(tracer, name, gen, stats), stats
            span = tracer._open(name)
            cpu0 = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span, cpu0)
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        return traced

    def install(self):
        """Patch every target in each logvicinity namespace that holds it."""
        importlib.import_module("logvicinity.cli")  # imports every module
        for mod_name, attr, layer, kind, counts in TARGETS:
            mod = importlib.import_module(f"logvicinity.{mod_name}")
            name = f"{layer}.{attr.split('.')[0]}"
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth),
                                             kind, counts))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, kind, counts)
            for mname, module in list(sys.modules.items()):
                if mname != "logvicinity" and not mname.startswith("logvicinity."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, _info):
        tid = threading.get_ident()
        if phase == "start":
            self._gc_start[tid] = time.perf_counter_ns()
        elif tid in self._gc_start:
            self.gc_ns += time.perf_counter_ns() - self._gc_start.pop(tid)
            self.gc_collections += 1

    def dump(self) -> dict:
        for span in self.spans:
            stats = span.pop("stats", None)
            if stats is not None:
                span["counts"] = {"parsed": stats.parsed,
                                  "skipped": stats.skipped_unknown}
        return {"spans": [s for s in self.spans if s["start"] is not None],
                "gc_ns": self.gc_ns, "gc_collections": self.gc_collections}


class _TracedIter:
    """Iterator proxy whose span is active only while items are produced."""

    def __init__(self, tracer, name, gen, stats):
        self._tracer, self._name, self._gen = tracer, name, gen
        self._stats = stats
        self._span = None
        self._buf = []
        self._pos = 0
        self._error = None
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        if self._pos < len(self._buf):
            item = self._buf[self._pos]
            self._pos += 1
            return item
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        if self._done:
            raise StopIteration
        self._fill()
        return self.__next__()

    def _fill(self):
        tracer = self._tracer
        if self._span is None:
            self._span = tracer._open(self._name)
            self._span["counts"] = {"items": 0}
            if self._stats is not None:
                self._span["stats"] = self._stats
        buf = []
        cpu0 = tracer._enter(self._span)
        try:
            for item in self._gen:
                buf.append(item)
                if len(buf) == CHUNK:
                    break
            else:
                self._done = True
        except Exception as exc:  # re-raised after the buffered items
            self._error = exc
        finally:
            tracer._leave(self._span, cpu0)
        self._span["counts"]["items"] += len(buf)
        self._buf, self._pos = buf, 0


def self_times(spans) -> dict:
    """Span id -> self CPU ns: its CPU minus that of its direct children."""
    child_cpu: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0) + s["cpu"]
    return {s["id"]: s["cpu"] - child_cpu.get(s["id"], 0) for s in spans}


def main(argv) -> int:
    """``tracer.py SPANS_JSON CLI_ARGS...``: run the CLI traced."""
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from logvicinity import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall_gc()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))


def layer_metrics(traces, wall_s: float) -> dict:
    """Per-layer metrics of one traced operation.

    ``traces`` holds one ``Tracer.dump()`` per process of the operation and
    ``wall_s`` the wall time those processes took, as the benchmark measured
    it from outside. Times are self CPU seconds summed over the layer's
    spans; counts are summed over the spans that produced them.
    """
    rows = []  # (span, self ns, parent name)
    for trace in traces:
        selfs = self_times(trace["spans"])
        by_id = {s["id"]: s for s in trace["spans"]}
        for s in trace["spans"]:
            parent = by_id.get(s["parent"])
            rows.append((s, selfs[s["id"]], parent and parent["name"]))

    def busy(*names):
        return sum(ns for s, ns, _ in rows if s["name"] in names) / 1e9

    def total(key, *names):
        return sum(s["counts"].get(key, 0) for s, _, _ in rows
                   if s["name"] in names)

    def ratio(a, b):
        return a / b if b else 0.0

    # a run_detection called by sweep_perspective is part of that sweep
    sweeps = [s for s, _, parent in rows
              if s["name"] == "detect.sweep_perspective"
              or (s["name"] == "detect.run_detection"
                  and parent != "detect.sweep_perspective")]

    def sweep_total(key):
        return sum(s["counts"][key] for s in sweeps)

    parse_s = busy("model.parse_syslog_stream")
    parsed = total("parsed", "model.parse_syslog_stream")
    keyed = total("items", "anonymize.anonymize_stream")
    sweep_s = busy("detect.run_detection", "detect.sweep_perspective")
    node_moments = sweep_total("node_moments")
    filters = ("detect.filter_frequent_raw", "detect.filter_frequent_anonymized")
    main_ns = sum(s["end"] - s["start"] for s, _, _ in rows
                  if s["name"] == "cli.main")
    gc_s = sum(t["gc_ns"] for t in traces) / 1e9
    return {
        "model.parse_s": parse_s,
        "model.lines_parsed": parsed,
        "model.lines_skipped": total("skipped", "model.parse_syslog_stream"),
        "model.parse_us_per_line": ratio(parse_s * 1e6, parsed),
        "anonymize.key_s": busy("anonymize.anonymize_stream"),
        "anonymize.entries_keyed": keyed,
        "anonymize.keyed_per_entry": ratio(keyed, parsed),
        "anonymize.write_s": busy("anonymize.write_anonymized"),
        "anonymize.read_s": busy("anonymize.read_anonymized"),
        "anonymize.rows_read": total("rows", "anonymize.read_anonymized"),
        "detect.index_s": busy("detect.SGIndex"),
        "detect.index_builds": sum(1 for s, _, _ in rows
                                   if s["name"] == "detect.SGIndex"),
        "detect.sweep_s": sweep_s,
        "detect.sweeps": len(sweeps),
        "detect.group_moments": sweep_total("group_moments"),
        "detect.node_moments": node_moments,
        "detect.flagged_node_moments": sweep_total("flagged_node_moments"),
        "detect.sweep_us_per_node_moment": ratio(sweep_s * 1e6, node_moments),
        "detect.filter_s": busy(*filters),
        "detect.filter_kept_ratio": ratio(total("kept", *filters),
                                          total("input", *filters)),
        "vicinity.assign_s": busy("vicinity.hardware_vicinity",
                                  "vicinity.location_vicinity",
                                  "vicinity.combined_vicinity",
                                  "vicinity.allocation_vicinity"),
        "vicinity.assignments": sum(1 for s, _, _ in rows
                                    if s["name"].startswith("vicinity.")),
        "pipeline.prepare_s": busy("pipeline.prepare_stream"),
        "pipeline.extract_s": busy("pipeline.extract_events"),
        "pipeline.events": total("events", "pipeline.extract_events"),
        "pipeline.write_s": busy("pipeline.write_events"),
        "outages.detect_s": busy("outages.detect_outages"),
        "outages.outages": total("outages", "outages.detect_outages"),
        "classify.classify_s": busy("classify.classify_all"),
        "classify.labelled": total("labelled", "classify.classify_all"),
        "datasources.load_s": busy("datasources.load_job_report",
                                   "datasources.load_outage_db",
                                   "datasources.load_maintenance"),
        "evaluate.score_s": busy("evaluate.score"),
        "cli.self_s": busy("cli.main"),
        "cli.startup_s": wall_s - main_ns / 1e9 if main_ns else 0.0,
        "runtime.gc_s": gc_s,
        "runtime.gc_collections": sum(t["gc_collections"] for t in traces),
        "runtime.gc_share": ratio(gc_s, wall_s),
        "trace.spans": len(rows),
    }
