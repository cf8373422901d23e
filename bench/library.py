"""Library workload child: the perspective study on an in-memory corpus.

Run by ``bench/run.py`` in a fresh process per operation::

    python3 bench/library.py --spec '{"seed": 7}' --result out.json [--trace]

The process generates its corpus (timed as set-up), then builds one
``SGIndex`` and runs ``sweep_perspective`` + ``extract_events`` + ``score``
for every (perspective, window) of the grid (timed as the run). With
``--trace`` the logvicinity public functions are traced during the grid.
The result file holds the timings, the score rows, fingerprints of every
output and the correctness errors found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

from tracer import Tracer

# `location` groups equal `combined` groups on the desk topology (one class
# per rack) and `time_of_failure` chains are single nodes there, below the
# minimum group size; neither would measure anything new.
PERSPECTIVES = ("hardware", "combined", "allocation")
WINDOWS = (900, 1800, 3600)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True,
                    help="GeneratorSpec keyword arguments as JSON")
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true",
                    help="trace the grid and add its spans to the result")
    args = ap.parse_args(argv)

    # module-qualified calls below, so that a traced run reaches the
    # patched functions
    from logvicinity import detect, evaluate, pipeline, synth, vicinity

    t0 = time.perf_counter()
    corpus = synth.generate(synth.GeneratorSpec(**json.loads(args.spec)))
    setup_s = time.perf_counter() - t0
    truth = [(f.node, f.outage_time) for f in corpus.truth.failures]
    start, end = corpus.range.start, corpus.range.end
    expected_groups = {
        name: sum(1 for g in fn(corpus.topology).groups
                  if len(g) >= detect.MIN_GROUP_SIZE)
        for name, fn in (("hardware", vicinity.hardware_vicinity),
                         ("combined", vicinity.combined_vicinity))}

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    results = []
    wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
    index = detect.SGIndex(corpus.entries)
    for perspective in PERSPECTIVES:
        for window in WINDOWS:
            sweep = pipeline.sweep_perspective(
                index, perspective, corpus.topology, corpus.range,
                jobs=corpus.truth.jobs, window=window)
            events = pipeline.extract_events(sweep, index)
            report = evaluate.score(events, truth)
            results.append((perspective, window, len(sweep.results), events,
                            report))
    wall1, cpu1 = time.perf_counter_ns(), time.process_time_ns()

    errors, rows, fingerprints = [], [], {}
    for perspective, window, n_results, events, report in results:
        name = f"{perspective}@{window}"
        if perspective in expected_groups:
            moments = len(range(start + window, end + 1,
                                detect.DEFAULT_CADENCE))
            want = moments * expected_groups[perspective]
            if n_results != want:
                errors.append(f"{name}: {n_results} results, expected "
                              f"{moments} moments x "
                              f"{expected_groups[perspective]} groups = {want}")
        rows.append([name, report.tp, report.fp, report.fn])
        fingerprints[f"events.{name}"] = _digest(
            [(e.node.name, e.outage_time, e.first_flagged, e.last_flagged,
              e.non_responsive) for e in events])
    fingerprints["rows"] = _digest(rows)

    out = {"setup_s": setup_s, "run_ns": wall1 - wall0, "cpu_ns": cpu1 - cpu0,
           "rows": rows, "fingerprints": fingerprints, "errors": errors}
    if tracer is not None:
        tracer.uninstall_gc()
        out["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
