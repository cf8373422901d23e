"""End-to-end acceptance suite.

One test per shipped guarantee. Each prints a single PASS/FAIL line with
the measured figures so a run can be audited from the log alone
(run with -s to see the lines on success).
"""

import math
import random
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from importlib.resources import files as resource_files

from logvicinity.anonymize import fnv1a_32
from logvicinity.detect import DEFAULT_WINDOW, SGIndex, run_detection
from logvicinity.evaluate import match_detections, score
from logvicinity.model import NodeId, Topology, load_topology
from logvicinity.pipeline import detect_and_classify, run_variant, run_variants
from logvicinity.synth import taurus_topology
from logvicinity.vicinity import (combined_vicinity, hardware_vicinity,
                                  location_vicinity)

from oracles import (LogEntry, bipartite_max_matching, brute_window_count,
                     kmeans_1d_2, naive_two_means)
from tables import table_of


def _check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _truth_pairs(corpus):
    return [(f.node, f.outage_time) for f in corpus.truth.failures]


def test_raw_and_anonymized_streams_score_identically(corpus, rules):
    """The detector never reads message text, so key streams must tie raw."""
    t0 = time.perf_counter()
    runs = {v: run_variant(corpus.entries, corpus.topology, corpus.range, v,
                           rules, corpus.truth.maintenance)
            for v in ("raw", "anonymized")}
    truth = _truth_pairs(corpus)
    a = score(runs["raw"].events, truth)
    b = score(runs["anonymized"].events, truth)
    elapsed = time.perf_counter() - t0
    same = ((a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)
            and a.precision == b.precision and a.recall == b.recall)
    _check("anonymization-parity", same and elapsed < 60,
           f"raw tp={a.tp} fp={a.fp} fn={a.fn} p={a.precision:.4f} "
           f"r={a.recall:.4f}, anonymized tp={b.tp} fp={b.fp} fn={b.fn}, "
           f"{elapsed:.1f}s (limit 60s)")


def test_every_injected_failure_recovered_at_exact_instant(corpus, rules,
                                                           footprint):
    t0 = time.perf_counter()
    events = detect_and_classify(
        corpus.entries, footprint, rules, corpus.range,
        jobs=corpus.truth.jobs, outage_records=corpus.truth.outage_records,
        maintenance=corpus.truth.maintenance)
    elapsed = time.perf_counter() - t0
    regulars = {(ev.node, ev.outage_time) for ev in events
                if ev.label == "regular_failure"}
    truth = set(_truth_pairs(corpus))
    in_maint = [ev for ev in events if ev.label == "regular_failure"
                and any(w.covers(ev.node, ev.outage_time)
                        for w in corpus.truth.maintenance)]
    recovered = truth & regulars
    ok = recovered == truth and not in_maint and elapsed < 30
    _check("outage-recovery",
           ok,
           f"{len(recovered)}/{len(truth)} failures at exact instants, "
           f"{len(regulars - truth)} extra regulars, "
           f"{len(in_maint)} regulars inside maintenance, "
           f"{elapsed:.1f}s (limit 30s)")


def test_cluster_split_matches_exhaustive_optimum():
    rng = random.Random(20240816)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(1000):
        n = rng.randrange(1, 13)
        kind = rng.random()
        if kind < 0.4:
            vals = [float(rng.randrange(0, 60)) for _ in range(n)]
        elif kind < 0.8:
            vals = [round(rng.uniform(0, 30.0), 3) for _ in range(n)]
        else:
            # constants with occasional bumps, so ties get exercised
            vals = [float(rng.randrange(0, 4))] * n
            vals = [v + rng.randrange(0, 3) * (rng.random() < 0.3)
                    for v in vals]
        _, _, wcss = kmeans_1d_2(vals)
        want, _, _ = naive_two_means(vals)
        if not math.isclose(wcss, want, rel_tol=1e-9, abs_tol=1e-9):
            bad += 1
    elapsed = time.perf_counter() - t0
    _check("split-optimality", bad == 0 and elapsed < 10,
           f"{1000 - bad}/1000 random inputs optimal, "
           f"{elapsed:.1f}s (limit 10s)")


def test_failures_flagged_before_outage_and_healthy_nodes_quiet(corpus):
    """At least 70% of failures get a non-normal verdict in the half hour
    leading up to the outage instant; healthy node-moments stay under a
    5% false-verdict rate."""
    t0 = time.perf_counter()
    index = SGIndex(corpus.entries)
    sweep = run_detection(index, combined_vicinity(corpus.topology),
                          corpus.range)
    vmap = {}
    for res in sweep.results:
        for node, verdict in res.verdicts.items():
            vmap[(node, res.at)] = verdict

    moments = sweep.moments
    hits = 0
    for f in corpus.truth.failures:
        lo = bisect_left(moments, f.outage_time - DEFAULT_WINDOW)
        hi = bisect_right(moments, f.outage_time)
        if any(vmap.get((f.node, at), "normal") != "normal"
               for at in moments[lo:hi]):
            hits += 1
    sensitivity = hits / len(corpus.truth.failures)

    # Healthy node-moments: everything outside a node's own failure span
    # (2 h before the outage through 1 h past its reboot, or to the end of
    # the range when it never comes back) and outside announced windows
    # covering it, padded 30 min before and 1 h after.
    table = corpus.entries  # rows in time order
    stamps = {node: table.ts[table.node == n].tolist()
              for n, node in enumerate(table.nodes)}
    excl = {}
    for f in corpus.truth.failures:
        ts = stamps[f.node]
        if f.has_reboot:
            hi = ts[bisect_right(ts, f.outage_time)] + 3600
        else:
            hi = corpus.range.end
        excl.setdefault(f.node, []).append((f.outage_time - 7200, hi))
    for w in corpus.truth.maintenance:
        for node in corpus.topology.nodes:
            if w.scope.covers(node):
                excl.setdefault(node, []).append((w.start - 1800, w.end + 3600))

    healthy = false = 0
    for (node, at), verdict in vmap.items():
        if any(lo <= at <= hi for lo, hi in excl.get(node, ())):
            continue
        healthy += 1
        if verdict != "normal":
            false += 1
    rate = false / healthy
    elapsed = time.perf_counter() - t0
    ok = sensitivity >= 0.70 and rate <= 0.05 and elapsed < 60
    _check("sensitivity-and-false-rate", ok,
           f"flagged {hits}/{len(corpus.truth.failures)}={sensitivity:.3f} "
           f"(need >=0.70), false verdicts {false}/{healthy}={rate:.5f} "
           f"(need <=0.05), {elapsed:.1f}s (limit 60s)")


def test_filtering_raises_precision_and_may_cost_anonymized_recall(corpus,
                                                                   rules):
    t0 = time.perf_counter()
    runs = run_variants(corpus.entries, corpus.topology, corpus.range,
                        rules=rules, maintenance=corpus.truth.maintenance)
    truth = _truth_pairs(corpus)
    rep = {name: score(run.events, truth) for name, run in runs.items()}
    elapsed = time.perf_counter() - t0
    ok = (rep["filtered_raw"].precision >= rep["raw"].precision
          and rep["filtered_anonymized"].precision >= rep["anonymized"].precision
          and rep["filtered_anonymized"].recall <= rep["filtered_raw"].recall
          and elapsed < 90)
    _check("filtering-monotonicity", ok,
           f"precision raw {rep['raw'].precision:.4f} -> filtered "
           f"{rep['filtered_raw'].precision:.4f}, anonymized "
           f"{rep['anonymized'].precision:.4f} -> filtered "
           f"{rep['filtered_anonymized'].precision:.4f}; recall filtered "
           f"anonymized {rep['filtered_anonymized'].recall:.4f} <= filtered "
           f"raw {rep['filtered_raw'].recall:.4f}, {elapsed:.1f}s (limit 90s)")


def _random_topology(rng):
    classes = ("Haswell", "SandyBridge", "GPU", "Westmere", "Broadwell")
    nodes, arch = [], {}
    for _ in range(rng.randrange(1, 40)):
        n = NodeId(rng.randrange(1, 4), rng.randrange(3), rng.randrange(30))
        if n in arch:
            continue
        nodes.append(n)
        arch[n] = rng.choice(classes)
    return Topology(nodes, arch) if nodes else None


def test_invariant_suites(corpus, rules):
    """Four randomized invariants, checked in one timed bundle."""
    rng = random.Random(31337)
    t0 = time.perf_counter()

    covers = 0
    for _ in range(1000):
        topo = _random_topology(rng)
        if topo is None:
            continue
        for maker in (hardware_vicinity, location_vicinity, combined_vicinity):
            asg = maker(topo)
            assert sum(len(g) for g in asg.groups) == len(topo.nodes)
            assert frozenset().union(*asg.groups) == frozenset(topo.nodes)
        covers += 1

    probes = sg_bad = 0
    while probes < 100000:
        nodes = [NodeId(1, 0, p) for p in range(rng.randrange(1, 5))]
        times = sorted(rng.randrange(0, 5000)
                       for _ in range(rng.randrange(1, 90)))
        entries = [LogEntry(t, rng.choice(nodes), "daemon", "m")
                   for t in times]
        index = SGIndex(table_of(entries))
        for _ in range(400):
            node = rng.choice(nodes)
            window = rng.choice((1, 7, 600, 1800))
            if rng.random() < 0.5:
                at = rng.randrange(-100, 5200)
            else:
                # pin to the half-open boundaries of a real entry
                t = rng.choice(times)
                at = t + rng.choice((0, 1, window, window + 1))
            if index.count(node, at, window) != brute_window_count(
                    entries, node, at, window):
                sg_bad += 1
            probes += 1

    match_bad = 0
    for _ in range(500):
        pool = [NodeId(1, 0, p) for p in range(rng.randrange(1, 4))]
        det = [(rng.choice(pool), rng.randrange(0, 4000))
               for _ in range(rng.randrange(0, 25))]
        tru = [(rng.choice(pool), rng.randrange(0, 4000))
               for _ in range(rng.randrange(0, 25))]
        tol = rng.choice((0, 50, 300, 600))
        res = match_detections(det, tru, tol)
        if (res.tp != bipartite_max_matching(det, tru, tol)
                or res.tp + len(res.false_positives) != len(det)
                or res.tp + len(res.false_negatives) != len(tru)):
            match_bad += 1

    by_key = {}
    for message in set(corpus.entries.messages):
        template = rules.template(message)
        by_key.setdefault(fnv1a_32(template), set()).add(template)
    collisions = [k for k, tpls in by_key.items() if len(tpls) > 1]

    elapsed = time.perf_counter() - t0
    ok = (covers == 1000 and sg_bad == 0 and match_bad == 0
          and not collisions and elapsed < 60)
    _check("invariant-suites", ok,
           f"{covers} topologies covered, {probes} window counts "
           f"({sg_bad} off), 500 matchings ({match_bad} off), "
           f"{len(by_key)} template keys ({len(collisions)} collisions), "
           f"{elapsed:.1f}s (limit 60s)")


def test_reference_topology_fixture_loads_exactly():
    path = resource_files("logvicinity").joinpath("data", "taurus.topology")
    topo = load_topology(str(path))
    counts = Counter(topo.architecture_of.values())
    want = {"Haswell": 1456, "SandyBridge": 270, "Westmere": 180,
            "Broadwell": 32, "GPU": 108}
    taurus = taurus_topology()  # what --taurus-scale scales
    ok = (len(topo.nodes) == 2046 and counts == want
          and topo.nodes == taurus.nodes
          and topo.architecture_of == taurus.architecture_of)
    _check("reference-topology", ok,
           f"{len(topo.nodes)} nodes, counts {sorted(counts.items())}")
