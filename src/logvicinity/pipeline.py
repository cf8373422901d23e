"""End-to-end runs: variant streams, event extraction, outage classification."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .anonymize import SubstitutionRuleSet, anonymize_stream
from .classify import DEFAULT_CORRELATION_WINDOW, classify_all
from .detect import (CV_THRESHOLD, DEFAULT_ALPHA, DEFAULT_CADENCE,
                     DEFAULT_PERCENTILE, DEFAULT_TAU_MIN, DEFAULT_WINDOW,
                     SGIndex, SweepResult, filter_frequent_anonymized,
                     filter_frequent_raw, observation_moments, run_detection,
                     sweep_schedule)
from .model import iso
from .outages import detect_outages
from .vicinity import (allocation_vicinity, combined_vicinity,
                       hardware_vicinity, location_vicinity,
                       time_of_failure_vicinity)

VARIANTS = ("raw", "anonymized", "filtered_raw", "filtered_anonymized")

DEFAULT_MAX_GAP_MOMENTS = 3


@dataclass(frozen=True)
class ExtractedEvent:
    """An anomaly run collapsed to a single suspected outage instant."""
    node: object
    outage_time: int
    first_flagged: int
    last_flagged: int
    non_responsive: bool  # the run contained zero-SG moments


def prepare_stream(entries, variant: str, rules=None,
                   percentile: float = DEFAULT_PERCENTILE,
                   cv_threshold: float = CV_THRESHOLD):
    """Materialize one processing variant; returns (stream, dropped)."""
    rules = rules or SubstitutionRuleSet()
    if variant == "raw":
        return list(entries), []
    if variant == "anonymized":
        return list(anonymize_stream(entries, rules)), []
    if variant == "filtered_raw":
        return filter_frequent_raw(list(entries), rules, percentile)
    if variant == "filtered_anonymized":
        anon = list(anonymize_stream(entries, rules))
        return filter_frequent_anonymized(anon, percentile, cv_threshold)
    raise ValueError(f"unknown variant: {variant!r}")


def extract_events(sweep: SweepResult, index: SGIndex,
                   cadence: int = DEFAULT_CADENCE,
                   max_gap_moments: int = DEFAULT_MAX_GAP_MOMENTS) -> list:
    """Collapse flagged moments into per-node events.

    Consecutive non-normal moments on a node (gaps up to max_gap_moments
    unflagged moments are bridged) form one run. A run that went fully
    silent is anchored at the node's last entry before its final silent
    moment; a run that only deviated is anchored at the last entry at or
    before the first flagged moment.
    """
    flagged: dict = {}
    for res in sweep.results:
        for node, verdict in res.verdicts.items():
            if verdict != "normal":
                flagged.setdefault(node, []).append((res.at, verdict))

    span = (max_gap_moments + 1) * cadence
    events = []
    for node in sorted(flagged):
        moments = sorted(set(flagged[node]))
        runs, run = [], [moments[0]]
        for item in moments[1:]:
            if item[0] - run[-1][0] > span:
                runs.append(run)
                run = [item]
            else:
                run.append(item)
        runs.append(run)
        for run in runs:
            zeros = [at for at, v in run if v == "non_responsive"]
            if zeros:
                anchor = index.last_entry_before(node, zeros[-1])
            else:
                anchor = index.last_entry_before(node, run[0][0] + 1)
            if anchor is None:
                continue
            events.append(ExtractedEvent(node, anchor, run[0][0], run[-1][0],
                                         bool(zeros)))
    events.sort(key=lambda e: (e.outage_time, e.node))
    return events


def drop_maintenance_events(events, maintenance) -> list:
    """Remove events anchored inside an announced window covering the node."""
    if not maintenance:
        return list(events)
    return [ev for ev in events
            if not any(w.covers(ev.node, ev.outage_time) for w in maintenance)]


@dataclass
class VariantRun:
    name: str
    events: list
    dropped: list
    sweep: SweepResult
    index: SGIndex


def run_variant(entries, topology, obs_range, variant: str, rules=None,
                maintenance=(), assignment=None,
                window: int = DEFAULT_WINDOW, cadence: int = DEFAULT_CADENCE,
                alpha: float = DEFAULT_ALPHA, tau_min: float = DEFAULT_TAU_MIN,
                percentile: float = DEFAULT_PERCENTILE,
                cv_threshold: float = CV_THRESHOLD) -> VariantRun:
    stream, dropped = prepare_stream(entries, variant, rules, percentile,
                                     cv_threshold)
    index = SGIndex(stream)
    if assignment is None:
        assignment = combined_vicinity(topology)
    sweep = run_detection(index, assignment, obs_range, cadence=cadence,
                          window=window, alpha=alpha, tau_min=tau_min)
    events = drop_maintenance_events(
        extract_events(sweep, index, cadence), maintenance)
    return VariantRun(variant, events, list(dropped), sweep, index)


def run_variants(entries, topology, obs_range, rules=None, maintenance=(),
                 variants=VARIANTS, **params) -> dict:
    entries = list(entries)
    return {v: run_variant(entries, topology, obs_range, v, rules,
                           maintenance, **params)
            for v in variants}


# ---------------------------------------------------------------------------
# alternative grouping perspectives

def sweep_perspective(index: SGIndex, perspective: str, topology, obs_range,
                      jobs=None, failures=None,
                      window: int = DEFAULT_WINDOW,
                      cadence: int = DEFAULT_CADENCE,
                      alpha: float = DEFAULT_ALPHA,
                      tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Sweep under any grouping perspective, including time-dependent ones.

    `allocation` regroups at every moment; `time_of_failure` judges each
    failure chain once, at its first outage.
    """
    static = {"hardware": hardware_vicinity, "location": location_vicinity,
              "combined": combined_vicinity}
    if perspective in static:
        return run_detection(index, static[perspective](topology), obs_range,
                             cadence=cadence, window=window, alpha=alpha,
                             tau_min=tau_min)
    if perspective == "allocation":
        if jobs is None:
            raise ValueError("allocation perspective needs job records")
        moments = observation_moments(obs_range.start, obs_range.end, cadence,
                                      window)
        schedule = ((allocation_vicinity(jobs, at), (at,)) for at in moments)
    elif perspective == "time_of_failure":
        if failures is None:
            raise ValueError("time_of_failure perspective needs failure events")
        schedule = ((asg, (asg.at,))
                    for asg in time_of_failure_vicinity(failures))
    else:
        raise ValueError(f"unknown perspective: {perspective!r}")
    return sweep_schedule(index, schedule, window=window, alpha=alpha,
                          tau_min=tau_min)


# ---------------------------------------------------------------------------
# outage detection + classification route

def detect_and_classify(entries, footprint, rules, obs_range, jobs=(),
                        outage_records=(), maintenance=(),
                        correlation_window: int = DEFAULT_CORRELATION_WINDOW,
                        **outage_params) -> list:
    """Boot-anchored outages classified against operational records."""
    outages = detect_outages(entries, footprint, rules, obs_range,
                             **outage_params)
    return classify_all(outages, maintenance, jobs, outage_records,
                        correlation_window)


def write_events(events, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# node\toutage\tfirst_flagged\tlast_flagged\tsilent\n")
        for ev in events:
            fh.write(f"{ev.node.name}\t{iso(ev.outage_time)}\t"
                     f"{iso(ev.first_flagged)}\t{iso(ev.last_flagged)}\t"
                     f"{str(ev.non_responsive).lower()}\n")


def load_events(path) -> list:
    from .model import parse_iso, parse_node_name, topen
    out = []
    with topen(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 columns")
            out.append(ExtractedEvent(
                parse_node_name(parts[0]), parse_iso(parts[1]),
                parse_iso(parts[2]), parse_iso(parts[3]), parts[4] == "true"))
    return out


def run_manifest(config: dict, seed=None) -> dict:
    """Reproducibility record written next to result files."""
    return {
        "tool": "logvicinity",
        "version": __version__,
        "python": sys.version.split()[0],
        "created": iso(int(time.time())),
        "seed": seed,
        "config": config,
    }
