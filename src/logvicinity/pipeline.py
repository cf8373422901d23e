"""End-to-end runs: variant streams, event extraction, outage classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anonymize import SubstitutionRuleSet
from .detect import (VERDICTS, SGIndex, SweepResult,
                     filter_frequent_anonymized, filter_frequent_raw,
                     observation_moments, sweep_schedule)
# write_events is re-exported: bench/run.py and bench/tracer.py use it here
from .evaluate import ExtractedEvent, write_events  # noqa: F401
from .model import EventTable
from .names import (CV_THRESHOLD, DEFAULT_ALPHA, DEFAULT_CADENCE,
                    DEFAULT_PERCENTILE, DEFAULT_TAU_MIN, DEFAULT_WINDOW,
                    VARIANTS)
from .vicinity import (allocation_schedule, combined_vicinity,
                       hardware_vicinity, location_vicinity,
                       time_of_failure_vicinity)

MAX_GAP_MOMENTS = 3  # unflagged moments an event run bridges


def prepare_stream(table: EventTable, variant: str, rules=None,
                   percentile: float = DEFAULT_PERCENTILE,
                   cv_threshold: float = CV_THRESHOLD):
    """One processing variant of a table; returns (variant table, dropped).

    The detector reads only (timestamp, node), which keying leaves as is,
    so raw and anonymized are the table itself; the filtered variants drop
    the rows of frequent templates or keys.
    """
    rules = rules or SubstitutionRuleSet()
    if variant in ("raw", "anonymized"):
        return table, []
    if variant == "filtered_raw":
        return filter_frequent_raw(table, rules, percentile)
    if variant == "filtered_anonymized":
        return filter_frequent_anonymized(table, rules, percentile,
                                          cv_threshold)
    raise ValueError(f"unknown variant: {variant!r}")


def extract_events(sweep: SweepResult, index: SGIndex,
                   cadence: int = DEFAULT_CADENCE) -> list:
    """Collapse flagged moments into per-node events.

    Consecutive non-normal moments on a node (gaps up to MAX_GAP_MOMENTS
    unflagged moments are bridged) form one run. A run that went fully
    silent is anchored at the node's last entry before its final silent
    moment; a run that only deviated is anchored at the last entry at or
    before the first flagged moment.
    """
    span = (MAX_GAP_MOMENTS + 1) * cadence
    flagged = np.flatnonzero(sweep.code)
    if not len(flagged):
        return []
    cell = np.searchsorted(sweep.offset, flagged, side="right") - 1
    triples = np.stack([sweep.node[flagged], sweep.at[cell],
                        sweep.code[flagged]])
    # a flag that overlapping groups repeat lies 0 s from its twin, so
    # it joins the same run and needs no dedupe
    node, at, code = triples[:, np.lexsort(triples[::-1])]
    # a run starts at a new node or after a gap longer than span
    start = np.ones(len(at), dtype=bool)
    start[1:] = (node[1:] != node[:-1]) | (np.diff(at) > span)
    first = np.flatnonzero(start)
    last = np.append(first[1:], len(at)) - 1
    # a silent run is probed at its last zero moment, one that only
    # deviated just after its first flagged moment
    zero = code == VERDICTS.index("non_responsive")
    run_of = np.cumsum(start)[zero] - 1
    silent = np.bincount(run_of, minlength=len(first)) > 0
    last_zero = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(last_zero, run_of, at[zero])
    probe = np.where(silent, last_zero, at[first] + 1)

    nodes = [sweep.nodes[n] for n in node[first].tolist()]
    anchor, found = index.last_entry_before(nodes, probe)
    # by (anchor, node): sweep.nodes is sorted, and lexsort is stable
    run = np.flatnonzero(found)
    run = run[np.lexsort((node[first[run]], anchor[run]))]
    return list(map(ExtractedEvent, [nodes[j] for j in run.tolist()],
                    anchor[run].tolist(), at[first[run]].tolist(),
                    at[last[run]].tolist(), silent[run].tolist()))


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


def run_variant(table: EventTable, topology, obs_range, variant: str,
                rules=None, maintenance=(), **params) -> VariantRun:
    """run_variants of one variant."""
    return run_variants(table, topology, obs_range, rules, maintenance,
                        (variant,), **params)[variant]


def run_variants(table: EventTable, topology, obs_range, rules=None,
                 maintenance=(), variants=VARIANTS, perspective="combined",
                 cadence=DEFAULT_CADENCE, percentile=DEFAULT_PERCENTILE,
                 cv_threshold=CV_THRESHOLD, **sweep_params) -> dict:
    """Prepare each variant of a table, sweep it under a perspective and
    extract its events; raw and anonymized share a run. sweep_params
    (jobs, failures, window, alpha, tau_min) go to sweep_perspective.

    The sweep counts the variant's rows, but every event is anchored on
    the whole table's index, built once: a silent node at its last line,
    whether the filter kept that line or not.
    """
    rules = rules or SubstitutionRuleSet()  # one rule set keys the table once
    whole = SGIndex(table)
    runs: dict = {}
    for v in variants:
        # the detector reads only (timestamp, node), which keying leaves as is
        twin = {"raw": "anonymized", "anonymized": "raw"}.get(v)
        if twin in runs:
            runs[v] = replace(runs[twin], name=v)
            continue
        kept, dropped = prepare_stream(table, v, rules, percentile,
                                       cv_threshold)
        sweep = sweep_perspective(
            whole if kept is table else SGIndex(kept), perspective, topology,
            obs_range, cadence=cadence, **sweep_params)
        del kept  # freed before the next variant keys and filters
        runs[v] = VariantRun(v, drop_maintenance_events(
            extract_events(sweep, whole, cadence), maintenance), dropped, sweep)
    return runs


# ---------------------------------------------------------------------------
# alternative grouping perspectives

def sweep_perspective(index: SGIndex, perspective: str, topology, obs_range,
                      jobs=None, failures=None,
                      window: int = DEFAULT_WINDOW,
                      cadence: int = DEFAULT_CADENCE,
                      alpha: float = DEFAULT_ALPHA,
                      tau_min: float = DEFAULT_TAU_MIN) -> SweepResult:
    """Sweep under any grouping perspective, including time-dependent ones.

    Every perspective becomes one sweep_schedule. The static ones judge
    their groups at every observation moment; `allocation` regroups
    only where a job starts or ends; `time_of_failure` judges each
    failure chain once, at its first outage, so it ignores the moments but
    is held to the same window and cadence checks. Jobs and failures count
    only the topology's nodes: any other node has no rows, so it would
    join every comparison as a zero.
    """
    moments = observation_moments(obs_range.start, obs_range.end, cadence,
                                  window)
    known = frozenset(topology.nodes)
    static = {"hardware": hardware_vicinity, "location": location_vicinity,
              "combined": combined_vicinity}
    if perspective in static:
        asg = static[perspective](topology)
        schedule = [(zip(asg.group_names, asg.groups), moments)]
    elif perspective == "allocation":
        if jobs is None or len({j.job_id for j in jobs}) < len(jobs):
            raise ValueError("allocation perspective needs job records "
                             "with unique job ids")
        schedule = allocation_schedule(
            [(j.job_id, j.nodes & known, j.start, j.end) for j in jobs
             if not j.nodes.isdisjoint(known)], moments)
    elif perspective == "time_of_failure":
        if failures is None:
            raise ValueError("time_of_failure perspective needs failure events")
        schedule = time_of_failure_vicinity(
            [f for f in failures if f.node in known])
    else:
        raise ValueError(f"unknown perspective: {perspective!r}")
    return sweep_schedule(index, schedule, window=window, alpha=alpha,
                          tau_min=tau_min)
