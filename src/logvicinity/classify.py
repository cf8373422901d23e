"""Label detected outages by cross-referencing maintenance, jobs, and outage DB."""

from __future__ import annotations

from dataclasses import dataclass

from .names import (LABELS, NodeId, check_nonnegative, iso, parse_iso,
                    parse_node_name, read_records, topen)

DEFAULT_CORRELATION_WINDOW = 600  # seconds
CLASSIFIED_HEADER = "node,outage_time,label,evidence"  # the file's first line

# Evidence pairs that cannot both hold for a genuine failure.
CONTRADICTIONS = (
    ("jobs_completed_here", "jobs_failed_here"),
    ("in_maintenance", "in_outage_db"),
)


@dataclass(frozen=True)
class FailureEvent:
    node: NodeId
    outage_time: int
    label: str
    evidence: tuple  # sorted evidence tags


def label_from_evidence(evidence) -> str:
    ev = set(evidence)
    if any(a in ev and b in ev for a, b in CONTRADICTIONS):
        return "ambiguous"
    if "in_maintenance" in ev and "jobs_failed_here" not in ev:
        return "planned"
    if ("in_maintenance" not in ev
            and ("jobs_failed_here" in ev or "in_outage_db" in ev)
            and "jobs_completed_here" not in ev):
        return "regular_failure"
    return "not_failure"


def classify_outage(outage, maint, jobs, odb,
                    correlation_window=DEFAULT_CORRELATION_WINDOW) -> FailureEvent:
    node, t = outage.node, outage.outage_time
    evidence = set()
    if any(w.covers(node, t) for w in maint):
        evidence.add("in_maintenance")
    if any(r.covers(node, t) for r in odb):
        evidence.add("in_outage_db")
    saw_job = False
    for job in jobs:
        if node not in job.nodes:
            continue
        near = abs(job.end - t) <= correlation_window
        spans = job.active_at(t)
        if near or spans:
            saw_job = True
        if job.status in ("failed", "node_fail") and near:
            evidence.add("jobs_failed_here")
        if job.status == "completed" and spans:
            evidence.add("jobs_completed_here")
    if not saw_job:
        evidence.add("no_job_info")
    return FailureEvent(node, t, label_from_evidence(evidence),
                        tuple(sorted(evidence)))


def classify_all(outages, maint, jobs, odb,
                 correlation_window=DEFAULT_CORRELATION_WINDOW) -> list:
    check_nonnegative(correlation_window=correlation_window)
    return [classify_outage(o, maint, jobs, odb, correlation_window)
            for o in outages]


def load_classified(path) -> list:
    """Read back the CSV written by write_classified."""
    def row(fields):
        if len(fields) != 4 or fields[2] not in LABELS:
            raise ValueError(f"malformed classified row: {fields!r}")
        name, outage_s, label, evidence = fields
        return FailureEvent(parse_node_name(name), parse_iso(outage_s), label,
                            tuple(evidence.split("+")) if evidence else ())

    return read_records(path, row, sep=",", header=CLASSIFIED_HEADER)


def write_classified(events, path) -> None:
    with topen(path, "w") as fh:
        fh.write(f"{CLASSIFIED_HEADER}\n")
        for ev in events:
            fh.write(f"{ev.node.name},{iso(ev.outage_time)},{ev.label},"
                     f"{'+'.join(ev.evidence)}\n")
