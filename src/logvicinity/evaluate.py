"""Scoring of detections against ground truth, and the files it scores."""

from __future__ import annotations

import csv
import io
import json
from contextlib import closing
from dataclasses import dataclass

from .classify import CLASSIFIED_HEADER, load_classified
from .names import (DEFAULT_TOLERANCE, NodeId, check_nonnegative, iso,
                    numbered_lines, parse_iso, parse_node_name, read_records,
                    topen)

CAUSES = ("crash_panic", "silent_hang", "no_reboot")
TRUTH_HEADER = "node,outage_time,has_reboot,cause"  # write_truth's first row


@dataclass(frozen=True)
class ExtractedEvent:
    """An anomaly run collapsed to a single suspected outage instant."""
    node: object
    outage_time: int
    first_flagged: int
    last_flagged: int
    non_responsive: bool  # the run contained zero-SG moments


@dataclass(frozen=True)
class InjectedFailure:
    node: NodeId
    outage_time: int
    cause: str

    @property
    def has_reboot(self) -> bool:
        return self.cause != "no_reboot"


def write_events(events, path) -> None:
    with topen(path, "w") as fh:
        fh.write("# node\toutage\tfirst_flagged\tlast_flagged\tsilent\n")
        for ev in events:
            fh.write(f"{ev.node.name}\t{iso(ev.outage_time)}\t"
                     f"{iso(ev.first_flagged)}\t{iso(ev.last_flagged)}\t"
                     f"{str(ev.non_responsive).lower()}\n")


def load_events(path) -> list:
    """Read back the TSV written by write_events."""
    def row(fields):
        if len(fields) != 5:
            raise ValueError(f"expected 5 tab-separated fields, "
                             f"got {len(fields)}")
        name, outage_s, first_s, last_s, silent = fields
        if silent not in ("true", "false"):
            raise ValueError(f"silent must be true or false, not {silent!r}")
        return ExtractedEvent(parse_node_name(name), parse_iso(outage_s),
                              parse_iso(first_s), parse_iso(last_s),
                              silent == "true")

    return read_records(path, row)


def write_truth(failures, path) -> None:
    with topen(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRUTH_HEADER.split(","))
        for f in failures:
            writer.writerow([f.node.name, iso(f.outage_time),
                             str(f.has_reboot).lower(), f.cause])


def load_truth(path) -> list:
    """Read back the CSV written by write_truth."""
    def row(fields):
        if len(fields) != 4:
            raise ValueError(f"expected 4 fields, got {len(fields)}")
        name, outage_s, has_reboot, cause = fields
        if cause not in CAUSES:
            raise ValueError(f"unknown cause {cause!r}")
        failure = InjectedFailure(parse_node_name(name), parse_iso(outage_s),
                                  cause)
        written = str(failure.has_reboot).lower()
        if has_reboot != written:
            raise ValueError(f"has_reboot must be {written} for cause {cause}, "
                             f"not {has_reboot!r}")
        return failure

    return read_records(path, row, sep=",", header=TRUTH_HEADER)


def load_scored(path) -> list:
    """A file's records to score, read by the reader its first line that
    is neither blank nor "#" picks: write_classified's header reads a
    classified file's regular failures, write_truth's a truth file, and
    any other line an events file, whose header is a "#" comment."""
    with closing(numbered_lines(path)) as lines:
        first = next((line for _, line in lines
                      if line.strip() and not line.lstrip().startswith("#")),
                     "")
    if first == CLASSIFIED_HEADER:
        return [ev for ev in load_classified(path)
                if ev.label == "regular_failure"]
    if first == TRUTH_HEADER:
        return load_truth(path)
    return load_events(path)


def _by_node(items) -> dict:
    """node -> sorted instants of (node, instant) pairs or of records with
    .node and .outage_time."""
    out: dict = {}
    for item in items:
        node, t = (item if isinstance(item, tuple)
                   else (item.node, item.outage_time))
        out.setdefault(node, []).append(int(t))
    return {node: sorted(ts) for node, ts in out.items()}


@dataclass(frozen=True)
class MatchResult:
    matches: tuple        # ((node, detected_t), (node, truth_t)) pairs
    false_positives: tuple
    false_negatives: tuple

    @property
    def tp(self):
        return len(self.matches)


def match_detections(detections, truth, tolerance=DEFAULT_TOLERANCE) -> MatchResult:
    """Greedy earliest-first matching, one truth failure per detection.

    Both sides are grouped by node and swept in time order; a detection
    within `tolerance` seconds of the earliest unmatched truth instant on
    the same node claims it.
    """
    check_nonnegative(tolerance=tolerance)
    by_node_det, by_node_tru = _by_node(detections), _by_node(truth)
    matches, fps, fns = [], [], []
    for node in sorted(set(by_node_det) | set(by_node_tru)):
        ds = by_node_det.get(node, [])
        ts = by_node_tru.get(node, [])
        i = j = 0
        while i < len(ds) and j < len(ts):
            if abs(ds[i] - ts[j]) <= tolerance:
                matches.append(((node, ds[i]), (node, ts[j])))
                i += 1
                j += 1
            elif ds[i] < ts[j] - tolerance:
                fps.append((node, ds[i]))
                i += 1
            else:
                fns.append((node, ts[j]))
                j += 1
        fps.extend((node, t) for t in ds[i:])
        fns.extend((node, t) for t in ts[j:])
    return MatchResult(tuple(matches), tuple(fps), tuple(fns))


@dataclass(frozen=True)
class EvaluationReport:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return 1.0 if self.tp + self.fp == 0 else self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        return 1.0 if self.tp + self.fn == 0 else self.tp / (self.tp + self.fn)

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall}


def score(detections, truth, tolerance=DEFAULT_TOLERANCE) -> EvaluationReport:
    result = match_detections(detections, truth, tolerance)
    return EvaluationReport(result.tp, len(result.false_positives),
                            len(result.false_negatives))


FIELDS = ("tp", "fp", "fn", "precision", "recall")


def render_reports(reports: dict, fmt: str = "table") -> str:
    """Render {variant name -> EvaluationReport} as table, csv, or json."""
    if fmt == "json":
        return json.dumps({name: rep.as_dict() for name, rep in reports.items()},
                          indent=2, sort_keys=True)
    rows = [[name, str(rep.tp), str(rep.fp), str(rep.fn),
             f"{rep.precision:.4f}", f"{rep.recall:.4f}"]
            for name, rep in reports.items()]
    header = ["variant", *FIELDS]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue().rstrip("\n")
    if fmt != "table":
        raise ValueError(f"unknown format: {fmt!r}")
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
