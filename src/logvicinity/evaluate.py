"""Scoring of detected failure events against generator ground truth."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .names import DEFAULT_TOLERANCE, check_nonnegative


def _as_pairs(items):
    out = []
    for item in items:
        if isinstance(item, tuple):
            node, t = item
        else:
            node, t = item.node, item.outage_time
        out.append((node, int(t)))
    return out


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
    det = sorted(_as_pairs(detections))
    tru = sorted(_as_pairs(truth))
    by_node_det: dict = {}
    by_node_tru: dict = {}
    for node, t in det:
        by_node_det.setdefault(node, []).append(t)
    for node, t in tru:
        by_node_tru.setdefault(node, []).append(t)

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
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt != "table":
        raise ValueError(f"unknown format: {fmt!r}")
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
