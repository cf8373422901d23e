"""Loaders for the auxiliary records: job reports, outage DB, maintenance notices."""

from __future__ import annotations

from dataclasses import dataclass

from .model import (NodeId, compress_node_names, expand_node_spec, iso,
                    parse_iso, parse_node_name, read_records, write_records)

JOB_STATUSES = ("completed", "failed", "cancelled", "timeout", "node_fail")
JOBS_HEADER = "job_id,nodes,start,end,status"  # write_job_report's first row


@dataclass(frozen=True)
class Scope:
    kind: str  # system | island | node
    island: int | None = None
    node: NodeId | None = None

    def covers(self, node: NodeId) -> bool:
        if self.kind == "system":
            return True
        if self.kind == "island":
            return node.island == self.island
        return node == self.node

    def __str__(self) -> str:
        if self.kind == "system":
            return "system"
        if self.kind == "island":
            return f"island:{self.island}"
        return f"node:{self.node.name}"


def parse_scope(text: str) -> Scope:
    text = text.strip()
    if text in ("system", "entire_system"):
        return Scope("system")
    kind, _, arg = text.partition(":")
    if kind == "island" and arg:
        return Scope("island", island=int(arg))
    if kind == "node" and arg:
        return Scope("node", node=parse_node_name(arg))
    raise ValueError(f"bad scope: {text!r}")


@dataclass(frozen=True)
class JobRecord:
    job_id: str
    nodes: frozenset  # of NodeId
    start: int
    end: int
    status: str

    def active_at(self, t: int) -> bool:
        # half-open [start, end): a job ending at t is no longer active at t
        return self.start <= t < self.end


@dataclass(frozen=True)
class Window:
    """An outage-db record or a maintenance notice: a closed span over a
    scope, with a free-text note."""
    start: int
    end: int
    scope: Scope
    note: str = ""

    def covers(self, node: NodeId, t: int) -> bool:
        return self.start <= t <= self.end and self.scope.covers(node)


def load_job_report(path) -> list:
    seen = set()  # job ids so far

    def row(fields):
        job_id, nodes_s, start_s, end_s, status = fields
        if job_id in seen:
            raise ValueError(f"duplicate job id {job_id!r}")
        if status not in JOB_STATUSES:
            raise ValueError(f"unknown status {status!r}")
        nodes = frozenset(parse_node_name(n) for n in expand_node_spec(nodes_s))
        if not nodes:
            raise ValueError("empty node list")
        start, end = parse_iso(start_s), parse_iso(end_s)
        if start > end:
            raise ValueError("start after end")
        seen.add(job_id)
        return JobRecord(job_id, nodes, start, end, status)

    return read_records(path, row, sep=",", header=JOBS_HEADER)


def write_job_report(jobs, path) -> None:
    write_records(path, ([j.job_id, compress_node_names(n.name for n in j.nodes),
                          iso(j.start), iso(j.end), j.status] for j in jobs),
                  sep=",", header=JOBS_HEADER)


def _window(line) -> Window:
    """The window of a start..end<TAB>scope[<TAB>note] line; the note is
    the rest of the line, tabs included."""
    parts = line.split("\t", 2)
    if len(parts) < 2:
        raise ValueError("expected start..end<TAB>scope")
    start_s, sep, end_s = parts[0].partition("..")
    if not sep:
        raise ValueError("span must be start..end")
    start, end = parse_iso(start_s), parse_iso(end_s)
    if start > end:
        raise ValueError("start after end")
    return Window(start, end, parse_scope(parts[1]),
                  parts[2] if len(parts) > 2 else "")


def load_outage_db(path) -> list:
    return read_records(path, _window, sep=None)


def load_maintenance(path) -> list:
    return read_records(path, _window, sep=None)


def write_windows(windows, path) -> None:
    """An outage db or a maintenance file; a window's tab and note are
    written only when its note is not empty."""
    write_records(path, ([f"{iso(w.start)}..{iso(w.end)}\t{w.scope}"
                          + (f"\t{w.note}" if w.note else "")]
                         for w in windows), sep=None)
