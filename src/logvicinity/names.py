"""What the command line needs before it knows its subcommand: node ids,
instants, files, errors and option defaults, on the standard library alone."""

from __future__ import annotations

import gzip
import math
import re
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

from . import __version__

DEFAULT_WINDOW = 1800  # seconds of log history per observation
DEFAULT_CADENCE = 600  # seconds between observation moments
DEFAULT_ALPHA = 5.0
DEFAULT_TAU_MIN = 5.0
DEFAULT_PERCENTILE = 99.5
CV_THRESHOLD = 0.1
DEFAULT_TOLERANCE = 600
DEFAULT_BURST_FACTOR = 5
DEFAULT_BURST_MINUTES = 2
DEFAULT_MIN_GAP = 600  # seconds of silence required before a burst boot
DEFAULT_SILENCE_THRESHOLD = 3600

LABELS = ("regular_failure", "planned", "not_failure", "ambiguous")
VARIANTS = ("raw", "anonymized", "filtered_raw", "filtered_anonymized")
PERSPECTIVES = ("hardware", "location", "allocation", "time_of_failure", "combined")

_NODE_RE = re.compile(r"i(\d+)r(\d+)n(\d+)", re.ASCII)


class SyslogParseError(ValueError):
    """Raised on a malformed syslog line."""


def check_nonnegative(**params) -> None:
    """Raise ValueError naming the first parameter that is not a finite
    number of at least zero."""
    for name, value in params.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, "
                             f"not {value!r}")


class UnknownNodeError(KeyError):
    """Hostname not present in the topology resolver."""


class NodeId(NamedTuple):
    """A node's place; equal to the plain tuple (island, rack, position)."""

    island: int
    rack: int
    position: int

    @property
    def name(self) -> str:
        return f"i{self.island}r{self.rack}n{self.position}"

    def __str__(self) -> str:
        return self.name


def canonical_node(name: str) -> NodeId | None:
    """The node a canonical name spells, or None for any other name."""
    m = _NODE_RE.fullmatch(name)
    return NodeId(int(m.group(1)), int(m.group(2)), int(m.group(3))) if m else None


def parse_node_name(name: str) -> NodeId:
    node = canonical_node(name)
    if node is None:
        raise ValueError(f"not a canonical node name: {name!r}")
    return node


@dataclass(frozen=True)
class ObservationRange:
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("observation range must have start < end")


def to_epoch(year, month, day, hour, minute, second) -> int:
    return int(datetime(year, month, day, hour, minute, second,
                        tzinfo=timezone.utc).timestamp())


def iso(t: int) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_ISO_RE = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2})(?::(\d{2}))?\s*(?:Z|\+00:00)?",
    re.ASCII)


def parse_iso(text: str) -> int:
    m = _ISO_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"bad timestamp: {text!r}")
    y, mo, d, h, mi = (int(m.group(i)) for i in range(1, 6))
    s = int(m.group(6) or 0)
    return to_epoch(y, mo, d, h, mi, s)


def topen(path, mode="rt"):
    """Open a UTF-8 text file, or a binary one when mode holds "b",
    transparently decompressing *.gz."""
    path = str(path)
    encoding = None if "b" in mode else "utf-8"
    if encoding and "t" not in mode:
        mode += "t"
    if path.endswith(".gz"):
        return gzip.open(path, mode, encoding=encoding)
    return open(path, mode.replace("t", ""), encoding=encoding)


def read_records(path, row, sep="\t") -> list:
    """row(fields) of each record line of a UTF-8 text file (.gz ok), in
    file order: fields is the line split at sep, by CSV rules for ",", or
    the whole line for None. Lines end at "\\n", "\\r\\n" or "\\r". Blank
    lines and lines whose first non-blank character is "#" are skipped;
    row returns None for a header row. A line that is not UTF-8, a
    ValueError from row, or a CSV error fails the read as
    "PATH:LINE: reason"."""
    errors = ValueError  # UnicodeDecodeError among them
    if sep == ",":
        import csv  # loaded only by the subcommands that read CSV
        errors = (ValueError, csv.Error)
    records = []
    with topen(path, "rb") as fh:
        lines = (line for raw in fh for line in raw.splitlines())
        for lineno, line in enumerate(lines, 1):
            try:
                line = line.decode("utf-8")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                record = row(line if sep is None else next(csv.reader([line]))
                             if sep == "," else line.split(sep))
            except errors as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if record is not None:
                records.append(record)
    return records


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
