"""What the command line needs before it knows its subcommand: node ids,
instants, files, errors and option defaults, on the standard library alone."""

from __future__ import annotations

import gzip
import io
import itertools
import math
import os
import re
import sys
import time
import zlib
from contextlib import contextmanager
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


class UnknownNodeError(KeyError, ValueError):
    """Hostname not present in the topology resolver; prints its message."""
    __str__ = ValueError.__str__


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


_tmp_serial = itertools.count()  # tells one process's temporary files apart


@contextmanager
def topen(path, mode="rt"):
    """Open a UTF-8 text file, or a binary one when mode holds "b",
    (de)compressing *.gz. A file opened with "w" is written whole or not
    at all: to a temporary file beside path, renamed onto path when the
    block ends and removed if it raises. Text mode translates no line
    end, a .gz header holds path's name and mtime 0, and an error
    creating or renaming the file names path."""
    path = str(path)
    gz, binary = path.endswith(".gz"), "b" in mode
    encoding = None if binary else "utf-8"
    if "w" not in mode:
        with (gzip.open if gz else open)(path, "rb" if binary else "rt",
                                         encoding=encoding) as fh:
            yield fh
        return
    tmp = f"{path}.tmp.{os.getpid()}.{next(_tmp_serial)}"
    try:
        with open(tmp, "wb") as raw:
            fh = gzip.GzipFile(path, "wb", fileobj=raw, mtime=0) if gz else raw
            with (fh if binary else
                  io.TextIOWrapper(fh, encoding, newline="\n")) as out:
                yield out
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


BLOCK = 1 << 20  # bytes read_blocks reads per step


def read_blocks(fh):
    """Yield binary file fh, read BLOCK bytes at a time, as blocks of whole
    lines ending in \\n: \\r\\n and lone \\r become \\n, as in text mode,
    a line longer than a block joins its blocks once and a last line
    without an end gets one. Damaged compression fails as ValueError
    "PATH: reason", PATH being fh.name or "<stream>"."""
    pending = []  # the bytes after the last line end
    try:
        while block := fh.read(BLOCK):
            while block.endswith(b"\r") and (more := fh.read(1)):
                block += more  # a \r\n the read split stays one line end
            if b"\r" in block:  # replace alone would search the block twice
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            cut = block.rfind(b"\n") + 1
            if cut:
                yield b"".join([*pending, memoryview(block)[:cut]])
                pending.clear()
            pending.append(block[cut:])
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        name = getattr(fh, "name", "<stream>")
        raise ValueError(f"{name}: {exc}") from None
    if rest := b"".join(pending):
        yield rest + b"\n"


def line_error(name, lineno, exc) -> ValueError:
    """exc, the error of a file's line, as "NAME:LINE: reason"; only a
    SyslogParseError or UnknownNodeError keeps its class."""
    keep = isinstance(exc, (SyslogParseError, UnknownNodeError))
    return (type(exc) if keep else ValueError)(f"{name}:{lineno}: {exc}")


def numbered_lines(path):
    """Yield (number from 1, text) of each line of a UTF-8 text file (.gz
    ok), split by read_blocks; a line that is not UTF-8 fails as
    "PATH:LINE: reason"."""
    with topen(path, "rb") as fh:
        lines = (line for block in read_blocks(fh)
                 for line in block.split(b"\n")[:-1])
        for lineno, line in enumerate(lines, 1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise line_error(path, lineno, exc) from None
            yield lineno, text


def _skipped(line, header) -> bool:
    """Whether read_records skips line: blank, "#"-led or header."""
    return not line.strip() or line.lstrip().startswith("#") or line == header


def read_records(path, row, sep="\t", header=None) -> list:
    """row(fields) of each record line of numbered_lines(path), in file
    order: fields is the line split at sep, by CSV rules for ",", or the
    whole line for None. Blank lines, lines whose first non-blank
    character is "#" and lines that read exactly header (the writer's
    header row) are skipped. A ValueError from row, or a CSV error, fails
    the read as "PATH:LINE: reason"."""
    import csv  # loaded only by the subcommands that read records
    records = []
    for lineno, line in numbered_lines(path):
        if _skipped(line, header):
            continue
        try:
            records.append(row(line if sep is None else next(csv.reader([line]))
                               if sep == "," else line.split(sep)))
        except (ValueError, csv.Error) as exc:
            raise line_error(path, lineno, exc) from None
    return records


class _Echo:  # a file whose write returns its text, so writerow returns the line
    write = staticmethod(str)


def write_records(path, rows, sep="\t", header=None) -> None:
    """Write header, if given, and each row's fields as a line through
    topen: joined by sep, by CSV rules for ",", or one field as the line
    for None. A row read_records would not give back (a line break in a
    field, sep in a field outside CSV, NUL in CSV, a line read_records
    skips) raises ValueError naming path and the row; path keeps its bytes."""
    import csv  # loaded only by the subcommands that write records
    join = (csv.writer(_Echo(), lineterminator="").writerow if sep == ","
            else (sep or "").join)
    with topen(path, "w") as fh:
        fh.write("" if header is None else f"{header}\n")
        for row in rows:
            text = "".join(row)  # Python 3.10's csv can hold no NUL
            if ("\n" in text or "\r" in text or sep == "," and "\0" in text
                    or _skipped(line := join(row), header)
                    or sep not in (None, ",") and line.count(sep) >= len(row)):
                raise ValueError(f"{path}: {row!r} would not read back as it is")
            fh.write(f"{line}\n")


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
