"""Event tables from line-level rows, and rows back from tables.

Tests state their inputs as LogEntry rows (or Keyed rows for a pars-lite
corpus), the rows of the line-level reference oracles.parse_syslog_line, and
compare a table's rows with the same types. A syslog corpus stated as
str lines is parsed from syslog_file.
"""

import io
from typing import NamedTuple

from logvicinity.model import EventTable, NodeId
from oracles import LogEntry


class Keyed(NamedTuple):
    """One row of a keyed table: a pars-lite line."""
    timestamp: int
    node: NodeId
    key: str


def table_of(rows) -> EventTable:
    """The table of LogEntry rows, or the keyed table of Keyed rows; nodes
    and messages are numbered in first-seen order."""
    rows = list(rows)
    keyed = bool(rows) and isinstance(rows[0], Keyed)
    node_ix, msg_ix = {}, {}
    ts = [r.timestamp for r in rows]
    node = [node_ix.setdefault(r.node, len(node_ix)) for r in rows]
    msg = [msg_ix.setdefault(r.key if keyed else (r.tag, r.message),
                             len(msg_ix)) for r in rows]
    if keyed:
        return EventTable(ts, node, msg, list(node_ix), list(msg_ix))
    return EventTable(ts, node, msg, list(node_ix),
                      [m for _, m in msg_ix], [t for t, _ in msg_ix])


def syslog_file(lines) -> io.BytesIO:
    """The binary file of str lines, which carry their own line ends: the
    lines joined and encoded as UTF-8."""
    return io.BytesIO("".join(lines).encode("utf-8"))


def rows_of(table, rules=None) -> list:
    """A table's rows as LogEntry, or as Keyed when the table is keyed or
    rules are given."""
    rows = zip(table.ts.tolist(), table.node.tolist(), table.msg.tolist())
    if table.keyed or rules is not None:
        key_id, keys = table.keys(rules)
        return [Keyed(t, table.nodes[n], keys[k])
                for (t, n, _), k in zip(rows, key_id.tolist())]
    return [LogEntry(t, table.nodes[n], table.tags[m], table.messages[m])
            for t, n, m in rows]
