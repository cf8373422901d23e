"""Metamorphic relations of the detector (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Computing Surveys
2018): a change of the input whose effect on the output is known.

- Renaming nodes within their (architecture, island, rack) class leaves
  every hardware, location and combined group whole, so the verdicts,
  events and scores rename the same way.
- One fixed text for every message leaves each (timestamp, node) pair as
  it is, so the raw and anonymized events do not change: the detector
  reads no message text.
"""

import random

import numpy as np
import pytest

from logvicinity.cli import main
from logvicinity.evaluate import score
from logvicinity.model import EventTable
from logvicinity.pipeline import run_variant


def _class_renaming(topology, seed):
    """A random permutation of the nodes within each (architecture,
    island, rack) class, as a dict."""
    classes: dict = {}
    for node in topology.nodes:
        classes.setdefault((topology.architecture_of[node], node.island,
                            node.rack), []).append(node)
    rng, rename = random.Random(seed), {}
    for members in classes.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        rename.update(zip(members, shuffled))
    return rename


def _events(run, rename=lambda node: node):
    return sorted((rename(e.node), e.outage_time, e.first_flagged,
                   e.last_flagged, e.non_responsive) for e in run.events)


@pytest.mark.parametrize("perspective", ["hardware", "location", "combined"])
def test_renaming_nodes_within_their_class_renames_the_outputs(
        perspective, corpus, truth_pairs):
    rename = _class_renaming(corpus.topology, seed=11)
    assert sum(a != b for a, b in rename.items()) > len(rename) // 2
    table = corpus.entries
    renamed = EventTable(table.ts, table.node, table.msg,
                         [rename[n] for n in table.nodes], table.messages,
                         table.tags)
    base, other = (run_variant(t, corpus.topology, corpus.range, "raw",
                               perspective=perspective)
                   for t in (table, renamed))
    a, b = base.sweep, other.sweep
    assert (a.code != 0).any() and base.events

    for column in ("at", "group", "c_minor", "c_major", "wcss", "tau",
                   "offset"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    assert b.groups == [(name, tuple(sorted(rename[n] for n in nodes)))
                        for name, nodes in a.groups]
    assert b.nodes == sorted(rename[n] for n in a.nodes)
    assert b.skipped_groups == a.skipped_groups
    # each cell's rows, renamed, in the renamed nodes' NodeId order
    node_id = {n: i for i, n in enumerate(b.nodes)}
    node = np.array([node_id[rename[n]] for n in a.nodes])[a.node]
    cell = np.repeat(np.arange(len(a.at)), np.diff(a.offset))
    order = np.lexsort((node, cell))
    assert np.array_equal(node[order], b.node)
    for column in ("sg", "code", "minority"):
        assert np.array_equal(getattr(a, column)[order],
                              getattr(b, column)), column

    assert _events(other) == _events(base, rename.get)
    assert score(other.events, [(rename[n], t) for n, t in truth_pairs]) \
        == score(base.events, truth_pairs)


GEN_ARGS = ["--seed", "3", "--days", "2", "--failures", "8",
            "--storms", "10", "--background-jobs", "30"]


def _one_text(line):
    """The line with its tag and message replaced by one fixed text."""
    month, day, clock, host = line.split(None, 4)[:4]
    return f"{month} {day:>2} {clock} {host} daemon: the same text\n"


def test_one_message_text_leaves_verdicts_and_events_as_they_are(
        tmp_path):
    assert main(["generate", "--out", str(tmp_path)] + GEN_ARGS) == 0
    corpus = tmp_path / "corpus.log"
    lines = corpus.read_text().splitlines(keepends=True)
    same = tmp_path / "same.log"
    same.write_text("".join(map(_one_text, lines)))
    topology = ["--topology", str(tmp_path / "topology.tsv")]
    outputs = []
    for log in (corpus, same):
        raw, verdicts, anon, anon_events = (
            tmp_path / f"{log.stem}.{suffix}"
            for suffix in ("raw.tsv", "verdicts.tsv", "anon.txt", "anon.tsv"))
        common = ["--corpus", str(log), "--year", "2023"]
        assert main(["detect-anomalies", "--variant", "raw",
                     "--events", str(raw), "--output", str(verdicts)]
                    + common + topology) == 0
        assert main(["anonymize", "--output", str(anon)] + common) == 0
        assert main(["detect-anomalies", "--corpus", str(anon),
                     "--anonymized", "--variant", "anonymized",
                     "--events", str(anon_events)] + topology) == 0
        keys = {row.split("\t")[2]
                for row in anon.read_text().splitlines()[1:]}
        outputs.append((raw.read_text(), verdicts.read_text(),
                        anon_events.read_text(), len(keys)))
    *want, _ = outputs[0]
    *got, keys = outputs[1]
    assert keys == 1 and want[0].count("\n") > 1
    assert got == want
