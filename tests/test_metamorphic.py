"""Metamorphic relations of the detector (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Computing Surveys
2018): a change of the input whose effect on the output is known.

- Renaming nodes within their (architecture, island, rack) class leaves
  every hardware, location and combined group whole, so the verdicts,
  events and scores rename the same way.
- One fixed text for every message leaves each (timestamp, node) pair as
  it is, so the raw and anonymized events do not change: the detector
  reads no message text.
- A second corpus on racks of an island the first lacks leaves the first
  racks' location cells and their nodes' events as they are: a location
  group is judged on its own nodes' counts alone.
- Line order: reversing the rows of a jobs, outage-db or maintenance file
  leaves the classified file as it is, reversing the outages reverses
  the classified rows, and reversing the detected or truth rows leaves
  the evaluate report as it is, plain and gzipped.
- Corpus format: a pars-lite file written from the whole corpus, read
  under a topology of half its nodes, gives the outputs of the raw
  corpus read under that topology: a row of a node outside it is
  skipped in either format.
- Range splitting: sweeping two halves of the observation range, split
  on the cadence grid, judges each of their cells as the sweep of the
  whole range does, whichever is swept first on one shared SGIndex.
"""

import json
import random

import numpy as np
import pytest

from logvicinity.classify import CLASSIFIED_HEADER
from logvicinity.cli import main
from logvicinity.datasources import (JOBS_HEADER, write_job_report,
                                     write_windows)
from logvicinity.detect import SGIndex
from logvicinity.evaluate import (TRUTH_HEADER, score, write_events,
                                  write_truth)
from logvicinity.model import EventTable, NodeId, Topology, topen
from logvicinity.names import DEFAULT_CADENCE, ObservationRange
from logvicinity.outages import detect_outages, write_outages
from logvicinity.pipeline import run_variant, sweep_perspective
from logvicinity.synth import GeneratorSpec, generate


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


def _cells(sweep):
    """Each cell's centres, wcss and tau and its rows' nodes, counts,
    verdicts and minority marks, by (moment, group name)."""
    cells = {}
    for c, (at, g) in enumerate(zip(sweep.at.tolist(), sweep.group.tolist())):
        rows = slice(sweep.offset[c], sweep.offset[c + 1])
        cells[at, sweep.groups[g][0]] = (
            sweep.c_minor[c], sweep.c_major[c], sweep.wcss[c], sweep.tau[c],
            [sweep.nodes[n] for n in sweep.node[rows].tolist()],
            sweep.sg[rows].tolist(), sweep.code[rows].tolist(),
            sweep.minority[rows].tolist())
    return cells


def test_a_disjoint_island_leaves_the_other_racks_alone():
    spec = dict(days=1.0, failure_count=3, skew_share=0.0, storm_count=5,
                background_jobs=10)
    first, second = (generate(GeneratorSpec(seed=seed, **spec))
                     for seed in (3, 4))
    assert first.range == second.range
    shift = max(first.topology.islands())  # onto islands the first lacks
    rename = {n: NodeId(n.island + shift, n.rack, n.position)
              for n in second.topology.nodes}
    a, b = first.entries, second.entries
    both = EventTable(
        np.concatenate([a.ts, b.ts]),
        np.concatenate([a.node, b.node + len(a.nodes)]),
        np.concatenate([a.msg, b.msg + len(a.messages)]),
        a.nodes + [rename[n] for n in b.nodes], a.messages + b.messages,
        a.tags + b.tags)
    topology = Topology(
        first.topology.nodes + list(rename.values()),
        {**first.topology.architecture_of,
         **{rename[n]: arch
            for n, arch in second.topology.architecture_of.items()}})
    base, joint = (run_variant(table, top, first.range, "raw",
                               perspective="location")
                   for table, top in ((a, first.topology), (both, topology)))
    assert base.events and (base.sweep.code != 0).any()
    want, got = _cells(base.sweep), _cells(joint.sweep)
    assert len(got) == 2 * len(want)  # the second racks' cells as many
    assert {key: got[key] for key in want} == want
    assert set(base.sweep.skipped_groups) <= set(joint.sweep.skipped_groups)
    mine = set(first.topology.nodes)
    assert [e for e in _events(joint) if e[0] in mine] == _events(base)


@pytest.fixture(scope="module")
def small_corpus():
    return generate(GeneratorSpec(seed=3, days=1.0, failure_count=3,
                                  skew_share=0.0, storm_count=5,
                                  background_jobs=10))


@pytest.mark.parametrize("order", ["whole_first", "halves_first"])
@pytest.mark.parametrize("perspective", ["hardware", "combined", "allocation"])
def test_a_split_range_sweeps_the_cells_of_the_whole(small_corpus, perspective,
                                                     order):
    """One SGIndex serves every sweep, so the edges it kept for one range
    and window are reused, or extended, by the next."""
    c = small_corpus
    start, end = c.range.start, c.range.end
    mid = start + (end - start) // (2 * DEFAULT_CADENCE) * DEFAULT_CADENCE
    ranges = [c.range, ObservationRange(start, mid), ObservationRange(mid, end)]
    if order == "halves_first":
        ranges.reverse()
    index = SGIndex(c.entries)
    for window in (900, 1800):
        sweeps = {r: _cells(sweep_perspective(
            index, perspective, c.topology, r, jobs=c.truth.jobs,
            window=window)) for r in ranges}
        whole = sweeps.pop(c.range)
        assert any(any(cell[6]) for cell in whole.values())  # a flagged node
        for part in sweeps.values():
            assert part and {key: whole.get(key) for key in part} == part


def _reverse_rows(path, out):
    """Write out: the rows of path in reverse order, a header line first."""
    with topen(path) as fh:
        lines = fh.readlines()
    head = int(lines[0].startswith("#") or lines[0].rstrip("\n") in
               (JOBS_HEADER, TRUTH_HEADER, CLASSIFIED_HEADER))
    with topen(out, "w") as fh:
        fh.writelines(lines[:head] + lines[head:][::-1])


@pytest.fixture(scope="module", params=["", ".gz"], ids=["plain", "gz"])
def record_files(request, tmp_path_factory, corpus, rules, footprint,
                 variant_runs):
    """kind -> (the file, its rows reversed) of the seed-7 corpus's
    records, its outages and its filtered_anonymized events."""
    d, sfx = tmp_path_factory.mktemp("records"), request.param
    truth = corpus.truth
    writes = {
        "jobs": lambda p: write_job_report(truth.jobs, p),
        "outage_db": lambda p: write_windows(truth.outage_records, p),
        "maintenance": lambda p: write_windows(truth.maintenance, p),
        "outages": lambda p: write_outages(detect_outages(
            corpus.entries, footprint, rules, corpus.range), p),
        "truth": lambda p: write_truth(truth.failures, p),
        "detected": lambda p: write_events(
            variant_runs["filtered_anonymized"].events, p),
    }
    files = {}
    for kind, write in writes.items():
        path, back = d / f"{kind}{sfx}", d / f"{kind}_reversed{sfx}"
        write(path)
        _reverse_rows(path, back)
        files[kind] = (str(path), str(back))
    return files


@pytest.mark.parametrize("kind", ["jobs", "outage_db", "maintenance",
                                  "outages"])
def test_line_order_does_not_change_classify(record_files, tmp_path, kind):
    def classify(reverse):
        out = tmp_path / f"{reverse}.csv"
        f = {k: record_files[k][k == reverse] for k in record_files}
        assert main(["classify", "--outages", f["outages"],
                     "--jobs-file", f["jobs"], "--outage-db", f["outage_db"],
                     "--maintenance", f["maintenance"],
                     "--output", str(out)]) == 0
        return out.read_text().splitlines()

    want, got = classify(None), classify(kind)
    assert len({row.split(",")[3] for row in want[1:]}) > 3  # the evidence
    assert got == (want[:1] + want[:0:-1] if kind == "outages" else want)


@pytest.mark.parametrize("kind", ["detected", "truth"])
def test_line_order_does_not_change_evaluate(record_files, capsys, kind):
    def evaluate(reverse):
        assert main(["evaluate", "--detected", record_files["detected"][
            reverse == "detected"], "--truth", record_files["truth"][
            reverse == "truth"]]) == 0
        return capsys.readouterr().out

    want = evaluate(None)
    assert want.split("\n")[2].split()[1:4] == ["40", "33", "0"]
    assert evaluate(kind) == want


@pytest.fixture(scope="module")
def both_formats(tmp_path_factory):
    """(dir, manifest): a one-day corpus, its pars-lite file anon.txt
    written without a topology, and first.tsv and second.tsv, topologies
    of the first and the second half of its nodes; its failed nodes are
    in the first half."""
    d = tmp_path_factory.mktemp("formats")
    assert main(["generate", "--out", str(d), "--days", "1", "--failures",
                 "3", "--storms", "5", "--background-jobs", "10"]) == 0
    manifest = json.loads((d / "run_manifest.json").read_text())
    assert main(["anonymize", "--corpus", str(d / "corpus.log"), "--year",
                 str(manifest["year"]), "--output", str(d / "anon.txt")]) == 0
    head, *rows = (d / "topology.tsv").read_text().splitlines(keepends=True)
    half = len(rows) // 2
    (d / "first.tsv").write_text("".join([head] + rows[:half]))
    (d / "second.tsv").write_text("".join([head] + rows[half:]))
    return d, manifest


@pytest.mark.parametrize("half", ["first", "second"])
@pytest.mark.parametrize("bounds", [False, True], ids=["corpus", "from_to"])
@pytest.mark.parametrize("command, raw_variant, anon_variant", [
    ("detect-outages", None, None),
    ("detect-anomalies", "raw", "anonymized"),
    ("detect-anomalies", "filtered_anonymized", "filtered_anonymized")])
def test_both_corpus_formats_obey_the_topology_alike(
        both_formats, tmp_path, capsys, command, raw_variant, anon_variant,
        bounds, half):
    d, manifest = both_formats
    args = [command, "--topology", str(d / f"{half}.tsv")]
    if bounds:
        args += ["--from", manifest["start"], "--to", manifest["end"]]
    outputs = []
    for name, corpus, variant in (
            ("raw", ["--corpus", str(d / "corpus.log"), "--year",
                     str(manifest["year"])], raw_variant),
            ("anon", ["--corpus", str(d / "anon.txt"), "--anonymized"],
             anon_variant)):
        out, events = tmp_path / f"{name}.tsv", tmp_path / f"{name}_ev.tsv"
        extra = (["--variant", variant, "--events", str(events)]
                 if variant else [])
        assert main(args + corpus + extra + ["--output", str(out)]) == 0
        outputs.append([out.read_bytes()]
                       + ([events.read_bytes()] if variant else []))
    assert outputs[0] == outputs[1]
    assert all(outputs[0]) or half == "second"
