import pytest

from logvicinity.anonymize import SubstitutionRuleSet
from logvicinity.cli import main
from logvicinity.model import NodeId, ObservationRange
from logvicinity.outages import (BootEvent, BootFootprintSpec, OutageEvent,
                                 detect_boot_events, detect_outages,
                                 load_footprint, load_outages, save_footprint,
                                 write_outages)
from logvicinity.synth import FOOTPRINT_LINES
from oracles import LogEntry
from tables import table_of

NODE = NodeId(1, 0, 0)
RULES = SubstitutionRuleSet()
FOOT = BootFootprintSpec([("template", msg) for _tag, msg in FOOTPRINT_LINES])


def _e(t, msg="background tick 1"):
    return LogEntry(int(t), NODE, "t", msg)


def _boot_lines(t0, spacing=10):
    return [LogEntry(t0 + i * spacing, NODE, tag, msg)
            for i, (tag, msg) in enumerate(FOOTPRINT_LINES)]


def _steady(start, end, period=300):
    return [_e(t) for t in range(start, end, period)]


def test_footprint_match_in_order():
    entries = _steady(0, 3600) + _boot_lines(5000) + _steady(5100, 9000)
    entries.sort(key=lambda e: e.timestamp)
    boots = detect_boot_events(table_of(entries), FOOT, RULES)
    assert [(b.boot_time, b.confidence) for b in boots] == [(5000, "footprint")]


def test_footprint_requires_order():
    lines = _boot_lines(5000)
    shuffled = [lines[1], lines[0], lines[2]]
    for i, e in enumerate(shuffled):
        shuffled[i] = LogEntry(5000 + i * 10, e.node, e.tag, e.message)
    entries = _steady(0, 3600) + shuffled + _steady(5100, 9000)
    entries.sort(key=lambda e: e.timestamp)
    assert detect_boot_events(table_of(entries), FOOT, RULES) == []


def test_footprint_deadline():
    # same lines, but stretched past the matching span: no boot
    lines = [LogEntry(5000 + i * 90, NODE, tag, msg)
             for i, (tag, msg) in enumerate(FOOTPRINT_LINES)]
    entries = _steady(0, 3600) + lines + _steady(5400, 9000)
    entries.sort(key=lambda e: e.timestamp)
    assert detect_boot_events(table_of(entries), FOOT, RULES) == []


def test_burst_boot_after_gap():
    entries = _steady(0, 7200)
    burst_start = 14000  # > min_gap after the last steady entry at 6900
    burst = [_e(burst_start + i * 4, f"msg variant {i}") for i in range(40)]
    entries = sorted(entries + burst, key=lambda e: e.timestamp)
    boots = detect_boot_events(table_of(entries), FOOT, RULES)
    assert [(b.boot_time, b.confidence) for b in boots] == [
        (burst_start, "burst")]


def test_burst_needs_preceding_gap():
    # identical burst shape but appearing mid-traffic: not a boot
    entries = _steady(0, 7200)
    burst = [_e(3605 + i * 4, f"msg variant {i}") for i in range(40)]
    entries = sorted(entries + burst, key=lambda e: e.timestamp)
    assert detect_boot_events(table_of(entries), FOOT, RULES) == []


def test_first_entry_is_not_a_burst_candidate():
    burst = [_e(1000 + i * 4, f"msg variant {i}") for i in range(40)]
    entries = burst + _steady(2000, 9000)
    assert detect_boot_events(table_of(entries), FOOT, RULES) == []


def test_footprint_suppresses_burst_double_count():
    # a footprint boot is usually followed by a flood; only one event comes out
    entries = _steady(0, 3600)
    t0 = 14000
    entries += _boot_lines(t0, spacing=5)
    entries += [_e(t0 + 20 + i * 3, f"flood {i}") for i in range(60)]
    entries += _steady(15000, 18000)
    entries.sort(key=lambda e: e.timestamp)
    boots = detect_boot_events(table_of(entries), FOOT, RULES)
    assert len(boots) == 1
    assert boots[0].confidence == "footprint"


def test_unsorted_entries_rejected():
    entries = [_e(100), _e(50)]
    with pytest.raises(ValueError, match="sorted"):
        detect_boot_events(table_of(entries), FOOT, RULES)
    two_nodes = [_e(50), LogEntry(100, NodeId(1, 0, 1), "t", "x")]
    with pytest.raises(ValueError, match="one node"):
        detect_boot_events(table_of(two_nodes), FOOT, RULES)


def test_backtrack_picks_last_entry_strictly_before():
    entries = [_e(100), _e(200)] + _boot_lines(5000)
    outages = detect_outages(table_of(entries), FOOT, RULES,
                             ObservationRange(0, 5100))
    assert len(outages) == 1
    assert outages[0].outage_time == 200
    assert outages[0].tail is False
    assert outages[0].following_boot == BootEvent(NODE, 5000, "footprint")


def test_backtrack_skips_boot_before_any_entry():
    table = table_of(_boot_lines(100) + [_e(200)])
    assert [b.boot_time for b in detect_boot_events(table, FOOT, RULES)] == [
        100]
    assert detect_outages(table, FOOT, RULES, ObservationRange(0, 300)) == []


def test_tail_outage():
    rng = ObservationRange(0, 50000)
    outages = detect_outages(table_of([_e(100), _e(200)]), FOOT, RULES, rng)
    assert outages == [OutageEvent(NODE, 200, None)]
    assert outages[0].tail and outages[0].confidence == "tail"
    # recent enough data: no tail
    assert detect_outages(table_of([_e(49000)]), FOOT, RULES, rng) == []


def test_footprint_needs_an_item(tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        BootFootprintSpec([])
    assert str(err.value) == "footprint spec needs at least one item"
    path = tmp_path / "boot.footprint"
    path.write_text("# nothing but a comment\n\n")
    with pytest.raises(ValueError) as err:
        load_footprint(path)
    assert str(err.value) == f"{path}: footprint spec needs at least one item"
    corpus = tmp_path / "corpus.log"
    corpus.write_text("Mar  6 10:00:00 i1r0n0 kernel: ok\n"
                      "Mar  6 11:00:00 i1r0n0 kernel: ok\n")
    assert main(["detect-outages", "--corpus", str(corpus), "--year", "2023",
                 "--footprint", str(path),
                 "--output", str(tmp_path / "o.tsv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: footprint spec needs at least one item\n")


def test_footprint_file_roundtrip(tmp_path):
    spec = BootFootprintSpec([("template", "line one"), ("key", "deadbeef")])
    for name in ("boot.footprint", "boot.footprint.gz"):
        path = tmp_path / name
        save_footprint(spec, path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        assert load_footprint(path).items == spec.items


def test_outage_file_roundtrip(tmp_path):
    rng = ObservationRange(0, 50000)
    entries = _steady(0, 3600) + _boot_lines(14000) + _steady(14100, 20000)
    entries.sort(key=lambda e: e.timestamp)
    outages = detect_outages(table_of(entries), FOOT, RULES, rng)
    assert outages  # one backtracked + one tail
    for name in ("outages.tsv", "outages.tsv.gz"):
        path = tmp_path / name
        write_outages(outages, path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        assert load_outages(path) == outages


def test_corpus_boot_counts(corpus, footprint, rules):
    """Every injected reboot is found within its announced downtime bound."""
    outages = detect_outages(corpus.entries, footprint, rules, corpus.range)
    with_boot = [o for o in outages if o.following_boot is not None]
    by_node = {}
    for o in with_boot:
        by_node.setdefault(o.node, []).append(o)
    for f in corpus.truth.failures:
        if not f.has_reboot:
            continue
        t = f.outage_time
        matches = [o for o in by_node.get(f.node, ())
                   if t <= o.following_boot.boot_time <= t + 5400 + 120]
        assert matches, f"no boot found after {f.node.name} @ {t}"
