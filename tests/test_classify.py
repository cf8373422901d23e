import itertools

import pytest

from logvicinity.classify import (CONTRADICTIONS, classify_outage,
                                  label_from_evidence, load_classified,
                                  write_classified)
from logvicinity.datasources import JobRecord, Scope, Window
from logvicinity.model import NodeId
from logvicinity.outages import OutageEvent

NODE = NodeId(1, 0, 0)

TAGS = ("in_maintenance", "in_outage_db", "jobs_failed_here",
        "jobs_completed_here", "no_job_info")


def test_contradictions_always_ambiguous():
    for a, b in CONTRADICTIONS:
        assert label_from_evidence({a, b}) == "ambiguous"
        assert label_from_evidence({a, b, "no_job_info"}) == "ambiguous"


def test_label_precedence_over_all_subsets():
    """Exhaustive check of the decision table over every evidence subset."""
    for size in range(len(TAGS) + 1):
        for combo in itertools.combinations(TAGS, size):
            ev = set(combo)
            label = label_from_evidence(ev)
            if any(a in ev and b in ev for a, b in CONTRADICTIONS):
                assert label == "ambiguous", ev
            elif "in_maintenance" in ev and "jobs_failed_here" not in ev:
                assert label == "planned", ev
            elif ("in_maintenance" not in ev
                  and ("jobs_failed_here" in ev or "in_outage_db" in ev)
                  and "jobs_completed_here" not in ev):
                assert label == "regular_failure", ev
            else:
                assert label == "not_failure", ev
            # a regular failure never carries maintenance evidence
            if label == "regular_failure":
                assert "in_maintenance" not in ev


def _outage(t=10000):
    return OutageEvent(NODE, t, None)


def test_failed_job_near_outage_is_regular_failure():
    job = JobRecord("j", frozenset({NODE}), 5000, 10200, "node_fail")
    ev = classify_outage(_outage(), [], [job], [])
    assert ev.label == "regular_failure"
    assert "jobs_failed_here" in ev.evidence


def test_failed_job_too_far_is_not_correlated():
    job = JobRecord("j", frozenset({NODE}), 5000, 11000, "node_fail")
    ev = classify_outage(_outage(), [], [job], [], correlation_window=600)
    assert "jobs_failed_here" not in ev.evidence
    assert ev.label == "not_failure"


def test_completed_job_spanning_outage_blocks_failure():
    failed = JobRecord("j1", frozenset({NODE}), 5000, 10100, "node_fail")
    completed = JobRecord("j2", frozenset({NODE}), 9000, 20000, "completed")
    ev = classify_outage(_outage(), [], [failed, completed], [])
    assert ev.label == "ambiguous"


def test_outage_db_entry_is_regular_failure():
    rec = Window(9000, 11000, Scope("node", node=NODE))
    ev = classify_outage(_outage(), [], [], [rec])
    assert ev.label == "regular_failure"
    assert ev.evidence == ("in_outage_db", "no_job_info")


def test_maintenance_window_is_planned():
    win = Window(9000, 12000, Scope("island", island=1))
    ev = classify_outage(_outage(), [win], [], [])
    assert ev.label == "planned"


def test_maintenance_plus_failed_job_is_neither():
    # a failed job blocks "planned" and the window blocks "regular_failure"
    win = Window(9000, 12000, Scope("island", island=1))
    job = JobRecord("j", frozenset({NODE}), 5000, 9900, "failed")
    ev = classify_outage(_outage(), [win], [job], [])
    assert ev.label == "not_failure"


def test_no_records_at_all_is_not_failure():
    ev = classify_outage(_outage(), [], [], [])
    assert ev.label == "not_failure"
    assert ev.evidence == ("no_job_info",)


def test_other_nodes_jobs_ignored():
    other = NodeId(9, 9, 9)
    job = JobRecord("j", frozenset({other}), 5000, 10100, "node_fail")
    ev = classify_outage(_outage(), [], [job], [])
    assert ev.evidence == ("no_job_info",)


def test_classified_file_roundtrip(tmp_path, classified_events):
    for name in ("classified.csv", "classified.csv.gz"):
        path = tmp_path / name
        write_classified(classified_events, path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
        loaded = load_classified(path)
        assert len(loaded) == len(classified_events)
        for got, want in zip(loaded, classified_events):
            assert got.node == want.node
            assert got.outage_time == want.outage_time
            assert got.label == want.label
            assert got.evidence == want.evidence


def test_load_classified_rejects_bad_label(tmp_path):
    path = tmp_path / "classified.csv"
    path.write_text("node,outage_time,label,evidence\n"
                    "i1r0n0,2020-01-01T00:00:00Z,mystery,\n")
    with pytest.raises(ValueError):
        load_classified(path)
