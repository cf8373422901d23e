import pytest

from logvicinity.anonymize import (SubstitutionRuleSet, anonymize_stream,
                                   fnv1a_32, load_rules, read_anonymized,
                                   save_rules, write_anonymized)
from logvicinity.model import LogEntry, NodeId, iso, to_epoch
from tables import rows_of, table_of

# Variants of the same underlying events; which rows must share a template
# is the core contract of the substitution pass.
CRON_SAMPLE = [
    "(root) CMD (run-parts /etc/cron.hourly)",
    "(root) CMD (run-parts /etc/cron.daily)",
    "(backup) CMD (/usr/local/bin/snapshot --tag nightly)",
    "Anacron started on 2023-03-01",
    "Anacron started on 2023-03-02",
    "Job `cron.daily' terminated",
    "Normal exit (1 job run)",
    "Normal exit (2 jobs run)",
    "(www-data) CMD (php /var/www/queue.php)",
    "(root) CMD (test -x /usr/sbin/anacron || run-parts /etc/cron.daily)",
]


def test_cron_sample_equivalence_classes():
    rules = SubstitutionRuleSet()
    templates = [rules.template(m) for m in CRON_SAMPLE]
    # every "(user) CMD (...)" collapses to one class
    assert len({templates[i] for i in (0, 1, 2, 8, 9)}) == 1
    # both Anacron starts collapse
    assert templates[3] == templates[4]
    # "N job(s) run" differ in the plural word, not only the number
    assert templates[6] != templates[7]
    assert len(set(templates)) == 5


def test_template_idempotent():
    rules = SubstitutionRuleSet()
    for msg in CRON_SAMPLE + [
        "pci 0000:00:1f.2: address space collision at 0x3040",
        "connect from 10.1.2.3 port 22",
        "session opened for user root by (uid=0)",
    ]:
        once = rules.template(msg)
        assert rules.template(once) == once


@pytest.mark.parametrize("raw,expect", [
    ("eth0: link up at 10.20.30.40", "<ADDR>"),
    ("MAC de:ad:be:ef:00:01 registered", "<ADDR>"),
    ("read /var/log/messages failed", "<PATH>"),
    ("offset 0xDEADBEEF", "<HEX>"),
    ("retry 17 of 20", "<NUM>"),
    ("at Mar  3 04:05:06 exactly", "<TIME>"),
])
def test_substitution_tokens(raw, expect):
    assert expect in SubstitutionRuleSet().template(raw)


def test_fnv1a_32_known_vectors():
    # reference values for the 32-bit FNV-1a offset basis / prime
    assert fnv1a_32("") == "811c9dc5"
    assert fnv1a_32("a") == "e40c292c"
    assert fnv1a_32("foobar") == "bf9cf968"


def test_keys_are_8_hex_lowercase():
    rules = SubstitutionRuleSet()
    for msg in CRON_SAMPLE:
        key = rules.key(msg)
        assert len(key) == 8
        assert key == key.lower()
        int(key, 16)


def test_same_template_same_key():
    rules = SubstitutionRuleSet()
    assert rules.key(CRON_SAMPLE[0]) == rules.key(CRON_SAMPLE[1])
    assert rules.key(CRON_SAMPLE[0]) != rules.key(CRON_SAMPLE[5])


def test_keyed_entries_pass_through_unchanged():
    rules = SubstitutionRuleSet()
    raw = table_of(LogEntry(60 * i, NodeId(1, 0, 0), "cron", m)
                   for i, m in enumerate(CRON_SAMPLE))
    lines = list(anonymize_stream(raw, rules))
    assert [line.split("\t")[2] for line in lines] == [
        f"{rules.key(m)}\n" for m in CRON_SAMPLE]
    keyed = raw.keyed_by(rules)
    # a keyed table's keys are not keyed again, under any rule set
    assert list(anonymize_stream(keyed, SubstitutionRuleSet([]))) == lines
    assert keyed.keyed and rows_of(keyed) == rows_of(raw, rules)


def test_rules_roundtrip(tmp_path):
    rules = SubstitutionRuleSet(version="9")
    path = tmp_path / "subst.rules"
    save_rules(rules, path)
    loaded = load_rules(path)
    assert loaded.version == "9"
    assert loaded.patterns == rules.patterns
    for msg in CRON_SAMPLE:
        assert loaded.template(msg) == rules.template(msg)


def test_load_rules_rejects_untabbed_line(tmp_path):
    path = tmp_path / "subst.rules"
    path.write_text("just-a-pattern-no-token\n")
    with pytest.raises(ValueError):
        load_rules(path)


def _entries():
    node = NodeId(1, 0, 0)
    return [LogEntry(1600000000 + i, node, "CRON", CRON_SAMPLE[i % len(CRON_SAMPLE)])
            for i in range(20)]


@pytest.mark.parametrize("suffix", ["txt", "txt.gz"])
def test_write_read_anonymized_roundtrip(tmp_path, suffix):
    rules = SubstitutionRuleSet()
    table = table_of(_entries())
    path = tmp_path / f"anon.{suffix}"
    write_anonymized(table, path, rules)
    loaded, version = read_anonymized(path)
    assert version == rules.version
    assert loaded.keyed and rows_of(loaded) == rows_of(table, rules)


def test_write_anonymized_rows_are_iso_node_key(tmp_path):
    """Each row is (iso(timestamp), node name, key), across midnights, a
    new year and the epoch."""
    rules = SubstitutionRuleSet()
    nodes = [NodeId(1, 0, 0), NodeId(2, 1, 3)]
    new_year = to_epoch(2024, 1, 1, 0, 0, 0)
    stamps = [-86401, -1, 0, new_year - 1, new_year, new_year + 59,
              new_year + 3599, new_year + 86399, new_year + 86400,
              to_epoch(2024, 2, 29, 12, 34, 56)]
    entries = [LogEntry(t, nodes[i % 2], "CRON",
                        CRON_SAMPLE[i % len(CRON_SAMPLE)])
               for i, t in enumerate(stamps)]
    path = tmp_path / "anon.txt"
    write_anonymized(table_of(entries), path, rules)
    assert path.read_text().splitlines() == [f"#pars-lite v{rules.version}"] + [
        f"{iso(e.timestamp)}\t{e.node.name}\t{rules.key(e.message)}"
        for e in entries]


def test_anonymized_file_leaks_no_message_text(tmp_path):
    rules = SubstitutionRuleSet()
    path = tmp_path / "anon.txt"
    write_anonymized(table_of(_entries()), path, rules)
    text = path.read_text()
    for word in ("root", "cron", "Anacron", "CMD", "php"):
        assert word not in text


@pytest.mark.parametrize("row,complaint", [
    ("2023-03-06T00:00:00Z\ti1r0n0", "3 tab-separated fields"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef\textra", "3 tab-separated fields"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tnot-a-key", "not 8 lowercase hex"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tDEADBEEF", "not 8 lowercase hex"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef0", "not 8 lowercase hex"),
])
def test_read_anonymized_rejects_malformed_rows(tmp_path, row, complaint):
    path = tmp_path / "anon.txt"
    path.write_text("#pars-lite v1\n2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef\n"
                    + row + "\n")
    with pytest.raises(ValueError, match=complaint) as exc:
        read_anonymized(path)
    assert f"{path}:3:" in str(exc.value)
