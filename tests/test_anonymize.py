import numpy as np
import pytest

from logvicinity import anonymize, model, names
from logvicinity.anonymize import (RULE_VERSION, SubstitutionRuleSet,
                                   anonymize_stream, fnv1a_32, load_rules,
                                   read_anonymized, save_rules,
                                   write_anonymized)
from logvicinity.cli import main
from logvicinity.model import (NodeId, iso, parse_iso, parse_node_name,
                               to_epoch, topen)
from logvicinity.synth import GeneratorSpec, generate
from oracles import LogEntry, reference_read_anonymized
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


def _lines(chunks):
    """The lines of anonymize_stream's byte chunks, joined."""
    return b"".join(chunks).decode().splitlines(keepends=True)


def test_keyed_entries_pass_through_unchanged():
    rules = SubstitutionRuleSet()
    raw = table_of(LogEntry(60 * i, NodeId(1, 0, 0), "cron", m)
                   for i, m in enumerate(CRON_SAMPLE))
    lines = _lines(anonymize_stream(raw, rules))
    assert [line.split("\t")[2] for line in lines] == [
        f"{rules.key(m)}\n" for m in CRON_SAMPLE]
    keyed = table_of(rows_of(raw, rules))
    # a keyed table's keys are not keyed again, under any rule set
    assert _lines(anonymize_stream(keyed, SubstitutionRuleSet([]))) == lines
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


def test_only_the_header_sets_the_rules_version(tmp_path):
    """A later comment with a word starting with "v" keeps the version."""
    path = tmp_path / "subst.rules"
    path.write_text("# substitution rules v1\n"
                    "# very strict rules for site X\n"
                    "\\d+\t<NUM>\n")
    loaded = load_rules(path)
    assert (loaded.version, loaded.patterns) == ("1", ["\\d+"])
    path.write_text("# rules v2, not a header\n\\d+\t<NUM>\n")
    assert load_rules(path).version == RULE_VERSION


def test_rules_gz_roundtrip(tmp_path):
    rules = SubstitutionRuleSet(version="9")
    save_rules(rules, tmp_path / "subst.rules")
    save_rules(rules, tmp_path / "subst.rules.gz")
    assert (tmp_path / "subst.rules.gz").read_bytes()[:2] == b"\x1f\x8b"
    with topen(tmp_path / "subst.rules.gz") as fh:
        assert fh.read() == (tmp_path / "subst.rules").read_text()
    loaded = load_rules(tmp_path / "subst.rules.gz")
    assert (loaded.version, loaded.patterns) == ("9", rules.patterns)
    for msg in CRON_SAMPLE:
        assert loaded.template(msg) == rules.template(msg)


def test_load_rules_rejects_untabbed_line(tmp_path):
    path = tmp_path / "subst.rules"
    path.write_text("just-a-pattern-no-token\n")
    with pytest.raises(ValueError):
        load_rules(path)


def test_load_rules_names_the_line_of_a_bad_pattern(tmp_path, capsys):
    path = tmp_path / "subst.rules"
    path.write_text("# substitution rules v1\n\\d+\t<NUM>\na(\t<X>\n")
    with pytest.raises(ValueError) as err:
        load_rules(path)
    assert str(err.value).startswith(f"{path}:3: bad pattern 'a(': ")
    corpus = tmp_path / "corpus.log"
    corpus.write_text("Mar  6 10:00:00 i1r0n0 kernel: ok\n")
    assert main(["anonymize", "--corpus", str(corpus), "--year", "2023",
                 "--rules", str(path), "--output", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}:3: bad pattern 'a(': ")
    assert not (tmp_path / "a").exists()


def test_load_rules_names_the_line_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "subst.rules"
    path.write_bytes(b"# substitution rules v1\n\\d+\t<NUM>\ncaf\xe9\t<X>\n")
    with pytest.raises(ValueError) as err:
        load_rules(path)
    assert str(err.value).startswith(
        f"{path}:3: 'utf-8' codec can't decode byte 0xe9")
    corpus = tmp_path / "corpus.log"
    corpus.write_text("Mar  6 10:00:00 i1r0n0 kernel: ok\n")
    assert main(["anonymize", "--corpus", str(corpus), "--year", "2023",
                 "--rules", str(path), "--output", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}:3: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_rules_load_with_any_line_end(tmp_path, end):
    """A whitespace-only rule line is a rule: it is not skipped."""
    rules = SubstitutionRuleSet([("\\d+", "<NUM>"), (" ", " ")], version="9")
    save_rules(rules, tmp_path / "subst.rules")
    text = (tmp_path / "subst.rules").read_text().replace("\n", end)
    for name in ("ends.rules", "ends.rules.gz"):
        with topen(tmp_path / name, "wb") as fh:
            fh.write(text.encode())
        loaded = load_rules(tmp_path / name)
        assert (loaded.version, loaded.patterns) == ("9", rules.patterns)
        assert [t for _, t in loaded.rules] == [t for _, t in rules.rules]


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


MALFORMED = [
    ("2023-03-06T00:00:00Z\ti1r0n0", "3 tab-separated fields"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef\textra", "3 tab-separated fields"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tnot-a-key", "not 8 lowercase hex"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tDEADBEEF", "not 8 lowercase hex"),
    ("2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef0", "not 8 lowercase hex"),
]


@pytest.mark.parametrize("row,complaint", MALFORMED)
def test_read_anonymized_rejects_malformed_rows(tmp_path, row, complaint):
    path = tmp_path / "anon.txt"
    path.write_text("#pars-lite v1\n2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef\n"
                    + row + "\n")
    with pytest.raises(ValueError, match=complaint) as exc:
        read_anonymized(path)
    assert f"{path}:3:" in str(exc.value)


def _read(path):
    """read_anonymized's result as plain lists, or the error it raises: its
    type and its text."""
    try:
        table, version = read_anonymized(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return (table.ts.tolist(), table.node.tolist(), table.msg.tolist(),
            table.nodes, table.messages, version)


def _reference(path):
    try:
        return reference_read_anonymized(path, parse_iso, parse_node_name)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def seed7_anonymized(tmp_path_factory):
    """A seed-7 corpus of 64 nodes and half a day as pars-lite files."""
    table = generate(GeneratorSpec(seed=7, days=0.5, failure_count=2,
                                   skew_share=0.0)).entries
    paths = [tmp_path_factory.mktemp("anon") / f"anon.{suffix}"
             for suffix in ("txt", "txt.gz")]
    for path in paths:
        write_anonymized(table, path, SubstitutionRuleSet())
    return paths


@pytest.mark.parametrize("which", [0, 1], ids=["txt", "txt.gz"])
@pytest.mark.parametrize("block", [None, 4099])
def test_block_reader_matches_the_line_reader(seed7_anonymized, monkeypatch,
                                              which, block):
    """Metamorphic: the default block, and a block that ends inside a row
    thousands of times, read a generated file as the line reader does;
    node and key ids keep their first appearance across blocks."""
    path = seed7_anonymized[which]
    if block:
        monkeypatch.setattr(names, "BLOCK", block)
    expect = _reference(path)
    assert len(expect[0]) > 30_000 and len(expect[3]) == 64
    assert _read(path) == expect


SPELLINGS = [  # (line, expected epoch or None for a non-row line)
    ("#pars-lite v2", None),
    ("", None),
    ("2023-03-06T00:00:00Z\ti01r0n1\tdeadbeef", to_epoch(2023, 3, 6, 0, 0, 0)),
    ("# a comment between rows", None),
    ("2023-03-06 00:00:01\ti1r0n1\t0000ffff", to_epoch(2023, 3, 6, 0, 0, 1)),
    ("2023-03-06T00:00:02+00:00\ti1r0n2\tdeadbeef",
     to_epoch(2023, 3, 6, 0, 0, 2)),
    ("2023-03-06T00:01\ti2r0n1\t12345678", to_epoch(2023, 3, 6, 0, 1, 0)),
    ("", None),
    ("2024-02-29T23:59:59Z\ti1r0n1\tdeadbeef", to_epoch(2024, 2, 29, 23, 59, 59)),
    ("2000-02-29T12:00:00Z\ti1r0n2\t0000ffff", to_epoch(2000, 2, 29, 12, 0, 0)),
    ("1969-12-31T23:59:59Z\ti2r0n1\tdeadbeef", -1),
    ("2023-12-31T23:59:59Z\ti001r00n01\t12345678",
     to_epoch(2023, 12, 31, 23, 59, 59)),
    (f"2024-01-01T00:00:00Z\ti{'0' * 40}1r0n1\t12345678",  # a wide field
     to_epoch(2024, 1, 1, 0, 0, 0)),
]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64, None])
@pytest.mark.parametrize("ends", ["\n", "\r\n", "\r", "mixed"])
def test_block_reader_reads_every_spelling(tmp_path, monkeypatch, block,
                                           ends):
    """Comments and blank lines between rows, \\n, \\r\\n and lone \\r line
    ends, no final newline, other stamp spellings, leap days and two
    spellings of one node give the line reader's table, at any block
    size."""
    if block:
        monkeypatch.setattr(names, "BLOCK", block)
    cycle = ["\n", "\r\n", "\r"] if ends == "mixed" else [ends]
    path = tmp_path / "anon.txt"
    path.write_bytes("".join(
        line + ("" if i == len(SPELLINGS) - 1 else cycle[i % len(cycle)])
        for i, (line, _) in enumerate(SPELLINGS)).encode())
    got = _read(path)
    assert got == _reference(path)
    ts, node, msg, nodes, keys, version = got
    assert ts == [t for _, t in SPELLINGS if t is not None]
    assert nodes == [NodeId(1, 0, 1), NodeId(1, 0, 2), NodeId(2, 0, 1)]
    assert node == [0, 0, 1, 2, 0, 1, 2, 0, 0]
    assert keys == ["deadbeef", "0000ffff", "12345678"]
    assert msg == [0, 1, 0, 2, 0, 1, 0, 2, 2] and version == "2"


def test_names_that_share_a_hash_stay_apart(tmp_path, monkeypatch):
    """With a zero multiplier only a name's last 8 bytes reach its hash:
    the byte comparison then finds the shared hashes."""
    monkeypatch.setattr(model, "_PRIME", np.uint64(0))
    path = tmp_path / "anon.txt"
    path.write_text("".join(f"2023-03-06T00:00:0{i}Z\ti{i}r0n12345678\t"
                            f"deadbeef\n" for i in range(1, 4)))
    got = _read(path)
    assert got == _reference(path)
    assert got[3] == [NodeId(i, 0, 12345678) for i in range(1, 4)]


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@pytest.mark.parametrize("ends", ["\r\n", "mixed"])
def test_each_line_end_counts_one_line(tmp_path, monkeypatch, block, ends):
    """A \\r\\n split between two blocks is one line end."""
    monkeypatch.setattr(names, "BLOCK", block)
    cycle = ["\n", "\r\n", "\r"] if ends == "mixed" else [ends]
    path = tmp_path / "anon.txt"
    path.write_bytes("".join(
        line + cycle[i % len(cycle)]
        for i, (line, _) in enumerate(SPELLINGS + [("bad", None)])).encode())
    got = _read(path)
    assert got == _reference(path)
    assert got == (ValueError, f"{path}:{len(SPELLINGS) + 1}: expected 3 "
                               f"tab-separated fields, got 1")


@pytest.mark.parametrize("stamp", [
    "2023-02-29T00:00:00Z",  # Feb 29 in a common year
    "1900-02-29T00:00:00Z",  # a century is a common year
    "2023-04-31T00:00:00Z", "2023-13-01T00:00:00Z", "2023-00-10T00:00:00Z",
    "2023-03-00T00:00:00Z", "0000-03-06T00:00:00Z", "2023-03-06T24:00:00Z",
    "2023-03-06T23:60:00Z", "2023-03-06T23:59:60Z", "2023-03-06T23:59:59z",
    "2023-03-06t23:59:59Z", "2023/03/06T23:59:59Z", "2023-03-06T23:59:5 Z",
    "2023-03-06T23:59:59Zx", "2023-03-06T23:59:59ZZ",
])
@pytest.mark.parametrize("block", [7, None])
def test_block_reader_rejects_impossible_stamps(tmp_path, monkeypatch, stamp,
                                                block):
    if block:
        monkeypatch.setattr(names, "BLOCK", block)
    path = tmp_path / "anon.txt"
    path.write_text(f"#pars-lite v1\n2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef\n"
                    f"{stamp}\ti1r0n0\tdeadbeef\n")
    got = _read(path)
    assert got == _reference(path)
    assert got[0] is ValueError and f"{path}:3: " in got[1]


@pytest.mark.parametrize("row,complaint", MALFORMED)
def test_read_anonymized_rejects_malformed_rows_after_the_first_block(
        tmp_path, monkeypatch, row, complaint):
    """The bad row lies blocks after the first; rows, blank and comment
    lines before it end in \\n, \\r\\n and \\r."""
    monkeypatch.setattr(names, "BLOCK", 100)
    text, lines = "#pars-lite v1\n", 1
    for i in range(30):  # a \\r before an empty line would make one \\r\\n
        end = ["\n", "\r\n", "\r"][i % 3]
        text += (f"2023-03-06T00:00:{i:02d}Z\ti1r0n{i % 4}\tdeadbeef{end}"
                 + ("# note\n" if end == "\r" else "\n"))
        lines += 2
    path = tmp_path / "anon.txt"
    path.write_bytes(f"{text}{row}\n{row}\n".encode())
    assert len(text) > 10 * names.BLOCK
    with pytest.raises(ValueError, match=complaint) as exc:
        read_anonymized(path)
    assert f"{path}:{lines + 1}:" in str(exc.value)
    assert _read(path) == _reference(path)


@pytest.mark.parametrize("block", [3, None])
def test_invalid_utf8_raises_after_the_rows_before_it(tmp_path, monkeypatch,
                                                      block):
    if block:
        monkeypatch.setattr(names, "BLOCK", block)
    good = b"#pars-lite v1\n2023-03-06T00:00:00Z\ti1r0n0\tdeadbeef\n"
    path = tmp_path / "anon.txt"
    path.write_bytes(good + b"2023-03-06T00:00:01Z\ti1r0n0\tdead\xffbeef\n")
    assert _read(path) == _reference(path) == (
        ValueError, f"{path}:3: 'utf-8' codec can't decode byte 0xff in "
                    "position 32: invalid start byte")
    path.write_bytes(good + b"2023-03-06T00:00:01Z\ti1r0n0\n\xff\n")
    with pytest.raises(ValueError, match=f"{path}:3: expected 3"):
        read_anonymized(path)


@pytest.mark.parametrize("row", [
    "2023-03-06T00:00:00Z\ti\u0661r0n0\tdeadbeef",  # an Arabic-Indic 1
    "\u0662\u0660\u0662\u0663-03-06T00:00:00Z\ti1r0n0\tdeadbeef",
    "2023-03-06T00:00:00Z\ti1r0n\uff10\tdeadbeef",  # a fullwidth 0
])
def test_read_anonymized_wants_ascii_digits(tmp_path, row):
    path = tmp_path / "anon.txt"
    path.write_text(f"#pars-lite v1\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path}:2: "):
        read_anonymized(path)


def test_each_template_is_hashed_once(monkeypatch):
    hashed = []
    monkeypatch.setattr(anonymize, "fnv1a_32",
                        lambda text: hashed.append(text) or fnv1a_32(text))
    rules = SubstitutionRuleSet()
    template_id, key_id, templates, keys = rules.index(CRON_SAMPLE * 2)
    assert [templates[t] for t in template_id.tolist()] == [
        rules.template(m) for m in CRON_SAMPLE * 2]
    assert [keys[k] for k in key_id.tolist()] == [
        fnv1a_32(rules.template(m)) for m in CRON_SAMPLE * 2]
    assert sorted(hashed) == sorted(set(templates))
