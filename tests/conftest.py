import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from logvicinity.anonymize import SubstitutionRuleSet
from logvicinity.outages import BootFootprintSpec
from logvicinity.synth import FOOTPRINT_LINES, GeneratorSpec, generate


@pytest.fixture(scope="session")
def corpus():
    """The default bench corpus: 64 nodes, 7 days, 40 failures, seed 7."""
    return generate(GeneratorSpec())


@pytest.fixture(scope="session")
def truth_pairs(corpus):
    return [(f.node, f.outage_time) for f in corpus.truth.failures]


@pytest.fixture(scope="session")
def rules():
    return SubstitutionRuleSet()


@pytest.fixture(scope="session")
def footprint():
    return BootFootprintSpec([("template", msg) for _tag, msg in FOOTPRINT_LINES])


@pytest.fixture(scope="session")
def variant_runs(corpus, rules):
    """All four data-format variants swept once, shared across tests."""
    from logvicinity.pipeline import run_variants
    return run_variants(corpus.entries, corpus.topology, corpus.range,
                        rules=rules, maintenance=corpus.truth.maintenance)


@pytest.fixture(scope="session")
def classified_events(corpus, rules, footprint):
    from logvicinity.classify import classify_all
    from logvicinity.outages import detect_outages
    truth = corpus.truth
    return classify_all(
        detect_outages(corpus.entries, footprint, rules, corpus.range),
        truth.maintenance, truth.jobs, truth.outage_records)
