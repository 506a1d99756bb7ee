"""Randomised invariants over the scoring math and record round-trips."""

from __future__ import annotations

import itertools
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from fairprobe import mockrdr
from fairprobe.assessor import AssessmentResult, assess
from fairprobe.datacite import (
    parse_record,
    record_from_dict,
    record_to_dict,
)
from fairprobe.scoring import (
    CRITERIA,
    repository_score_from_counts,
    stats_from_counts,
)

from canonical_xml import to_canonical_xml
from oracle import compute_stats, score_fixed, score_relative, score_repository

SEED = 20180601


def random_corpus(rng: random.Random, size: int) -> list[AssessmentResult]:
    # uneven criterion probabilities give the rarity weighting something to do
    chances = {
        "chrono": rng.uniform(0.01, 0.35),
        "geo": rng.uniform(0.05, 0.6),
        "lic": rng.uniform(0.3, 0.95),
        "ret": rng.uniform(0.05, 0.8),
    }
    return [
        AssessmentResult(
            doi=f"10.55/{i}",
            repository=f"repo-{rng.randrange(8)}",
            chrono=rng.random() < chances["chrono"],
            geo=rng.random() < chances["geo"],
            lic=rng.random() < chances["lic"],
            ret=rng.random() < chances["ret"],
        )
        for i in range(size)
    ]


@pytest.fixture(scope="module")
def big_corpus():
    rng = random.Random(SEED)
    corpus = random_corpus(rng, 12_000)
    stats, totals = compute_stats(corpus)
    return corpus, stats, totals


def test_scores_stay_in_the_unit_interval(big_corpus):
    corpus, stats, _ = big_corpus
    for item in corpus:
        fixed = score_fixed(item)
        relative = score_relative(item, stats)
        assert 0.0 <= fixed <= 1.0
        assert 0.0 <= relative <= 1.0 + 1e-12


def test_meeting_one_more_criterion_never_hurts(big_corpus):
    corpus, stats, _ = big_corpus
    weights = {s.name: s.weight for s in stats}
    rng = random.Random(SEED + 1)
    checked = 0
    for item in rng.sample(corpus, 3000):
        unmet = [name for name in CRITERIA if not getattr(item, name)]
        if not unmet:
            continue
        name = rng.choice(unmet)
        improved = replace(item, **{name: True})
        assert score_fixed(improved) == pytest.approx(
            score_fixed(item) + 0.25, abs=1e-12
        )
        gain = score_relative(improved, stats) - score_relative(item, stats)
        assert gain == pytest.approx(weights[name], abs=1e-12)
        assert gain >= 0.0
        checked += 1
    assert checked > 2000


def test_rarer_criteria_weigh_more(big_corpus):
    _, stats, totals = big_corpus
    assert sum(s.weight for s in stats) == pytest.approx(1.0, abs=1e-12)
    for a, b in itertools.combinations(stats, 2):
        if a.q_size < b.q_size:
            assert a.weight > b.weight
        elif a.q_size > b.q_size:
            assert a.weight < b.weight
        else:
            assert a.weight == pytest.approx(b.weight, abs=1e-15)
    assert totals.d_size == 12_000


def test_stats_match_a_naive_tally(big_corpus):
    corpus, stats, totals = big_corpus
    d = len(corpus)
    for s in stats:
        q = sum(1 for item in corpus if getattr(item, s.name))
        assert s.q_size == q
        assert s.rareness == pytest.approx(1 - q / d, abs=1e-12)
    assert totals.total_rareness == pytest.approx(
        sum(s.rareness for s in stats), abs=1e-12
    )


def test_repository_aggregation_is_linear(big_corpus):
    corpus, stats, _ = big_corpus
    by_repo: dict[str, list[AssessmentResult]] = {}
    for item in corpus:
        by_repo.setdefault(item.repository, []).append(item)
    for name, members in by_repo.items():
        from_items = score_repository(name, members, stats)
        met = {
            key: sum(1 for m in members if getattr(m, key)) for key in CRITERIA
        }
        from_counts = repository_score_from_counts(name, len(members), met, stats)
        naive_fixed = sum(score_fixed(m) for m in members) / len(members)
        naive_relative = sum(score_relative(m, stats) for m in members) / len(members)
        for score in (from_items, from_counts):
            assert score.items == len(members)
            assert score.avfixed == pytest.approx(naive_fixed, abs=1e-12)
            assert score.avrelative == pytest.approx(naive_relative, abs=1e-12)
        assert from_items.met_counts == from_counts.met_counts == met


def test_scoring_is_deterministic_across_input_order(big_corpus):
    corpus, stats, totals = big_corpus
    shuffled = list(corpus)
    random.Random(99).shuffle(shuffled)
    stats2, totals2 = compute_stats(shuffled)
    assert stats2 == stats
    assert totals2 == totals


def test_weights_scale_free():
    # multiplying every tally by a constant leaves rareness and weights alone
    q = {"chrono": 3, "geo": 11, "lic": 60, "ret": 24}
    small = stats_from_counts(q, 100)
    large = stats_from_counts({k: v * 1000 for k, v in q.items()}, 100_000)
    for a, b in zip(small, large):
        assert a.rareness == pytest.approx(b.rareness, abs=1e-12)
        assert a.weight == pytest.approx(b.weight, abs=1e-12)


RECORD_VARIANTS = list(
    itertools.product(
        (3, 4),
        (False, True),  # wrapped
        ("point", "box", "place"),
        ("type", "format", "wildcard"),
        ((False, False, False), (True, True, True), (False, True, False)),
    )
)


@pytest.mark.parametrize("kernel,wrapped,geo_style,interest_via,flags", RECORD_VARIANTS)
def test_record_representations_agree(kernel, wrapped, geo_style, interest_via, flags):
    chrono, geo, lic = flags
    source = mockrdr.MockRecord(
        doi="10.56/x",
        chrono=chrono,
        geo=geo,
        lic=lic,
        kernel=kernel,
        geo_style=geo_style,
        interest_via=interest_via,
        wrapped=wrapped,
    )
    record = parse_record(
        ET.fromstring(mockrdr.record_payload(source)),
        repository="r",
        oai_identifier="oai:r:0",
    )

    canonical = parse_record(
        ET.fromstring(to_canonical_xml(record)),
        repository="r",
        oai_identifier="oai:r:0",
    )
    assert canonical == record

    wire = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
    assert wire == record

    # every representation assesses identically
    for variant in (record, canonical, wire):
        result = assess(variant)
        assert (result.chrono, result.geo, result.lic) == (chrono, geo, lic)
