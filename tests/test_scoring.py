"""Scoring math: fixed shares, rarity weights, repository aggregates."""

from __future__ import annotations

import random

import pytest

from fairprobe.assessor import AssessmentResult
from fairprobe.scoring import (
    CRITERIA,
    CriterionStats,
    EmptyCorpusError,
    EmptyRepositoryError,
    repository_score_from_counts,
    stats_from_counts,
    total_rareness,
)

from oracle import (
    compute_stats,
    corpus_totals,
    score_fixed,
    score_relative,
    score_repository,
)

# A published landscape with well-known aggregates, used as a frozen oracle:
# ~1.4M records dominated by two large repositories.
LANDSCAPE_D = 1_408_929
LANDSCAPE_Q = {"chrono": 8, "geo": 34, "lic": 184_852, "ret": 34}
LANDSCAPE_REPOS = {
    # name: (items, chrono, geo, lic, ret, avfixed, avrelative)
    "figshare": (1_224_071, 0, 0, 0, 2, 0.0000004, 0.0000004),
    "Zenodo": (184_796, 0, 0, 184_796, 0, 0.25, 0.2245688),
    "PANGAEA": (35, 0, 29, 32, 32, 0.6642857, 0.6558059),
    "PUB Data Publications": (18, 0, 0, 18, 0, 0.25, 0.2245688),
    "GFZ Data Services": (9, 8, 5, 6, 0, 0.5277778, 0.5230702),
}


def make_assessment(chrono=False, geo=False, lic=False, ret=False, repo="r"):
    return AssessmentResult(
        doi="10.1/x", repository=repo, chrono=chrono, geo=geo, lic=lic, ret=ret
    )


@pytest.mark.parametrize(
    "met,expected",
    [(0, 0.0), (1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)],
)
def test_score_fixed_from_count(met, expected):
    assert score_fixed(met) == expected


def test_score_fixed_accepts_flag_sequences_and_assessments():
    assert score_fixed([True, False, True, False]) == 0.5
    assert score_fixed([True, True, True]) == 0.75  # sequences are counted, not sized
    assert score_fixed((1, 1, 1, 0)) == 0.75
    assert score_fixed(make_assessment(chrono=True, ret=True)) == 0.5


@pytest.mark.parametrize("bad", [-1, 5, [1, 1, 1, 1, 1]])
def test_score_fixed_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        score_fixed(bad)


def test_stats_from_counts_matches_published_landscape():
    stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
    totals = corpus_totals(stats, LANDSCAPE_D)
    assert totals.d_size == LANDSCAPE_D
    assert totals.n_criteria == 4
    assert totals.total_rareness == pytest.approx(3.868745692650233, abs=1e-12)
    assert f"{totals.total_rareness:.2f}" == "3.87"

    by_name = {s.name: s for s in stats}
    assert set(by_name) == set(CRITERIA)
    rendered = {
        name: (f"{s.rareness:.7f}", f"{s.weight:.7f}")
        for name, s in by_name.items()
    }
    assert rendered == {
        "chrono": ("0.9999943", "0.2584802"),
        "geo": ("0.9999759", "0.2584755"),
        "lic": ("0.8687996", "0.2245688"),
        "ret": ("0.9999759", "0.2584755"),
    }
    for s in stats:
        assert s.rareness == pytest.approx(1 - LANDSCAPE_Q[s.name] / LANDSCAPE_D)


def test_repository_scores_match_published_landscape():
    stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
    for name, (items, chrono, geo, lic, ret, avfixed, avrelative) in LANDSCAPE_REPOS.items():
        met = {"chrono": chrono, "geo": geo, "lic": lic, "ret": ret}
        score = repository_score_from_counts(name, items, met, stats)
        assert score.repository == name
        assert score.items == items
        assert f"{score.avfixed:.7f}" == f"{avfixed:.7f}"
        assert f"{score.avrelative:.7f}" == f"{avrelative:.7f}"


def test_relative_weights_sum_to_one():
    stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
    assert sum(s.weight for s in stats) == pytest.approx(1.0, abs=1e-12)


def test_uniform_fallback_when_every_record_meets_everything():
    q = {name: 10 for name in CRITERIA}
    stats = stats_from_counts(q, 10)
    assert corpus_totals(stats, 10).total_rareness == 0.0
    assert all(s.rareness == 0.0 for s in stats)
    assert all(s.weight == 0.25 for s in stats)
    perfect = make_assessment(chrono=True, geo=True, lic=True, ret=True)
    assert score_relative(perfect, stats) == pytest.approx(1.0)


def test_compute_stats_matches_naive_oracle():
    rng = random.Random(20160908)
    corpus = [
        make_assessment(
            chrono=rng.random() < 0.1,
            geo=rng.random() < 0.3,
            lic=rng.random() < 0.8,
            ret=rng.random() < 0.5,
            repo=f"repo-{rng.randrange(6)}",
        )
        for _ in range(4000)
    ]
    stats, totals = compute_stats(corpus)

    d = len(corpus)
    naive_q = {
        name: sum(getattr(a, name) for a in corpus) for name in CRITERIA
    }
    naive_rareness = {name: 1 - naive_q[name] / d for name in naive_q}
    naive_total = sum(naive_rareness.values())

    assert totals.d_size == d
    assert totals.total_rareness == pytest.approx(naive_total, abs=1e-12)
    assert total_rareness(stats) == pytest.approx(naive_total, abs=1e-12)
    for s in stats:
        assert s.q_size == naive_q[s.name]
        assert s.rareness == pytest.approx(naive_rareness[s.name], abs=1e-12)
        assert s.weight == pytest.approx(naive_rareness[s.name] / naive_total, abs=1e-12)

    # Per-record relative score equals the naive weighted sum.
    for a in corpus[:100]:
        expected = sum(
            s.weight for s in stats if getattr(a, s.name)
        )
        assert score_relative(a, stats) == pytest.approx(expected, abs=1e-12)


def test_score_repository_aggregates_by_mean():
    corpus = [
        make_assessment(chrono=True, lic=True, repo="a"),
        make_assessment(lic=True, ret=True, repo="a"),
        make_assessment(repo="a"),
        make_assessment(geo=True, lic=True, ret=True, repo="b"),
    ]
    stats, _ = compute_stats(corpus)
    score_a = score_repository("a", [a for a in corpus if a.repository == "a"], stats)
    assert score_a.items == 3
    assert score_a.met_counts == {"chrono": 1, "geo": 0, "lic": 2, "ret": 1}
    naive_fixed = sum(score_fixed(a) for a in corpus if a.repository == "a") / 3
    naive_relative = sum(
        score_relative(a, stats) for a in corpus if a.repository == "a"
    ) / 3
    assert score_a.avfixed == pytest.approx(naive_fixed, abs=1e-12)
    assert score_a.avrelative == pytest.approx(naive_relative, abs=1e-12)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        compute_stats([])
    with pytest.raises(EmptyCorpusError):
        stats_from_counts({name: 0 for name in CRITERIA}, 0)


def test_empty_repository_rejected():
    stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
    with pytest.raises(EmptyRepositoryError):
        repository_score_from_counts("r", 0, {name: 0 for name in CRITERIA}, stats)
    corpus = [make_assessment(repo="a")]
    full_stats, _ = compute_stats(corpus)
    with pytest.raises(EmptyRepositoryError):
        score_repository("ghost", [], full_stats)


@pytest.mark.parametrize(
    "q,d",
    [
        ({"chrono": 11, "geo": 0, "lic": 0, "ret": 0}, 10),  # q above d
        ({"chrono": -1, "geo": 0, "lic": 0, "ret": 0}, 10),
        ({"chrono": 0}, 10),  # missing criteria
    ],
)
def test_stats_from_counts_validates_inputs(q, d):
    with pytest.raises(ValueError):
        stats_from_counts(q, d)


def test_repository_counts_validated():
    stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
    with pytest.raises(ValueError):
        repository_score_from_counts(
            "r", 5, {"chrono": 6, "geo": 0, "lic": 0, "ret": 0}, stats
        )
    with pytest.raises(ValueError):
        repository_score_from_counts(
            "r", 5, {"chrono": -2, "geo": 0, "lic": 0, "ret": 0}, stats
        )


def test_criterion_stats_is_plain_data():
    s = CriterionStats(name="lic", q_size=3, rareness=0.7, weight=0.25)
    assert (s.name, s.q_size, s.rareness, s.weight) == ("lic", 3, 0.7, 0.25)
