"""Record-stream scoring: an independent reference for the count-based scoring.

The pipeline scores from tallies (``scoring.stats_from_counts`` and
``scoring.repository_score_from_counts``). These functions score the same
corpus one assessment at a time, the way the paper defines the scores, so
the tests can check that both routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from fairprobe.scoring import (
    CRITERIA,
    N_CRITERIA,
    CriterionStats,
    RepositoryScore,
    ScoringError,
    repository_score_from_counts,
    stats_from_counts,
    total_rareness,
)


@dataclass(frozen=True)
class CorpusTotals:
    d_size: int
    total_rareness: float
    n_criteria: int = N_CRITERIA


def _met_flags(assessment) -> dict[str, bool]:
    """The four flags off an assessment-like object or a mapping."""
    if isinstance(assessment, Mapping):
        return {name: bool(assessment.get(name)) for name in CRITERIA}
    return {name: bool(getattr(assessment, name)) for name in CRITERIA}


def score_fixed(assessment) -> float:
    """Fixed score of one record: met criteria over four.

    Accepts an assessment (object or mapping with the four flags), a raw
    met count, or a sequence of booleans.
    """
    if isinstance(assessment, int) and not isinstance(assessment, bool):
        k = assessment
    elif isinstance(assessment, (list, tuple)):
        k = sum(bool(m) for m in assessment)
    else:
        k = sum(_met_flags(assessment).values())
    if not 0 <= k <= N_CRITERIA:
        raise ScoringError(f"met count {k} outside 0..{N_CRITERIA}")
    return k / N_CRITERIA


def compute_stats(
    assessments: Iterable,
) -> tuple[list[CriterionStats], CorpusTotals]:
    """Stats and totals over a stream of assessment results."""
    q_sizes = {name: 0 for name in CRITERIA}
    d_size = 0
    for item in assessments:
        d_size += 1
        flags = _met_flags(item)
        for name in CRITERIA:
            if flags[name]:
                q_sizes[name] += 1
    stats = stats_from_counts(q_sizes, d_size)
    return stats, corpus_totals(stats, d_size)


def corpus_totals(stats: Sequence[CriterionStats], d_size: int) -> CorpusTotals:
    return CorpusTotals(
        d_size=d_size,
        total_rareness=total_rareness(stats),
        n_criteria=len(stats),
    )


def score_relative(assessment, stats: Sequence[CriterionStats]) -> float:
    """Relative score of one record: rareness-weighted sum of met criteria."""
    weights = {s.name: s.weight for s in stats}
    flags = _met_flags(assessment)
    return sum(weights[name] for name in CRITERIA if flags[name])


def score_repository(
    repository: str,
    assessments: Iterable,
    stats: Sequence[CriterionStats],
) -> RepositoryScore:
    """Repository means from a stream of that repository's assessments."""
    items = 0
    met_counts = {name: 0 for name in CRITERIA}
    for item in assessments:
        items += 1
        flags = _met_flags(item)
        for name in CRITERIA:
            if flags[name]:
                met_counts[name] += 1
    return repository_score_from_counts(repository, items, met_counts, stats)
