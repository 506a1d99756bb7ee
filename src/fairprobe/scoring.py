"""Fixed and rareness-weighted scoring over assessment outcomes.

Two views of the same corpus: the fixed score treats all four criteria as
equal quarters; the relative score weights each criterion by how rarely it
is met, so satisfying a rare criterion is worth more. Both are plain double
arithmetic; rounding happens only when reports render.

All aggregates are linear in per-record indicator values, so every score is
reachable from met-counts alone, and the pipeline scores from those tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

CRITERIA: tuple[str, str, str, str] = ("chrono", "geo", "lic", "ret")
N_CRITERIA = len(CRITERIA)


class ScoringError(ValueError):
    pass


class EmptyCorpusError(ScoringError):
    """Rareness is undefined when the corpus has no items."""


class EmptyRepositoryError(ScoringError):
    """A repository mean is undefined over zero items."""


@dataclass(frozen=True)
class CriterionStats:
    name: str
    q_size: int  # |Q_i|, number of corpus items meeting the criterion
    rareness: float  # 1 - |Q_i| / |D|
    weight: float  # rareness share, sums to 1 across criteria


@dataclass(frozen=True)
class RepositoryScore:
    repository: str
    items: int
    met_counts: dict[str, int]
    avfixed: float
    avrelative: float


def stats_from_counts(q_sizes: Mapping[str, int], d_size: int) -> list[CriterionStats]:
    """Per-criterion rareness and weight from corpus tallies.

    When every criterion is met by every item, all rareness values are zero
    and the weights fall back to equal quarters.
    """
    if d_size <= 0:
        raise EmptyCorpusError("corpus has no items")
    missing = [name for name in CRITERIA if name not in q_sizes]
    if missing:
        raise ScoringError(f"missing criterion counts: {missing}")
    rareness = {}
    for name in CRITERIA:
        q = q_sizes[name]
        if not 0 <= q <= d_size:
            raise ScoringError(f"|Q_{name}| = {q} outside 0..{d_size}")
        rareness[name] = 1.0 - q / d_size
    total = sum(rareness.values())
    return [
        CriterionStats(
            name=name,
            q_size=q_sizes[name],
            rareness=rareness[name],
            weight=(rareness[name] / total) if total > 0.0 else 1.0 / N_CRITERIA,
        )
        for name in CRITERIA
    ]


def total_rareness(stats: Sequence[CriterionStats]) -> float:
    return sum(s.rareness for s in stats)


def repository_score_from_counts(
    repository: str,
    items: int,
    met_counts: Mapping[str, int],
    stats: Sequence[CriterionStats],
) -> RepositoryScore:
    """Repository means from per-criterion tallies.

    avfixed is the mean fixed score, avrelative the mean weighted score;
    both reduce to count arithmetic because the means are linear.
    """
    if items <= 0:
        raise EmptyRepositoryError(f"repository {repository!r} has no items")
    for name in CRITERIA:
        if name not in met_counts:
            raise ScoringError(f"missing met count for {name!r}")
        if not 0 <= met_counts[name] <= items:
            raise ScoringError(
                f"met count {met_counts[name]} for {name!r} outside 0..{items}"
            )
    weights = {s.name: s.weight for s in stats}
    avfixed = sum(met_counts[name] for name in CRITERIA) / (N_CRITERIA * items)
    avrelative = (
        sum(met_counts[name] * weights[name] for name in CRITERIA) / items
    )
    return RepositoryScore(
        repository=repository,
        items=items,
        met_counts={name: met_counts[name] for name in CRITERIA},
        avfixed=avfixed,
        avrelative=avrelative,
    )
