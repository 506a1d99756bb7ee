"""Report rendering: score tables, corpus statistics and principle coverage.

Rendering is a pure function of the report value. Identical inputs must
produce byte-identical files, so every fraction is formatted explicitly
(7 decimal places, shares and the rareness total at 2) and row order is a
total order, never dictionary or arrival order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .scoring import CRITERIA, CriterionStats, RepositoryScore
from .store import replace_file

REPOSITORY_HEADER = "rdr,items,avfixed,avrelative,chrono,geo,lic,ret"
CRITERION_HEADER = "criterion,q_size,rareness,weight"
API_HEADER = "api,repositories,share"

# Coverage of the fifteen FAIR guiding principles by this kind of run.
# Static by construction: the mapping describes the method, not one corpus.
# Entries are (principle, coverage token, principle statement); coverage is
# "covered", "not-covered", or the quality criteria that carry it.
FAIR_COVERAGE: tuple[tuple[str, str, str], ...] = (
    ("F1", "covered", "(meta)data are assigned a globally unique and persistent identifier"),
    ("F2", "Q_geo, Q_chrono", "data are described with rich metadata"),
    ("F3", "covered", "metadata clearly and explicitly include the identifier of the data it describes"),
    ("F4", "covered", "(meta)data are registered or indexed in a searchable resource"),
    ("A1", "Q_ret", "(meta)data are retrievable by their identifier using a standardized communications protocol"),
    ("A1.1", "Q_ret", "the protocol is open, free, and universally implementable"),
    ("A1.2", "Q_ret", "the protocol allows for an authentication and authorization procedure, where necessary"),
    ("A2", "not-covered", "metadata are accessible, even when the data are no longer available"),
    ("I1", "covered", "(meta)data use a formal, accessible, shared, and broadly applicable language for knowledge representation"),
    ("I2", "not-covered", "(meta)data use vocabularies that follow FAIR principles"),
    ("I3", "not-covered", "(meta)data include qualified references to other (meta)data"),
    ("R1", "Q_geo, Q_chrono", "meta(data) are richly described with a plurality of accurate and relevant attributes"),
    ("R1.1", "Q_lic", "(meta)data are released with a clear and accessible data usage license"),
    ("R1.2", "not-covered", "(meta)data are associated with detailed provenance"),
    ("R1.3", "not-covered", "(meta)data meet domain-relevant community standards"),
)


@dataclass(frozen=True)
class ApiRow:
    kind: str
    count: int
    share_percent: float


@dataclass
class ScoreReport:
    run_id: str
    executed: str  # ISO date of the run
    d_size: int
    repositories: list[RepositoryScore] = field(default_factory=list)
    criteria: list[CriterionStats] = field(default_factory=list)
    total_rareness: float = 0.0
    apis: list[ApiRow] = field(default_factory=list)
    # prose fields: completeness warnings and the run summary line
    warnings: list[str] = field(default_factory=list)
    summary: str = ""


def _frac(value: float) -> str:
    return f"{value:.7f}"


def _sorted_rows(scores: Sequence[RepositoryScore]) -> list[RepositoryScore]:
    # items descending; name breaks ties so output order is total
    return sorted(scores, key=lambda s: (-s.items, s.repository))


def render_repository_table(
    scores: Sequence[RepositoryScore], d_size: int
) -> str:
    lines = [REPOSITORY_HEADER]
    for row in _sorted_rows(scores):
        if row.items < 1:
            continue
        counts = ",".join(str(row.met_counts[name]) for name in CRITERIA)
        lines.append(
            f"{row.repository},{row.items},{_frac(row.avfixed)},"
            f"{_frac(row.avrelative)},{counts}"
        )
    lines.append(f"# n = {d_size}")
    return "\n".join(lines) + "\n"


def render_criterion_table(
    stats: Sequence[CriterionStats], d_size: int
) -> str:
    lines = [CRITERION_HEADER]
    for stat in stats:
        lines.append(
            f"{stat.name},{stat.q_size},{_frac(stat.rareness)},{_frac(stat.weight)}"
        )
    total = sum(s.rareness for s in stats)
    lines.append(f"# n = {d_size} ; total_rareness = {total:.2f}")
    return "\n".join(lines) + "\n"


def render_api_table(rows: Sequence[ApiRow]) -> str:
    lines = [API_HEADER]
    for row in rows:
        lines.append(f"{row.kind},{row.count},{row.share_percent:.2f}")
    return "\n".join(lines) + "\n"


def render_fair_coverage() -> str:
    """The fixed fifteen-principle coverage block, included in every report."""
    width_id = max(len(entry[0]) for entry in FAIR_COVERAGE)
    width_cov = max(len(entry[1]) for entry in FAIR_COVERAGE)
    lines = []
    for principle, coverage, statement in FAIR_COVERAGE:
        lines.append(
            f"{principle:<{width_id}}  {coverage:<{width_cov}}  {statement}"
        )
    return "\n".join(lines) + "\n"


def report_document(report: ScoreReport) -> dict:
    """Machine-readable mirror of the tables, one object per table."""
    return {
        "run_id": report.run_id,
        "executed": report.executed,
        "d_size": report.d_size,
        "repositories": [
            {
                "rdr": row.repository,
                "items": row.items,
                "avfixed": row.avfixed,
                "avrelative": row.avrelative,
                "met_counts": {name: row.met_counts[name] for name in CRITERIA},
            }
            for row in _sorted_rows(report.repositories)
            if row.items >= 1
        ],
        "criteria": [
            {
                "criterion": stat.name,
                "q_size": stat.q_size,
                "rareness": stat.rareness,
                "weight": stat.weight,
            }
            for stat in report.criteria
        ],
        "total_rareness": report.total_rareness,
        "apis": [
            {"api": row.kind, "repositories": row.count, "share": row.share_percent}
            for row in report.apis
        ],
        "fair_coverage": [
            {"principle": p, "coverage": c, "statement": s}
            for p, c, s in FAIR_COVERAGE
        ],
        "warnings": list(report.warnings),
        "summary": report.summary,
    }


def write_report(report: ScoreReport, out_dir: str | Path) -> dict[str, Path]:
    """Write all report files under {out_dir}/{run_id}/ and return their paths.

    Each file is replaced whole, so an interrupted write leaves the earlier
    version of that file, never a torn one.
    """
    target = Path(out_dir) / report.run_id
    files = {
        "repositories.csv": render_repository_table(
            report.repositories, report.d_size
        ),
        "criteria.csv": render_criterion_table(report.criteria, report.d_size),
        "apis.csv": render_api_table(report.apis),
        "fair_coverage.txt": render_fair_coverage(),
        "report.json": json.dumps(report_document(report), indent=2, sort_keys=True)
        + "\n",
    }
    written: dict[str, Path] = {}
    for name, content in files.items():
        path = target / name
        replace_file(path, content)
        written[name] = path
    return written
