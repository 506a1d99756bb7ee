"""Quality predicates over parsed records.

Each predicate answers one question about a single record and never touches
the network; retrievability is decided elsewhere and merged into the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .config import is_http_url
from .datacite import DataciteRecord, GeoPlace


@dataclass
class AssessmentResult:
    doi: str
    repository: str
    chrono: bool
    geo: bool
    lic: bool
    ret: bool = False
    probe_trace: dict[str, Any] | None = None


def f_chrono(record: DataciteRecord) -> bool:
    """Does the record say when the image was created?

    Only the dateType ``Created`` qualifies, compared case-sensitively as
    the vocabulary defines it, and the date value must be non-empty.
    """
    return any(d.date_type == "Created" and d.value.strip() for d in record.dates)


def f_geo(record: DataciteRecord, *, require_coordinates: bool = False) -> bool:
    """Does the record say where the image belongs?

    At least one valid location: a point or box within coordinate bounds,
    or a non-empty place name unless the run insists on machine-usable
    coordinates.
    """
    for loc in record.geo_locations:
        if isinstance(loc, GeoPlace) and require_coordinates:
            continue
        if loc.valid():
            return True
    return False


def f_lic(record: DataciteRecord) -> bool:
    """Does the record link a licence?

    The rightsURI must be an absolute http(s) URL; free-text rights alone
    do not qualify because they cannot be dereferenced.
    """
    return any(
        entry.rights_uri and is_http_url(entry.rights_uri.strip())
        for entry in record.rights
    )


def assess(
    record: DataciteRecord, *, require_coordinates: bool = False
) -> AssessmentResult:
    """Evaluate the metadata-only predicates; ret stays False until probed."""
    return AssessmentResult(
        doi=record.doi,
        repository=record.repository,
        chrono=f_chrono(record),
        geo=f_geo(record, require_coordinates=require_coordinates),
        lic=f_lic(record),
    )


def assessment_to_dict(result: AssessmentResult) -> dict[str, Any]:
    return {**vars(result)}
