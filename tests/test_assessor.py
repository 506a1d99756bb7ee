"""Quality predicates over parsed records and the assessment container."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from fairprobe.assessor import (
    AssessmentResult,
    assess,
    assessment_to_dict,
    f_chrono,
    f_geo,
    f_lic,
)
from fairprobe.datacite import (
    DataciteRecord,
    DateEntry,
    GeoBox,
    GeoMalformed,
    GeoPlace,
    GeoPoint,
    RightsEntry,
    parse_record,
)


def record(**kwargs) -> DataciteRecord:
    base = dict(doi="10.1/x", repository="repo")
    base.update(kwargs)
    return DataciteRecord(**base)


@pytest.mark.parametrize(
    "dates,ok",
    [
        ([DateEntry("2016-09-08", "Created")], True),
        ([DateEntry("2016", "Issued"), DateEntry("2015-01-01", "Created")], True),
        ([DateEntry("2016-09-08", "Issued")], False),
        ([DateEntry("2016-09-08", "created")], False),  # exact type match
        ([DateEntry("   ", "Created")], False),
        ([], False),
    ],
)
def test_f_chrono(dates, ok):
    assert f_chrono(record(dates=list(dates))) is ok


@pytest.mark.parametrize(
    "locations,ok",
    [
        ([GeoPoint(47.5, 9.2)], True),
        ([GeoBox(-10.0, 5.0, 10.0, 40.0)], True),
        ([GeoPlace("Atlantic Ocean")], True),
        ([GeoMalformed("north-ish"), GeoPoint(47.5, 9.2)], True),
        ([GeoPoint(95.0, 200.0)], False),
        ([GeoMalformed("north-ish")], False),
        ([GeoPlace("  ")], False),
        ([], False),
    ],
)
def test_f_geo(locations, ok):
    assert f_geo(record(geo_locations=list(locations))) is ok


def test_f_geo_coordinate_requirement_drops_places():
    named_only = record(geo_locations=[GeoPlace("Atlantic Ocean")])
    assert f_geo(named_only)
    assert not f_geo(named_only, require_coordinates=True)
    with_point = record(
        geo_locations=[GeoPlace("Atlantic Ocean"), GeoPoint(1.0, 2.0)]
    )
    assert f_geo(with_point, require_coordinates=True)


@pytest.mark.parametrize(
    "rights,ok",
    [
        ([RightsEntry("CC0", "https://creativecommons.org/publicdomain/zero/1.0/")], True),
        ([RightsEntry("CC-BY", "http://creativecommons.org/licenses/by/3.0/")], True),
        ([RightsEntry("free text", None)], False),
        ([RightsEntry("urn", "urn:nbn:de:example")], False),
        ([RightsEntry("ftp", "ftp://example.org/license.txt")], False),
        ([RightsEntry("relative", "/licenses/cc0")], False),
        ([RightsEntry("no host", "https://")], False),
        ([], False),
    ],
)
def test_f_lic(rights, ok):
    assert f_lic(record(rights=list(rights))) is ok


def test_fixture_records_hit_expected_predicates(fixtures_dir):
    full = parse_record(
        ET.fromstring((fixtures_dir / "kernel4.xml").read_text(encoding="utf-8")),
        repository="example-rdr",
    )
    assert (f_chrono(full), f_geo(full), f_lic(full)) == (True, True, True)

    edge = parse_record(
        ET.fromstring((fixtures_dir / "edge_cases.xml").read_text(encoding="utf-8")),
        repository="example-rdr",
    )
    # blank Created value, only malformed geo, no http(s) rights link
    assert (f_chrono(edge), f_geo(edge), f_lic(edge)) == (False, False, False)


def test_assess_never_sets_retrievability(fixtures_dir):
    full = parse_record(
        ET.fromstring((fixtures_dir / "kernel4.xml").read_text(encoding="utf-8")),
        repository="example-rdr",
        oai_identifier="oai:example:1",
    )
    result = assess(full)
    assert result == AssessmentResult(
        doi="10.5072/example-full",
        repository="example-rdr",
        chrono=True,
        geo=True,
        lic=True,
        ret=False,
    )


def test_assessment_dict_round_trip():
    result = AssessmentResult(
        doi="10.1/x", repository="r", chrono=True, geo=False, lic=True, ret=True
    )
    assert json.loads(json.dumps(assessment_to_dict(result))) == {
        "doi": "10.1/x",
        "repository": "r",
        "chrono": True,
        "geo": False,
        "lic": True,
        "ret": True,
        "probe_trace": None,
    }
