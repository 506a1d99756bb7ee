"""Datacite parsing: both kernel generations, the envelope, and the filter."""

from __future__ import annotations

import itertools
import json
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from fairprobe import mockrdr
from fairprobe.datacite import (
    DataciteRecord,
    DateEntry,
    GeoBox,
    GeoMalformed,
    GeoPlace,
    GeoPoint,
    MissingIdentifierError,
    NotDataciteError,
    RecordParseError,
    RightsEntry,
    is_image_format,
    is_of_interest,
    media_type,
    parse_record,
    record_from_dict,
    record_to_dict,
)

from canonical_xml import to_canonical_xml


def load(fixtures_dir, name: str) -> ET.Element:
    return ET.fromstring((fixtures_dir / name).read_text(encoding="utf-8"))


def test_kernel4_full_record(fixtures_dir):
    record = parse_record(
        load(fixtures_dir, "kernel4.xml"),
        repository="example-rdr",
        oai_identifier="oai:example:1",
    )
    assert record.doi == "10.5072/example-full"
    assert record.repository == "example-rdr"
    assert record.oai_identifier == "oai:example:1"
    assert record.resource_type_general == "Image"
    assert record.formats == ["image/png", "text/plain"]
    assert record.dates == [
        DateEntry(value="2016-09-08", date_type="Created"),
        DateEntry(value="2017-01-02", date_type="Issued"),
    ]
    assert record.geo_locations == [
        GeoPlace(text="Atlantic Ocean"),
        GeoPoint(lat=-31.233, lon=-67.302),
        GeoBox(south=41.09, west=-71.032, north=42.893, east=-68.211),
    ]
    assert record.rights == [
        RightsEntry(
            text="CC0 1.0",
            rights_uri="https://creativecommons.org/publicdomain/zero/1.0/",
        )
    ]


def test_kernel3_whitespace_coordinates(fixtures_dir):
    record = parse_record(load(fixtures_dir, "kernel3.xml"))
    assert record.doi == "10.5072/example-k3"
    assert record.geo_locations == [
        GeoPoint(lat=47.5, lon=9.2),
        GeoBox(south=-10.5, west=5.25, north=10.5, east=40.125),
    ]
    assert record.formats == ["IMAGE/TIFF; compression=lzw"]


def test_envelope_is_unwrapped(fixtures_dir):
    record = parse_record(load(fixtures_dir, "wrapped.xml"))
    assert record.doi == "10.5072/wrapped"
    assert record.resource_type_general == "Image"
    assert record.dates == [DateEntry(value="2015-05-05", date_type="Created")]


def test_record_without_payload_raises():
    with pytest.raises(RecordParseError):
        parse_record(None, oai_identifier="oai:example:deleted")


def test_non_datacite_payload_raises(fixtures_dir):
    with pytest.raises(NotDataciteError):
        parse_record(load(fixtures_dir, "not_datacite.xml"))


def test_blank_identifier_raises(fixtures_dir):
    with pytest.raises(MissingIdentifierError):
        parse_record(load(fixtures_dir, "no_identifier.xml"))


def test_edge_cases_keep_malformed_geo(fixtures_dir):
    record = parse_record(load(fixtures_dir, "edge_cases.xml"))
    assert record.geo_locations == [
        GeoMalformed(raw="north-ish 9.2"),
        GeoMalformed(raw="somewhere east of the river"),
    ]
    assert not any(loc.valid() for loc in record.geo_locations)
    assert record.dates[0] == DateEntry(value="", date_type="Created")
    assert record.rights == [
        RightsEntry(text="free for academic use", rights_uri=None),
        RightsEntry(text="urn, not a link", rights_uri="urn:nbn:de:example"),
    ]


def geo_of(geo_location: str, kernel: int = 4) -> list:
    """The locations parse_record reads from one geoLocation element."""
    payload = (
        f'<resource xmlns="http://datacite.org/schema/kernel-{kernel}">'
        "<identifier>10.1/g</identifier>"
        f"<geoLocations><geoLocation>{geo_location}</geoLocation></geoLocations>"
        "</resource>"
    )
    return parse_record(ET.fromstring(payload)).geo_locations


@pytest.mark.parametrize(
    "kernel,geo_location,raw",
    [
        (3, "<geoLocationPoint>1 2 3</geoLocationPoint>", "1 2 3"),
        (3, "<geoLocationPoint>47.5</geoLocationPoint>", "47.5"),
        (4, "<geoLocationPoint/>", ""),
        (3, "<geoLocationBox>1 2 3</geoLocationBox>", "1 2 3"),
        (
            4,
            "<geoLocationBox><southBoundLatitude>1</southBoundLatitude>"
            "<westBoundLongitude>2</westBoundLongitude>"
            "<northBoundLatitude>3</northBoundLatitude></geoLocationBox>",
            "1 2 3",
        ),
        (
            4,
            "<geoLocationPoint><pointLongitude>9.2</pointLongitude></geoLocationPoint>",
            "9.2",
        ),
    ],
    ids=[
        "k3-point-of-three", "k3-point-of-one", "empty-point", "k3-box-of-three",
        "k4-box-without-east", "k4-point-without-latitude",
    ],
)
def test_a_wrong_number_count_is_malformed(kernel, geo_location, raw):
    assert geo_of(geo_location, kernel) == [GeoMalformed(raw=raw)]


@pytest.mark.parametrize(
    "kernel,geo_location,raw",
    [
        (3, "<geoLocationPoint>NaN Infinity</geoLocationPoint>", "NaN Infinity"),
        (
            4,
            "<geoLocationPoint><pointLatitude>NaN</pointLatitude>"
            "<pointLongitude>Infinity</pointLongitude></geoLocationPoint>",
            "NaN Infinity",
        ),
        (3, "<geoLocationBox>1 -inf 3 4</geoLocationBox>", "1 -inf 3 4"),
    ],
    ids=["k3-point", "k4-point", "k3-box"],
)
def test_a_number_that_is_not_finite_is_malformed(kernel, geo_location, raw):
    # JSON has no NaN or Infinity: a catalogue line must stay readable by
    # any JSON parser
    locations = geo_of(geo_location, kernel)
    assert locations == [GeoMalformed(raw=raw)]
    record = DataciteRecord(doi="10.1/g", geo_locations=locations)
    json.dumps(record_to_dict(record), allow_nan=False)


def test_rights_without_rights_list_element():
    payload = (
        '<resource xmlns="http://datacite.org/schema/kernel-3">'
        "<identifier>10.1/r</identifier>"
        '<rights rightsURI="https://example.org/l">direct child</rights>'
        "</resource>"
    )
    record = parse_record(ET.fromstring(payload))
    assert record.rights == [
        RightsEntry(text="direct child", rights_uri="https://example.org/l")
    ]


@pytest.mark.parametrize(
    "lat,lon,ok",
    [
        (0.0, 0.0, True),
        (90.0, 180.0, True),
        (-90.0, -180.0, True),
        (90.1, 0.0, False),
        (-90.1, 0.0, False),
        (0.0, 180.1, False),
        (0.0, -180.1, False),
    ],
)
def test_point_validity(lat, lon, ok):
    assert GeoPoint(lat=lat, lon=lon).valid() is ok


@pytest.mark.parametrize(
    "south,west,north,east,ok",
    [
        (-10.0, 5.0, 10.0, 40.0, True),
        (10.0, 5.0, -10.0, 40.0, False),  # south above north
        (-10.0, 170.0, 10.0, -170.0, True),  # dateline crossing
        (-95.0, 5.0, 10.0, 40.0, False),
        (-10.0, 181.0, 10.0, 40.0, False),
        (0.0, 0.0, 0.0, 0.0, True),  # degenerate but in bounds
    ],
)
def test_box_validity(south, west, north, east, ok):
    assert GeoBox(south=south, west=west, north=north, east=east).valid() is ok


def test_place_and_malformed_validity():
    assert GeoPlace(text="Lake Constance").valid()
    assert not GeoPlace(text="   ").valid()
    assert not GeoMalformed(raw="anything").valid()


@pytest.mark.parametrize(
    "value,expected",
    [
        ("image/png", "image/png"),
        (" IMAGE/TIFF ; compression=lzw", "image/tiff"),
        ("text/plain;charset=utf-8", "text/plain"),
    ],
)
def test_media_type_normalisation(value, expected):
    assert media_type(value) == expected


@pytest.mark.parametrize(
    "value,ok",
    [
        ("image/png", True),
        ("IMAGE/JPEG; quality=9", True),
        ("image/", False),
        ("text/plain", False),
        ("imaginary/fmt", False),
    ],
)
def test_is_image_format(value, ok):
    assert is_image_format(value) is ok


@pytest.mark.parametrize(
    "type_general,formats,interesting",
    [
        ("Image", [], True),
        ("image", [], True),
        ("IMAGE", ["text/csv"], True),
        ("Dataset", ["image/png"], True),
        ("Dataset", ["IMAGE/TIFF; x=y"], True),
        ("Dataset", ["image/*"], True),
        ("Dataset", [" Image/* "], True),
        ("Dataset", ["text/csv"], False),
        (None, [], False),
        ("Dataset", ["image/"], False),
    ],
)
def test_is_of_interest(type_general, formats, interesting):
    record = DataciteRecord(
        doi="10.1/x", resource_type_general=type_general, formats=list(formats)
    )
    assert is_of_interest(record) is interesting


@pytest.mark.parametrize(
    "fixture",
    ["kernel4.xml", "kernel3.xml", "wrapped.xml", "edge_cases.xml"],
)
def test_canonical_xml_round_trip(fixtures_dir, fixture):
    record = parse_record(
        load(fixtures_dir, fixture), repository="r", oai_identifier="oai:r:0"
    )
    again = parse_record(
        ET.fromstring(to_canonical_xml(record)),
        repository="r",
        oai_identifier="oai:r:0",
    )
    assert again == record


@pytest.mark.parametrize(
    "fixture",
    ["kernel4.xml", "kernel3.xml", "wrapped.xml", "edge_cases.xml"],
)
def test_dict_round_trip_through_json(fixtures_dir, fixture):
    record = parse_record(
        load(fixtures_dir, fixture), repository="r", oai_identifier="oai:r:0"
    )
    wire = json.loads(json.dumps(record_to_dict(record)))
    assert record_from_dict(wire) == record


def test_dict_round_trip_holds_every_geo_kind():
    record = DataciteRecord(
        doi="10.1/all",
        resource_type_general="Image",
        formats=["image/png"],
        dates=[DateEntry(value="2020-01-02", date_type="Created")],
        geo_locations=[
            GeoPoint(lat=1.5, lon=-2.0),
            GeoBox(south=1.0, west=2.0, north=3.0, east=4.0),
            GeoPlace(text="Kiel"),
            GeoMalformed(raw="north-ish"),
        ],
        rights=[
            RightsEntry(text="CC BY", rights_uri="https://example.org/by"),
            RightsEntry(text="free"),
        ],
        repository="r",
        oai_identifier="oai:r:1",
    )
    data = record_to_dict(record)
    assert data == {
        "doi": "10.1/all",
        "resource_type_general": "Image",
        "formats": ["image/png"],
        "dates": [{"value": "2020-01-02", "date_type": "Created"}],
        "geo_locations": [
            {"kind": "point", "lat": 1.5, "lon": -2.0},
            {"kind": "box", "south": 1.0, "west": 2.0, "north": 3.0, "east": 4.0},
            {"kind": "place", "text": "Kiel"},
            {"kind": "malformed", "raw": "north-ish"},
        ],
        "rights": [
            {"text": "CC BY", "rights_uri": "https://example.org/by"},
            {"text": "free", "rights_uri": None},
        ],
        "repository": "r",
        "oai_identifier": "oai:r:1",
    }
    assert record_from_dict(json.loads(json.dumps(data))) == record
    # the dict is the record's copy, not a view of it
    data["formats"].append("text/plain")
    data["dates"][0]["value"] = ""
    assert record.formats == ["image/png"]
    assert record.dates[0].value == "2020-01-02"


def intent_payloads() -> list[str]:
    """A payload for every combination of the mock's record intents."""
    return [
        mockrdr.record_payload(
            mockrdr.MockRecord(
                doi=f"10.1/{index}",
                of_interest=of_interest,
                chrono=chrono,
                geo=geo,
                lic=lic,
                retrieval=retrieval,
                kernel=kernel,
                geo_style=geo_style,
                interest_via=interest_via,
                wrapped=wrapped,
            )
        )
        for index, (
            of_interest, chrono, geo, lic, retrieval, kernel, geo_style,
            interest_via, wrapped,
        ) in enumerate(
            itertools.product(
                (True, False), (True, False), (True, False), (True, False),
                ("landing", "link"), (3, 4), ("point", "box", "place"),
                ("type", "format", "wildcard"), (False, True),
            )
        )
    ]


MALFORMED = [
    "<oai_dc><title>no resource here</title></oai_dc>",
    '<resource><resourceType resourceTypeGeneral="Image"/></resource>',
    '<resource><identifier> </identifier><formats><format>text/csv</format>'
    "</formats></resource>",
]


def test_images_only_parse_matches_the_full_parse(fixtures_dir):
    payloads = [
        *(ET.fromstring(text) for text in intent_payloads() + MALFORMED),
        *(load(fixtures_dir, path.name) for path in sorted(fixtures_dir.glob("*.xml"))),
        None,  # a record without metadata
    ]
    outcomes = Counter()
    for payload in payloads:
        try:
            full = parse_record(payload, repository="r", oai_identifier="oai:r:1")
        except RecordParseError as exc:
            with pytest.raises(type(exc)) as caught:
                parse_record(
                    payload, repository="r", oai_identifier="oai:r:1", images_only=True
                )
            assert str(caught.value) == str(exc)
            outcomes["error"] += 1
            continue
        images_only = parse_record(
            payload, repository="r", oai_identifier="oai:r:1", images_only=True
        )
        if is_of_interest(full):
            assert record_to_dict(images_only) == record_to_dict(full)
            outcomes["image"] += 1
        else:
            assert images_only is None
            outcomes["not an image"] += 1
    # every branch was taken: both mock halves and the six broken payloads
    assert outcomes["image"] > 576 and outcomes["not an image"] >= 576
    assert outcomes["error"] == 6
