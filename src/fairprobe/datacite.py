"""Datacite XML parsing and the image-of-interest filter.

Extraction is namespace-agnostic and keyed on local element names so that
kernel 3 and kernel 4 payloads (and the ``oai_datacite`` envelope around
them) all map onto the same record type. Anything the record model does not
cover is ignored; geo children whose numbers do not parse are kept as
``GeoMalformed`` so they can be counted without ever validating.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Literal, Union, overload

from .xmltree import attr, child, children, local_name


class RecordParseError(Exception):
    """Base class for payloads that cannot become a DataciteRecord."""


class NotDataciteError(RecordParseError):
    """No element with local name ``resource`` anywhere in the payload."""


class MissingIdentifierError(RecordParseError):
    """Datacite mandates the identifier; a record without one is unusable."""


@dataclass(frozen=True)
class DateEntry:
    value: str
    date_type: str  # dateType attribute, preserved verbatim (case-sensitive)


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lon: float

    def valid(self) -> bool:
        return -90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0


@dataclass(frozen=True)
class GeoBox:
    south: float
    west: float
    north: float
    east: float

    def valid(self) -> bool:
        # West may exceed east (dateline crossing); only the latitude order
        # is constrained.
        corners_ok = (
            GeoPoint(self.south, self.west).valid()
            and GeoPoint(self.north, self.east).valid()
        )
        return corners_ok and self.south <= self.north

@dataclass(frozen=True)
class GeoPlace:
    text: str

    def valid(self) -> bool:
        return bool(self.text.strip())


@dataclass(frozen=True)
class GeoMalformed:
    raw: str

    def valid(self) -> bool:
        return False


GeoLocation = Union[GeoPoint, GeoBox, GeoPlace, GeoMalformed]


@dataclass(frozen=True)
class RightsEntry:
    text: str
    rights_uri: str | None = None


@dataclass
class DataciteRecord:
    doi: str
    resource_type_general: str | None = None
    formats: list[str] = field(default_factory=list)
    dates: list[DateEntry] = field(default_factory=list)
    geo_locations: list[GeoLocation] = field(default_factory=list)
    rights: list[RightsEntry] = field(default_factory=list)
    repository: str = ""
    oai_identifier: str = ""


def _text(element: ET.Element | None) -> str:
    if element is None or element.text is None:
        return ""
    return element.text.strip()


def _flat_text(element: ET.Element) -> str:
    return " ".join("".join(element.itertext()).split())


def _parse_numbers(element: ET.Element, names: tuple[str, ...], cls: type) -> GeoLocation:
    """A point or box from kernel 4's child elements ``names``, or else from
    kernel 3's numbers in the element text in the same order; malformed
    unless there is one finite number for each of ``cls``'s fields."""
    found = [child(element, name) for name in names]
    if any(el is not None for el in found):
        parts = [_text(el) for el in found]
    else:
        parts = _flat_text(element).split()
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        numbers = []
    if len(numbers) != len(names) or not all(map(math.isfinite, numbers)):
        return GeoMalformed(raw=" ".join(p for p in parts if p) or _flat_text(element))
    return cls(*numbers)


# kernel 4's number elements of a point and a box, in their fields' order
_POINT_NUMBERS = ("pointLatitude", "pointLongitude")
_BOX_NUMBERS = (
    "southBoundLatitude", "westBoundLongitude", "northBoundLatitude", "eastBoundLongitude"
)


def _parse_geo_location(element: ET.Element) -> list[GeoLocation]:
    out: list[GeoLocation] = []
    for el in element:
        name = local_name(el.tag)
        if name == "geoLocationPoint":
            out.append(_parse_numbers(el, _POINT_NUMBERS, GeoPoint))
        elif name == "geoLocationBox":
            out.append(_parse_numbers(el, _BOX_NUMBERS, GeoBox))
        elif name == "geoLocationPlace":
            out.append(GeoPlace(text=_flat_text(el)))
        # polygons and anything newer are not modelled
    if not out and element.text and element.text.strip():
        # a bare geoLocation with loose text is still an annotation attempt
        out.append(GeoMalformed(raw=_flat_text(element)))
    return out


@overload
def parse_record(
    payload: ET.Element | None,
    *,
    repository: str = "",
    oai_identifier: str = "",
    images_only: Literal[False] = False,
) -> DataciteRecord: ...


@overload
def parse_record(
    payload: ET.Element | None,
    *,
    repository: str = "",
    oai_identifier: str = "",
    images_only: bool,
) -> DataciteRecord | None: ...


def parse_record(
    payload: ET.Element | None,
    *,
    repository: str = "",
    oai_identifier: str = "",
    images_only: bool = False,
) -> DataciteRecord | None:
    """Parse one Datacite metadata element into a DataciteRecord.

    The payload is the element inside a record's ``metadata``, as
    ``oaipmh.parse_page`` gives it. Raises RecordParseError for a record
    without one, NotDataciteError or MissingIdentifierError; everything
    else the payload contains is either mapped or ignored.

    With ``images_only``, a record that ``is_of_interest`` rejects is None.
    The identifier, resourceType and formats decide that, so such a record
    costs no reading of its dates, geoLocations or rights; the errors
    raised are the same.
    """
    if payload is None:
        raise RecordParseError("record has no metadata payload")

    if local_name(payload.tag) == "resource":
        resource = payload
    else:
        resource = next(
            (el for el in payload.iter() if local_name(el.tag) == "resource"), None
        )
        if resource is None:
            raise NotDataciteError(
                f"no resource element (root is {local_name(payload.tag)!r})"
            )

    # each local name's first child, as ``child`` would find it
    first: dict[str, ET.Element] = {}
    for el in resource:
        first.setdefault(local_name(el.tag), el)

    doi = _text(first.get("identifier"))
    if not doi:
        raise MissingIdentifierError("record carries no identifier")

    record = DataciteRecord(
        doi=doi, repository=repository, oai_identifier=oai_identifier
    )

    resource_type = first.get("resourceType")
    if resource_type is not None:
        record.resource_type_general = attr(resource_type, "resourceTypeGeneral")

    formats = first.get("formats")
    if formats is not None:
        record.formats = [_text(el) for el in children(formats, "format")]

    if images_only and not is_of_interest(record):
        return None

    dates = first.get("dates")
    if dates is not None:
        record.dates = [
            DateEntry(value=_text(el), date_type=attr(el, "dateType") or "")
            for el in children(dates, "date")
        ]

    geo = first.get("geoLocations")
    if geo is not None:
        for loc in children(geo, "geoLocation"):
            record.geo_locations.extend(_parse_geo_location(loc))

    rights_list = first.get("rightsList")
    rights_elements = (
        children(rights_list, "rights") if rights_list is not None
        else children(resource, "rights")
    )
    record.rights = [
        RightsEntry(text=_flat_text(el), rights_uri=attr(el, "rightsURI"))
        for el in rights_elements
    ]

    return record


def media_type(value: str) -> str:
    """Bare media type: parameters after ';' dropped, trimmed, lowercased."""
    return value.split(";", 1)[0].strip().lower()


def is_image_format(value: str) -> bool:
    bare = media_type(value)
    return bare.startswith("image/") and len(bare) > len("image/")


def is_of_interest(record: DataciteRecord) -> bool:
    """Is this record an image, i.e. worth assessing for the use case?

    True when the general resource type says Image (any case) or at least
    one declared format is an image media type. A literal ``image/*``
    counts; media-type parameters and case never matter.
    """
    if (record.resource_type_general or "").strip().lower() == "image":
        return True
    return any(is_image_format(f) or media_type(f) == "image/*" for f in record.formats)


# --- dict round-trip for the catalogue store ---------------------------------

_GEO_KINDS = {"point": GeoPoint, "box": GeoBox, "place": GeoPlace, "malformed": GeoMalformed}
_KIND_OF = {cls: kind for kind, cls in _GEO_KINDS.items()}


def record_to_dict(record: DataciteRecord) -> dict[str, Any]:
    return {
        **vars(record),
        "formats": list(record.formats),
        "dates": [{**vars(d)} for d in record.dates],
        "geo_locations": [
            {"kind": _KIND_OF[type(g)], **vars(g)} for g in record.geo_locations
        ],
        "rights": [{**vars(r)} for r in record.rights],
    }


def record_from_dict(data: dict[str, Any]) -> DataciteRecord:
    return DataciteRecord(**{
        **data,
        "formats": list(data.get("formats", [])),
        "dates": [DateEntry(**d) for d in data.get("dates", [])],
        "geo_locations": [
            _GEO_KINDS[g["kind"]](**{k: v for k, v in g.items() if k != "kind"})
            for g in data.get("geo_locations", [])
        ],
        "rights": [RightsEntry(**r) for r in data.get("rights", [])],
    })
