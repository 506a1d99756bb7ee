"""Kernel-4 shaped XML covering exactly the modelled fields of a record.

Reparsing the output yields an equal record; the round-trip tests lean on
that to build payloads from records.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from fairprobe.datacite import DataciteRecord, GeoBox, GeoPlace, GeoPoint


def to_canonical_xml(record: DataciteRecord) -> str:
    parts: list[str] = ['<resource xmlns="http://datacite.org/schema/kernel-4">']
    parts.append(
        f'  <identifier identifierType="DOI">{escape(record.doi)}</identifier>'
    )
    if record.resource_type_general is not None:
        parts.append(
            f"  <resourceType resourceTypeGeneral={quoteattr(record.resource_type_general)}/>"
        )
    if record.formats:
        parts.append("  <formats>")
        for fmt in record.formats:
            parts.append(f"    <format>{escape(fmt)}</format>")
        parts.append("  </formats>")
    if record.dates:
        parts.append("  <dates>")
        for date in record.dates:
            parts.append(
                f"    <date dateType={quoteattr(date.date_type)}>{escape(date.value)}</date>"
            )
        parts.append("  </dates>")
    if record.geo_locations:
        parts.append("  <geoLocations>")
        for loc in record.geo_locations:
            parts.append("    <geoLocation>")
            if isinstance(loc, GeoPoint):
                parts.append("      <geoLocationPoint>")
                parts.append(f"        <pointLatitude>{loc.lat!r}</pointLatitude>")
                parts.append(f"        <pointLongitude>{loc.lon!r}</pointLongitude>")
                parts.append("      </geoLocationPoint>")
            elif isinstance(loc, GeoBox):
                parts.append("      <geoLocationBox>")
                parts.append(f"        <southBoundLatitude>{loc.south!r}</southBoundLatitude>")
                parts.append(f"        <westBoundLongitude>{loc.west!r}</westBoundLongitude>")
                parts.append(f"        <northBoundLatitude>{loc.north!r}</northBoundLatitude>")
                parts.append(f"        <eastBoundLongitude>{loc.east!r}</eastBoundLongitude>")
                parts.append("      </geoLocationBox>")
            elif isinstance(loc, GeoPlace):
                parts.append(
                    f"      <geoLocationPlace>{escape(loc.text)}</geoLocationPlace>"
                )
            else:
                # malformed content survives as the raw text it came from
                parts.append(
                    f"      <geoLocationPoint>{escape(loc.raw)}</geoLocationPoint>"
                )
            parts.append("    </geoLocation>")
        parts.append("  </geoLocations>")
    if record.rights:
        parts.append("  <rightsList>")
        for entry in record.rights:
            attr = (
                f" rightsURI={quoteattr(entry.rights_uri)}"
                if entry.rights_uri is not None
                else ""
            )
            parts.append(f"    <rights{attr}>{escape(entry.text)}</rights>")
        parts.append("  </rightsList>")
    parts.append("</resource>")
    return "\n".join(parts)
