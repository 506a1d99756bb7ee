"""Namespace-blind lookups on ElementTree elements.

Registry, OAI-PMH and Datacite payloads come with or without namespaces and
with prefixes that vary by provider, so elements and attributes are matched
by their local name only.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET


def local_name(tag: object) -> str:
    """The name without its ``{namespace}`` part; "" for comments and PIs."""
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def children(element: ET.Element | None, name: str) -> list[ET.Element]:
    """The element's direct children with this local name, in order."""
    if element is None:
        return []
    return [el for el in element if local_name(el.tag) == name]


def child(element: ET.Element | None, name: str) -> ET.Element | None:
    """The element's first direct child with this local name."""
    if element is not None:
        for el in element:
            if local_name(el.tag) == name:
                return el
    return None


def attr(element: ET.Element, name: str) -> str | None:
    """The value of the first attribute with this local name."""
    for key, value in element.attrib.items():
        if local_name(key) == name:
            return value
    return None
