"""OAI-PMH 2.0 client: format discovery and resumption-token harvesting.

Recovery is deliberately minimal and bounded: one retry after a timeout or
transport failure, one full-chain restart after a bad resumption token, and
503 flow control honoured only up to the request timeout. Anything beyond
that ends the harvest as partial with honest counts rather than guessing.
"""

from __future__ import annotations

import logging
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Iterator

import requests

from . import http
from .throttle import HostGate

logger = logging.getLogger(__name__)


class OaiError(Exception):
    pass


class EndpointUnresponsiveError(OaiError):
    """The endpoint kept failing after the retry budget was spent."""


class ProtocolError(OaiError):
    """The endpoint answered with an OAI error element."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


class PageParseError(OaiError):
    """A response body was not parseable XML."""


@dataclass(frozen=True)
class MetadataFormatInfo:
    prefix: str
    schema_url: str
    namespace: str


@dataclass(frozen=True)
class RawRecord:
    oai_identifier: str
    datestamp: str
    deleted: bool
    payload: str  # XML text of the metadata element, empty when deleted
    source_endpoint: str


@dataclass
class HarvestPolicy:
    request_timeout: float = 20.0
    retries_after_timeout: int = 1
    politeness_delay: float = 1000.0  # milliseconds between request starts
    max_pages: int | None = None

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.retries_after_timeout < 0:
            raise ValueError("retries_after_timeout must be non-negative")


@dataclass
class HarvestSummary:
    """What one ``harvest_records`` call fetched; ``a + b`` sums two calls.

    ``token`` is where a chain stopped by ``first_page_only`` continues.
    """

    pages: int = 0
    records: int = 0
    deleted: int = 0
    completed: bool = False
    complete_list_size: int | None = None
    token: str | None = None

    def __add__(self, later: HarvestSummary) -> HarvestSummary:
        return HarvestSummary(
            pages=self.pages + later.pages,
            records=self.records + later.records,
            deleted=self.deleted + later.deleted,
            completed=later.completed,
            complete_list_size=(
                self.complete_list_size
                if self.complete_list_size is not None
                else later.complete_list_size
            ),
            token=later.token,
        )


def _local_name(tag: object) -> str:
    if not isinstance(tag, str):
        return ""
    return tag.rsplit("}", 1)[-1]


def _children(element: ET.Element | None, name: str) -> Iterator[ET.Element]:
    if element is not None:
        for child in element:
            if _local_name(child.tag) == name:
                yield child


def _child(element: ET.Element | None, name: str) -> ET.Element | None:
    return next(_children(element, name), None)


def _verb_element(root: ET.Element, verb: str) -> ET.Element | None:
    """The reply's verb element, after raising the OAI error if there is one.

    Errors and the verb element are children of the root (OAI-PMH 2.0
    section 3.6), so a payload element with the same local name is never
    taken for either.
    """
    error = _child(root, "error")
    if error is not None:
        raise ProtocolError(error.get("code", ""), (error.text or "").strip())
    return _child(root, verb)


def _request(
    endpoint: str,
    params: dict[str, str],
    policy: HarvestPolicy,
    gate: HostGate,
    session: requests.Session,
) -> requests.Response:
    """One OAI request with bounded retries and 503 flow control.

    Politeness is per endpoint: one in-flight request and a minimum delay
    between request starts, independent of other endpoints on the host.
    """
    attempts = 1 + policy.retries_after_timeout
    waited_503 = 0.0
    last_error: Exception | None = None
    while attempts > 0:
        try:
            with gate.slot(endpoint):
                reply = session.get(
                    endpoint, params=params, timeout=policy.request_timeout
                )
        except requests.RequestException as exc:
            attempts -= 1
            last_error = exc
            logger.warning("request to %s failed (%s), %d attempts left",
                           endpoint, exc, attempts)
            continue
        if reply.status_code == 503:
            # OAI-PMH mandates honouring Retry-After, but only within the
            # timeout budget; a server stalling longer is unresponsive.
            try:
                delay = float(reply.headers.get("Retry-After", ""))
            except ValueError:
                delay = policy.request_timeout + 1.0
            if delay < 0 or waited_503 + delay > policy.request_timeout:
                raise EndpointUnresponsiveError(
                    f"{endpoint} kept asking to retry beyond the timeout budget"
                )
            waited_503 += delay
            time.sleep(delay)
            continue
        if reply.status_code != 200:
            attempts -= 1
            last_error = OaiError(f"HTTP {reply.status_code}")
            logger.warning("request to %s returned %d, %d attempts left",
                           endpoint, reply.status_code, attempts)
            continue
        return reply
    raise EndpointUnresponsiveError(f"{endpoint}: {last_error}")


def list_metadata_formats(
    endpoint: str,
    policy: HarvestPolicy | None = None,
    *,
    gate: HostGate | None = None,
    session: http.Sessions | None = None,
) -> list[MetadataFormatInfo]:
    """Ask the endpoint which metadata formats it serves."""
    policy = policy or HarvestPolicy()
    gate = gate or HostGate(policy.politeness_delay)
    with http.scope(session) as current:
        reply = _request(
            endpoint, {"verb": "ListMetadataFormats"}, policy, gate, current()
        )
    try:
        root = ET.fromstring(http.xml_payload(reply))
    except ET.ParseError as exc:
        raise PageParseError(f"{endpoint}: {exc}") from exc
    formats: list[MetadataFormatInfo] = []
    seen: set[str] = set()
    verb = _verb_element(root, "ListMetadataFormats")
    for el in _children(verb, "metadataFormat"):
        prefix = ""
        schema_url = ""
        namespace = ""
        for child in el:
            name = _local_name(child.tag)
            text = (child.text or "").strip()
            if name == "metadataPrefix":
                prefix = text
            elif name == "schema":
                schema_url = text
            elif name == "metadataNamespace":
                namespace = text
        if not prefix:
            logger.warning("%s advertised a format without a prefix", endpoint)
            continue
        if prefix in seen:
            logger.warning("%s advertised duplicate prefix %r", endpoint, prefix)
            continue
        seen.add(prefix)
        formats.append(
            MetadataFormatInfo(prefix=prefix, schema_url=schema_url, namespace=namespace)
        )
    return formats


def select_datacite_prefix(formats: list[MetadataFormatInfo]) -> str | None:
    """Pick the most Datacite-like prefix, or nothing.

    Priority: an exact ``datacite``, then any prefix starting with
    ``datacite``, then any starting with ``oai_datacite``. Within one tier
    the first advertised prefix wins.
    """
    for test in (
        lambda p: p == "datacite",
        lambda p: p.startswith("datacite"),
        lambda p: p.startswith("oai_datacite"),
    ):
        for info in formats:
            if test(info.prefix):
                return info.prefix
    return None


def _parse_page(
    body: bytes | str, endpoint: str
) -> tuple[list[RawRecord], str | None, int | None]:
    """One ListRecords body -> (records, token, completeListSize).

    The token is None when the element is absent and "" when present but
    empty; both end the chain, but only an absent/empty token means done.
    ``http.xml_payload`` decides whether the reply's charset or the XML
    declaration sets the encoding.
    """
    list_records = _verb_element(ET.fromstring(body), "ListRecords")
    records: list[RawRecord] = []
    for el in _children(list_records, "record"):
        header = _child(el, "header")
        if header is None:
            continue
        identifier = ""
        datestamp = ""
        for child in header:
            name = _local_name(child.tag)
            if name == "identifier":
                identifier = (child.text or "").strip()
            elif name == "datestamp":
                datestamp = (child.text or "").strip()
        deleted = header.get("status") == "deleted"
        payload = ""
        if not deleted:
            metadata = _child(el, "metadata")
            if metadata is not None:
                inner = next(iter(metadata), None)
                if inner is not None:
                    payload = ET.tostring(inner, encoding="unicode")
        if not identifier:
            logger.warning("record without identifier skipped")
            continue
        records.append(
            RawRecord(
                oai_identifier=identifier,
                datestamp=datestamp,
                deleted=deleted,
                payload=payload,
                source_endpoint=endpoint,
            )
        )

    token_el = _child(list_records, "resumptionToken")
    token = None if token_el is None else (token_el.text or "").strip()
    size: int | None = None
    if token_el is not None:
        raw_size = token_el.get("completeListSize")
        if raw_size:
            try:
                size = int(raw_size)
            except ValueError:
                size = None
    return records, token, size


def harvest_records(
    endpoint: str,
    prefix: str,
    policy: HarvestPolicy,
    sink: Callable[[RawRecord], None],
    *,
    gate: HostGate | None = None,
    seen: set[str] | None = None,
    session: http.Sessions | None = None,
    first_page_only: bool = False,
    after: HarvestSummary | None = None,
) -> HarvestSummary:
    """Walk the ListRecords chain, feeding each new record to the sink.

    Every non-deleted record reaches the sink at most once per identifier
    (first occurrence wins; pass ``seen`` to carry that state across calls).
    Deleted records are only counted. A chain that cannot be finished
    returns completed=False with the counts that were obtained.

    A chain may be walked in two calls: ``first_page_only`` ends the first
    call after page 1, with the next resumption token in the summary, and
    ``after`` (that summary) continues from the token. ``policy.max_pages``
    applies to the whole chain, and so does the one bad-token restart, which
    the second call is the only one to need; the returned summary counts
    only this call's pages.
    """
    gate = gate or HostGate(policy.politeness_delay)
    seen = set() if seen is None else seen
    earlier = after or HarvestSummary()
    summary = HarvestSummary()
    restart_budget = 1
    first_page_params = {"verb": "ListRecords", "metadataPrefix": prefix}
    if after is None:
        params = dict(first_page_params)
    elif after.token:
        params = {"verb": "ListRecords", "resumptionToken": after.token}
    else:
        raise ValueError(f"{endpoint}: the earlier call left no chain to continue")

    with http.scope(session) as current:
        client = current()
        while True:
            if (
                policy.max_pages is not None
                and earlier.pages + summary.pages >= policy.max_pages
            ):
                logger.warning(
                    "%s: page cap %d reached, harvest is partial",
                    endpoint,
                    policy.max_pages,
                )
                return summary
            try:
                reply = _request(endpoint, params, policy, gate, client)
            except EndpointUnresponsiveError as exc:
                logger.warning("%s: %s, harvest is partial", endpoint, exc)
                return summary
            try:
                records, token, size = _parse_page(http.xml_payload(reply), endpoint)
            except ET.ParseError as exc:
                # a skipped page would silently bias the corpus, so stop here
                logger.warning("%s: unparseable page (%s), harvest is partial",
                               endpoint, exc)
                return summary
            except ProtocolError as exc:
                if exc.code == "noRecordsMatch":
                    summary.completed = True
                    return summary
                if exc.code == "badResumptionToken" and restart_budget > 0:
                    restart_budget -= 1
                    logger.warning(
                        "%s: resumption token rejected, restarting chain",
                        endpoint,
                    )
                    params = dict(first_page_params)
                    continue
                logger.warning("%s: %s, harvest is partial", endpoint, exc)
                return summary

            summary.pages += 1
            if size is not None and summary.complete_list_size is None:
                summary.complete_list_size = size
            for record in records:
                if record.oai_identifier in seen:
                    continue
                seen.add(record.oai_identifier)
                if record.deleted:
                    summary.deleted += 1
                    continue
                sink(record)
                summary.records += 1

            if not token:
                summary.completed = True
                return summary
            if first_page_only:
                summary.token = token
                return summary
            params = {"verb": "ListRecords", "resumptionToken": token}


def estimate_list_size(
    endpoint: str,
    prefix: str,
    policy: HarvestPolicy,
    *,
    gate: HostGate | None = None,
    session: http.Sessions | None = None,
) -> int | None:
    """Size estimate from the first page's completeListSize, if advertised.

    Single-page lists have no resumption token; the page's own record count
    is the exact size then. Returns None when no estimate is possible.
    """
    first = harvest_records(
        endpoint, prefix, policy, lambda record: None,
        gate=gate, session=session, first_page_only=True,
    )
    if first.complete_list_size is not None:
        return first.complete_list_size
    if first.completed:
        return first.records + first.deleted
    return None
