"""OAI-PMH 2.0 client: format discovery and resumption-token harvesting.

Recovery is deliberately minimal and bounded: one retry after a timeout, a
transport failure or a non-200 reply other than a 503 with a positive
Retry-After, one full-chain restart after a bad resumption token, and 503
flow control honoured only up to the request timeout. A request that meets
more redirects than ``http.MAX_REDIRECTS`` is not retried. Anything beyond
that ends the harvest as partial with honest counts rather than guessing.

A request belongs to a job written as a generator of requests: ``formats``
and ``walk_records`` yield each ``http.Request`` and are sent its answer,
so that the pipeline schedules them per endpoint
(``throttle.run_per_host``). ``list_metadata_formats``, ``harvest_records``
and ``estimate_list_size`` send one job's requests in turn on the calling
thread.
"""

from __future__ import annotations

import logging
import math
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable, Generator, TypeVar

from . import http
from .config import RunConfig
from .throttle import HostGate, NotBefore, run_alone
from .xmltree import child, children, local_name

logger = logging.getLogger(__name__)

ATTEMPTS = 2  # of one OAI request: the first and one retry

Result = TypeVar("Result")


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
class RawRecord:
    oai_identifier: str
    deleted: bool
    payload: ET.Element | None  # metadata's first child; None if deleted or absent


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


def _verb_element(root: ET.Element, verb: str) -> ET.Element | None:
    """The reply's verb element, after raising the OAI error if there is one.

    Errors and the verb element are children of the root (OAI-PMH 2.0
    section 3.6), so a payload element with the same local name is never
    taken for either.
    """
    error = child(root, "error")
    if error is not None:
        raise ProtocolError(error.get("code", ""), (error.text or "").strip())
    return child(root, verb)


def _request(
    endpoint: str, params: dict[str, str], config: RunConfig
) -> Generator[http.Request | NotBefore, http.Answer, http.Reply]:
    """One OAI request with one retry and 503 flow control.

    Yields each attempt's request and is sent its answer
    (``http.Sessions.ask``). Politeness is the caller's, per endpoint: one
    in-flight request and a minimum delay between request starts,
    independent of other endpoints on the host. The attempt after a
    ``Retry-After`` is yielded as a ``throttle.NotBefore``, so that the
    wait is its endpoint's alone, and nothing sleeps in the job.
    """
    attempts = ATTEMPTS
    waited_503 = 0.0
    last_error: Exception | None = None
    later: float | None = None  # when the attempt after a Retry-After may start
    while attempts > 0:
        request = endpoint, params
        reply, error = yield request if later is None else NotBefore(request, later)
        later = None
        if isinstance(error, http.TooManyRedirects):
            # a redirect loop answers a retry with the same loop
            raise EndpointUnresponsiveError(f"{endpoint}: {error}") from error
        if reply is None:
            attempts -= 1
            last_error = error
            logger.warning("request to %s failed (%s), %d attempts left",
                           endpoint, error, attempts)
            continue
        if reply.status == 503:
            # OAI-PMH mandates honouring Retry-After, but only within the
            # timeout budget; a server stalling longer is unresponsive. The
            # budget counts RFC 9110 delay-seconds, a fraction rounded up, so
            # each wait spends at least a second of it.
            try:
                delay = float(reply.headers.get("retry-after", ""))
            except ValueError:
                delay = math.nan
            if not math.isfinite(delay) or delay < 0 or waited_503 + delay > config.timeout:
                raise EndpointUnresponsiveError(
                    f"{endpoint} kept asking to retry beyond the timeout budget"
                )
            if delay > 0:
                waited_503 += math.ceil(delay)
                later = time.monotonic() + delay
                continue
            # an immediate retry spends an attempt, or the loop has no bound
        if reply.status != 200:
            attempts -= 1
            last_error = OaiError(f"HTTP {reply.status}")
            logger.warning("request to %s returned %d, %d attempts left",
                           endpoint, reply.status, attempts)
            continue
        return reply
    raise EndpointUnresponsiveError(f"{endpoint}: {last_error}")


def _run(
    job: Generator[http.Request | NotBefore, http.Answer, Result],
    config: RunConfig,
    gate: HostGate,
    session: http.Sessions,
) -> Result:
    """A job of OAI requests run on the calling thread, each in its
    endpoint's ``gate`` slot."""
    return run_alone(
        job,
        send=lambda request: session.ask(request, config.timeout),
        host=http.request_url,
        gate=gate,
    )


def formats(
    endpoint: str, config: RunConfig
) -> Generator[http.Request | NotBefore, http.Answer, list[str]]:
    """The metadata prefixes the endpoint advertises, in its order, each
    once, as the request that asks for them (see ``_request``)."""
    reply = yield from _request(endpoint, {"verb": "ListMetadataFormats"}, config)
    try:
        root = ET.fromstring(http.xml_payload(reply))
    except ET.ParseError as exc:
        raise PageParseError(f"{endpoint}: {exc}") from exc
    prefixes: list[str] = []
    verb = _verb_element(root, "ListMetadataFormats")
    for el in children(verb, "metadataFormat"):
        prefix = ""
        for field in el:
            if local_name(field.tag) == "metadataPrefix":
                prefix = (field.text or "").strip()
        if not prefix:
            logger.warning("%s advertised a format without a prefix", endpoint)
            continue
        if prefix in prefixes:
            logger.warning("%s advertised duplicate prefix %r", endpoint, prefix)
            continue
        prefixes.append(prefix)
    return prefixes


def list_metadata_formats(
    endpoint: str,
    config: RunConfig,
    *,
    gate: HostGate,
    session: http.Sessions,
) -> list[str]:
    """``formats`` on the calling thread."""
    return _run(formats(endpoint, config), config, gate, session)


def select_datacite_prefix(prefixes: list[str]) -> str | None:
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
        for prefix in prefixes:
            if test(prefix):
                return prefix
    return None


def parse_page(body: bytes | str) -> tuple[list[RawRecord], str | None, int | None]:
    """One ListRecords body -> (records, token, completeListSize).

    The token is None when the element is absent and "" when present but
    empty; both end the chain, but only an absent/empty token means done.
    ``http.xml_payload`` decides whether the reply's charset or the XML
    declaration sets the encoding. A record's payload is an element of the
    parsed page, so the page stays in memory while its records do. A record
    whose header has no identifier is listed with an empty one.
    """
    list_records = _verb_element(ET.fromstring(body), "ListRecords")
    records: list[RawRecord] = []
    token_el: ET.Element | None = None
    for el in () if list_records is None else list_records:
        name = local_name(el.tag)
        if name == "resumptionToken" and token_el is None:
            token_el = el
        if name != "record":
            continue
        header = child(el, "header")
        if header is None:
            continue
        identifier = ""
        for field in header:
            if local_name(field.tag) == "identifier":
                identifier = (field.text or "").strip()
        deleted = header.get("status") == "deleted"
        metadata = None if deleted else child(el, "metadata")
        payload = None if metadata is None else next(iter(metadata), None)
        records.append(RawRecord(identifier, deleted, payload))

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


def walk_records(
    endpoint: str,
    prefix: str,
    config: RunConfig,
    sink: Callable[[bytes | str, list[RawRecord]], None],
    *,
    seen: set[str] | None = None,
    first_page_only: bool = False,
    token: str | None = None,
) -> Generator[http.Request | NotBefore, http.Answer, HarvestSummary]:
    """Walk the ListRecords chain, feeding each page to the sink; yields
    each request it makes (see ``_request``).

    The sink gets every parsed page once: its body as ``parse_page`` read
    it, and the records the page gave that were taken, in page order. A
    non-deleted record is taken at most once per identifier (first
    occurrence wins, a deleted one included; pass ``seen`` to carry that
    state across calls). Deleted records are only counted. A chain that
    cannot be finished returns completed=False with the counts that were
    obtained.

    A chain may be walked in two calls: ``first_page_only`` ends the first
    call after page 1, with the next resumption token in the summary, and
    ``token`` (that token) continues from it; without one the walk starts
    at page 1. The one bad-token restart applies to the whole chain, and the
    second call is the only one to need it; the returned summary counts only
    this call's pages.
    """
    seen = set() if seen is None else seen
    summary = HarvestSummary()
    restart_budget = 1
    first_page_params = {"verb": "ListRecords", "metadataPrefix": prefix}
    if token is None:
        params = dict(first_page_params)
    else:
        params = {"verb": "ListRecords", "resumptionToken": token}

    while True:
        try:
            reply = yield from _request(endpoint, params, config)
        except EndpointUnresponsiveError as exc:
            logger.warning("%s: %s, harvest is partial", endpoint, exc)
            return summary
        body = http.xml_payload(reply)
        try:
            records, token, size = parse_page(body)
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
        taken: list[RawRecord] = []
        for record in records:
            if not record.oai_identifier:
                logger.warning("%s: record without identifier skipped", endpoint)
                continue
            if record.oai_identifier in seen:
                continue
            seen.add(record.oai_identifier)
            if record.deleted:
                summary.deleted += 1
                continue
            taken.append(record)
        sink(body, taken)
        summary.records += len(taken)

        if not token:
            summary.completed = True
            return summary
        if first_page_only:
            summary.token = token
            return summary
        params = {"verb": "ListRecords", "resumptionToken": token}


def harvest_records(
    endpoint: str,
    prefix: str,
    config: RunConfig,
    sink: Callable[[bytes | str, list[RawRecord]], None],
    *,
    gate: HostGate,
    session: http.Sessions,
    seen: set[str] | None = None,
    first_page_only: bool = False,
    token: str | None = None,
) -> HarvestSummary:
    """``walk_records`` on the calling thread."""
    walk = walk_records(
        endpoint, prefix, config, sink,
        seen=seen, first_page_only=first_page_only, token=token,
    )
    return _run(walk, config, gate, session)


def estimate_list_size(
    endpoint: str,
    prefix: str,
    config: RunConfig,
    *,
    gate: HostGate,
    session: http.Sessions,
) -> int | None:
    """Size estimate from the first page's completeListSize, if advertised.

    Single-page lists have no resumption token; the page's own record count
    is the exact size then. Returns None when no estimate is possible.
    """
    first = harvest_records(
        endpoint, prefix, config, lambda body, records: None,
        gate=gate, session=session, first_page_only=True,
    )
    if first.complete_list_size is not None:
        return first.complete_list_size
    if first.completed:
        return first.records + first.deleted
    return None
