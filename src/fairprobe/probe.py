"""Retrievability probing: resolve a record's DOI and negotiate for an image.

Phase 1 asks for ``image/*`` and follows the redirect chain the resolver
produces. Phase 2 runs only when that failed and the last reply offered a
Link header: a link-value whose type parameter matches an annotated image
format is fetched directly. Every failure is an outcome with a reason token,
never an exception; the trace records each request made.

A probe is a generator of its hops (``hops``), so it makes no request of
its own: step 5 schedules the hops of many probes per host
(``throttle.run_per_host``), and ``f_ret`` sends one probe's hops in turn.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from http.cookiejar import CookieJar
from typing import Any, Generator
from urllib.parse import urlparse

from requests.utils import parse_header_links

from . import http, wire
from .config import RunConfig
from .datacite import DataciteRecord
from .throttle import HostGate, run_alone

logger = logging.getLogger(__name__)

OUTCOME_CLIENT = "client_negotiated"
OUTCOME_LINK = "link_negotiated"
OUTCOME_FAILED = "failed"

REASON_NO_IMAGE = "no-image-content-type"
REASON_REDIRECT_LIMIT = "redirect-limit"
REASON_TIMEOUT = "timeout"
REASON_NO_LINK_MATCH = "no-link-match"
REASON_TRANSPORT = "transport"
REASON_NON_200 = "non-200"

# redirects a probe follows in one chain; ``http.MAX_REDIRECTS`` bounds the
# registry's and OAI-PMH's chains
REDIRECT_BUDGET = 10


@dataclass
class ProbeStep:
    url: str
    method: str
    request_accept: str
    status: int
    content_type: str | None
    link_header: str | None


@dataclass
class ProbeTrace:
    steps: list[ProbeStep] = field(default_factory=list)
    outcome: str = OUTCOME_FAILED
    reason: str | None = None
    elapsed: float = 0.0  # milliseconds


def _bare_type(value: str) -> str:
    """Media type without parameters, trimmed; case preserved."""
    return value.split(";", 1)[0].strip()


def is_image(content_type: str | None) -> bool:
    """Whether a Content-Type names an image: the media type without
    parameters, lowercased, starts with ``image/``."""
    return bool(content_type) and _bare_type(content_type).lower().startswith("image/")


# a probe's request: URL, Accept header, and the probe's own cookie jar
Hop = tuple[str, str, CookieJar]
# what a hop got: the reply, or the request error that stands in for one
Answer = http.Answer


def _follow_chain(
    start_url: str,
    accept: str,
    cookies: CookieJar,
    trace: ProbeTrace,
) -> Generator[Hop, Answer, tuple[http.Reply | None, str | None]]:
    """GET with manual redirect following; returns (terminal reply, reason).

    Yields each hop and is sent its answer. The Accept header is preserved
    across every hop. A reply is returned even on failure so the caller can
    inspect its Link header; reason is None exactly when the chain ended in
    some non-3xx status.
    """
    url = start_url
    redirects_left = REDIRECT_BUDGET
    while True:
        reply, failure = yield url, accept, cookies
        # no reply: status 0 keeps the attempt visible in the trace
        headers = {} if reply is None else reply.headers
        trace.steps.append(ProbeStep(
            url=url,
            method="GET",
            request_accept=accept,
            status=0 if reply is None else reply.status,
            content_type=headers.get("content-type"),
            link_header=headers.get("link"),
        ))
        if reply is None:
            # a refused connect or a failed name lookup is a transport failure
            timed_out = isinstance(failure, TimeoutError)
            return None, REASON_TIMEOUT if timed_out else REASON_TRANSPORT
        if reply.status in http.REDIRECT_CODES:
            location = reply.headers.get("location")
            if not location:
                return reply, REASON_NON_200
            if redirects_left == 0:
                return reply, REASON_REDIRECT_LIMIT
            redirects_left -= 1
            url = http.redirect_url(url, location)
            continue
        return reply, None


def _match_link(link_header: str, formats: list[str]) -> tuple[str, str] | None:
    """First link-value whose type parameter equals an annotated image format.

    Comparison is an exact string compare after trimming both sides; a
    format that is not an image (``is_image``) matches no link. Returns
    (target uri-reference, matched format) or None.
    """
    try:
        links = parse_header_links(link_header)
    except Exception:
        return None
    image_formats = [f.strip() for f in formats if is_image(f)]
    for link in links:
        link_type = (link.get("type") or "").strip()
        target = link.get("url", "")
        if not target or not link_type:
            continue
        for fmt in image_formats:
            if link_type == fmt:
                return target, fmt
    return None


def doi_url(doi: str, resolver_base: str) -> str:
    return resolver_base.rstrip("/") + "/" + doi.lstrip("/")


def hops(
    record: DataciteRecord, config: RunConfig
) -> Generator[Hop, Answer, tuple[bool, ProbeTrace]]:
    """Is the image behind this record's DOI machine-retrievable?

    The probe as the hops it makes: each request is yielded, and the caller
    sends back its answer (``ask``) and keeps to the per-host politeness.
    Returns True when either negotiation phase ends in a 200 with an
    acceptable Content-Type; the trace tells which phase and why otherwise.
    """
    trace = ProbeTrace()
    started = time.monotonic()
    cookies = CookieJar()  # one probe's hops share cookies, probes do not
    try:
        reply, reason = yield from _follow_chain(
            doi_url(record.doi, config.doi_resolver), "image/*", cookies, trace
        )

        if reply is not None and reason is None:
            if reply.status == 200 and is_image(reply.headers.get("content-type")):
                trace.outcome = OUTCOME_CLIENT
                return True, trace
            reason = REASON_NO_IMAGE if reply.status == 200 else REASON_NON_200

        # server-side fallback: only with a failed phase 1 and a Link header
        link_header = reply.headers.get("link") if reply is not None else None
        if link_header:
            match = _match_link(link_header, record.formats)
            if match is None:
                trace.reason = REASON_NO_LINK_MATCH
                return False, trace
            target, matched_format = match
            target_url = http.redirect_url(trace.steps[-1].url, target)
            reply2, reason2 = yield from _follow_chain(
                target_url, matched_format, cookies, trace
            )
            if reply2 is not None and reason2 is None:
                # the matched format is an image type, so a reply of exactly
                # that type is an image
                served = _bare_type(reply2.headers.get("content-type") or "")
                matched = _bare_type(matched_format)
                if reply2.status == 200 and served == matched:
                    trace.outcome = OUTCOME_LINK
                    return True, trace
                reason2 = (
                    REASON_NO_IMAGE if reply2.status == 200 else REASON_NON_200
                )
            trace.reason = reason2
            return False, trace

        trace.reason = reason
        return False, trace
    finally:
        trace.elapsed = (time.monotonic() - started) * 1000.0


def hop_host(hop: Hop) -> str:
    """The host a hop goes to: the key of the per-host politeness."""
    return urlparse(hop[0]).netloc


def ask(session: http.Sessions, hop: Hop, timeout: float) -> wire.Exchange[Answer]:
    """One hop as an exchange; a request error is its answer, not an
    exception."""
    url, accept, cookies = hop
    return http.answered(session.hop_exchange(url, accept, timeout, cookies))


def f_ret(
    record: DataciteRecord,
    config: RunConfig,
    *,
    gate: HostGate,
    session: http.Sessions,
) -> tuple[bool, ProbeTrace]:
    """``hops`` run to its end on the calling thread, each hop in its host's
    ``gate`` slot."""
    return run_alone(
        hops(record, config),
        send=lambda hop: ask(session, hop, config.timeout),
        host=hop_host,
        gate=gate,
    )


def trace_to_dict(trace: ProbeTrace) -> dict[str, Any]:
    return {**vars(trace), "steps": [{**vars(s)} for s in trace.steps]}
