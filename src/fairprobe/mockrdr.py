"""Scripted research-data-landscape harness for offline integration tests.

One loopback HTTP server plays every role the pipeline talks to: the
repository registry, each repository's OAI-PMH endpoint, the DOI resolver
with its redirect chains and Link headers, and the blob hosts those links
point at. Scenarios are plain data: each scripted record carries its
ground-truth predicate intents, so expected outcomes never depend on the
code under test. Faults (timeouts, dropped connections, 503 flow control,
token invalidation, malformed pages) are injected per page with bounded
repetition counts.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, quote, unquote, urlparse
from xml.sax.saxutils import escape, quoteattr

from .scoring import EmptyCorpusError

logger = logging.getLogger(__name__)

FAULT_KINDS = ("timeout", "badtoken", "503", "malformed", "drop")

# retrieval styles and whether they are retrievable by negotiation
RETRIEVAL_STYLES = {
    "client": True,  # DOI resolves straight to an image
    "redirect": True,  # image behind a redirect chain
    "link": True,  # landing page, Link header names the image
    "landing": False,  # landing page, no Link header
    "missing": False,  # resolver knows the DOI but the target is gone
    "unrouted": False,  # resolver has never heard of the DOI
}

LICENSE_URI = "https://creativecommons.org/licenses/by/4.0/"


class ScriptError(ValueError):
    pass


@dataclass
class Fault:
    kind: str
    page: int  # 0 = ListMetadataFormats, 1..n = ListRecords pages
    times: int = 1
    retry_after: float = 0.1  # 503 only
    stall: float | None = None  # timeout only; script default when None


@dataclass
class RouteHop:
    status: int
    content_type: str | None = None
    body: str = ""
    location: str | None = None  # 3xx target; "self" loops; None chains to next hop
    link: str | None = None  # raw Link header value
    require_accept: str | None = None  # reply 406 unless Accept equals this


@dataclass
class MockRecord:
    doi: str
    of_interest: bool = True
    chrono: bool = False
    geo: bool = False
    lic: bool = False
    retrieval: str = "landing"
    deleted: bool = False
    kernel: int = 4  # datacite kernel generation of the payload
    geo_style: str = "point"  # point | box | place
    interest_via: str = "type"  # type | format | wildcard
    wrapped: bool = False  # nest the payload in an oai envelope element

    @property
    def ret(self) -> bool:
        return RETRIEVAL_STYLES[self.retrieval]

    @property
    def formats(self) -> tuple[str, ...]:
        if not self.of_interest:
            return ("text/csv",)
        if self.retrieval == "link":
            return ("image/tiff",)
        if self.interest_via == "wildcard":
            return ("image/*",)
        return ("image/png",)

    @property
    def resource_type(self) -> str:
        if not self.of_interest:
            return "Dataset"
        return "Image" if self.interest_via == "type" else "Dataset"


@dataclass
class MockRepository:
    name: str
    records: list[MockRecord] = field(default_factory=list)
    page_size: int = 10
    prefixes: tuple[str, ...] = ("oai_dc", "datacite")
    apis: tuple[str, ...] = ("OAI-PMH",)
    faults: list[Fault] = field(default_factory=list)
    # seconds a resumption token is honoured after it was issued; None keeps
    # every token valid (OAI-PMH 2.0 §3.5 lets a token expire)
    token_ttl: float | None = None

    def pages(self) -> int:
        if not self.records:
            return 0
        return (len(self.records) + self.page_size - 1) // self.page_size

    def has_datacite_prefix(self) -> bool:
        return any(
            p == "datacite" or p.startswith("datacite") or p.startswith("oai_datacite")
            for p in self.prefixes
        )


@dataclass
class ScenarioScript:
    repositories: list[MockRepository] = field(default_factory=list)
    resolver_routes: dict[str, list[RouteHop]] = field(default_factory=dict)
    blobs: dict[str, tuple[str, int]] = field(default_factory=dict)
    # timing controls
    timeout_stall: float = 1.5  # how long a timeout fault holds the socket
    response_delay: float = 0.0  # flat delay before every reply


def validate(script: ScenarioScript) -> None:
    names: set[str] = set()
    for repo in script.repositories:
        if not repo.name or repo.name in names:
            raise ScriptError(f"repository name {repo.name!r} missing or duplicated")
        names.add(repo.name)
        if repo.page_size < 1:
            raise ScriptError(f"{repo.name}: page_size must be at least 1")
        if repo.token_ttl is not None and repo.token_ttl <= 0:
            raise ScriptError(f"{repo.name}: token_ttl must be positive")
        dois: set[str] = set()
        for record in repo.records:
            if not record.doi:
                raise ScriptError(f"{repo.name}: record without a doi")
            if record.doi in dois:
                raise ScriptError(f"{repo.name}: duplicate doi {record.doi}")
            dois.add(record.doi)
            if record.retrieval not in RETRIEVAL_STYLES:
                raise ScriptError(
                    f"{repo.name}: unknown retrieval style {record.retrieval!r}"
                )
        pages = repo.pages()
        for fault in repo.faults:
            if fault.kind not in FAULT_KINDS:
                raise ScriptError(f"{repo.name}: unknown fault kind {fault.kind!r}")
            if fault.times < 1:
                raise ScriptError(f"{repo.name}: fault times must be at least 1")
            if fault.kind == "badtoken":
                if pages < 2 or not 2 <= fault.page <= pages:
                    raise ScriptError(
                        f"{repo.name}: badtoken fault page {fault.page} has no token"
                    )
            elif not 0 <= fault.page <= pages:
                raise ScriptError(
                    f"{repo.name}: fault page {fault.page} outside 0..{pages}"
                )
    for doi, hops in script.resolver_routes.items():
        if not hops:
            raise ScriptError(f"route for {doi} is empty")
        for hop in hops:
            if not 100 <= hop.status <= 599:
                raise ScriptError(f"route for {doi}: bad status {hop.status}")


def materialize_routes(
    script: ScenarioScript,
) -> tuple[dict[str, list[RouteHop]], dict[str, tuple[str, int]]]:
    """Complete routes and blobs: explicit entries win, styles fill the rest."""
    routes: dict[str, list[RouteHop]] = dict(script.resolver_routes)
    blobs: dict[str, tuple[str, int]] = dict(script.blobs)
    counter = 0
    for repo in script.repositories:
        for record in repo.records:
            if record.doi in routes or record.retrieval == "unrouted":
                continue
            counter += 1
            if record.retrieval == "client":
                routes[record.doi] = [RouteHop(200, "image/png")]
            elif record.retrieval == "redirect":
                routes[record.doi] = [
                    RouteHop(302),
                    RouteHop(302),
                    RouteHop(200, "image/jpeg"),
                ]
            elif record.retrieval == "link":
                key = f"tif{counter}"
                blobs.setdefault(key, ("image/tiff", 64))
                routes[record.doi] = [
                    RouteHop(
                        200,
                        "text/html",
                        body="<html>landing</html>",
                        link=f'</blob/{key}>; rel="alternate"; type="image/tiff"',
                    )
                ]
            elif record.retrieval == "landing":
                routes[record.doi] = [
                    RouteHop(200, "text/html", body="<html>landing</html>")
                ]
            elif record.retrieval == "missing":
                routes[record.doi] = [RouteHop(404, "text/html", body="gone")]
    return routes, blobs


# --- payload generation ---------------------------------------------------

def oai_identifier(repo: str, index: int) -> str:
    return f"oai:{repo}:{index:05d}"


def record_payload(record: MockRecord) -> str:
    """Datacite XML for one scripted record, honouring its intents."""
    ns = f"http://datacite.org/schema/kernel-{record.kernel}"
    parts = [f'<resource xmlns="{ns}">']
    parts.append(f'<identifier identifierType="DOI">{escape(record.doi)}</identifier>')
    parts.append(
        f"<resourceType resourceTypeGeneral={quoteattr(record.resource_type)}>"
        f"still image</resourceType>"
    )
    parts.append("<formats>")
    for fmt in record.formats:
        parts.append(f"<format>{escape(fmt)}</format>")
    parts.append("</formats>")
    date_type = "Created" if record.chrono else "Issued"
    parts.append(
        f'<dates><date dateType="{date_type}">2017-03-14</date></dates>'
    )
    geo = _geo_xml(record)
    if geo:
        parts.append(geo)
    if record.lic:
        parts.append(
            f"<rightsList><rights rightsURI={quoteattr(LICENSE_URI)}>"
            f"CC BY 4.0</rights></rightsList>"
        )
    else:
        parts.append(
            "<rightsList><rights>free for academic use</rights></rightsList>"
        )
    parts.append("</resource>")
    body = "".join(parts)
    if record.wrapped:
        body = (
            '<oai_datacite xmlns="http://schema.datacite.org/oai/oai-1.0/">'
            f"<payload>{body}</payload></oai_datacite>"
        )
    return body


def _geo_xml(record: MockRecord) -> str:
    if not record.geo:
        if record.geo_style == "point":
            # invalid coordinates: an annotation attempt that must not count
            if record.kernel == 3:
                return (
                    "<geoLocations><geoLocation>"
                    "<geoLocationPoint>95.0 200.0</geoLocationPoint>"
                    "</geoLocation></geoLocations>"
                )
            return (
                "<geoLocations><geoLocation><geoLocationPoint>"
                "<pointLatitude>95.0</pointLatitude>"
                "<pointLongitude>200.0</pointLongitude>"
                "</geoLocationPoint></geoLocation></geoLocations>"
            )
        return ""
    if record.geo_style == "place":
        return (
            "<geoLocations><geoLocation>"
            "<geoLocationPlace>Lake Constance</geoLocationPlace>"
            "</geoLocation></geoLocations>"
        )
    if record.geo_style == "box":
        if record.kernel == 3:
            return (
                "<geoLocations><geoLocation>"
                "<geoLocationBox>-10.5 5.25 10.5 40.125</geoLocationBox>"
                "</geoLocation></geoLocations>"
            )
        return (
            "<geoLocations><geoLocation><geoLocationBox>"
            "<southBoundLatitude>-10.5</southBoundLatitude>"
            "<westBoundLongitude>5.25</westBoundLongitude>"
            "<northBoundLatitude>10.5</northBoundLatitude>"
            "<eastBoundLongitude>40.125</eastBoundLongitude>"
            "</geoLocationBox></geoLocation></geoLocations>"
        )
    if record.kernel == 3:
        return (
            "<geoLocations><geoLocation>"
            "<geoLocationPoint>47.5 9.2</geoLocationPoint>"
            "</geoLocation></geoLocations>"
        )
    return (
        "<geoLocations><geoLocation><geoLocationPoint>"
        "<pointLatitude>47.5</pointLatitude>"
        "<pointLongitude>9.2</pointLongitude>"
        "</geoLocationPoint></geoLocation></geoLocations>"
    )


# --- the server -------------------------------------------------------------

@dataclass
class LoggedRequest:
    t: float  # monotonic arrival time
    method: str
    path: str  # path with query string
    target: str  # path only
    accept: str | None
    bytes_sent: int = 0
    aborted: bool = False


class MockHandle:
    def __init__(self, server: ThreadingHTTPServer, thread: threading.Thread,
                 script: ScenarioScript):
        self._server = server
        self._thread = thread
        self.script = script
        host, port = server.server_address[0], server.server_address[1]
        self.base_url = f"http://{host}:{port}"
        self.registry_url = f"{self.base_url}/registry"
        self.resolver_base = f"{self.base_url}/resolve/"
        self.request_log: list[LoggedRequest] = []
        self.log_lock = threading.Lock()
        self.fault_lock = threading.Lock()
        self.fault_budget: dict[tuple[str, str, int], int] = {}
        for repo in script.repositories:
            for i, fault in enumerate(repo.faults):
                self.fault_budget[(repo.name, fault.kind, i)] = fault.times
        self.routes, self.blobs = materialize_routes(script)

    def oai_endpoint(self, repo_name: str) -> str:
        return f"{self.base_url}/oai/{quote(repo_name, safe='')}"

    def requests_to(self, prefix: str) -> list[LoggedRequest]:
        with self.log_lock:
            return [r for r in self.request_log if r.target.startswith(prefix)]

    def take_fault(self, repo: str, verb_page: int) -> Fault | None:
        """Claim one pending fault for this page, if any."""
        target = None
        with self.fault_lock:
            for mock_repo in self.script.repositories:
                if mock_repo.name != repo:
                    continue
                for i, fault in enumerate(mock_repo.faults):
                    if fault.page != verb_page:
                        continue
                    key = (repo, fault.kind, i)
                    if self.fault_budget.get(key, 0) > 0:
                        self.fault_budget[key] -= 1
                        target = fault
                        break
                break
        return target

    def shutdown(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in separate writes; with Nagle on, a reply on
    # a reused connection waits for the client's delayed ACK
    disable_nagle_algorithm = True
    hub: MockHandle  # bound by serve()

    def log_message(self, fmt: str, *args: Any) -> None:  # silence stderr
        pass

    def _log(self) -> LoggedRequest:
        parsed = urlparse(self.path)
        entry = LoggedRequest(
            t=time.monotonic(),
            method=self.command,
            path=self.path,
            target=parsed.path,
            accept=self.headers.get("Accept"),
        )
        with self.hub.log_lock:
            self.hub.request_log.append(entry)
        return entry

    def _send(
        self,
        entry: LoggedRequest,
        status: int,
        body: bytes = b"",
        content_type: str | None = "text/xml",
        extra: dict[str, str] | None = None,
    ) -> None:
        if self.hub.script.response_delay > 0:
            time.sleep(self.hub.script.response_delay)
        try:
            self.send_response(status)
            if content_type is not None:
                self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra or {}).items():
                self.send_header(key, value)
            self.end_headers()
            # chunked writes so an early client abort is observable
            view = memoryview(body)
            step = 16384
            for start in range(0, len(view), step):
                self.wfile.write(view[start:start + step])
                self.wfile.flush()
                entry.bytes_sent += len(view[start:start + step])
        except (BrokenPipeError, ConnectionResetError):
            entry.aborted = True
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 (fixed by the http.server API)
        entry = self._log()
        parsed = urlparse(self.path)
        segments = [unquote(s) for s in parsed.path.split("/") if s]
        query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        try:
            if not segments:
                self._send(entry, 404, b"not found", "text/plain")
            elif segments[0] == "registry":
                self._registry(entry, segments)
            elif segments[0] == "oai" and len(segments) == 2:
                self._oai(entry, segments[1], query)
            elif segments[0] == "resolve":
                doi = unquote(parsed.path[len("/resolve/"):])
                self._resolve(entry, doi, query)
            elif segments[0] == "blob" and len(segments) == 2:
                self._blob(entry, segments[1])
            else:
                self._send(entry, 404, b"not found", "text/plain")
        except (BrokenPipeError, ConnectionResetError):
            entry.aborted = True
            self.close_connection = True

    # -- registry ------------------------------------------------------------

    def _registry(self, entry: LoggedRequest, segments: list[str]) -> None:
        script = self.hub.script
        if len(segments) == 2 and segments[1] == "repositories":
            rows = "".join(
                f"<repository><id>{escape(r.name)}</id>"
                f"<name>{escape(r.name)}</name></repository>"
                for r in script.repositories
            )
            self._send(entry, 200, f"<list>{rows}</list>".encode())
            return
        if len(segments) == 3 and segments[1] == "repository":
            repo = next(
                (r for r in script.repositories if r.name == segments[2]), None
            )
            if repo is None:
                self._send(entry, 404, b"unknown repository", "text/plain")
                return
            apis = []
            for kind in repo.apis:
                if kind == "OAI-PMH":
                    url = self.hub.oai_endpoint(repo.name)
                else:
                    url = f"{self.hub.base_url}/{kind.lower()}/{quote(repo.name, safe='')}"
                apis.append(f"<api apiType={quoteattr(kind)}>{escape(url)}</api>")
            body = (
                "<repository>"
                f"<id>{escape(repo.name)}</id>"
                f"<repositoryName>{escape(repo.name)}</repositoryName>"
                f"{''.join(apis)}"
                "<certificate>MockSeal</certificate>"
                "</repository>"
            )
            self._send(entry, 200, body.encode())
            return
        self._send(entry, 404, b"not found", "text/plain")

    # -- OAI-PMH ---------------------------------------------------------------

    def _oai_envelope(self, inner: str) -> bytes:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>'
            '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
            "<responseDate>2018-06-01T00:00:00Z</responseDate>"
            f"{inner}</OAI-PMH>"
        ).encode()

    def _oai_error(self, entry: LoggedRequest, code: str) -> None:
        self._send(
            entry, 200, self._oai_envelope(f'<error code="{code}">scripted</error>')
        )

    def _apply_fault(self, entry: LoggedRequest, fault: Fault) -> bool:
        """Perform the fault reply; True when the request was consumed."""
        script = self.hub.script
        if fault.kind == "timeout":
            time.sleep(fault.stall if fault.stall is not None else script.timeout_stall)
            # the client has long hung up; answer into the void anyway
            self._send(entry, 200, b"late", "text/plain")
            return True
        if fault.kind == "drop":
            entry.aborted = True
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return True
        if fault.kind == "503":
            self._send(
                entry,
                503,
                b"busy",
                "text/plain",
                extra={"Retry-After": f"{fault.retry_after:g}"},
            )
            return True
        if fault.kind == "malformed":
            self._send(entry, 200, b"<OAI-PMH><broken", "text/xml")
            return True
        if fault.kind == "badtoken":
            self._oai_error(entry, "badResumptionToken")
            return True
        return False

    def _oai(self, entry: LoggedRequest, repo_name: str, query: dict[str, str]) -> None:
        repo = next(
            (r for r in self.hub.script.repositories if r.name == repo_name), None
        )
        if repo is None:
            self._send(entry, 404, b"unknown endpoint", "text/plain")
            return
        verb = query.get("verb", "")
        if verb == "ListMetadataFormats":
            fault = self.hub.take_fault(repo.name, 0)
            if fault and self._apply_fault(entry, fault):
                return
            formats = "".join(
                "<metadataFormat>"
                f"<metadataPrefix>{escape(p)}</metadataPrefix>"
                f"<schema>http://example.org/{escape(p)}.xsd</schema>"
                f"<metadataNamespace>http://example.org/ns/{escape(p)}</metadataNamespace>"
                "</metadataFormat>"
                for p in repo.prefixes
            )
            self._send(
                entry,
                200,
                self._oai_envelope(f"<ListMetadataFormats>{formats}</ListMetadataFormats>"),
            )
            return
        if verb != "ListRecords":
            self._oai_error(entry, "badVerb")
            return

        token = query.get("resumptionToken")
        if token is not None:
            if not token.startswith("page:"):
                self._oai_error(entry, "badResumptionToken")
                return
            page_part, _, issued = token[len("page:"):].partition("@")
            page = int(page_part)
            if (
                repo.token_ttl is not None
                and time.monotonic() - float(issued or 0) > repo.token_ttl
            ):
                self._oai_error(entry, "badResumptionToken")
                return
        else:
            prefix = query.get("metadataPrefix", "")
            if prefix not in repo.prefixes:
                self._oai_error(entry, "cannotDisseminateFormat")
                return
            page = 1

        pages = repo.pages()
        if pages == 0:
            self._oai_error(entry, "noRecordsMatch")
            return
        if page > pages:
            self._oai_error(entry, "badResumptionToken")
            return

        fault = self.hub.take_fault(repo.name, page)
        if fault and self._apply_fault(entry, fault):
            return

        start = (page - 1) * repo.page_size
        chunk = repo.records[start:start + repo.page_size]
        rows = []
        for offset, record in enumerate(chunk):
            identifier = oai_identifier(repo.name, start + offset)
            if record.deleted:
                rows.append(
                    '<record><header status="deleted">'
                    f"<identifier>{escape(identifier)}</identifier>"
                    "<datestamp>2018-05-01</datestamp></header></record>"
                )
            else:
                rows.append(
                    "<record><header>"
                    f"<identifier>{escape(identifier)}</identifier>"
                    "<datestamp>2018-05-01</datestamp></header>"
                    f"<metadata>{record_payload(record)}</metadata></record>"
                )
        if page < pages:
            # a token that can expire carries the time it was issued
            issued = "" if repo.token_ttl is None else f"@{time.monotonic():.6f}"
            token_xml = (
                f'<resumptionToken completeListSize="{len(repo.records)}" '
                f'cursor="{start}">page:{page + 1}{issued}</resumptionToken>'
            )
        else:
            token_xml = (
                f'<resumptionToken completeListSize="{len(repo.records)}" '
                f'cursor="{start}"></resumptionToken>'
            )
        self._send(
            entry,
            200,
            self._oai_envelope(f"<ListRecords>{''.join(rows)}{token_xml}</ListRecords>"),
        )

    # -- DOI resolver and blobs --------------------------------------------------

    def _resolve(self, entry: LoggedRequest, doi: str, query: dict[str, str]) -> None:
        route = self.hub.routes.get(doi)
        if route is None:
            self._send(entry, 404, b"unknown DOI", "text/plain")
            return
        hop_index = int(query.get("hop", "0"))
        if hop_index >= len(route):
            self._send(entry, 500, b"route exhausted", "text/plain")
            return
        hop = route[hop_index]
        if hop.require_accept is not None and entry.accept != hop.require_accept:
            self._send(entry, 406, b"not acceptable", "text/plain")
            return
        extra: dict[str, str] = {}
        if hop.link:
            extra["Link"] = hop.link
        if 300 <= hop.status < 400:
            if hop.location == "self":
                location = self.path
            elif hop.location is not None:
                location = hop.location
            else:
                location = f"/resolve/{quote(doi, safe='/')}?hop={hop_index + 1}"
            extra["Location"] = location
            self._send(entry, hop.status, b"", "text/plain", extra)
            return
        body = hop.body.encode() if hop.body else b""
        if not body and hop.content_type and hop.content_type.startswith("image/"):
            body = b"mock-image-bytes"
        self._send(entry, hop.status, body, hop.content_type, extra)

    def _blob(self, entry: LoggedRequest, key: str) -> None:
        blob = self.hub.blobs.get(key)
        if blob is None:
            self._send(entry, 404, b"unknown blob", "text/plain")
            return
        content_type, size = blob
        self._send(entry, 200, b"b" * size, content_type)


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request: Any, client_address: Any) -> None:
        # Clients hang up mid-stream on purpose (headers-only probes); that
        # is not a server fault worth a traceback.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            return
        super().handle_error(request, client_address)


def serve(script: ScenarioScript) -> MockHandle:
    """Validate the script and serve it on an ephemeral loopback port."""
    validate(script)
    handler = type("BoundHandler", (_Handler,), {})
    server = _QuietServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    # shutdown() waits for the next poll, 0.5 s apart by default
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    hub = MockHandle(server, thread, script)
    handler.hub = hub
    thread.start()
    return hub


# --- the oracle ---------------------------------------------------------------

def expected_scores(
    script: ScenarioScript,
    subset: set[tuple[str, str]] | None = None,
) -> dict[str, Any]:
    """Brute-force score report from the scripted ground truth.

    Predicates are read off each record's intents, never from XML or HTTP,
    and all aggregates are naive direct sums. ``subset`` restricts the
    corpus to (repository, doi) pairs, mirroring a truncated harvest.
    """
    validate(script)
    corpus: list[tuple[str, MockRecord]] = []
    repos_seen: list[str] = []
    for repo in script.repositories:
        if "OAI-PMH" not in repo.apis or not repo.has_datacite_prefix():
            continue
        repos_seen.append(repo.name)
        for record in repo.records:
            if record.deleted or not record.of_interest:
                continue
            if subset is not None and (repo.name, record.doi) not in subset:
                continue
            corpus.append((repo.name, record))

    d_size = len(corpus)
    if d_size == 0:
        raise EmptyCorpusError("scripted corpus has no records of interest")

    criteria = ("chrono", "geo", "lic", "ret")
    q_sizes = {name: 0 for name in criteria}
    for _, record in corpus:
        for name in criteria:
            if getattr(record, name):
                q_sizes[name] += 1

    rareness = {name: 1.0 - q_sizes[name] / d_size for name in criteria}
    total = rareness["chrono"] + rareness["geo"] + rareness["lic"] + rareness["ret"]
    if total > 0.0:
        weights = {name: rareness[name] / total for name in criteria}
    else:
        weights = {name: 0.25 for name in criteria}

    repositories: dict[str, dict[str, Any]] = {}
    for repo_name in repos_seen:
        members = [record for name, record in corpus if name == repo_name]
        if not members:
            continue
        met = {name: 0 for name in criteria}
        fixed_sum = 0.0
        relative_sum = 0.0
        for record in members:
            k = 0
            rel = 0.0
            for name in criteria:
                if getattr(record, name):
                    k += 1
                    met[name] += 1
                    rel += weights[name]
            fixed_sum += k / 4
            relative_sum += rel
        repositories[repo_name] = {
            "items": len(members),
            "met": met,
            "avfixed": fixed_sum / len(members),
            "avrelative": relative_sum / len(members),
        }

    return {
        "d_size": d_size,
        "q_sizes": q_sizes,
        "rareness": rareness,
        "weights": weights,
        "total_rareness": total,
        "repositories": repositories,
        "repositories_without_items": [
            name for name in repos_seen if name not in repositories
        ],
    }


# --- scripts as structured documents --------------------------------------------

def script_to_dict(script: ScenarioScript) -> dict[str, Any]:
    return {
        "timeout_stall": script.timeout_stall,
        "response_delay": script.response_delay,
        "repositories": [
            {
                "name": repo.name,
                "page_size": repo.page_size,
                "prefixes": list(repo.prefixes),
                "apis": list(repo.apis),
                "token_ttl": repo.token_ttl,
                "faults": [
                    {
                        "kind": f.kind,
                        "page": f.page,
                        "times": f.times,
                        "retry_after": f.retry_after,
                        "stall": f.stall,
                    }
                    for f in repo.faults
                ],
                "records": [
                    {
                        "doi": r.doi,
                        "of_interest": r.of_interest,
                        "chrono": r.chrono,
                        "geo": r.geo,
                        "lic": r.lic,
                        "retrieval": r.retrieval,
                        "deleted": r.deleted,
                        "kernel": r.kernel,
                        "geo_style": r.geo_style,
                        "interest_via": r.interest_via,
                        "wrapped": r.wrapped,
                    }
                    for r in repo.records
                ],
            }
            for repo in script.repositories
        ],
        "resolver_routes": {
            doi: [
                {
                    "status": h.status,
                    "content_type": h.content_type,
                    "body": h.body,
                    "location": h.location,
                    "link": h.link,
                    "require_accept": h.require_accept,
                }
                for h in hops
            ]
            for doi, hops in script.resolver_routes.items()
        },
        "blobs": {k: [v[0], v[1]] for k, v in script.blobs.items()},
    }


def script_from_dict(data: dict[str, Any]) -> ScenarioScript:
    return ScenarioScript(
        repositories=[
            MockRepository(
                name=repo["name"],
                page_size=repo.get("page_size", 10),
                prefixes=tuple(repo.get("prefixes", ("oai_dc", "datacite"))),
                apis=tuple(repo.get("apis", ("OAI-PMH",))),
                token_ttl=repo.get("token_ttl"),
                faults=[
                    Fault(
                        kind=f["kind"],
                        page=f["page"],
                        times=f.get("times", 1),
                        retry_after=f.get("retry_after", 0.1),
                        stall=f.get("stall"),
                    )
                    for f in repo.get("faults", [])
                ],
                records=[
                    MockRecord(
                        doi=r["doi"],
                        of_interest=r.get("of_interest", True),
                        chrono=r.get("chrono", False),
                        geo=r.get("geo", False),
                        lic=r.get("lic", False),
                        retrieval=r.get("retrieval", "landing"),
                        deleted=r.get("deleted", False),
                        kernel=r.get("kernel", 4),
                        geo_style=r.get("geo_style", "point"),
                        interest_via=r.get("interest_via", "type"),
                        wrapped=r.get("wrapped", False),
                    )
                    for r in repo.get("records", [])
                ],
            )
            for repo in data.get("repositories", [])
        ],
        resolver_routes={
            doi: [
                RouteHop(
                    status=h["status"],
                    content_type=h.get("content_type"),
                    body=h.get("body", ""),
                    location=h.get("location"),
                    link=h.get("link"),
                    require_accept=h.get("require_accept"),
                )
                for h in hops
            ]
            for doi, hops in data.get("resolver_routes", {}).items()
        },
        blobs={k: (v[0], int(v[1])) for k, v in data.get("blobs", {}).items()},
        timeout_stall=data.get("timeout_stall", 1.5),
        response_delay=data.get("response_delay", 0.0),
    )


def load_script(path: str | Path) -> ScenarioScript:
    return script_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def save_script(script: ScenarioScript, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(script_to_dict(script), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
