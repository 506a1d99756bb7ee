"""The one place that sends HTTP requests: kept-alive ``http.client``
connections per run.

Every request of a run, registry, OAI-PMH and probe alike, is one GET that
``Sessions._send`` writes onto a standard-library ``http.client`` connection
of the run's ``Sessions``. It prepares the request as a ``requests`` session
with ``trust_env`` on would: the same request target and header lines,
proxy, ``~/.netrc`` ``Authorization`` and CA bundle. ``requests`` reads those
from the environment on every request and every redirect; here an ``Origins``
cache reads them with requests' own helpers once per origin (scheme, host,
port), and loads each CA bundle into one TLS context. The cache lives on a
``Sessions`` object that each run creates, never in module state, so a
second run in the same process reads the environment afresh. Changing those
settings in the middle of a run has no effect.

Connections are kept alive per route: the origin, or the proxy and the
origin. Idle ones are bounded as a requests session's pools are:
``IDLE_PER_ROUTE`` per route and ``ROUTES`` routes, the least recently used
route closed first.

``Sessions.hop`` is a probe's request: no redirect followed, no body read
but a redirect's. ``Sessions.get`` serves the registry and OAI-PMH: it
follows redirects as requests does and reads the body. Retries and 503 flow
control belong to the OAI-PMH client, so neither path has a request policy.
"""

from __future__ import annotations

import base64
import os
import select
import ssl
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPResponse, HTTPSConnection
from http.cookiejar import CookieJar
from typing import Iterator
from urllib.parse import urlencode, urljoin, urlsplit

import certifi
import requests
from requests.compat import chardet
from requests.cookies import MockRequest, MockResponse, get_cookie_header
from requests.structures import CaseInsensitiveDict
from requests.utils import (
    default_headers,
    get_auth_from_url,
    get_encoding_from_headers,
    prepend_scheme_if_needed,
    requote_uri,
    select_proxy,
    urldefragauth,
)

# requests' HTTPAdapter defaults: 10 pools of at most 10 kept connections
IDLE_PER_ROUTE = 10
ROUTES = 10
DEFAULT_PORTS = {"http": 80, "https": 443}
REDIRECT_CODES = (301, 302, 303, 307, 308)
MAX_REDIRECTS = 30  # requests.models.DEFAULT_REDIRECT_LIMIT

# (scheme, host, port, proxy URL or None)
Route = tuple[str, str, int, str | None]


class TooManyRedirects(HTTPException):
    """``Sessions.get`` met more than ``MAX_REDIRECTS`` redirects."""


# what a request raises when no usable reply arrives: socket, TLS and
# protocol errors, and requests' (OSError) for a URL that it cannot prepare
REQUEST_ERRORS = (OSError, HTTPException)


@dataclass
class Reply:
    """A reply's status and header lines; for ``Sessions.get``, its body.

    ``headers`` is case-insensitive, and repeated lines are joined by
    ``", "``. ``data`` is the body decoded by its Content-Encoding.
    """

    status: int
    headers: CaseInsensitiveDict
    data: bytes = b""


@dataclass(frozen=True)
class OriginSettings:
    proxy: str | None  # the proxy URL that requests would choose, with its scheme
    authorization: str | None  # from ~/.netrc
    proxy_authorization: str | None  # from the proxy URL's userinfo
    context: ssl.SSLContext | None  # https only: trusts the CA bundle


class Origins:
    """The environment's settings per origin, each read on first use, and
    one TLS context per CA bundle."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._settings: dict[tuple[str, str | None, int | None], OriginSettings] = {}
        self._contexts: dict[str, ssl.SSLContext] = {}

    def lookup(self, url: str) -> OriginSettings:
        parts = urlsplit(url)
        key = (parts.scheme, parts.hostname, parts.port)
        found = self._settings.get(key)
        if found is None:
            # read under the lock, so that threads starting on a new origin
            # together read the environment once between them
            with self._lock:
                found = self._settings.get(key)
                if found is None:
                    found = self._settings[key] = self._read(url, parts.scheme)
        return found

    def _read(self, url: str, scheme: str) -> OriginSettings:
        # select_proxy keys on the scheme and host alone
        proxy = select_proxy(url, requests.utils.get_environ_proxies(url))
        proxy_authorization = None
        if proxy:
            proxy = prepend_scheme_if_needed(proxy, "http")
            user, password = get_auth_from_url(proxy)
            if user:
                proxy_authorization = _basic(f"{user}:{password}")
        netrc = requests.utils.get_netrc_auth(url)
        context = None
        if scheme == "https":
            bundle = (
                os.environ.get("REQUESTS_CA_BUNDLE")
                or os.environ.get("CURL_CA_BUNDLE")
                or certifi.where()
            )
            context = self._contexts.get(bundle)
            if context is None:
                context = self._contexts[bundle] = _tls_context(bundle)
        return OriginSettings(
            proxy=proxy or None,
            authorization=None if netrc is None else _basic(":".join(netrc)),
            proxy_authorization=proxy_authorization,
            context=context,
        )


def _basic(credentials: str) -> str:
    """A Basic ``user:password`` header value, as urllib3.make_headers writes it."""
    return "Basic " + base64.b64encode(credentials.encode("latin-1")).decode()


def _tls_context(bundle: str) -> ssl.SSLContext:
    """A client context set up as urllib3's ``create_urllib3_context`` sets
    one up by default, trusting the CA certificates in ``bundle``, a file
    or a directory."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)  # CERT_REQUIRED, hostname checked
    context.minimum_version = ssl.TLSVersion.TLSv1_2
    context.options |= ssl.OP_NO_COMPRESSION | ssl.OP_NO_TICKET
    context.hostname_checks_common_name = False
    context.set_alpn_protocols(["http/1.1"])
    if os.path.isdir(bundle):
        context.load_verify_locations(capath=bundle)
    else:
        context.load_verify_locations(cafile=bundle)
    return context


class Sessions:
    """The kept-alive connections, origin settings and cookie jars of one run.

    Each thread has its own cookie jar for ``get``; a probe brings its own.
    ``close`` drops every jar and closes every idle connection; the origin
    settings are kept.
    """

    def __init__(self) -> None:
        self._origins = Origins()
        self._lock = threading.Lock()
        self._local = threading.local()
        # least recently used route first
        self._idle: OrderedDict[Route, list[HTTPConnection]] = OrderedDict()
        # offer only the codings that ``_decoded`` undoes; requests' default
        # offers br and zstd too where their modules are installed
        self._headers = dict(default_headers(), **{"Accept-Encoding": "gzip, deflate"})

    def _send(
        self,
        url: str,
        params: dict[str, str] | None,
        accept: str,
        timeout: float,
        cookies: CookieJar,
        read: bool,
    ) -> Reply:
        """One GET, with no redirect followed and no retry.

        The request target is ``url`` with ``params`` as requests prepares
        it. The headers are requests' defaults with ``accept``, the cookies
        of ``cookies`` and the origin's netrc ``Authorization``, and the
        origin's proxy and CA bundle apply. The reply's cookies go into
        ``cookies``. A redirect's body is read, so that its connection is
        kept as a session's redirect handling keeps it. Any other body is
        read into ``Reply.data`` when ``read`` is set, and is otherwise
        closed unread with its connection. Raises one of
        ``REQUEST_ERRORS`` when no reply arrives.
        """
        request = requests.PreparedRequest()
        # encoded here as requests encodes a dict of strings, without its
        # costly checks of the argument's type
        request.prepare_url(url, urlencode(params or {}))
        parts = urlsplit(request.url)
        if parts.scheme not in DEFAULT_PORTS:
            raise HTTPException(f"not an HTTP URL: {request.url}")
        found = self._origins.lookup(request.url)
        headers = request.headers = dict(self._headers, Accept=accept)
        # an empty jar gives no header
        cookie = get_cookie_header(cookies, request) if cookies else None
        if cookie is not None:
            headers["Cookie"] = cookie
        if found.authorization is not None:
            headers["Authorization"] = found.authorization
        target = request.path_url
        if found.proxy is not None and parts.scheme != "https":
            # a forward proxy is sent the absolute form
            target = urldefragauth(request.url)
            if found.proxy_authorization is not None:
                headers["Proxy-Authorization"] = found.proxy_authorization
        route = (
            parts.scheme, parts.hostname, parts.port or DEFAULT_PORTS[parts.scheme],
            found.proxy,
        )
        conn = self._checkout(route, found, timeout)
        try:
            # Host comes first, from the target or the connection
            conn.putrequest("GET", target, skip_accept_encoding=True)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders()
            response = conn.getresponse()
        except BaseException:
            conn.close()
            raise
        reply = Reply(response.status, _header_lines(response))
        if "Set-Cookie" in reply.headers or "Set-Cookie2" in reply.headers:
            cookies.extract_cookies(MockResponse(response.msg), MockRequest(request))
        if response.status in REDIRECT_CODES and reply.headers.get("Location"):
            try:
                response.read()
            except REQUEST_ERRORS:
                # a body that fails to arrive costs its connection, not the request
                _discard(conn, response)
            else:
                self._checkin(route, conn, response)
        elif read:
            try:
                body = response.read()
            except BaseException:
                _discard(conn, response)
                raise
            self._checkin(route, conn, response)
            reply.data = _decoded(body, reply.headers.get("Content-Encoding", ""))
        else:
            _discard(conn, response)
        return reply

    def _checkout(
        self, route: Route, found: OriginSettings, timeout: float
    ) -> HTTPConnection:
        """The route's most recently kept connection, or a new one."""
        with self._lock:
            idle = self._idle.get(route)
            conn = idle.pop() if idle else None
        if conn is not None:
            if not _readable(conn):
                conn.sock.settimeout(timeout)
                return conn
            # the peer closed it while it was idle
            conn.close()
        scheme, host, port, proxy = route
        if proxy is None:
            if scheme == "https":
                return HTTPSConnection(host, port, timeout=timeout, context=found.context)
            return HTTPConnection(host, port, timeout=timeout)
        where = urlsplit(proxy)
        if where.scheme != "http":
            raise HTTPException(f"not an http:// proxy: {proxy}")
        if scheme != "https":
            return HTTPConnection(where.hostname, where.port or 80, timeout=timeout)
        conn = HTTPSConnection(
            where.hostname, where.port or 80, timeout=timeout, context=found.context
        )
        tunnel = found.proxy_authorization
        conn.set_tunnel(
            host, port, headers=None if tunnel is None else {"Proxy-Authorization": tunnel}
        )
        return conn

    def _checkin(self, route: Route, conn: HTTPConnection, response: HTTPResponse) -> None:
        """Keep a connection whose reply has been read, within the bounds."""
        if response.will_close:
            conn.close()
            return
        closing = []
        with self._lock:
            idle = self._idle.get(route)
            if idle is None:
                idle = self._idle[route] = []
            else:
                self._idle.move_to_end(route)
            if len(idle) < IDLE_PER_ROUTE:
                idle.append(conn)
            else:
                closing.append(conn)
            while len(self._idle) > ROUTES:
                closing.extend(self._idle.popitem(last=False)[1])
        for old in closing:
            old.close()

    def hop(self, url: str, accept: str, timeout: float, cookies: CookieJar) -> Reply:
        """A probe's request: ``_send`` with ``accept`` and ``cookies``.

        A redirect's body is read, so that its connection is kept; any
        other reply is closed unread.
        """
        return self._send(url, None, accept, timeout, cookies, read=False)

    def get(self, url: str, params: dict[str, str] | None, timeout: float) -> Reply:
        """A GET that follows redirects as a ``requests`` session does.

        Each hop is a ``_send`` with this thread's cookie jar, so cookies,
        proxy and netrc apply per hop. ``Authorization`` comes from the
        hop's own origin, so a redirect to another origin never carries the
        first one's, as ``requests.sessions.should_strip_auth`` has it.
        Returns the final reply with its body read: ``reply.data`` is
        decoded by its Content-Encoding. Raises one of ``REQUEST_ERRORS``:
        ``TooManyRedirects`` for a redirect past the first ``MAX_REDIRECTS``.
        """
        cookies = getattr(self._local, "cookies", None)
        if cookies is None:
            cookies = self._local.cookies = CookieJar()
        accept = self._headers["Accept"]
        redirects = 0
        while True:
            reply = self._send(url, params, accept, timeout, cookies, read=True)
            location = (
                reply.headers.get("Location")
                if reply.status in REDIRECT_CODES
                else None
            )
            if not location:
                return reply
            if redirects == MAX_REDIRECTS:
                raise TooManyRedirects(f"exceeded {MAX_REDIRECTS} redirects at {url}")
            redirects += 1
            url, params = urljoin(url, requote_uri(_as_utf8(location))), None

    def close(self) -> None:
        with self._lock:
            self._local = threading.local()
            idle, self._idle = self._idle, OrderedDict()
        for connections in idle.values():
            for conn in connections:
                conn.close()


def _readable(conn: HTTPConnection) -> bool:
    """Whether an idle connection has something to read: its peer closed
    it, as urllib3's ``is_connection_dropped`` tells."""
    poller = select.poll()
    poller.register(conn.sock, select.POLLIN)
    return bool(poller.poll(0))


def _discard(conn: HTTPConnection, response: HTTPResponse) -> None:
    response.close()
    conn.close()


def _header_lines(response: HTTPResponse) -> CaseInsensitiveDict:
    """A reply's header lines by name; repeated lines are joined by ", ",
    as urllib3's ``HTTPHeaderDict`` joins them."""
    headers: CaseInsensitiveDict = CaseInsensitiveDict()
    for name, value in response.msg.items():
        seen = headers.get(name)
        headers[name] = value if seen is None else f"{seen}, {value}"
    return headers


def _decoded(body: bytes, codings: str) -> bytes:
    """``body`` decoded as urllib3 decodes it: gzip (every member) and
    deflate (zlib-wrapped or raw), the coding applied last undone first.
    Other codings are left as they are."""
    try:
        for coding in reversed(codings.lower().split(",")):
            coding = coding.strip()
            if coding in ("gzip", "x-gzip"):
                body = _gunzip(body)
            elif coding == "deflate":
                body = _inflate(body)
    except zlib.error as exc:
        raise HTTPException(f"cannot decode a {codings} body: {exc}") from exc
    return body


def _gunzip(data: bytes) -> bytes:
    """Every gzip member in ``data``; what follows the members and is none
    is ignored, as urllib3 ignores it."""
    members = []
    while data:
        member = zlib.decompressobj(16 + zlib.MAX_WBITS)
        try:
            members.append(member.decompress(data))
        except zlib.error:
            if not members:
                raise
            break
        data = member.unused_data
    return b"".join(members)


def _inflate(data: bytes) -> bytes:
    """A deflate body: zlib-wrapped as RFC 9110 says, or raw as some
    servers send it."""
    try:
        return zlib.decompressobj().decompress(data)
    except zlib.error:
        return zlib.decompressobj(-zlib.MAX_WBITS).decompress(data)


def _as_utf8(location: str) -> str:
    """A Location header as requests reads it: its bytes taken as UTF-8.

    Header text arrives decoded as ISO-8859-1. Bytes that are not UTF-8
    keep that reading, where requests would raise.
    """
    raw = location.encode("iso-8859-1")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return location


def xml_payload(reply: Reply) -> bytes | str:
    """The body of an XML reply from ``Sessions.get``, ready for
    ``ElementTree.fromstring``.

    A charset parameter in the Content-Type outranks the XML declaration
    (RFC 7303 section 3), so such a body is decoded as
    ``requests.Response.text`` decodes it. Without one the bytes are parsed
    as they are and the declaration sets the encoding; ``text`` would
    decode them as ISO-8859-1.
    """
    body = reply.data
    if "charset" not in reply.headers.get("Content-Type", "").lower():
        return body
    if not body:
        return ""
    encoding = get_encoding_from_headers(reply.headers)
    if encoding is None:
        encoding = chardet.detect(body)["encoding"] if chardet else "utf-8"
    try:
        return str(body, encoding, errors="replace")
    except (LookupError, TypeError):
        return str(body, errors="replace")


@contextmanager
def scope(session: Sessions | None) -> Iterator[Sessions]:
    """What a fetching function's ``session`` argument means.

    Yields the run's own ``Sessions``, or for ``None`` a private one that is
    closed on exit.
    """
    if session is not None:
        yield session
    else:
        own = Sessions()
        try:
            yield own
        finally:
            own.close()
