"""The one place that sends HTTP requests: kept-alive connections per run.

Every request of a run, registry, OAI-PMH and probe alike, is one GET that
``Sessions._send`` writes onto a connection of the run's ``Sessions``. The
request is framed here, as RFC 9112 sections 2-7 have it, and goes out in
one write; ``wire`` opens connections (TCP, a proxy's ``CONNECT`` tunnel,
TLS) and reads each reply as ``http.client`` does.

A request is an exchange (``wire.Exchange``): a generator that opens a
connection when no kept one is idle, writes the request, reads the reply,
yields its socket each time it cannot go on, and returns the reply. So one
thread can keep many requests in flight and wait on all their sockets at
once, as ``throttle.run_per_host`` does; ``Sessions.get`` and
``Sessions.hop`` run one on the calling thread (``wire.finish``). Only a
name lookup waits where it is made.

A request carries what a ``requests`` session with ``trust_env`` on would
send, save credentials: the same request target and header lines, through
the same proxy, trusting the same CA bundle. It sends no ``Authorization``:
a run is an anonymous client, so ``~/.netrc`` and ``NETRC`` are never read,
and a verdict does not depend on who runs it. What a run reads from the
environment is the proxy variables (``HTTP_PROXY``, ``HTTPS_PROXY``,
``ALL_PROXY``, ``NO_PROXY``) and the CA bundle (``REQUESTS_CA_BUNDLE``,
``CURL_CA_BUNDLE``): they route and trust, and do not authenticate.
``requests`` reads those on every request and every redirect; here an
``Origins`` cache reads them with requests' own helpers once per origin
(scheme, host, port), and loads each CA bundle into one TLS context. The
cache lives on a ``Sessions`` object that each run creates, never in module
state, so a second run in the same process reads the environment afresh.
Changing those settings in the middle of a run has no effect.

Connections are kept alive per route: the origin, or the proxy and the
origin. Idle ones are bounded as a requests session's pools are:
``IDLE_PER_ROUTE`` per route and ``ROUTES`` routes, the least recently used
route closed first.

``Sessions.hop`` is a probe's request: no redirect followed, no body kept,
and the probe's own cookie jar. ``Sessions.get`` serves the registry and
OAI-PMH: it follows redirects as requests does, reads the body and keeps
cookies in the one jar of the ``Sessions``, which every request of a step
shares, as threads sharing one ``requests.Session`` share its jar. Retries
and 503 flow control belong to the OAI-PMH client, so neither path has a
request policy. There is no private ``Sessions``: every fetching function
takes the run's.

A body that no caller reads, a redirect's or a probe's final reply's, is
drained so that its connection can carry the next request (``wire.drained``),
but only when it is small and arrives in time: a declared length of at most
``wire.DRAIN_BOUND`` bytes that arrives within the request's timeout. Any other
body that no caller reads is closed unread with its connection. The
transport holds no rule about media types.
"""

from __future__ import annotations

import base64
import os
import re
import select
import socket
import ssl
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from http.client import HTTPException, InvalidURL
from http.cookiejar import CookieJar
from typing import NamedTuple
from urllib.parse import urlencode, urljoin, urlsplit

import certifi
import requests
from requests.compat import chardet
from requests.cookies import MockRequest, get_cookie_header
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

from . import __version__, wire
from .wire import Exchange, finish

# requests' HTTPAdapter defaults: 10 pools of at most 10 kept connections
IDLE_PER_ROUTE = 10
ROUTES = 10
DEFAULT_PORTS = {"http": 80, "https": 443}
REDIRECT_CODES = (301, 302, 303, 307, 308)
MAX_REDIRECTS = 30  # requests.models.DEFAULT_REDIRECT_LIMIT
USER_AGENT = f"fairprobe/{__version__}"

# (scheme, host, port, proxy URL or None)
Route = tuple[str, str, int, str | None]
# (scheme, host, port or None), as urlsplit reads them from a URL
Origin = tuple[str, str | None, int | None]


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


# a GET that a registry or OAI-PMH job yields: its URL and query parameters
Request = tuple[str, dict[str, str] | None]
# what a request got: the reply, or the request error that stands in for one
Answer = tuple[Reply | None, BaseException | None]


def request_url(request: Request) -> str:
    """The URL a request goes to: the key of its politeness."""
    return request[0]


@dataclass(frozen=True)
class OriginSettings:
    proxy: str | None  # the proxy URL that requests would choose, with its scheme
    proxy_authorization: str | None  # from the proxy URL's userinfo
    context: ssl.SSLContext | None  # https only: trusts the CA bundle


class Origins:
    """The environment's settings per origin, each read on first use, and
    one TLS context per CA bundle."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._settings: dict[Origin, OriginSettings] = {}
        self._contexts: dict[str, ssl.SSLContext] = {}

    def lookup(self, url: str, origin: Origin | None = None) -> OriginSettings:
        """The settings for ``url``, whose ``origin`` a caller that has
        split the URL already may pass."""
        if origin is None:
            parts = urlsplit(url)
            origin = (parts.scheme, parts.hostname, parts.port)
        found = self._settings.get(origin)
        if found is None:
            # read under the lock, so that threads starting on a new origin
            # together read the environment once between them
            with self._lock:
                found = self._settings.get(origin)
                if found is None:
                    found = self._settings[origin] = self._read(url, origin[0])
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


class _Target(NamedTuple):
    """A request's URL as requests prepares it, split."""

    url: str
    scheme: str
    host: str  # lowercase
    port: int | None  # as the URL gives it
    path: str  # the origin-form request target: path and query
    authority: str  # the Host value that goes with ``path``


# a URL that requests' prepare_url leaves as it is: http or https, a
# lowercase host name or IPv4 address, a port from 1 to 99999 without
# leading zeros (the caller bounds it), and a path and query of unreserved
# and sub-delim characters, ":", "@" and "/", with no dot segment, no empty
# query, no "%", no userinfo and no fragment
_PLAIN = re.compile(
    r"(https?)://([a-z0-9][a-z0-9.-]*)(?::([1-9][0-9]{0,4}))?"
    r"((?:/(?!\.\.?(?:[/?]|$))[\w\-.~!$&'()*+,;=:@]*)*)"
    r"(?:\?([\w\-.~!$&'()*+,;=:@/?]+))?",
    re.ASCII,
)


def _target(url: str, params: dict[str, str] | None) -> _Target:
    """``url`` with ``params`` encoded into its query, as
    ``requests.PreparedRequest.prepare_url`` prepares them, and the Host
    value that ``http.client`` sends with its origin-form target.

    A plain URL is split here; any other goes through ``prepare_url``.
    Raises one of ``REQUEST_ERRORS`` for a URL that is not HTTP or HTTPS or
    that requests cannot prepare.
    """
    plain = _PLAIN.fullmatch(url)
    if plain is not None and (plain[3] is None or int(plain[3]) <= 65535):
        scheme, host, port, path, query = plain.groups()
        # urlencode writes only characters that requests leaves as they are
        encoded = urlencode(params) if params else ""
        if encoded:
            query = f"{query}&{encoded}" if query else encoded
        path = path or "/"
        if query:
            path = f"{path}?{query}"
        netloc = host if port is None else f"{host}:{port}"
        url = f"{scheme}://{netloc}{path}"
        port = None if port is None else int(port)
    else:
        request = requests.PreparedRequest()
        # encoded here as requests encodes a dict of strings, without its
        # costly checks of the argument's type
        request.prepare_url(url, urlencode(params or {}))
        url = request.url
        parts = urlsplit(url)
        if parts.scheme not in DEFAULT_PORTS:
            raise HTTPException(f"not an HTTP URL: {url}")
        scheme, host, port, path = parts.scheme, parts.hostname, parts.port, request.path_url
    authority = f"[{host}]" if ":" in host else host
    if port is not None and port != DEFAULT_PORTS[scheme]:
        authority = f"{authority}:{port}"
    return _Target(url, scheme, host, port, path, authority)


def redirect_url(url: str, location: str) -> str:
    """The URL that a redirect from ``url`` to ``location`` leads to, as a
    ``requests`` session resolves it."""
    return urljoin(url, requote_uri(_as_utf8(location)))


# what http.client refuses to send: a control character or a space in the
# request target, a CR or LF that does not fold a header value
_NOT_IN_TARGET = re.compile("[\x00-\x20\x7f]")
_NOT_IN_VALUE = re.compile(r"\n(?![ \t])|\r(?![ \t\n])")


def _request_head(target: str, host: str, headers: dict[str, str]) -> bytes:
    """A GET's request line and header lines, ``Host`` first, as
    ``http.client`` writes them. Raises ``InvalidURL`` for a target and
    ``HTTPException`` for a header value that cannot go on the wire."""
    if _NOT_IN_TARGET.search(target):
        raise InvalidURL(f"URL can't contain control characters. {target!r}")
    lines = [f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"]
    for name, value in headers.items():
        if _NOT_IN_VALUE.search(value):
            raise HTTPException(f"invalid {name} header value {value!r}")
        lines.append(f"{name}: {value}\r\n")
    lines.append("\r\n")
    try:
        return "".join(lines).encode("latin-1")
    except UnicodeEncodeError as exc:
        raise HTTPException(f"a header value is not ISO-8859-1: {exc}") from exc


def _joined(fields: list[tuple[str, str]]) -> CaseInsensitiveDict:
    """Header lines by name; repeated lines are joined by ", ", as
    urllib3's ``HTTPHeaderDict`` joins them."""
    headers: CaseInsensitiveDict = CaseInsensitiveDict()
    for name, value in fields:
        seen = headers.get(name)
        headers[name] = value if seen is None else f"{seen}, {value}"
    return headers


def answered(exchange: Exchange[Reply]) -> Exchange[Answer]:
    """``exchange``, with a request error as its answer, not an exception."""
    try:
        return (yield from exchange), None
    except REQUEST_ERRORS as exc:
        return None, exc


class _Sent(NamedTuple):
    """A request as requests' ``MockRequest`` reads it for the cookie jar."""

    url: str
    headers: dict[str, str]


class _Received:
    """A reply's header lines as ``CookieJar.extract_cookies`` reads them:
    the response, and its ``info()``."""

    def __init__(self, fields: list[tuple[str, str]]) -> None:
        self._fields = fields

    def info(self) -> _Received:
        return self

    def get_all(self, name: str, default: list[str] | None = None) -> list[str] | None:
        name = name.lower()
        return [value for key, value in self._fields if key.lower() == name] or default


class Sessions:
    """The kept-alive connections, origin settings and cookie jar of one run.

    ``get`` keeps cookies in one jar for every thread, so a chain continued
    on another worker sends what its first page set; a probe brings its
    own jar to ``hop``. ``close`` replaces the jar and closes every idle
    connection; the origin settings are kept. A run closes its ``Sessions``
    at the end of each step, so cookies last one step.
    """

    def __init__(self) -> None:
        self._origins = Origins()
        self._lock = threading.Lock()
        self._cookies = CookieJar()
        # least recently used route first
        self._idle: OrderedDict[Route, list[wire.Conn]] = OrderedDict()
        # offer only the codings that ``_decoded`` undoes; requests' default
        # offers br and zstd too where their modules are installed
        self._headers = dict(
            default_headers(),
            **{"User-Agent": USER_AGENT, "Accept-Encoding": "gzip, deflate"},
        )

    def _send(
        self,
        url: str,
        params: dict[str, str] | None,
        accept: str,
        timeout: float,
        cookies: CookieJar,
        read: bool,
    ) -> Exchange[Reply]:
        """One GET, with no redirect followed and no retry, as an exchange.

        The request target is ``url`` with ``params`` as requests prepares
        it. The headers are requests' defaults with fairprobe's
        ``User-Agent`` and ``accept``, and the cookies of ``cookies``; the
        origin's proxy and CA bundle apply. The request goes out in one
        write when the exchange is first advanced, or once the connection
        that it opens then is open. The reply's cookies go into
        ``cookies``. Any body but a redirect's is read into ``Reply.data``
        when ``read`` is set. Every other body is drained (``wire.drained``)
        when it is small and arrives in time, so that its connection is kept
        as a session's redirect handling keeps it; otherwise the reply is
        closed unread with its connection. Raises one of ``REQUEST_ERRORS``
        when no reply arrives: ``TimeoutError`` when no byte of the head or
        of a read body arrives for ``timeout`` seconds, or a step of opening
        a connection takes longer.
        """
        target = _target(url, params)
        scheme = target.scheme
        found = self._origins.lookup(target.url, (scheme, target.host, target.port))
        headers = dict(self._headers, Accept=accept)
        request = _Sent(target.url, headers)
        # an empty jar gives no header. The jar's methods take its lock and
        # its length does not, but the length counts over copies of the jar's
        # dicts: cookies that another thread extracts meanwhile cannot make
        # it raise, and at worst this request goes out as if sent before them
        cookie = get_cookie_header(cookies, request) if cookies else None
        if cookie is not None:
            headers["Cookie"] = cookie
        if found.proxy is not None and scheme != "https":
            # a forward proxy is sent the absolute form
            path = urldefragauth(target.url)
            host = urlsplit(path).netloc
            if found.proxy_authorization is not None:
                headers["Proxy-Authorization"] = found.proxy_authorization
        else:
            path, host = target.path, target.authority
        message = _request_head(path, host, headers)
        route = (scheme, target.host, target.port or DEFAULT_PORTS[scheme], found.proxy)
        conn = self._checkout(route)
        if conn is None:
            conn = wire.Conn((yield from _open(route, found, timeout)))
        try:
            yield from wire.write(conn.sock, message, timeout)
            head = yield from wire.reply_head(conn, timeout)
        except BaseException:
            conn.close()
            raise
        reply = Reply(head.status, _joined(head.fields))
        if "Set-Cookie" in reply.headers or "Set-Cookie2" in reply.headers:
            cookies.extract_cookies(_Received(head.fields), MockRequest(request))
        redirect = head.status in REDIRECT_CODES and bool(reply.headers.get("Location"))
        try:
            if read and not redirect:
                body = yield from wire.reply_body(conn, head.length, timeout)
                kept = True
            else:
                # the reply stands whether or not its body arrives in time; a
                # body that does not costs its connection, not the request
                body = None
                kept = yield from wire.drained(conn, head, timeout)
        except BaseException:
            conn.close()
            raise
        if kept:
            self._checkin(route, conn, head.will_close)
        else:
            conn.close()
        if body is not None:
            reply.data = _decoded(body, reply.headers.get("Content-Encoding", ""))
        return reply

    def _checkout(self, route: Route) -> wire.Conn | None:
        """The route's most recently kept connection, unless there is none
        or its peer closed it while it was idle."""
        with self._lock:
            idle = self._idle.get(route)
            conn = idle.pop() if idle else None
        if conn is not None and _readable(conn.sock):
            conn.close()
            return None
        return conn

    def _checkin(self, route: Route, conn: wire.Conn, will_close: bool) -> None:
        """Keep a connection whose reply has been read, within the bounds,
        unless the reply closes it or more than the reply arrived."""
        if will_close or conn.unread():
            conn.close()
            return
        conn.data.clear()
        conn.pos = 0
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

    def hop_exchange(
        self, url: str, accept: str, timeout: float, cookies: CookieJar
    ) -> Exchange[Reply]:
        """A probe's request: ``_send`` with ``accept`` and ``cookies``.

        No body is kept: a small body that arrives in time is read only to
        keep the connection, and any other is closed unread with it.
        """
        return self._send(url, None, accept, timeout, cookies, read=False)

    def hop(self, url: str, accept: str, timeout: float, cookies: CookieJar) -> Reply:
        """``hop_exchange`` on the calling thread."""
        return finish(self.hop_exchange(url, accept, timeout, cookies))

    def get_exchange(
        self, url: str, params: dict[str, str] | None, timeout: float
    ) -> Exchange[Reply]:
        """A GET that follows redirects as a ``requests`` session does.

        Each hop is a ``_send`` with the jar of the ``Sessions``, so cookies
        and the proxy apply per hop. Returns the final reply with its body
        read: ``reply.data`` is decoded by its Content-Encoding. Raises one
        of ``REQUEST_ERRORS``: ``TooManyRedirects`` for a redirect past the
        first ``MAX_REDIRECTS``.
        """
        accept = self._headers["Accept"]
        redirects = 0
        while True:
            reply = yield from self._send(
                url, params, accept, timeout, self._cookies, read=True
            )
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
            url, params = redirect_url(url, location), None

    def get(self, url: str, params: dict[str, str] | None, timeout: float) -> Reply:
        """``get_exchange`` on the calling thread."""
        return finish(self.get_exchange(url, params, timeout))

    def ask(self, request: Request, timeout: float) -> Exchange[Answer]:
        """``get_exchange`` of a request that a job yielded, with a request
        error as its answer, not an exception."""
        url, params = request
        return answered(self.get_exchange(url, params, timeout))

    def close(self) -> None:
        with self._lock:
            self._cookies = CookieJar()
            idle, self._idle = self._idle, OrderedDict()
        for connections in idle.values():
            for conn in connections:
                conn.close()


def _open(route: Route, found: OriginSettings, timeout: float) -> Exchange[socket.socket]:
    """A new connection that reaches the route's origin, opened as
    ``http.client`` opens one: directly, through a forward proxy, or
    through a proxy's ``CONNECT`` tunnel for HTTPS, with TLS for HTTPS.
    Only the name lookup waits on the calling thread."""
    scheme, host, port, proxy = route
    if proxy is None:
        peer, peer_port = host, port
    else:
        where = urlsplit(proxy)
        if where.scheme != "http":
            raise HTTPException(f"not an http:// proxy: {proxy}")
        peer, peer_port = where.hostname, where.port or 80
    if _NOT_IN_TARGET.search(peer):
        raise InvalidURL(f"URL can't contain control characters. {peer!r}")
    sock = yield from wire.connect(peer, peer_port, timeout)
    if scheme != "https":
        return sock
    try:
        if proxy is not None:
            yield from wire.tunnel(sock, host, port, found.proxy_authorization, timeout)
    except BaseException:
        sock.close()
        raise
    return (yield from wire.handshake(sock, found.context, host, timeout))


def _readable(sock: socket.socket) -> bool:
    """Whether an idle connection has something to read: its peer closed
    it, as urllib3's ``is_connection_dropped`` tells."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


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

