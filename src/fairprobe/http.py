"""The one place that sends HTTP requests: urllib3 pool managers per run.

Every request of a run, registry, OAI-PMH and probe alike, is one GET that
``Sessions._send`` puts on the wire through the pool managers of the run's
``Sessions``. It prepares the request as a ``requests`` session with
``trust_env`` on would: the same request target and header lines, proxy,
``~/.netrc`` ``Authorization`` and CA bundle. ``requests`` reads those from
the environment on every request and every redirect; here an ``Origins``
cache reads them with requests' own helpers once per origin (scheme, host,
port). The cache lives on a ``Sessions`` object that each run creates, never
in module state, so a second run in the same process reads the environment
afresh. Changing those settings in the middle of a run has no effect.

``Sessions.hop`` is a probe's request: no redirect followed, no body read
but a redirect's. ``Sessions.get`` serves the registry and OAI-PMH: it
follows redirects as requests does and reads the body. Retries and 503 flow
control belong to the OAI-PMH client, so neither path has a request policy.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from http.cookiejar import CookieJar
from typing import Any, Iterator
from urllib.parse import urlencode, urljoin, urlsplit

import certifi
import requests
import urllib3
from requests.compat import chardet
from requests.cookies import extract_cookies_to_jar, get_cookie_header
from requests.utils import (
    default_headers,
    get_auth_from_url,
    get_encoding_from_headers,
    prepend_scheme_if_needed,
    requote_uri,
    select_proxy,
    urldefragauth,
)

# requests' HTTPAdapter defaults: pools are sized as a session's are
POOL_SETTINGS: dict[str, Any] = {"num_pools": 10, "maxsize": 10, "block": False}
REDIRECT_CODES = (301, 302, 303, 307, 308)
MAX_REDIRECTS = 30  # requests.models.DEFAULT_REDIRECT_LIMIT


class TooManyRedirects(urllib3.exceptions.HTTPError):
    """``Sessions.get`` met more than ``MAX_REDIRECTS`` redirects."""


# what a request raises when no usable reply arrives: urllib3's errors, and
# requests' (OSError) for a URL that it cannot prepare
REQUEST_ERRORS = (urllib3.exceptions.HTTPError, OSError)


@dataclass(frozen=True)
class OriginSettings:
    proxies: dict[str, str]  # as requests.utils.get_environ_proxies returns them
    netrc_auth: tuple[str, str] | None
    ca_bundle: str | None


class Origins:
    """The environment's settings per origin, each read on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._settings: dict[tuple[str, str | None, int | None], OriginSettings] = {}

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
                    found = self._settings[key] = OriginSettings(
                        proxies=requests.utils.get_environ_proxies(url),
                        netrc_auth=requests.utils.get_netrc_auth(url),
                        ca_bundle=os.environ.get("REQUESTS_CA_BUNDLE")
                        or os.environ.get("CURL_CA_BUNDLE"),
                    )
        return found


class Sessions:
    """The pool managers, origin settings and cookie jars of one run.

    Each thread has its own cookie jar for ``get``; a probe brings its own.
    ``close`` drops every jar and closes every pooled connection; the
    origin settings are kept.
    """

    def __init__(self) -> None:
        self._origins = Origins()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._direct = urllib3.PoolManager(**POOL_SETTINGS)
        self._proxied: dict[str, urllib3.ProxyManager] = {}
        self._headers = dict(default_headers())

    def _send(
        self,
        url: str,
        params: dict[str, str] | None,
        accept: str,
        timeout: float,
        cookies: CookieJar,
    ) -> urllib3.BaseHTTPResponse:
        """One GET, with no redirect followed and no retry; the body is unread.

        The request target is ``url`` with ``params`` as requests prepares
        it. The headers are requests' defaults with ``accept``, the cookies
        of ``cookies`` and the origin's netrc ``Authorization``, and the
        origin's proxy and CA bundle apply. The reply's cookies go into
        ``cookies``. Raises one of ``REQUEST_ERRORS`` when no reply arrives.
        """
        request = requests.PreparedRequest()
        # encoded here as requests encodes a dict of strings, without its
        # costly checks of the argument's type
        request.prepare_url(url, urlencode(params or {}))
        found = self._origins.lookup(request.url)
        request.headers = dict(self._headers, Accept=accept)
        # an empty jar gives no header
        cookie = get_cookie_header(cookies, request) if cookies else None
        if cookie is not None:
            request.headers["Cookie"] = cookie
        if found.netrc_auth is not None:
            basic = urllib3.make_headers(basic_auth=":".join(found.netrc_auth))
            request.headers["Authorization"] = basic["authorization"]
        parts = urlsplit(request.url)
        target = request.path_url
        proxy = select_proxy(request.url, found.proxies)
        if proxy:
            manager = self._proxy_manager(prepend_scheme_if_needed(proxy, "http"))
            if parts.scheme != "https":
                # a forward proxy is sent the absolute form
                target = urldefragauth(request.url)
        else:
            manager = self._direct
        tls: dict[str, str] = {}
        if parts.scheme == "https":
            bundle = found.ca_bundle or certifi.where()
            where = "ca_cert_dir" if os.path.isdir(bundle) else "ca_certs"
            tls = {"cert_reqs": "CERT_REQUIRED", where: bundle}
        pool = manager.connection_from_host(
            parts.hostname, parts.port, parts.scheme, pool_kwargs=tls
        )
        reply = pool.urlopen(
            "GET",
            target,
            headers=request.headers,
            redirect=False,
            assert_same_host=False,
            retries=False,
            preload_content=False,
            timeout=urllib3.Timeout(connect=timeout, read=timeout),
        )
        extract_cookies_to_jar(cookies, request, reply)
        return reply

    def hop(
        self, url: str, accept: str, timeout: float, cookies: CookieJar
    ) -> urllib3.BaseHTTPResponse:
        """A probe's request: ``_send`` with ``accept`` and ``cookies``.

        A redirect's body is read, so that its connection goes back to the
        pool as a session's redirect handling does; any other reply is
        closed unread.
        """
        reply = self._send(url, None, accept, timeout, cookies)
        if reply.status in REDIRECT_CODES and "Location" in reply.headers:
            # a body that fails to arrive costs its connection, not the hop
            reply.drain_conn()
        else:
            reply.close()
        reply.release_conn()
        return reply

    def get(
        self, url: str, params: dict[str, str] | None, timeout: float
    ) -> urllib3.BaseHTTPResponse:
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
            reply = self._send(url, params, accept, timeout, cookies)
            location = (
                reply.headers.get("Location")
                if reply.status in REDIRECT_CODES
                else None
            )
            if not location:
                break
            reply.drain_conn()
            reply.release_conn()
            if redirects == MAX_REDIRECTS:
                raise TooManyRedirects(f"exceeded {MAX_REDIRECTS} redirects at {url}")
            redirects += 1
            url, params = urljoin(url, requote_uri(_as_utf8(location))), None
        reply.read(cache_content=True)  # kept on the reply as ``reply.data``
        reply.release_conn()
        return reply

    def _proxy_manager(self, proxy: str) -> urllib3.ProxyManager:
        with self._lock:
            manager = self._proxied.get(proxy)
            if manager is None:
                user, password = get_auth_from_url(proxy)
                headers = None
                if user:
                    basic = urllib3.make_headers(proxy_basic_auth=f"{user}:{password}")
                    headers = {"Proxy-Authorization": basic["proxy-authorization"]}
                manager = self._proxied[proxy] = urllib3.proxy_from_url(
                    proxy, proxy_headers=headers, **POOL_SETTINGS
                )
        return manager

    def close(self) -> None:
        with self._lock:
            self._local = threading.local()
            managers = [self._direct, *self._proxied.values()]
            self._proxied = {}
        for manager in managers:
            manager.clear()


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


def xml_payload(reply: urllib3.BaseHTTPResponse) -> bytes | str:
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
