"""The one place that makes ``requests`` sessions and urllib3 pools.

With ``trust_env`` on, ``requests`` reads the environment on every request
and on every redirect reply: the proxy variables with ``NO_PROXY`` (each
lookup walks all of ``os.environ``), ``~/.netrc`` and
``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``. Sessions made here turn
``trust_env`` off and take the same settings from an ``Origins`` cache, which
reads them with requests' own helpers once per origin (scheme, host, port).
The cache lives on a ``Sessions`` object that each run creates, never in
module state, so a second run in the same process reads the environment
afresh. Changing those settings in the middle of a run has no effect.

Probe hops (``Sessions.hop``) skip the session: they follow no redirect,
are never retried and read no body but a redirect's, so they go to urllib3
directly, with the same origin settings and the same request a session
would send. The registry and OAI-PMH requests stay on sessions, which
follow their redirects, retry and decode their bodies.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from http.cookiejar import CookieJar
from typing import Any, Iterator
from urllib.parse import urlsplit

import certifi
import requests
import urllib3
from requests.cookies import extract_cookies_to_jar, get_cookie_header
from requests.utils import (
    default_headers,
    get_auth_from_url,
    prepend_scheme_if_needed,
    select_proxy,
    urldefragauth,
)

# requests' HTTPAdapter defaults: probe pools are sized as a session's are
POOL_SETTINGS: dict[str, Any] = {"num_pools": 10, "maxsize": 10, "block": False}
REDIRECT_CODES = (301, 302, 303, 307, 308)
# what ``Sessions.hop`` raises when no reply arrives
HOP_ERRORS = (urllib3.exceptions.HTTPError, OSError, requests.RequestException)


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


class _Session(requests.Session):
    """A session that applies ``origins`` where ``trust_env`` would apply
    the environment, with the same precedence."""

    def __init__(self, origins: Origins) -> None:
        super().__init__()
        self.trust_env = False
        self._origins = origins

    def prepare_request(self, request: requests.Request) -> requests.PreparedRequest:
        prepared = super().prepare_request(request)
        if not request.auth and not self.auth:
            auth = self._origins.lookup(prepared.url).netrc_auth
            if auth is not None:
                prepared.prepare_auth(auth)
        return prepared

    def merge_environment_settings(
        self,
        url: str,
        proxies: dict[str, str] | None,
        stream: bool | None,
        verify: Any,
        cert: Any,
    ) -> dict[str, Any]:
        found = self._origins.lookup(url)
        if proxies is not None:
            for key, value in found.proxies.items():
                proxies.setdefault(key, value)
        if verify is True or verify is None:
            verify = found.ca_bundle or verify
        return super().merge_environment_settings(url, proxies, stream, verify, cert)

    def rebuild_auth(
        self, prepared_request: requests.PreparedRequest, response: requests.Response
    ) -> None:
        super().rebuild_auth(prepared_request, response)
        auth = self._origins.lookup(prepared_request.url).netrc_auth
        if auth is not None:
            prepared_request.prepare_auth(auth)

    def rebuild_proxies(
        self,
        prepared_request: requests.PreparedRequest,
        proxies: dict[str, str] | None,
    ) -> dict[str, str]:
        found = self._origins.lookup(prepared_request.url).proxies
        scheme = urlsplit(prepared_request.url).scheme
        proxy = found.get(scheme, found.get("all"))
        proxies = dict(proxies or {})
        if proxy:
            proxies.setdefault(scheme, proxy)
        return super().rebuild_proxies(prepared_request, proxies)


class Sessions:
    """One session per thread and one pool manager for one run, all sharing
    one ``Origins``.

    ``close`` closes every session made so far and every pooled connection.
    A thread that asks again afterwards gets a new session; the origin
    settings are kept.
    """

    def __init__(self) -> None:
        self._origins = Origins()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[requests.Session] = []
        self._direct = urllib3.PoolManager(**POOL_SETTINGS)
        self._proxied: dict[str, urllib3.ProxyManager] = {}
        self._headers = dict(default_headers())

    def current(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = _Session(self._origins)
            with self._lock:
                self._open.append(session)
            self._local.session = session
        return session

    def hop(
        self, url: str, accept: str, timeout: float, cookies: CookieJar
    ) -> urllib3.BaseHTTPResponse:
        """One GET that follows no redirect and is never retried.

        The request is the one a session of this run would send: the same
        request target and headers, proxy, netrc ``Authorization`` and CA
        bundle, with ``cookies`` in place of the session's jar. The reply's
        cookies go into ``cookies``. A redirect's body is read, so that its
        connection goes back to the pool as a session's redirect handling
        does; any other reply is closed unread. Raises one of ``HOP_ERRORS``
        when no reply arrives: urllib3's, or requests' for a URL that it
        cannot prepare.
        """
        request = requests.PreparedRequest()
        request.prepare_url(url, None)
        found = self._origins.lookup(request.url)
        request.headers = dict(self._headers, Accept=accept)
        cookie = get_cookie_header(cookies, request)
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
            decode_content=False,
            timeout=urllib3.Timeout(connect=timeout, read=timeout),
        )
        extract_cookies_to_jar(cookies, request, reply)
        if reply.status in REDIRECT_CODES and "Location" in reply.headers:
            # a body that fails to arrive costs its connection, not the hop
            reply.drain_conn()
        else:
            reply.close()
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
            sessions, self._open = self._open, []
            self._local = threading.local()
            managers = [self._direct, *self._proxied.values()]
            self._proxied = {}
        for session in sessions:
            session.close()
        for manager in managers:
            manager.clear()


def xml_payload(reply: requests.Response) -> bytes | str:
    """The body of an XML reply, ready for ``ElementTree.fromstring``.

    A charset parameter in the Content-Type outranks the XML declaration
    (RFC 7303 section 3), so such a body is decoded by it. Without one the
    bytes are parsed as they are and the declaration sets the encoding;
    ``reply.text`` would decode them as ISO-8859-1.
    """
    if "charset" in reply.headers.get("Content-Type", "").lower():
        return reply.text
    return reply.content


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
