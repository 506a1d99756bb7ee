"""The one place that makes ``requests`` sessions.

With ``trust_env`` on, ``requests`` reads the environment on every request
and on every redirect reply: the proxy variables with ``NO_PROXY`` (each
lookup walks all of ``os.environ``), ``~/.netrc`` and
``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE``. Sessions made here turn
``trust_env`` off and take the same settings from an ``Origins`` cache, which
reads them with requests' own helpers once per origin (scheme, host, port).
The cache lives on a ``Sessions`` object that each run creates, never in
module state, so a second run in the same process reads the environment
afresh. Changing those settings in the middle of a run has no effect.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator
from urllib.parse import urlsplit

import requests


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
    """One session per thread for one run, all sharing one ``Origins``.

    ``close`` closes every session made so far. A thread that asks again
    afterwards gets a new session; the origin settings are kept.
    """

    def __init__(self) -> None:
        self._origins = Origins()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[requests.Session] = []

    def current(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = _Session(self._origins)
            with self._lock:
                self._open.append(session)
            self._local.session = session
        return session

    def close(self) -> None:
        with self._lock:
            sessions, self._open = self._open, []
            self._local = threading.local()
        for session in sessions:
            session.close()


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
def scope(session: Sessions | None) -> Iterator[Callable[[], requests.Session]]:
    """What a fetching function's ``session`` argument means.

    Yields a function that returns the session for the calling thread: the
    run's own for a ``Sessions``, and for ``None`` one from a private
    ``Sessions`` that is closed on exit.
    """
    if session is not None:
        yield session.current
    else:
        own = Sessions()
        try:
            yield own.current
        finally:
            own.close()
