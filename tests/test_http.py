"""Sessions: the environment's proxy settings apply, read once per origin,
and every request, probe hop, registry or OAI-PMH, goes on the wire and
follows redirects as a requests session would; replies are read as
http.client reads them."""

from __future__ import annotations

import gzip
import itertools
import random
import shutil
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection, HTTPException, HTTPResponse, InvalidURL
from http.cookiejar import CookieJar
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator, NamedTuple
from urllib.parse import urlencode, urlsplit

import pytest
import requests
from requests.structures import CaseInsensitiveDict
from requests.utils import get_encoding_from_headers

from fairprobe import __version__, http, mockrdr, oaipmh, pipeline, registry
from fairprobe.config import RunConfig
from fairprobe.datacite import DataciteRecord
from fairprobe.probe import ProbeTrace, f_ret
from fairprobe.throttle import HostGate
from fairprobe.wire import DRAIN_BOUND, Conn, finish, reply_body, reply_head

from open_files import needs_proc, sockets_to

PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")

FORMATS_XML = (
    b'<?xml version="1.0" encoding="UTF-8"?>'
    b'<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListMetadataFormats>'
    b"<metadataFormat><metadataPrefix>datacite</metadataPrefix></metadataFormat>"
    b"</ListMetadataFormats></OAI-PMH>"
)
FORMATS_REPLY = (200, {"Content-Type": "text/xml"}, FORMATS_XML)
IMAGE_REPLY = (200, {"Content-Type": "image/png"}, b"png")


@pytest.fixture
def clean_env(monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def list_formats(endpoint: str, sessions: http.Sessions, gate: HostGate) -> list[str]:
    config = RunConfig(timeout=5.0, politeness_delay=0.0)
    return oaipmh.list_metadata_formats(endpoint, config, gate=gate, session=sessions)


def reference_session() -> requests.Session:
    """A plain requests session that sends fairprobe's User-Agent, so that
    every other byte of a request can be compared with what it sends."""
    session = requests.Session()
    session.headers["User-Agent"] = http.USER_AGENT
    return session


def probe(resolver: str, sessions: http.Sessions, gate: HostGate) -> bool:
    config = RunConfig(doi_resolver=resolver, timeout=5.0, per_host_delay=0.0)
    retrievable, _ = f_ret(
        DataciteRecord(doi="10.9/x"), config, gate=gate, session=sessions
    )
    return retrievable


@pytest.mark.parametrize("no_proxy", [None, "127.0.0.1"])
def test_environment_proxy_applies_unless_no_proxy(
    scripted_http, clean_env, no_proxy, sessions, gate
):
    via_proxy, direct = [], []
    proxy = scripted_http([FORMATS_REPLY, IMAGE_REPLY], via_proxy)
    origin = scripted_http([FORMATS_REPLY, IMAGE_REPLY], direct)
    clean_env.setenv("HTTP_PROXY", proxy)
    if no_proxy is not None:
        clean_env.setenv("NO_PROXY", no_proxy)

    assert list_formats(origin + "/oai", sessions, gate) == ["datacite"]
    assert probe(origin + "/resolve/", sessions, gate)

    if no_proxy is None:
        # a forward proxy is sent the absolute form (RFC 9112 section 3.2.2)
        assert via_proxy == [
            origin + "/oai?verb=ListMetadataFormats",
            origin + "/resolve/10.9/x",
        ]
        assert direct == []
    else:
        assert via_proxy == []
        assert direct == ["/oai?verb=ListMetadataFormats", "/resolve/10.9/x"]


def test_a_probe_hop_sends_what_a_session_sends(scripted_http, clean_env, tmp_path):
    # save the credentials a session reads from the netrc file: a probe
    # sends none
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password secret\n")
    clean_env.setenv("NETRC", str(netrc))
    targets, headers = [], []
    origin = scripted_http([IMAGE_REPLY] * 2, targets, headers)
    url = origin + "/resolve/10.9/a b"
    sessions = http.Sessions()
    try:
        reply = sessions.hop(url, "image/*", 5.0, CookieJar())
    finally:
        sessions.close()
    # how a probe hop was sent through requests
    with reference_session() as reference:
        reference.get(
            url,
            headers={"Accept": "image/*"},
            allow_redirects=False,
            stream=True,
            timeout=5.0,
        ).close()
    assert reply.status == 200
    assert targets == ["/resolve/10.9/a%20b"] * 2
    assert ("Authorization", "Basic YWxpY2U6c2VjcmV0") in headers[1]
    assert headers[0] == without_authorization(headers[1])
    assert ("Accept", "image/*") in headers[0]


def test_settings_are_read_once_per_origin_per_run(
    scripted_http, clean_env, sessions, gate
):
    via_proxy, direct = [], []
    proxy = scripted_http([FORMATS_REPLY] * 2, via_proxy)
    origin = scripted_http([FORMATS_REPLY] * 2, direct)
    first_run = http.Sessions()
    try:
        assert list_formats(origin + "/oai", first_run, gate) == ["datacite"]
        clean_env.setenv("HTTP_PROXY", proxy)
        # this run has read its settings for the origin already
        assert list_formats(origin + "/oai", first_run, gate) == ["datacite"]
    finally:
        first_run.close()
    assert len(direct) == 2 and via_proxy == []
    # a new run reads the environment again
    assert list_formats(origin + "/oai", sessions, gate) == ["datacite"]
    assert via_proxy == [origin + "/oai?verb=ListMetadataFormats"]


class Wire(ThreadingHTTPServer):
    """A loopback HTTP/1.1 server that keeps connections alive; see ``wire``."""

    daemon_threads = True
    request_queue_size = 32

    def __init__(self, replies, hang_up: bool, barrier: threading.Barrier | None):
        self.log: list[tuple[int, str, list[tuple[str, str]]]] = []
        self.closed = threading.Semaphore(0)
        queue = list(replies)
        lock = threading.Lock()
        connections = itertools.count()
        log = self.log

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def setup(self):
                super().setup()
                self.number = next(connections)

            def do_GET(self):
                with lock:
                    log.append((self.number, self.requestline, self.headers.items()))
                    status, headers, body = queue.pop(0) if len(queue) > 1 else queue[0]
                if barrier is not None:
                    barrier.wait(timeout=10)
                self.send_response(status)
                for name, value in headers:
                    self.send_header(name, value)
                if not any(name.lower() == "transfer-encoding" for name, _ in headers):
                    self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                if hang_up:
                    self.close_connection = True

            do_CONNECT = do_GET

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@pytest.fixture
def serve():
    """Runs each ``socketserver`` server given to it on a thread of its own;
    shuts every one down after the test."""
    running: list[tuple[socketserver.BaseServer, threading.Thread]] = []

    def launch(server):
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        running.append((server, thread))
        return server

    yield launch
    for server, thread in running:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


@pytest.fixture
def wire(serve):
    """Loopback HTTP/1.1 servers that keep connections alive.

    ``wire(replies)`` starts one. It answers each request, a CONNECT too,
    with the next (status, header lines, body) of ``replies``, the last one
    repeating, and logs it in ``server.log`` as (connection number, request
    line, header lines in wire order). A reply gets a Content-Length line
    unless it has a Transfer-Encoding line. With ``hang_up`` the server
    closes each connection after one reply, without a ``Connection: close``
    line; ``server.closed`` is released whenever it closes one. With a
    ``barrier`` each reply waits for it.
    """

    def launch(replies, hang_up: bool = False, barrier=None) -> Wire:
        return serve(Wire(replies, hang_up, barrier))

    return launch


def sent_as_a_session_sends(servers: dict[str, Wire], urls: list[str]) -> dict:
    """GET each of ``urls`` with ``Sessions.get`` and then with a plain
    ``requests.Session`` that sends fairprobe's User-Agent; assert that
    ``servers`` saw the same request lines and header lines from both, and
    that the same URLs failed. Returns what the servers saw."""

    def send_all(send, errors) -> tuple[list[str], dict[str, list]]:
        failed = []
        for url in urls:
            try:
                send(url)
            except errors:
                failed.append(url)
        seen = {}
        for name, server in servers.items():
            seen[name] = [(line, headers) for _, line, headers in server.log]
            server.log.clear()
        return failed, seen

    sessions = http.Sessions()
    try:
        ours = send_all(lambda url: sessions.get(url, None, 5.0), http.REQUEST_ERRORS)
    finally:
        sessions.close()
    with reference_session() as session:
        reference = send_all(
            lambda url: session.get(url, timeout=5.0), requests.RequestException
        )
    assert ours == reference
    return ours[1]


@pytest.mark.parametrize(
    "url",
    ["http://127.0.0.1:8/a", "http://repo.example:8080/b", "https://images.example/c"],
)
def test_settings_match_requests_reading_the_environment(clean_env, tmp_path, wire, url):
    # no netrc file, so that a session sends no credentials either
    clean_env.setenv("NETRC", str(tmp_path / "no-netrc"))
    direct = wire([(200, [], b"ok")])
    # the two example hosts are only ever sent to a proxy; port 8 of
    # 127.0.0.1 stands for the port of the origin reached directly
    url = url.replace("127.0.0.1:8/", direct.url[len("http://"):] + "/")
    http_proxy = wire([(200, [], b"ok")])
    https_proxy = wire([(502, [], b"")])  # so a tunnel fails on both sides alike
    clean_env.setenv("HTTP_PROXY", http_proxy.url)
    clean_env.setenv("HTTPS_PROXY", https_proxy.url)
    clean_env.setenv("NO_PROXY", "127.0.0.1,localhost")
    # the request itself, then a redirect to it from another origin
    redirect = wire([(302, [("Location", url)], b"")])
    seen = sent_as_a_session_sends(
        {"direct": direct, "redirect": redirect,
         "http proxy": http_proxy, "https proxy": https_proxy},
        [url, redirect.url.replace("127.0.0.1", "localhost") + "/"],
    )
    assert sum(map(len, seen.values())) == 3


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_a_proxy_with_userinfo_is_sent_what_a_session_sends(clean_env, wire, scheme):
    # a tunnel is refused, so the handshake fails on both sides alike
    proxy = wire([(200 if scheme == "http" else 502, [], b"")])
    clean_env.setenv(scheme.upper() + "_PROXY", proxy.url.replace("//", "//carol:p%20w@"))
    seen = sent_as_a_session_sends({"proxy": proxy}, [f"{scheme}://repo.example/b?c=d"])
    line, headers = seen["proxy"][0]
    if scheme == "http":
        # a forward proxy is sent the absolute form (RFC 9112 section 3.2.2)
        assert line == "GET http://repo.example/b?c=d HTTP/1.1"
    else:
        assert line == "CONNECT repo.example:443 HTTP/1.0"
    assert ("Proxy-Authorization", "Basic Y2Fyb2w6cCB3") in headers


class TLSOrigin(NamedTuple):
    url: str
    cert: Path
    closed: threading.Semaphore  # released whenever the origin closes a connection


@pytest.fixture
def tls_origin(tmp_path):
    """An HTTPS origin on loopback with a self-signed certificate; yields a
    ``TLSOrigin``. It answers as HTTP/1.0 and closes each connection after
    one reply; ``/hang-up`` is answered as HTTP/1.1 without a
    ``Connection: close`` line, and then the connection closes too."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("no openssl to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec",
         "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
         "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=30,
    )

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def do_GET(self):
            if self.path == "/hang-up":
                self.protocol_version = "HTTP/1.1"
            self.send_response(200)
            self.send_header("Content-Type", "image/png")
            self.send_header("Content-Length", "0")
            self.end_headers()

    closed = threading.Semaphore(0)

    class Server(ThreadingHTTPServer):
        daemon_threads = True

        def shutdown_request(self, request):
            super().shutdown_request(request)
            closed.release()

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = Server(("127.0.0.1", 0), Handler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield TLSOrigin(f"https://127.0.0.1:{server.server_address[1]}", cert, closed)
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def test_a_probe_verifies_against_the_environment_ca_bundle(
    tls_origin, clean_env, sessions, gate
):
    origin, cert, _ = tls_origin
    clean_env.delenv("REQUESTS_CA_BUNDLE", raising=False)
    clean_env.delenv("CURL_CA_BUNDLE", raising=False)
    # certifi's bundle does not hold the self-signed certificate
    assert not probe(origin + "/", sessions, gate)
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
    # a new run reads the environment again
    next_run = http.Sessions()
    try:
        assert probe(origin + "/", next_run, gate)
    finally:
        next_run.close()


def test_a_certificate_for_another_host_name_fails_the_probe(
    tls_origin, clean_env, sessions, gate
):
    origin, cert, _ = tls_origin
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
    config = RunConfig(
        doi_resolver=origin.replace("127.0.0.1", "localhost") + "/",
        timeout=5.0, per_host_delay=0.0,
    )
    # the certificate names IP 127.0.0.1 only
    retrievable, trace = f_ret(
        DataciteRecord(doi="10.9/x"), config, gate=gate, session=sessions
    )
    assert not retrievable
    assert (trace.steps[0].status, trace.reason) == (0, "transport")


class TunnelProxy(socketserver.ThreadingTCPServer):
    """A proxy that answers ``CONNECT`` with 200 and then relays bytes both
    ways between the client and the host named; logs each request line."""

    daemon_threads = True

    def __init__(self):
        log = self.log = []

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                line = self.rfile.readline().decode("latin-1").rstrip("\r\n")
                log.append(line)
                while self.rfile.readline() not in (b"\r\n", b"\n", b""):
                    pass
                host, port = line.split()[1].rsplit(":", 1)
                with socket.create_connection((host, int(port)), timeout=5) as origin:
                    self.wfile.write(b"HTTP/1.0 200 Connection established\r\n\r\n")
                    back = threading.Thread(target=relay, args=(origin, self.connection))
                    back.start()
                    relay(self.connection, origin)
                    back.join(timeout=5)

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


def relay(source: socket.socket, sink: socket.socket) -> None:
    try:
        while data := source.recv(65536):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def test_an_https_probe_goes_through_a_proxys_tunnel(
    tls_origin, clean_env, serve, sessions, gate
):
    origin, cert, _ = tls_origin
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
    proxy = serve(TunnelProxy())
    clean_env.setenv("HTTPS_PROXY", proxy.url)
    assert probe(origin + "/", sessions, gate)
    assert proxy.log == [f"CONNECT {origin[len('https://'):]} HTTP/1.0"]


def test_a_run_loads_its_ca_bundle_once(tls_origin, clean_env, monkeypatch, gate):
    origin, cert, _ = tls_origin
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
    loads = []
    load = ssl.SSLContext.load_verify_locations

    def counted(context, *args, **kwargs):
        loads.append(args)
        return load(context, *args, **kwargs)

    monkeypatch.setattr(ssl.SSLContext, "load_verify_locations", counted)
    config = RunConfig(doi_resolver=origin + "/", timeout=5.0, per_host_delay=0.0)
    sessions = http.Sessions()
    try:
        # the HTTP/1.0 origin closes each connection, so each probe connects anew
        for doi in ("10.9/a", "10.9/b"):
            assert f_ret(DataciteRecord(doi=doi), config, gate=gate, session=sessions)[0]
    finally:
        sessions.close()
    assert len(loads) == 1


def count_environment_reads(monkeypatch) -> dict[str, int]:
    """Count requests' proxy and netrc lookups, by whichever module calls them."""
    counts = {"get_environ_proxies": 0, "get_netrc_auth": 0}
    lock = threading.Lock()
    for name in counts:
        original = getattr(requests.utils, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            with lock:
                counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(requests.utils, name, counted)
        monkeypatch.setattr(requests.sessions, name, counted)
    return counts


def test_a_run_reads_the_environment_once_per_origin(
    fixtures_dir, serve_script, make_config, monkeypatch
):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    counts = count_environment_reads(monkeypatch)
    origins = set()
    sends = 0
    original_send = http.Sessions._send

    def send(sessions, url, *args, **kwargs):
        nonlocal sends
        parts = urlsplit(url)
        origins.add((parts.scheme, parts.hostname, parts.port))
        sends += 1
        return original_send(sessions, url, *args, **kwargs)

    monkeypatch.setattr(http.Sessions, "_send", send)
    pipeline.run_all(make_config(hub))

    assert origins
    assert 0 < counts["get_environ_proxies"] <= len(origins)
    assert counts["get_netrc_auth"] == 0
    # every request the landscape received went through the one send method
    assert sends == len(hub.request_log)


def test_threads_on_a_new_origin_read_it_once(monkeypatch):
    counts = count_environment_reads(monkeypatch)
    origins = http.Origins()
    urls = [f"http://127.0.0.1:{port}/x" for port in (1001, 1002, 1003, 1004)]
    start = threading.Barrier(16)

    def look_up_all() -> None:
        start.wait(timeout=10)
        for url in urls * 50:
            origins.lookup(url)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=look_up_all) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts == {"get_environ_proxies": 4, "get_netrc_auth": 0}


# --- registry and OAI-PMH requests on the wire ---------------------------------

XML = {"Content-Type": "text/xml"}
TOKEN = "a|b c/d+e"
RECORD = (
    "<record><header><identifier>oai:x:{n}</identifier></header>"
    '<metadata><resource xmlns="http://datacite.org/schema/kernel-4">'
    '<identifier identifierType="DOI">10.1/{n}</identifier>'
    "<geoLocations><geoLocation><geoLocationPlace>Zürich</geoLocationPlace>"
    "</geoLocation></geoLocations></resource></metadata></record>"
)


def list_records(n: int, token: str = "") -> str:
    """A ListRecords page with record ``n``, and a token when one is given."""
    token_element = f"<resumptionToken>{token}</resumptionToken>" if token else ""
    return (
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords>'
        f"{RECORD.format(n=n)}{token_element}</ListRecords></OAI-PMH>"
    )


def harvest(
    endpoint: str, sessions: http.Sessions, gate: HostGate, **kwargs
) -> tuple[oaipmh.HarvestSummary, list]:
    """Harvest; returns the summary and each page's (body, identifiers).
    ``kwargs`` go to ``harvest_records``."""
    pages = []
    summary = oaipmh.harvest_records(
        endpoint,
        "datacite",
        RunConfig(timeout=5.0, politeness_delay=0.0),
        lambda body, records: pages.append(
            (body, [record.oai_identifier for record in records])
        ),
        gate=gate,
        session=sessions,
        **kwargs,
    )
    return summary, pages


def header_values(lines: list[tuple[str, str]], name: str) -> list[str]:
    return [value for key, value in lines if key.lower() == name.lower()]


def without_authorization(lines: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(key, value) for key, value in lines if key.lower() != "authorization"]


def test_no_request_of_a_run_carries_credentials(
    fixtures_dir, serve_script, make_config, clean_env, tmp_path, monkeypatch
):
    # a netrc file that names the landscape's host, as an operator's might
    netrc = tmp_path / "netrc"
    netrc.write_text(
        "machine 127.0.0.1 login alice password secret\n"
        "default login bob password other\n"
    )
    clean_env.setenv("NETRC", str(netrc))
    hub = serve_script(mockrdr.load_script(fixtures_dir / "scenario_styles.json"))
    sent = []
    request_head = http._request_head

    def head(target, host, headers):
        sent.append(dict(headers))
        return request_head(target, host, headers)

    monkeypatch.setattr(http, "_request_head", head)
    pipeline.run_all(make_config(hub))
    # registry, OAI-PMH and probe requests alike
    assert len(sent) == len(hub.request_log) > 0
    assert [headers for headers in sent if "Authorization" in headers] == []


def test_an_oai_request_goes_on_the_wire_as_a_session_sends_it(
    scripted_http, clean_env, tmp_path
, sessions, gate):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password secret\n")
    clean_env.setenv("NETRC", str(netrc))
    targets, headers = [], []
    reply = (200, XML, list_records(1).encode())
    endpoint = scripted_http([reply] * 2, targets, headers) + "/oai"
    config = RunConfig(timeout=5.0, politeness_delay=0.0)
    summary = oaipmh.harvest_records(
        endpoint, "datacite", config, lambda body, records: None,
        gate=gate, session=sessions, token=TOKEN,
    )
    with reference_session() as reference:
        reference.get(
            endpoint,
            params={"verb": "ListRecords", "resumptionToken": TOKEN},
            timeout=5.0,
        )
    assert summary.completed
    assert targets == ["/oai?verb=ListRecords&resumptionToken=a%7Cb+c%2Fd%2Be"] * 2
    # save the credentials a session reads from the netrc file
    assert header_values(headers[1], "Authorization") == ["Basic YWxpY2U6c2VjcmV0"]
    assert headers[0] == without_authorization(headers[1])


def test_a_relative_redirect_is_followed(scripted_http, clean_env, sessions, gate):
    targets = []
    moved = (302, {"Location": "../moved/oai?verb=ListMetadataFormats"}, b"")
    origin = scripted_http([moved, FORMATS_REPLY], targets)
    assert list_formats(origin + "/old/oai", sessions, gate) == ["datacite"]
    assert targets == [
        "/old/oai?verb=ListMetadataFormats",
        "/moved/oai?verb=ListMetadataFormats",
    ]


def test_a_utf8_location_is_read_as_requests_reads_it(
    scripted_http, clean_env, sessions, gate
):
    # header text arrives read as ISO-8859-1: these two characters are the
    # UTF-8 bytes of "ä"
    moved = (302, {"Location": "/m\u00c3\u00a4?verb=ListMetadataFormats"}, b"")
    ours, reference = [], []
    origin = scripted_http([moved, FORMATS_REPLY], ours)
    assert list_formats(origin + "/oai", sessions, gate) == ["datacite"]
    with requests.Session() as session:
        session.get(scripted_http([moved, FORMATS_REPLY], reference) + "/oai")
    assert ours[1] == reference[1] == "/m%C3%A4?verb=ListMetadataFormats"


def test_a_location_that_is_not_utf8_is_followed(
    scripted_http, clean_env, sessions, gate
):
    # requests raises UnicodeDecodeError here; the ISO-8859-1 reading is kept
    targets = []
    moved = (302, {"Location": "/caf\u00e9?verb=ListMetadataFormats"}, b"")
    origin = scripted_http([moved, FORMATS_REPLY], targets)
    assert list_formats(origin + "/oai", sessions, gate) == ["datacite"]
    assert targets[1] == "/caf%C3%A9?verb=ListMetadataFormats"


def test_each_redirect_hop_chooses_its_own_proxy(
    scripted_http, clean_env, sessions, gate
):
    via_proxy, direct = [], []
    proxy = scripted_http([FORMATS_REPLY], via_proxy)
    # never contacted: the proxy answers for it
    target = "http://localhost:9/oai?verb=ListMetadataFormats"
    origin = scripted_http([(302, {"Location": target}, b"")], direct)
    clean_env.setenv("HTTP_PROXY", proxy)
    clean_env.setenv("NO_PROXY", "127.0.0.1")
    assert list_formats(origin + "/oai", sessions, gate) == ["datacite"]
    assert direct == ["/oai?verb=ListMetadataFormats"]
    assert via_proxy == [target]


@pytest.mark.parametrize("redirects", [30, 31])
def test_a_harvest_follows_thirty_redirects(
    scripted_http, clean_env, caplog, redirects, sessions, gate
):
    targets = []
    again = (302, {"Location": "/oai?verb=ListRecords&metadataPrefix=datacite"}, b"")
    page = (200, XML, list_records(1).encode())
    # a 31st redirect ends the request without a retry
    endpoint = scripted_http([again] * redirects + [page], targets) + "/oai"
    with caplog.at_level("WARNING", logger="fairprobe"):
        summary, pages = harvest(endpoint, sessions, gate)
    assert len(targets) == 31
    if redirects == 30:
        assert summary.completed and pages[0][1] == ["oai:x:1"]
    else:
        assert not summary.completed and pages == []
        assert "harvest is partial" in caplog.text
        assert "attempts left" not in caplog.text


def test_the_registry_fails_on_the_thirty_first_redirect(
    scripted_http, clean_env, sessions
):
    targets = []
    again = (302, {"Location": "/registry/repositories"}, b"")
    registry_url = scripted_http([again] * 31, targets) + "/registry"
    with pytest.raises(registry.RegistryUnreachableError):
        registry.fetch_repository_list(
            RunConfig(registry_url=registry_url, timeout=5.0), session=sessions
        )
    assert len(targets) == 31


def test_a_gzip_encoded_page_is_decoded(scripted_http, clean_env, sessions, gate):
    body = list_records(1).encode()
    gzipped = (200, dict(XML, **{"Content-Encoding": "gzip"}), gzip.compress(body))
    summary, pages = harvest(scripted_http([gzipped]) + "/oai", sessions, gate)
    assert summary.completed
    assert pages == [(body, ["oai:x:1"])]


@pytest.mark.parametrize(
    "content_type, encoding",
    [
        ("text/xml; charset=ISO-8859-1", "iso-8859-1"),
        ('application/xml;charset="utf-8"', "utf-8"),
        ("text/xml; Charset=UTF-16", "utf-16"),
        # requests falls back to UTF-8 with replacement characters
        ("text/xml; charset=x-no-such-charset", "iso-8859-1"),
    ],
)
def test_a_charset_tagged_page_reads_as_requests_text(
    scripted_http, clean_env, content_type, encoding
, sessions, gate):
    body = list_records(1).encode(encoding)
    headers = {"Content-Type": content_type}
    endpoint = scripted_http([(200, headers, body)]) + "/oai"
    summary, pages = harvest(endpoint, sessions, gate)
    reference = requests.Response()
    reference._content = body
    reference.headers = CaseInsensitiveDict(headers)
    reference.encoding = get_encoding_from_headers(reference.headers)
    assert summary.completed
    assert pages == [(reference.text, ["oai:x:1"])]


def test_a_cookie_lasts_until_the_sessions_close(
    scripted_http, clean_env, sessions, gate
):
    headers = []
    first = dict(XML, **{"Set-Cookie": "sid=abc; Path=/"})
    chain = [
        (200, first, list_records(1, token="next").encode()),
        (200, XML, list_records(2).encode()),
        FORMATS_REPLY,
    ]
    endpoint = scripted_http(chain * 2, None, headers) + "/oai"

    def in_one_call() -> oaipmh.HarvestSummary:
        return harvest(endpoint, sessions, gate)[0]

    def on_two_threads() -> oaipmh.HarvestSummary:
        # as step 3 walks a chain: page 1, then the rest on whichever worker is free
        with ThreadPoolExecutor(1) as one, ThreadPoolExecutor(1) as another:
            page_1, _ = one.submit(
                harvest, endpoint, sessions, gate, first_page_only=True
            ).result()
            rest, _ = another.submit(
                harvest, endpoint, sessions, gate, token=page_1.token
            ).result()
        return page_1 + rest

    for walk in (in_one_call, on_two_threads):
        summary = walk()
        assert summary.completed and summary.pages == 2
        sessions.close()
        assert list_formats(endpoint, sessions, gate) == ["datacite"]
    assert [header_values(lines, "Cookie") for lines in headers] == [
        [], ["sid=abc"], []
    ] * 2


def test_workers_sharing_the_jar_lose_no_cookie(scripted_http, clean_env, sessions):
    # each reply sets its own cookie while other workers send and extract
    count = 200
    headers = []
    replies = [(200, {"Set-Cookie": f"c{i}=1; Path=/"}, b"") for i in range(count)]
    url = scripted_http([*replies, (200, {}, b"")], None, headers) + "/x"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            statuses = list(pool.map(
                lambda _: sessions.get(url, None, 5.0).status, range(count), timeout=60
            ))
    finally:
        sys.setswitchinterval(interval)
    assert statuses == [200] * count
    assert sessions.get(url, None, 5.0).status == 200
    sent = header_values(headers[-1], "Cookie")
    assert len(sent) == 1
    assert sorted(sent[0].split("; ")) == sorted(f"c{i}=1" for i in range(count))


# --- kept-alive connections ----------------------------------------------------

def test_two_link_lines_are_joined_in_the_trace(wire, clean_env, sessions, gate):
    links = [("Link", '<a.png>; rel="item"'), ("Link", '<b.tif>; rel="item"')]
    landing = wire([(200, [("Content-Type", "text/html"), *links], b"")])
    config = RunConfig(doi_resolver=landing.url, timeout=5.0, per_host_delay=0.0)
    _, trace = f_ret(DataciteRecord(doi="10.9/x"), config, gate=gate, session=sessions)
    assert trace.steps[0].link_header == '<a.png>; rel="item", <b.tif>; rel="item"'


@pytest.mark.parametrize("close", [False, True])
def test_a_connection_is_kept_unless_the_reply_says_close(wire, clean_env, close):
    server = wire([(200, [("Connection", "close")] if close else [], b"ok")])
    sessions = http.Sessions()
    try:
        for _ in range(2):
            assert sessions.get(server.url + "/x", None, 5.0).status == 200
    finally:
        sessions.close()
    assert [number for number, _, _ in server.log] == ([0, 1] if close else [0, 0])


def test_a_connection_closed_while_idle_is_not_reused(wire, clean_env):
    server = wire([(200, [], b"ok")], hang_up=True)
    sessions = http.Sessions()
    try:
        assert sessions.get(server.url + "/x", None, 5.0).status == 200
        assert server.closed.acquire(timeout=5)
        assert sessions.get(server.url + "/x", None, 5.0).status == 200
    finally:
        sessions.close()
    assert [number for number, _, _ in server.log] == [0, 1]


def test_a_tls_connection_closed_while_idle_is_not_reused(tls_origin, clean_env):
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(tls_origin.cert))
    sessions = http.Sessions()
    try:
        assert sessions.get(tls_origin.url + "/hang-up", None, 5.0).status == 200
        assert tls_origin.closed.acquire(timeout=5)
        # the kept connection would end this request without a reply
        assert sessions.get(tls_origin.url + "/hang-up", None, 5.0).status == 200
    finally:
        sessions.close()


def chunked(body: bytes) -> bytes:
    """``body`` in two chunks, as Transfer-Encoding: chunked frames it."""
    half = len(body) // 2
    return b"".join(
        b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:half], body[half:], b"")
    )


def raw_deflate(body: bytes) -> bytes:
    squeeze = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    return squeeze.compress(body) + squeeze.flush()


@pytest.mark.parametrize(
    "headers, framed",
    [
        ([("Transfer-Encoding", "chunked")], chunked),
        ([("Content-Encoding", "deflate")], zlib.compress),
        ([("Content-Encoding", "deflate")], raw_deflate),
        # two gzip members, as a concatenation of gzip files is
        ([("Content-Encoding", "gzip")],
         lambda body: gzip.compress(body[:50]) + gzip.compress(body[50:])),
        ([("Content-Encoding", "gzip"), ("Transfer-Encoding", "chunked")],
         lambda body: chunked(gzip.compress(body))),
    ],
    ids=["chunked", "deflate", "raw-deflate", "gzip-members", "chunked-gzip"],
)
def test_a_framed_or_encoded_page_is_read(
    wire, clean_env, headers, framed, sessions, gate
):
    body = list_records(1).encode()
    page = wire([(200, [("Content-Type", "text/xml"), *headers], framed(body))])
    summary, pages = harvest(page.url + "/oai", sessions, gate)
    assert summary.completed
    assert pages == [(body, ["oai:x:1"])]


@needs_proc
def test_idle_connections_are_kept_for_ten_origins(wire, clean_env):
    servers = [wire([(200, [], b"ok")]) for _ in range(11)]
    sessions = http.Sessions()
    try:
        for server in servers:
            assert sessions.get(server.url + "/x", None, 5.0).status == 200
        kept = [len(sockets_to(urlsplit(server.url).port)) for server in servers]
    finally:
        sessions.close()
    # the least recently used origin's connection was closed
    assert kept == [0] + [1] * 10


@needs_proc
def test_ten_idle_connections_are_kept_per_origin(wire, clean_env):
    # eleven requests in flight at once, each on its own connection
    server = wire([(200, [], b"ok")], barrier=threading.Barrier(11))
    sessions = http.Sessions()
    try:
        with ThreadPoolExecutor(max_workers=11) as pool:
            replies = list(pool.map(
                lambda _: sessions.get(server.url + "/x", None, 5.0), range(11)
            ))
        kept = len(sockets_to(urlsplit(server.url).port))
    finally:
        sessions.close()
    assert [reply.status for reply in replies] == [200] * 11
    assert len({number for number, _, _ in server.log}) == 11
    assert kept == 10


# --- requests and replies as they go on the wire -------------------------------

def test_a_probe_follows_a_utf8_location_as_a_session_does(
    scripted_http, clean_env, sessions, gate
):
    # header text arrives read as ISO-8859-1: these two characters are the
    # UTF-8 bytes of "ä"
    moved = (302, {"Location": "/mÃ¤.png"}, b"")
    ours, reference = [], []
    assert probe(scripted_http([moved, IMAGE_REPLY], ours) + "/resolve/", sessions, gate)
    with requests.Session() as session:
        session.get(scripted_http([moved, IMAGE_REPLY], reference) + "/resolve/10.9/x")
    assert ours[1] == reference[1] == "/m%C3%A4.png"


def test_a_probe_follows_a_utf8_link_target_as_a_session_does(
    scripted_http, clean_env, sessions, gate
):
    # the UTF-8 bytes of "ä", read as ISO-8859-1 like all header text
    landing = (200, {"Content-Type": "text/html", "Link": '<mÃ¤.png>; type="image/png"'}, b"")
    ours, reference = [], []
    resolver = scripted_http([landing, IMAGE_REPLY], ours) + "/resolve/"
    config = RunConfig(doi_resolver=resolver, timeout=5.0, per_host_delay=0.0)
    record = DataciteRecord(doi="10.9/x", formats=["image/png"])
    retrievable, trace = f_ret(record, config, gate=gate, session=sessions)
    assert retrievable and trace.outcome == "link_negotiated"
    with requests.Session() as session:
        session.get(scripted_http([IMAGE_REPLY], reference) + "/resolve/10.9/mä.png")
    assert ours[1] == reference[0] == "/resolve/10.9/m%C3%A4.png"


def test_a_header_value_that_would_split_the_head_is_refused(scripted_http, clean_env):
    targets = []
    origin = scripted_http([IMAGE_REPLY], targets)
    sessions = http.Sessions()
    try:
        for accept in ("image/png\r\nX-Injected: 1", "image/png\nX: 1", "image/png\r"):
            with pytest.raises(HTTPException):
                sessions.hop(origin + "/x", accept, 5.0, CookieJar())
        # a folded value goes out as http.client sends it
        assert sessions.hop(origin + "/x", "image/png,\r\n image/*", 5.0, CookieJar()).status == 200
    finally:
        sessions.close()
    assert targets == ["/x"]


@pytest.mark.parametrize("target", ["/a b", "/a\x00", "/a\x7f", "http://h/\t"])
def test_a_target_with_a_control_character_or_space_is_refused(target):
    with pytest.raises(InvalidURL):
        http._request_head(target, "h", {})


def request_heads(rfile) -> Iterator[str]:
    """The request target of each request head that arrives on ``rfile``,
    until the client closes the connection."""
    try:
        while line := rfile.readline():  # a request line
            while rfile.readline() not in (b"\r\n", b""):
                pass
            yield line.split()[1].decode()
    except ConnectionResetError:  # the client closed it with a reply unread
        return


class RawOrigin(socketserver.ThreadingTCPServer):
    """A loopback origin that answers each request head with ``reply`` in
    one write, and logs each request's connection number. With ``hang_up``
    it closes each connection after one reply."""

    daemon_threads = True

    def __init__(self, reply: bytes, hang_up: bool = False):
        self.log: list[int] = []
        connections = itertools.count()
        log = self.log

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                number = next(connections)
                for _ in request_heads(self.rfile):
                    log.append(number)
                    self.wfile.write(reply)
                    if hang_up:
                        return

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


def test_a_connection_with_bytes_beyond_the_reply_is_not_reused(serve, clean_env):
    server = serve(RawOrigin(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA"))
    sessions = http.Sessions()
    try:
        replies = [sessions.get(server.url + "/x", None, 5.0) for _ in range(2)]
    finally:
        sessions.close()
    assert [(reply.status, reply.data) for reply in replies] == [(200, b"ok")] * 2
    assert server.log == [0, 1]


def verdict(result: tuple[bool, ProbeTrace]) -> tuple:
    """A probe's verdict and trace, each URL as its path and the elapsed
    time left out."""
    retrievable, trace = result
    steps = [
        (urlsplit(step.url).path, step.status, step.content_type, step.link_header)
        for step in trace.steps
    ]
    return retrievable, trace.outcome, trace.reason, steps


def raw_reply(status: str, fields: str, body: bytes) -> bytes:
    return f"HTTP/1.1 {status}\r\n{fields}\r\n".encode() + body


def sized(status: str, content_type: str, body: bytes) -> bytes:
    return raw_reply(
        status, f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n", body
    )


LANDING = sized("200 OK", "text/html", b"<p>landing</p>")
NO_IMAGE = (False, "no-image-content-type")
NON_200 = (False, "non-200")
# case: (the reply, whether the server hangs up after it, whether the
# probe's connection carries the next probe, each probe's verdict and reason)
READ_RULE = {
    "landing page": (LANDING, False, True, NO_IMAGE),
    "landing page with Link": (
        raw_reply(
            "200 OK",
            'Content-Type: text/html; charset=utf-8\r\nLink: <a.png>; type="image/png"\r\n'
            "Content-Length: 14\r\n",
            b"<p>landing</p>",
        ),
        False, True, (False, "no-link-match"),
    ),
    "404": (sized("404 Not Found", "text/plain", b"no such DOI"), False, True, NON_200),
    "406": (sized("406 Not Acceptable", "text/html", b"no image"), False, True, NON_200),
    "body at the bound": (
        sized("200 OK", "text/html", b"x" * DRAIN_BOUND), False, True, NO_IMAGE
    ),
    "image": (sized("200 OK", "image/png", b"png"), False, True, (True, None)),
    "image past the bound": (
        sized("200 OK", "image/png", b"x" * (DRAIN_BOUND + 1)), False, False, (True, None)
    ),
    "image with Connection: close": (
        raw_reply("200 OK", "Content-Type: image/png\r\nConnection: close\r\n"
                  "Content-Length: 3\r\n", b"png"),
        False, False, (True, None),
    ),
    "chunked": (
        raw_reply("200 OK", "Content-Type: text/html\r\nTransfer-Encoding: chunked\r\n",
                  chunked(b"<p>landing</p>")),
        False, False, NO_IMAGE,
    ),
    "close-delimited": (
        raw_reply("200 OK", "Content-Type: text/html\r\n", b"<p>landing</p>"),
        True, False, NO_IMAGE,
    ),
    "body past the bound": (
        sized("200 OK", "text/html", b"x" * (DRAIN_BOUND + 1)), False, False, NO_IMAGE
    ),
    "Connection: close": (
        raw_reply("200 OK", "Content-Type: text/html\r\nConnection: close\r\n"
                  "Content-Length: 14\r\n", b"<p>landing</p>"),
        False, False, NO_IMAGE,
    ),
    "body that ends short": (LANDING[:-4], True, False, NO_IMAGE),
}


@pytest.mark.parametrize("case", READ_RULE)
def test_a_probe_keeps_its_connection_only_after_a_small_reply(
    serve, clean_env, case
, gate):
    reply, hang_up, kept, (retrievable, reason) = READ_RULE[case]
    server = serve(RawOrigin(reply, hang_up))
    config = RunConfig(doi_resolver=server.url + "/resolve/", timeout=5.0, per_host_delay=0.0)
    sessions = http.Sessions()
    try:
        traces = [
            f_ret(DataciteRecord(doi=doi), config, gate=gate, session=sessions)
            for doi in ("10.9/a", "10.9/b")
        ]
    finally:
        sessions.close()
    assert server.log == ([0, 0] if kept else [0, 1])
    # the verdicts do not depend on how the reply ended
    for found, trace in traces:
        assert (found, trace.reason) == (retrievable, reason)


class TrickleOrigin(socketserver.ThreadingTCPServer):
    """A loopback origin that answers ``GET /image`` with an image, and any
    other request with ``head`` and then ``piece`` every quarter of a
    second for four seconds, after which it closes the connection."""

    daemon_threads = True

    def __init__(self, head: bytes, piece: bytes):
        stopped = self.stopped = threading.Event()

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for target in request_heads(self.rfile):
                    if target == "/image":
                        self.wfile.write(sized("200 OK", "image/png", b"png"))
                        continue
                    try:
                        self.wfile.write(head)
                        for _ in range(16):
                            if stopped.wait(0.25):
                                return
                            self.wfile.write(piece)
                    except OSError:  # the client closed the connection
                        pass
                    return

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"

    def server_close(self) -> None:
        self.stopped.set()
        super().server_close()


TRICKLES = {
    "chunks that never end": (
        b"HTTP/1.1 302 Found\r\nLocation: /image\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"5\r\nmoved\r\n",
    ),
    "a declared length trickled": (
        b"HTTP/1.1 302 Found\r\nLocation: /image\r\nContent-Length: 60000\r\n\r\n",
        b"x" * 100,
    ),
}


@pytest.mark.parametrize("case", TRICKLES)
def test_a_redirect_body_holds_a_request_for_at_most_its_timeout(
    serve, wire, clean_env, case, sessions, gate
):
    timeout = 0.5
    trickle = serve(TrickleOrigin(*TRICKLES[case]))
    moved = (302, [("Location", "/image")], b"moved")
    well_behaved = wire([moved, (200, [("Content-Type", "image/png")], b"png")])

    def probe_of(server) -> tuple[tuple, float]:
        config = RunConfig(
            doi_resolver=server.url + "/resolve/", timeout=timeout, per_host_delay=0.0
        )
        started = time.monotonic()
        result = f_ret(DataciteRecord(doi="10.9/x"), config, gate=gate, session=sessions)
        return verdict(result), time.monotonic() - started

    found, took = probe_of(trickle)
    assert took < timeout + 1.0
    assert found == probe_of(well_behaved)[0]
    assert found[:3] == (True, "client_negotiated", None)
    started = time.monotonic()
    reply = sessions.get(trickle.url + "/resolve/10.9/x", None, timeout)
    took = time.monotonic() - started
    assert (reply.status, reply.data) == (200, b"png")
    assert took < timeout + 1.0


def test_a_trickled_image_holds_a_probe_for_at_most_its_timeout(
    serve, clean_env, sessions, gate
):
    timeout = 0.5
    trickle = serve(TrickleOrigin(
        b"HTTP/1.1 200 OK\r\nContent-Type: image/png\r\nContent-Length: 4000\r\n\r\n",
        b"x" * 100,
    ))
    config = RunConfig(
        doi_resolver=trickle.url + "/resolve/", timeout=timeout, per_host_delay=0.0
    )
    started = time.monotonic()
    retrievable, trace = f_ret(
        DataciteRecord(doi="10.9/x"), config, gate=gate, session=sessions
    )
    assert time.monotonic() - started < timeout + 1.0
    assert (retrievable, trace.outcome) == (True, "client_negotiated")


def test_every_request_names_fairprobe_as_its_user_agent(
    scripted_http, clean_env, sessions, gate
):
    headers = []
    origin = scripted_http([FORMATS_REPLY, IMAGE_REPLY], None, headers)
    assert list_formats(origin + "/oai", sessions, gate) == ["datacite"]
    assert probe(origin + "/resolve/", sessions, gate)
    user_agent = f"fairprobe/{__version__}"
    assert [header_values(lines, "User-Agent") for lines in headers] == [[user_agent]] * 2


def read_with_http_client(sock: socket.socket):
    """The reply on ``sock`` as ``http.client.HTTPResponse`` reads it:
    (status, header lines, header map, body, will_close), or the class it
    raised. The map joins a name's lines by ", ", as urllib3 joins them for
    requests."""
    response = HTTPResponse(sock)
    try:
        response.begin()
        body = response.read()
    except Exception as exc:  # compared with what the other reader raises
        return type(exc)
    finally:
        response.close()
    msg = response.msg
    headers = {name.lower(): ", ".join(msg.get_all(name)) for name in msg.keys()}
    return response.status, msg.items(), headers, body, response.will_close


def read_with_http(sock: socket.socket):
    """The reply on ``sock`` as ``Sessions`` reads it, in the same shape:
    each part once it has arrived."""
    conn = Conn(sock)
    try:
        head = finish(reply_head(conn, 5.0))
        body = finish(reply_body(conn, head.length, 5.0))
    except Exception as exc:
        return type(exc)
    return head.status, head.fields, head.headers, body, head.will_close


def sent_in(pieces: list[bytes], read, end: bool = True):
    """``read`` of a socket on which ``pieces`` arrive a millisecond apart,
    and then, with ``end``, the stream ends; without it the other end stays
    open until ``read`` returns."""
    ours, theirs = socket.socketpair()

    def send() -> None:
        try:
            for number, piece in enumerate(pieces):
                if number:
                    time.sleep(0.001)
                theirs.sendall(piece)
            if end:
                theirs.shutdown(socket.SHUT_WR)
        except OSError:  # the reader gave up and closed its end
            pass

    sender = threading.Thread(target=send)
    sender.start()
    try:
        return read(ours)
    finally:
        ours.close()
        sender.join(timeout=10)
        theirs.close()
        assert not sender.is_alive()


def served(raw: bytes, read):
    """``read`` of a socket on which ``raw`` arrives and then the stream ends."""
    return sent_in([raw], read)


LONG = b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n")) + b"\r\n"  # 65,536 bytes
REPLIES = {
    "folded and repeated": (
        b"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\n\tc \r\nSet-Cookie: a=1; Path=/\r\n"
        b"Link: <a.png>; rel=item\r\nset-cookie: b=2\r\nLink: <b.tif>\r\n"
        b"Content-Length: 3\r\n\r\nabc"
    ),
    "1.0": b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
    "1.0 keep-alive": b"HTTP/1.0 200 OK\r\nKeep-Alive: timeout=5\r\nContent-Length: 2\r\n\r\nok",
    "1.0 connection keep-alive":
        b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok",
    "1.0 proxy-connection":
        b"HTTP/1.0 200 OK\r\nProxy-Connection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
    "no length, close": b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil the end",
    "no length": b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the end",
    "negative length": b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\nall",
    "two lengths": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nokabc",
    "close, length": b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
    "chunked": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n"
        b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"
    ),
    "chunk size not hex": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\nzz\r\n",
    "chunks cut short": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nhello",
    "continue": (
        b"HTTP/1.1 100 Continue\r\nX-Skipped: y\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    ),
    "204": b"HTTP/1.1 204 No Content\r\nX-A: 1\r\n\r\n",
    "304": b"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\nContent-Length: 9\r\n\r\n",
    "101": b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\r\n",
    "empty": b"",
    "2.0": b"HTTP/2.0 200 OK\r\n\r\n",
    "garbage": b"garbage\r\n\r\n",
    "status not a number": b"HTTP/1.1 OK 200\r\n\r\n",
    "status out of range": b"HTTP/1.1 99 Low\r\n\r\n",
    "no status": b"HTTP/1.1\r\n\r\n",
    "no reason": b"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n",
    "line of 65,536 bytes": b"HTTP/1.1 200 OK\r\n" + LONG + b"Content-Length: 0\r\n\r\n",
    "line of 65,537 bytes": b"HTTP/1.1 200 OK\r\nX" + LONG + b"Content-Length: 0\r\n\r\n",
    "cut after a line of 65,536 bytes": b"HTTP/1.1 200 OK\r\n" + LONG[:-2] + b"aa",
    "status line of 65,537 bytes": b"HTTP/1.1 200 " + b"O" * 65524 + b"\r\n\r\n",
    "99 header lines": b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 98 + b"Content-Length: 0\r\n\r\n",
    "100 header lines": b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 99 + b"Content-Length: 0\r\n\r\n",
    # the end of the stream counts as a line, and so does a line cut by it
    "cut after 99 header lines": b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 99,
    "cut in the 100th header line": b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 99 + b"X: 1",
    "short body": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
    "cut in the head": b"HTTP/1.1 200 OK\r\nContent-Type: te",
    "line feeds only": b"HTTP/1.1 200 OK\nContent-Length: 2\nX-A: 1\n\nok",
    "bare carriage return": b"HTTP/1.1 200 OK\r\nX-A: a\rX-B: b\r\nContent-Length: 2\r\n\r\nok",
    "malformed line": b"HTTP/1.1 200 OK\r\nX-A: 1\r\nbad line\r\nContent-Length: 2\r\n\r\nok",
    "space before colon": b"HTTP/1.1 200 OK\r\nX-A : 1\r\nContent-Length: 2\r\n\r\nok",
    "dropped lines": (
        b"HTTP/1.1 200 OK\r\n leading\r\nFrom x\r\n folded\r\n: no name\r\nX-A:1\r\n"
        b"X-Empty:\r\nX-Blank: \t \r\nContent-Length: 2\r\n\r\nok"
    ),
    "ISO-8859-1": b"HTTP/1.1 200 OK\r\nX-A: caf\xe9\r\nContent-Length: 0\r\n\r\n",
}


@pytest.mark.parametrize("raw", REPLIES.values(), ids=REPLIES.keys())
def test_a_reply_reads_as_http_client_reads_it(raw):
    assert served(raw, read_with_http) == served(raw, read_with_http_client)


def trickled(raw: bytes, read):
    """``read`` of a socket on which ``raw`` arrives in 20 pieces a
    millisecond apart, and then the stream ends."""
    size = max(len(raw) // 20, 1)
    return sent_in([raw[start : start + size] for start in range(0, len(raw), size)], read)


@pytest.mark.parametrize("raw", REPLIES.values(), ids=REPLIES.keys())
def test_a_reply_that_arrives_in_pieces_reads_as_one_that_arrives_at_once(raw):
    assert trickled(raw, read_with_http) == served(raw, read_with_http_client)


SHORT = ["folded and repeated", "chunked", "continue", "line feeds only", "bare carriage return"]


@pytest.mark.parametrize("case", SHORT)
def test_every_two_piece_split_reads_as_the_whole_reply(case):
    raw = REPLIES[case]
    whole = served(raw, read_with_http_client)
    assert whole[0] == 200
    for cut in range(1, len(raw)):
        assert sent_in([raw[:cut], raw[cut:]], read_with_http) == whole, cut


# replies that break a bound of the head or of a chunk-size line before
# they end; their server keeps the connection open
OPEN_BOUNDS = {
    "101 header lines": b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 101,
    "header line of 65,537 bytes": b"HTTP/1.1 200 OK\r\nX" + LONG,
    "status line of 65,537 bytes": b"HTTP/1.1 200 " + b"O" * 65522 + b"\r\n",
    "chunk-size line of 65,537 bytes": (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + b"0" * 65535 + b"\r\n"
    ),
}


@pytest.mark.parametrize("raw", OPEN_BOUNDS.values(), ids=OPEN_BOUNDS.keys())
def test_a_bound_breaks_at_once_on_a_connection_left_open(raw):
    def timed(sock: socket.socket):
        started = time.monotonic()
        return read_with_http(sock), time.monotonic() - started

    def blocking(sock: socket.socket):
        sock.settimeout(5.0)  # http.client's reads block
        return read_with_http_client(sock)

    ours, took = sent_in([raw], timed, end=False)
    assert ours == sent_in([raw], blocking, end=False)
    assert issubclass(ours, HTTPException) and took < 1.0


@pytest.mark.parametrize(
    "status, headers",
    [(204, b"Transfer-Encoding: chunked\r\n"), (304, b"Content-Length: 3\r\n"), (102, b"")],
)
def test_a_reply_without_a_body_keeps_its_connection(status, headers):
    raw = b"HTTP/1.1 %d X\r\n%s\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n" % (status, headers)

    def read_twice(sock):
        conn = Conn(sock)
        first = finish(reply_head(conn, 5.0))
        assert finish(reply_body(conn, first.length, 5.0)) == b""
        return first.will_close, finish(reply_head(conn, 5.0)).status

    assert served(raw, read_twice) == (False, 200)


# --- request targets --------------------------------------------------------------

TARGET_SEED = 20260601
# (pieces that a plain URL may hold, pieces that make a URL for prepare_url)
PATH_PIECES = (
    ["a", "B", "0", "-", ".", "..", "_", "~", "!", "$", "&", "'", "(", ")", "*", "+",
     ",", ";", "=", ":", "@", "/", "//"],
    ["%20", "%2f", "%41", "%zz", "%", " ", "ä", "€", "\"", "<", "|", "^", "`", "{",
     "[", "]", "\\", "?", "#", "\t"],
)
HOSTS = (
    ["example.org", "127.0.0.1", "repo-1.example", "a..b", "h."],
    ["Example.ORG", "bücher.example", "[::1]", "[2001:DB8::1]", "a_b.example",
     "user:pw@example.org", "@example.org", ".example", "*.example"],
)
PORTS = (
    ["", ":80", ":443", ":8080", ":65535"],
    [":65536", ":99999", ":0", ":080", ":"],
)


def random_url(rng: random.Random) -> str:
    def pick(choices: tuple[list[str], list[str]]) -> str:
        return rng.choice(choices[rng.random() < 0.1])

    def pieces() -> str:
        return "".join(pick(PATH_PIECES) for _ in range(rng.randrange(6)))

    scheme = pick((["http", "https"], ["HTTP", "Https"]))
    path = "".join("/" + pieces() for _ in range(rng.randrange(4)))
    query = rng.choice(["", "", "?", "?" + pieces(), "?verb=Identify&x=" + pieces()])
    fragment = rng.choice(["", "", "", "", "#", "#" + pieces()])
    return f"{scheme}://{pick(HOSTS)}{pick(PORTS)}{path}{query}{fragment}"


def random_params(rng: random.Random) -> dict[str, str] | None:
    values = ["datacite", "a|b c/d+e", "ä€", "", "x=y&z", "~._-"]
    return rng.choice([
        None, {}, {"verb": "ListRecords", "resumptionToken": rng.choice(values)},
        {rng.choice(values) or "k": rng.choice(values)},
    ])


def test_a_target_is_what_requests_prepares_and_http_client_sends():
    rng = random.Random(TARGET_SEED)
    plain = 0
    for _ in range(3000):
        url, params = random_url(rng), random_params(rng)
        request = requests.PreparedRequest()
        try:
            request.prepare_url(url, urlencode(params or {}))
        except requests.RequestException as exc:
            with pytest.raises(type(exc)):
                http._target(url, params)
            continue
        target = http._target(url, params)
        plain += http._PLAIN.fullmatch(url) is not None
        parts = urlsplit(request.url)
        assert target[:5] == (
            request.url, parts.scheme, parts.hostname, parts.port, request.path_url
        ), (url, params)
        # the request head that http.client writes for a connection to the origin
        conn = HTTPConnection(parts.hostname, parts.port or http.DEFAULT_PORTS[parts.scheme])
        conn.default_port = http.DEFAULT_PORTS[parts.scheme]
        sent = []
        conn.send = sent.append
        conn.putrequest("GET", request.path_url, skip_accept_encoding=True)
        conn.putheader("Accept", "*/*")
        conn.endheaders()
        assert http._request_head(target.path, target.authority, {"Accept": "*/*"}) == sent[0]
    # both ways of preparing a target were taken often
    assert 300 < plain < 2700
