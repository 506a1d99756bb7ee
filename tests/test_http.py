"""Sessions: the environment's proxy settings apply, read once per origin,
and a probe hop goes on the wire as a requests session would send it."""

from __future__ import annotations

import shutil
import ssl
import subprocess
import sys
import threading
from http.cookiejar import CookieJar
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import pytest
import requests

from fairprobe import http, mockrdr, oaipmh, pipeline
from fairprobe.config import RunConfig
from fairprobe.datacite import DataciteRecord
from fairprobe.probe import f_ret

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


def list_formats(endpoint: str, session=None) -> list[str]:
    config = RunConfig(timeout=5.0, politeness_delay=0.0)
    formats = oaipmh.list_metadata_formats(endpoint, config, session=session)
    return [info.prefix for info in formats]


def probe(resolver: str) -> bool:
    config = RunConfig(doi_resolver=resolver, timeout=5.0, per_host_delay=0.0)
    retrievable, _ = f_ret(DataciteRecord(doi="10.9/x"), config)
    return retrievable


@pytest.mark.parametrize("no_proxy", [None, "127.0.0.1"])
def test_environment_proxy_applies_unless_no_proxy(scripted_http, clean_env, no_proxy):
    via_proxy, direct = [], []
    proxy = scripted_http([FORMATS_REPLY, IMAGE_REPLY], via_proxy)
    origin = scripted_http([FORMATS_REPLY, IMAGE_REPLY], direct)
    clean_env.setenv("HTTP_PROXY", proxy)
    if no_proxy is not None:
        clean_env.setenv("NO_PROXY", no_proxy)

    assert list_formats(origin + "/oai") == ["datacite"]
    assert probe(origin + "/resolve/")

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
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password secret\n")
    clean_env.setenv("NETRC", str(netrc))
    targets, headers = [], []
    origin = scripted_http([IMAGE_REPLY] * 2, targets, headers)
    url = origin + "/resolve/10.9/a b"
    sessions = http.Sessions()
    try:
        reply = sessions.hop(url, "image/*", 5.0, CookieJar())
        # how a probe hop was sent through requests
        sessions.current().get(
            url,
            headers={"Accept": "image/*"},
            allow_redirects=False,
            stream=True,
            timeout=5.0,
        ).close()
    finally:
        sessions.close()
    assert reply.status == 200
    assert targets == ["/resolve/10.9/a%20b"] * 2
    assert headers[0] == headers[1]
    assert ("Accept", "image/*") in headers[0]
    assert ("Authorization", "Basic YWxpY2U6c2VjcmV0") in headers[0]


def test_settings_are_read_once_per_origin_per_run(scripted_http, clean_env):
    via_proxy, direct = [], []
    proxy = scripted_http([FORMATS_REPLY] * 2, via_proxy)
    origin = scripted_http([FORMATS_REPLY] * 2, direct)
    first_run = http.Sessions()
    try:
        assert list_formats(origin + "/oai", first_run) == ["datacite"]
        clean_env.setenv("HTTP_PROXY", proxy)
        # this run has read its settings for the origin already
        assert list_formats(origin + "/oai", first_run) == ["datacite"]
    finally:
        first_run.close()
    assert len(direct) == 2 and via_proxy == []
    # a new run reads the environment again
    assert list_formats(origin + "/oai") == ["datacite"]
    assert via_proxy == [origin + "/oai?verb=ListMetadataFormats"]


@pytest.mark.parametrize(
    "url",
    ["http://127.0.0.1:8/a", "http://repo.example:8080/b", "https://images.example/c"],
)
def test_settings_match_requests_reading_the_environment(clean_env, tmp_path, url):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine repo.example login alice password secret\n")
    clean_env.setenv("NETRC", str(netrc))
    clean_env.setenv("HTTP_PROXY", "http://127.0.0.1:3128")
    clean_env.setenv("HTTPS_PROXY", "http://127.0.0.1:3129")
    clean_env.setenv("NO_PROXY", "127.0.0.1")
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "bundle.pem"))
    sessions = http.Sessions()
    ours, reference = sessions.current(), requests.Session()
    try:
        def prepared(session):
            return session.prepare_request(requests.Request("GET", url))

        assert prepared(ours).headers == prepared(reference).headers
        assert ours.merge_environment_settings(
            url, {}, None, None, None
        ) == reference.merge_environment_settings(url, {}, None, None, None)
        # a redirect from another origin to this one
        elsewhere = requests.Response()
        elsewhere.request = reference.prepare_request(
            requests.Request("GET", "http://elsewhere.example/", auth=("x", "y"))
        )
        hops = []
        for session in (ours, reference):
            hop = prepared(session)
            hop.headers["Authorization"] = elsewhere.request.headers["Authorization"]
            session.rebuild_auth(hop, elsewhere)
            hops.append((session.rebuild_proxies(hop, {}), hop.headers))
        assert hops[0] == hops[1]
    finally:
        sessions.close()
        reference.close()


@pytest.fixture
def tls_origin(tmp_path):
    """An HTTPS origin on loopback with a self-signed certificate; yields its
    URL and the certificate's file."""
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
            self.send_response(200)
            self.send_header("Content-Type", "image/png")
            self.send_header("Content-Length", "0")
            self.end_headers()

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"https://127.0.0.1:{server.server_address[1]}", cert
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def test_a_probe_verifies_against_the_environment_ca_bundle(tls_origin, clean_env):
    origin, cert = tls_origin
    clean_env.delenv("REQUESTS_CA_BUNDLE", raising=False)
    clean_env.delenv("CURL_CA_BUNDLE", raising=False)
    # certifi's bundle does not hold the self-signed certificate
    assert not probe(origin + "/")
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(cert))
    assert probe(origin + "/")


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
    original_request = requests.Session.request
    original_hop = http.Sessions.hop

    def seen(url):
        parts = urlsplit(url)
        origins.add((parts.scheme, parts.hostname, parts.port))

    def request(session, method, url, *args, **kwargs):
        seen(url)
        return original_request(session, method, url, *args, **kwargs)

    def hop(sessions, url, *args, **kwargs):
        seen(url)
        return original_hop(sessions, url, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "request", request)
    monkeypatch.setattr(http.Sessions, "hop", hop)
    pipeline.run_all(make_config(hub))

    assert origins
    for name, count in counts.items():
        assert 0 < count <= len(origins), name


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
    assert counts == {"get_environ_proxies": 4, "get_netrc_auth": 4}
