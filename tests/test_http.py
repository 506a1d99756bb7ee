"""Sessions: the environment's proxy settings apply, read once per origin,
and every request, probe hop, registry or OAI-PMH, goes on the wire and
follows redirects as a requests session would."""

from __future__ import annotations

import gzip
import io
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
import urllib3
from requests.structures import CaseInsensitiveDict
from requests.utils import get_encoding_from_headers

from fairprobe import http, mockrdr, oaipmh, pipeline, registry
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
    finally:
        sessions.close()
    # how a probe hop was sent through requests
    with requests.Session() as reference:
        reference.get(
            url,
            headers={"Accept": "image/*"},
            allow_redirects=False,
            stream=True,
            timeout=5.0,
        ).close()
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


def capture_sends(monkeypatch, replies: list[tuple[int, dict[str, str]]]) -> list[dict]:
    """Stand in for the wire: record what each urllib3 pool is asked to send,
    and answer from ``replies`` with empty bodies."""
    sent: list[dict] = []

    def urlopen(pool, method, url, body=None, headers=None, **kwargs):
        timeout = kwargs["timeout"]
        sent.append({
            "pool": (pool.scheme, pool.host, pool.port),
            "proxy": pool.proxy.url if pool.proxy else None,
            "proxy_headers": dict(pool.proxy_headers),
            # what an http pool is given for TLS is never used
            "tls": (pool.cert_reqs, pool.ca_certs) if pool.scheme == "https" else None,
            "request": (method, url, body, list(headers.items())),
            "timeout": (timeout.connect_timeout, timeout.read_timeout),
        })
        status, reply_headers = replies.pop(0)
        return urllib3.HTTPResponse(
            body=io.BytesIO(b""), headers=reply_headers, status=status,
            preload_content=False,
        )

    monkeypatch.setattr(urllib3.connectionpool.HTTPConnectionPool, "urlopen", urlopen)
    return sent


@pytest.mark.parametrize(
    "url",
    ["http://127.0.0.1:8/a", "http://repo.example:8080/b", "https://images.example/c"],
)
def test_settings_match_requests_reading_the_environment(
    clean_env, tmp_path, monkeypatch, url
):
    netrc = tmp_path / "netrc"
    netrc.write_text(
        "machine repo.example login alice password secret\n"
        "machine elsewhere.example login bob password other\n"
    )
    clean_env.setenv("NETRC", str(netrc))
    clean_env.setenv("HTTP_PROXY", "http://127.0.0.1:3128")
    clean_env.setenv("HTTPS_PROXY", "http://127.0.0.1:3129")
    clean_env.setenv("NO_PROXY", "127.0.0.1,elsewhere.example")
    bundle = tmp_path / "bundle.pem"
    bundle.write_text("")  # requests checks that it exists; nothing connects
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(bundle))
    # the request itself, then a redirect from another origin to it
    elsewhere = "http://elsewhere.example/"
    script = [(200, {}), (302, {"Location": url}), (200, {})]
    ours = capture_sends(monkeypatch, list(script))
    sessions = http.Sessions()
    try:
        sessions.get(url, None, 5.0)
        sessions.get(elsewhere, None, 5.0)
    finally:
        sessions.close()
    reference = capture_sends(monkeypatch, list(script))
    with requests.Session() as session:
        session.get(url, timeout=5.0)
        session.get(elsewhere, timeout=5.0)
    assert len(ours) == 3
    assert ours == reference
    assert ours[1]["request"][3][-1] == ("Authorization", "Basic Ym9iOm90aGVy")


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
    for name, count in counts.items():
        assert 0 < count <= len(origins), name
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
    assert counts == {"get_environ_proxies": 4, "get_netrc_auth": 4}


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


def harvest(endpoint: str, session=None, **config) -> tuple[oaipmh.HarvestSummary, list]:
    """Harvest with retries off; returns the summary and each page's
    (body, identifiers)."""
    settings = dict(timeout=5.0, politeness_delay=0.0, retries=0)
    settings.update(config)
    pages = []
    summary = oaipmh.harvest_records(
        endpoint,
        "datacite",
        RunConfig(**settings),
        lambda body, records: pages.append(
            (body, [record.oai_identifier for record in records])
        ),
        session=session,
    )
    return summary, pages


def header_values(lines: list[tuple[str, str]], name: str) -> list[str]:
    return [value for key, value in lines if key.lower() == name.lower()]


def test_an_oai_request_goes_on_the_wire_as_a_session_sends_it(
    scripted_http, clean_env, tmp_path
):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password secret\n")
    clean_env.setenv("NETRC", str(netrc))
    targets, headers = [], []
    reply = (200, XML, list_records(1).encode())
    endpoint = scripted_http([reply] * 2, targets, headers) + "/oai"
    config = RunConfig(timeout=5.0, politeness_delay=0.0)
    summary = oaipmh.harvest_records(
        endpoint, "datacite", config, lambda body, records: None,
        after=oaipmh.HarvestSummary(token=TOKEN),
    )
    with requests.Session() as reference:
        reference.get(
            endpoint,
            params={"verb": "ListRecords", "resumptionToken": TOKEN},
            timeout=5.0,
        )
    assert summary.completed
    assert targets == ["/oai?verb=ListRecords&resumptionToken=a%7Cb+c%2Fd%2Be"] * 2
    assert headers[0] == headers[1]
    assert header_values(headers[0], "Authorization") == ["Basic YWxpY2U6c2VjcmV0"]


def test_a_relative_redirect_is_followed(scripted_http, clean_env):
    targets = []
    moved = (302, {"Location": "../moved/oai?verb=ListMetadataFormats"}, b"")
    origin = scripted_http([moved, FORMATS_REPLY], targets)
    assert list_formats(origin + "/old/oai") == ["datacite"]
    assert targets == [
        "/old/oai?verb=ListMetadataFormats",
        "/moved/oai?verb=ListMetadataFormats",
    ]


def test_a_utf8_location_is_read_as_requests_reads_it(scripted_http, clean_env):
    # header text arrives read as ISO-8859-1: these two characters are the
    # UTF-8 bytes of "ä"
    moved = (302, {"Location": "/m\u00c3\u00a4?verb=ListMetadataFormats"}, b"")
    ours, reference = [], []
    origin = scripted_http([moved, FORMATS_REPLY], ours)
    assert list_formats(origin + "/oai") == ["datacite"]
    with requests.Session() as session:
        session.get(scripted_http([moved, FORMATS_REPLY], reference) + "/oai")
    assert ours[1] == reference[1] == "/m%C3%A4?verb=ListMetadataFormats"


def test_a_location_that_is_not_utf8_is_followed(scripted_http, clean_env):
    # requests raises UnicodeDecodeError here; the ISO-8859-1 reading is kept
    targets = []
    moved = (302, {"Location": "/caf\u00e9?verb=ListMetadataFormats"}, b"")
    origin = scripted_http([moved, FORMATS_REPLY], targets)
    assert list_formats(origin + "/oai") == ["datacite"]
    assert targets[1] == "/caf%C3%A9?verb=ListMetadataFormats"


@pytest.mark.parametrize("second_in_netrc", [False, True])
def test_a_redirect_to_another_origin_sends_that_origins_netrc(
    scripted_http, clean_env, tmp_path, second_in_netrc
):
    netrc = tmp_path / "netrc"
    machines = "machine 127.0.0.1 login alice password secret\n"
    if second_in_netrc:
        machines += "machine localhost login bob password other\n"
    netrc.write_text(machines)
    clean_env.setenv("NETRC", str(netrc))
    first, second = [], []
    # the same loopback address under another host name is another origin
    target = scripted_http([FORMATS_REPLY], None, second).replace(
        "127.0.0.1", "localhost"
    )
    moved = (302, {"Location": target + "/oai?verb=ListMetadataFormats"}, b"")
    origin = scripted_http([moved], None, first)
    assert list_formats(origin + "/oai") == ["datacite"]
    assert header_values(first[0], "Authorization") == ["Basic YWxpY2U6c2VjcmV0"]
    expected = ["Basic Ym9iOm90aGVy"] if second_in_netrc else []
    assert header_values(second[0], "Authorization") == expected


def test_each_redirect_hop_chooses_its_own_proxy(scripted_http, clean_env):
    via_proxy, direct = [], []
    proxy = scripted_http([FORMATS_REPLY], via_proxy)
    # never contacted: the proxy answers for it
    target = "http://localhost:9/oai?verb=ListMetadataFormats"
    origin = scripted_http([(302, {"Location": target}, b"")], direct)
    clean_env.setenv("HTTP_PROXY", proxy)
    clean_env.setenv("NO_PROXY", "127.0.0.1")
    assert list_formats(origin + "/oai") == ["datacite"]
    assert direct == ["/oai?verb=ListMetadataFormats"]
    assert via_proxy == [target]


@pytest.mark.parametrize("redirects", [30, 31])
def test_a_harvest_follows_thirty_redirects(scripted_http, clean_env, caplog, redirects):
    targets = []
    again = (302, {"Location": "/oai?verb=ListRecords&metadataPrefix=datacite"}, b"")
    page = (200, XML, list_records(1).encode())
    endpoint = scripted_http([again] * redirects + [page], targets) + "/oai"
    with caplog.at_level("WARNING", logger="fairprobe"):
        summary, pages = harvest(endpoint)
    assert len(targets) == 31
    if redirects == 30:
        assert summary.completed and pages[0][1] == ["oai:x:1"]
    else:
        assert not summary.completed and pages == []
        assert "harvest is partial" in caplog.text


def test_the_registry_fails_on_the_thirty_first_redirect(scripted_http, clean_env):
    targets = []
    again = (302, {"Location": "/registry/repositories"}, b"")
    registry_url = scripted_http([again] * 31, targets) + "/registry"
    with pytest.raises(registry.RegistryUnreachableError):
        registry.fetch_repository_list(registry_url, None, RunConfig(timeout=5.0))
    assert len(targets) == 31


def test_a_gzip_encoded_page_is_decoded(scripted_http, clean_env):
    body = list_records(1).encode()
    gzipped = (200, dict(XML, **{"Content-Encoding": "gzip"}), gzip.compress(body))
    summary, pages = harvest(scripted_http([gzipped]) + "/oai")
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
):
    body = list_records(1).encode(encoding)
    headers = {"Content-Type": content_type}
    summary, pages = harvest(scripted_http([(200, headers, body)]) + "/oai")
    reference = requests.Response()
    reference._content = body
    reference.headers = CaseInsensitiveDict(headers)
    reference.encoding = get_encoding_from_headers(reference.headers)
    assert summary.completed
    assert pages == [(reference.text, ["oai:x:1"])]


def test_a_cookie_lasts_until_the_sessions_close(scripted_http, clean_env):
    headers = []
    first = dict(XML, **{"Set-Cookie": "sid=abc; Path=/"})
    origin = scripted_http(
        [
            (200, first, list_records(1, token="next").encode()),
            (200, XML, list_records(2).encode()),
            FORMATS_REPLY,
        ],
        None,
        headers,
    )
    sessions = http.Sessions()
    try:
        summary, _ = harvest(origin + "/oai", sessions)
        sessions.close()
        assert list_formats(origin + "/oai", sessions) == ["datacite"]
    finally:
        sessions.close()
    assert summary.completed and summary.pages == 2
    assert [header_values(lines, "Cookie") for lines in headers] == [
        [], ["sid=abc"], []
    ]
