"""Shared fixtures: mock landscape servers, scripted endpoints, run configs."""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from fairprobe import http, mockrdr
from fairprobe.config import RunConfig
from fairprobe.throttle import HostGate

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def serve_script():
    """Launch mock landscapes; every server is shut down after the test."""
    started: list[mockrdr.MockHandle] = []

    def launch(script: mockrdr.ScenarioScript) -> mockrdr.MockHandle:
        hub = mockrdr.serve(script)
        started.append(hub)
        return hub

    yield launch
    for hub in started:
        hub.shutdown()


@pytest.fixture
def sessions():
    """A run's ``http.Sessions`` for the fetching functions; closed after
    the test."""
    run = http.Sessions()
    yield run
    run.close()


@pytest.fixture
def gate() -> HostGate:
    """A ``HostGate`` with no delay, as the tests' configs set none."""
    return HostGate(0.0)


@pytest.fixture
def make_config(tmp_path):
    """RunConfig against a mock landscape, tuned for fast loopback tests."""

    def build(hub: mockrdr.MockHandle, **overrides) -> RunConfig:
        settings = dict(
            registry_url=hub.registry_url,
            doi_resolver=hub.resolver_base,
            out=str(tmp_path / "runs"),
            timeout=5.0,
            politeness_delay=0.0,
            per_host_delay=0.0,
            workers_probe=8,
        )
        settings.update(overrides)
        return RunConfig(**settings)

    return build


@pytest.fixture
def scripted_http():
    """Endpoints that replay a fixed reply list, one reply per request.

    Covers protocol corners the scenario server does not script, like a
    resumption chain without a token element or an unparseable Retry-After.
    Request targets are appended to ``targets`` when one is given, and each
    request's header lines, in wire order, to ``headers``.
    """
    running: list[tuple[ThreadingHTTPServer, threading.Thread]] = []

    def launch(
        replies: list[tuple[int, dict[str, str], bytes]],
        targets: list[str] | None = None,
        headers: list[list[tuple[str, str]]] | None = None,
    ) -> str:
        queue = list(replies)
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_GET(self):
                with lock:
                    if targets is not None:
                        targets.append(self.path)
                    if headers is not None:
                        headers.append(self.headers.items())
                    if queue:
                        status, reply_headers, body = queue.pop(0)
                    else:
                        status, reply_headers, body = 500, {}, b"script exhausted"
                self.send_response(status)
                for key, value in reply_headers.items():
                    self.send_header(key, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        server.daemon_threads = True
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        running.append((server, thread))
        host, port = server.server_address[0], server.server_address[1]
        return f"http://{host}:{port}"

    yield launch
    for server, thread in running:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
