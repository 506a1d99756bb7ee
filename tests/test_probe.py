"""Retrievability probing: negotiation outcomes, traces, and politeness."""

from __future__ import annotations

import json
import socket
import time
from contextlib import contextmanager

import pytest

from fairprobe import http, mockrdr
from fairprobe.config import RunConfig
from fairprobe.datacite import DataciteRecord
from fairprobe.probe import (
    OUTCOME_CLIENT,
    OUTCOME_FAILED,
    OUTCOME_LINK,
    ProbeStep,
    REDIRECT_BUDGET,
    ProbeTrace,
    doi_url,
    f_ret,
    trace_to_dict,
)
from fairprobe.throttle import HostGate

TIFF_LINK = '</blob/tif1>; rel="alternate"; type="image/tiff"'


def record(doi: str, formats=("image/png",)) -> DataciteRecord:
    return DataciteRecord(doi=doi, formats=list(formats))


def quick_config(resolver: str, **overrides) -> RunConfig:
    settings = dict(
        doi_resolver=resolver, timeout=5.0, per_host_delay=0.0
    )
    settings.update(overrides)
    return RunConfig(**settings)


def run(hub, rec, sessions, gate, **overrides):
    config = quick_config(hub.resolver_base, **overrides)
    return f_ret(rec, config, gate=gate, session=sessions)


def hops(*hop_list):
    return list(hop_list)


@pytest.fixture
def routes_hub(serve_script):
    script = mockrdr.ScenarioScript(
        resolver_routes={
            "10.9/direct": hops(mockrdr.RouteHop(200, "image/png")),
            "10.9/params": hops(
                mockrdr.RouteHop(200, "IMAGE/JPEG; charset=binary")
            ),
            "10.9/chain": hops(
                mockrdr.RouteHop(303),
                mockrdr.RouteHop(307),
                mockrdr.RouteHop(200, "image/jpeg"),
            ),
            "10.9/loop": hops(mockrdr.RouteHop(302, location="self")),
            "10.9/landing": hops(mockrdr.RouteHop(200, "text/html", body="<html/>")),
            "10.9/gone": hops(mockrdr.RouteHop(404, "text/html", body="nope")),
            "10.9/linked": hops(
                mockrdr.RouteHop(200, "text/html", body="<html/>", link=TIFF_LINK)
            ),
            "10.9/link-on-error": hops(
                mockrdr.RouteHop(500, "text/html", body="err", link=TIFF_LINK)
            ),
            "10.9/link-two-values": hops(
                mockrdr.RouteHop(
                    200,
                    "text/html",
                    body="<html/>",
                    link='</blob/other>; rel="alternate"; type="text/csv", '
                    + TIFF_LINK,
                )
            ),
            "10.9/link-wrong-blob": hops(
                mockrdr.RouteHop(
                    200,
                    "text/html",
                    body="<html/>",
                    link='</blob/htmlish>; rel="alternate"; type="image/tiff"',
                )
            ),
            "10.9/link-case": hops(
                mockrdr.RouteHop(
                    200,
                    "text/html",
                    body="<html/>",
                    link='</blob/shouty>; rel="alternate"; type="image/tiff"',
                )
            ),
            "10.9/picky": hops(
                mockrdr.RouteHop(200, "image/png", require_accept="image/*")
            ),
        },
        blobs={
            "tif1": ("image/tiff", 64),
            "other": ("text/csv", 16),
            "htmlish": ("text/html", 32),
            "shouty": ("IMAGE/TIFF", 64),
        },
    )
    return serve_script(script)


def test_direct_image_reply(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/direct"), sessions, gate)
    assert ok
    assert trace.outcome == OUTCOME_CLIENT
    assert trace.reason is None
    assert len(trace.steps) == 1
    assert trace.steps[0].request_accept == "image/*"
    assert trace.steps[0].status == 200
    assert trace.elapsed > 0.0


def test_content_type_parameters_and_case_ignored(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/params"), sessions, gate)
    assert ok
    assert trace.outcome == OUTCOME_CLIENT


def test_redirect_chain_preserves_accept(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/chain"), sessions, gate)
    assert ok
    assert trace.outcome == OUTCOME_CLIENT
    assert [s.status for s in trace.steps] == [303, 307, 200]
    assert all(s.request_accept == "image/*" for s in trace.steps)
    served = [
        e for e in routes_hub.requests_to("/resolve/")
        if "chain" in e.target
    ]
    assert [e.accept for e in served] == ["image/*"] * 3


def test_redirect_loop_hits_the_limit(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/loop"), sessions, gate)
    assert not ok
    assert trace.outcome == OUTCOME_FAILED
    assert trace.reason == "redirect-limit"
    # the opening request plus the ten followed redirects
    assert len(trace.steps) == 1 + REDIRECT_BUDGET == 11
    assert all(s.status == 302 for s in trace.steps)


def test_landing_page_without_link_fails(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/landing"), sessions, gate)
    assert not ok
    assert trace.reason == "no-image-content-type"
    assert len(trace.steps) == 1


def test_http_error_fails(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/gone"), sessions, gate)
    assert not ok
    assert trace.reason == "non-200"


def test_unknown_doi_fails(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/never-registered"), sessions, gate)
    assert not ok
    assert trace.reason == "non-200"


def test_link_header_fallback(routes_hub, sessions, gate):
    ok, trace = run(
        routes_hub, record("10.9/linked", formats=["image/tiff"]), sessions, gate
    )
    assert ok
    assert trace.outcome == OUTCOME_LINK
    assert len(trace.steps) == 2
    # the second request asks for exactly the matched format
    assert trace.steps[1].request_accept == "image/tiff"
    assert trace.steps[1].url.endswith("/blob/tif1")
    assert trace.steps[1].status == 200


def test_link_type_must_match_annotated_format(routes_hub, sessions, gate):
    ok, trace = run(
        routes_hub, record("10.9/linked", formats=["image/png"]), sessions, gate
    )
    assert not ok
    assert trace.reason == "no-link-match"
    assert len(trace.steps) == 1


def test_a_link_to_a_declared_format_that_is_not_an_image_is_no_match(
    scripted_http, sessions, gate
):
    targets: list[str] = []
    pdf_link = '</files/paper.pdf>; rel="describedby"; type="application/pdf"'
    base = scripted_http(
        [
            (200, {"Content-Type": "text/html", "Link": pdf_link}, b"<html/>"),
            (200, {"Content-Type": "application/pdf"}, b"%PDF-1.7"),
        ],
        targets,
    )
    ok, trace = f_ret(
        record("10.9/x", ["image/tiff", "application/pdf"]),
        quick_config(base + "/"),
        gate=gate,
        session=sessions,
    )
    assert not ok
    assert trace.outcome == OUTCOME_FAILED
    assert trace.reason == "no-link-match"
    assert targets == ["/10.9/x"]  # the PDF is not fetched


def test_link_fallback_runs_after_error_replies_too(routes_hub, sessions, gate):
    ok, trace = run(
        routes_hub, record("10.9/link-on-error", formats=["image/tiff"]), sessions, gate
    )
    assert ok
    assert trace.outcome == OUTCOME_LINK
    assert [s.status for s in trace.steps] == [500, 200]


def test_first_matching_link_value_wins(routes_hub, sessions, gate):
    ok, trace = run(
        routes_hub, record("10.9/link-two-values", formats=["image/tiff"]),
        sessions, gate,
    )
    assert ok
    assert trace.steps[1].url.endswith("/blob/tif1")


def test_linked_target_must_serve_what_it_promised(routes_hub, sessions, gate):
    ok, trace = run(
        routes_hub, record("10.9/link-wrong-blob", formats=["image/tiff"]),
        sessions, gate,
    )
    assert not ok
    assert trace.reason == "no-image-content-type"
    assert [s.status for s in trace.steps] == [200, 200]


def test_linked_type_comparison_is_case_sensitive(routes_hub, sessions, gate):
    ok, trace = run(
        routes_hub, record("10.9/link-case", formats=["image/tiff"]), sessions, gate
    )
    assert not ok
    assert trace.reason == "no-image-content-type"


def test_wildcard_accept_is_what_the_wire_carries(routes_hub, sessions, gate):
    ok, trace = run(routes_hub, record("10.9/picky"), sessions, gate)
    assert ok  # the route replies 406 to any Accept other than image/*


def test_timeout_leaves_a_status_zero_step(serve_script, sessions, gate):
    script = mockrdr.ScenarioScript(
        resolver_routes={"10.9/slow": [mockrdr.RouteHop(200, "image/png")]},
        response_delay=0.8,
    )
    hub = serve_script(script)
    ok, trace = run(hub, record("10.9/slow"), sessions, gate, timeout=0.3)
    assert not ok
    assert trace.reason == "timeout"
    assert [s.status for s in trace.steps] == [0]
    assert trace.steps[0].url.endswith("/10.9/slow")


def test_connection_refused_is_transport(sessions, gate):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    dead = f"http://127.0.0.1:{port}/resolve/"
    ok, trace = f_ret(
        record("10.9/x"), quick_config(dead, timeout=0.5), gate=gate, session=sessions
    )
    assert not ok
    assert trace.reason == "transport"
    assert [s.status for s in trace.steps] == [0]


def test_per_host_delay_spaces_requests(routes_hub, monkeypatch, sessions):
    # the gate spaces request starts; arrival times at the mock also carry
    # each hop's connect, so the starts are read inside the gate's slot
    delay_ms = 120.0
    starts: list[float] = []
    slot = HostGate.slot

    @contextmanager
    def recording_slot(gate, host):
        with slot(gate, host):
            starts.append(gate._last_start[host])
            yield

    monkeypatch.setattr(HostGate, "slot", recording_slot)
    before = len(routes_hub.requests_to("/resolve/"))
    ok, trace = run(
        routes_hub, record("10.9/chain"), sessions, HostGate(delay_ms),
        per_host_delay=delay_ms,
    )
    assert ok
    chain = [
        e for e in routes_hub.requests_to("/resolve/") if "chain" in e.target
    ][before:]
    assert len(chain) == 3
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert len(gaps) == 2
    assert all(gap >= delay_ms / 1000.0 for gap in gaps)


def test_large_bodies_are_not_downloaded(serve_script, sessions, gate):
    size = 4_000_000
    script = mockrdr.ScenarioScript(
        resolver_routes={
            "10.9/huge": [mockrdr.RouteHop(200, "image/png", body="x" * size)]
        }
    )
    hub = serve_script(script)
    ok, trace = run(hub, record("10.9/huge"), sessions, gate)
    assert ok
    assert trace.outcome == OUTCOME_CLIENT
    entry = hub.requests_to("/resolve/")[-1]
    # the server aborts mid-body once the probe hangs up
    deadline = time.monotonic() + 2.0
    while not entry.aborted and time.monotonic() < deadline:
        time.sleep(0.01)
    assert entry.aborted
    assert entry.bytes_sent < size


def test_doi_url_joins():
    assert doi_url("10.1/x", "https://doi.org/") == "https://doi.org/10.1/x"
    assert doi_url("/10.1/x", "http://h:1/resolve/") == "http://h:1/resolve/10.1/x"
    assert doi_url("10.1/x", "http://h:1/resolve") == "http://h:1/resolve/10.1/x"


def test_redirect_without_location_is_non_200(scripted_http, sessions, gate):
    base = scripted_http([(302, {}, b"")])
    ok, trace = f_ret(
        record("10.9/x"), quick_config(base + "/"), gate=gate, session=sessions
    )
    assert not ok
    assert trace.reason == "non-200"
    assert [s.status for s in trace.steps] == [302]


def test_location_that_is_not_utf8_is_followed(scripted_http, sessions, gate):
    targets: list[str] = []
    # the header carries the single byte 0xE9
    base = scripted_http(
        [
            (302, {"Location": "/caf\xe9"}, b""),
            (200, {"Content-Type": "image/png"}, b""),
        ],
        targets,
    )
    ok, trace = f_ret(
        record("10.9/x"), quick_config(base + "/"), gate=gate, session=sessions
    )
    assert ok
    assert [s.status for s in trace.steps] == [302, 200]
    assert targets == ["/10.9/x", "/caf%C3%A9"]


def cookie_of(headers: list[tuple[str, str]]) -> str | None:
    return dict(headers).get("Cookie")


def test_a_cookie_follows_the_hops_of_its_probe(scripted_http, sessions, gate):
    seen: list[list[tuple[str, str]]] = []
    base = scripted_http(
        [
            (302, {"Location": "/landing", "Set-Cookie": "gate=open; Path=/"}, b""),
            (200, {"Content-Type": "text/html", "Link": TIFF_LINK}, b"<html/>"),
            (200, {"Content-Type": "image/tiff"}, b"tiff"),
        ],
        headers=seen,
    )
    ok, trace = f_ret(
        record("10.9/x", ["image/tiff"]), quick_config(base + "/"),
        gate=gate, session=sessions,
    )
    assert ok
    assert trace.outcome == OUTCOME_LINK
    # the redirect hop and the Link fallback both carry it
    assert [cookie_of(h) for h in seen] == [None, "gate=open", "gate=open"]


def test_a_cookie_never_reaches_another_probe(scripted_http, gate):
    seen: list[list[tuple[str, str]]] = []
    image = {"Content-Type": "image/png"}
    base = scripted_http(
        [(200, {**image, "Set-Cookie": "gate=open; Path=/"}, b""), (200, image, b"")],
        headers=seen,
    )
    sessions = http.Sessions()
    try:
        # one run, one thread: the verdict must not depend on what ran before
        for doi in ("10.9/a", "10.9/b"):
            config = quick_config(base + "/")
            ok, _ = f_ret(record(doi), config, gate=gate, session=sessions)
            assert ok
    finally:
        sessions.close()
    assert [cookie_of(h) for h in seen] == [None, None]


def test_trace_round_trip():
    trace = ProbeTrace(
        steps=[
            ProbeStep(
                url="http://h/x",
                method="GET",
                request_accept="image/*",
                status=200,
                content_type="image/png",
                link_header=None,
            )
        ],
        outcome=OUTCOME_CLIENT,
        reason=None,
        elapsed=12.5,
    )
    assert json.loads(json.dumps(trace_to_dict(trace))) == {
        "steps": [
            {
                "url": "http://h/x",
                "method": "GET",
                "request_accept": "image/*",
                "status": 200,
                "content_type": "image/png",
                "link_header": None,
            }
        ],
        "outcome": "client_negotiated",
        "reason": None,
        "elapsed": 12.5,
    }
