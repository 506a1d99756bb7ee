"""Harvesting: paging, flow control, fault recovery, prefix selection."""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from fairprobe import mockrdr
from fairprobe.config import RunConfig
from fairprobe.oaipmh import (
    ATTEMPTS,
    HarvestSummary,
    ProtocolError,
    RawRecord,
    estimate_list_size,
    harvest_records,
    list_metadata_formats,
    select_datacite_prefix,
)
from fairprobe.throttle import HostGate
from fairprobe.xmltree import local_name


def make_repo(name="orchard", n=7, page_size=3, faults=(), records=None):
    if records is None:
        records = [mockrdr.MockRecord(doi=f"10.77/{name}-{i}") for i in range(n)]
    return mockrdr.MockRepository(
        name=name, records=records, page_size=page_size, faults=list(faults)
    )


def fast_config(**overrides) -> RunConfig:
    settings = dict(timeout=5.0, politeness_delay=0.0)
    settings.update(overrides)
    return RunConfig(**settings)


def collect(got: list[RawRecord]):
    """A page sink that keeps the records each page gave."""

    def sink(body, records: list[RawRecord]) -> None:
        got.extend(records)

    return sink


def discard(body, records: list[RawRecord]) -> None:
    pass


def payload_text(record: RawRecord) -> str:
    return "".join(record.payload.itertext())


def harvest(hub, name, sessions, gate, config=None, prefix="datacite"):
    got: list[RawRecord] = []
    summary = harvest_records(
        hub.oai_endpoint(name), prefix, config or fast_config(), collect(got),
        gate=gate, session=sessions,
    )
    return summary, got


def expected_ids(repo: mockrdr.MockRepository) -> set[str]:
    return {
        mockrdr.oai_identifier(repo.name, i)
        for i, record in enumerate(repo.records)
        if not record.deleted
    }


def test_multi_page_chain(serve_script, sessions, gate):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert summary.completed
    assert summary.pages == 3
    assert summary.records == 7
    assert summary.deleted == 0
    assert summary.complete_list_size == 7
    assert {r.oai_identifier for r in got} == expected_ids(repo)
    assert all(local_name(r.payload.tag) == "resource" for r in got)


def test_empty_list_is_complete(serve_script, sessions, gate):
    repo = make_repo(n=0)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert summary.completed
    assert (summary.pages, summary.records, got) == (0, 0, [])


def test_deleted_records_counted_but_not_delivered(serve_script, sessions, gate):
    records = [
        mockrdr.MockRecord(doi="10.77/a"),
        mockrdr.MockRecord(doi="10.77/b", deleted=True),
        mockrdr.MockRecord(doi="10.77/c"),
    ]
    repo = make_repo(n=3, page_size=2, records=records)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert summary.completed
    assert summary.records == 2
    assert summary.deleted == 1
    assert {r.oai_identifier for r in got} == expected_ids(repo)
    assert all(not r.deleted for r in got)


def test_bad_token_triggers_one_restart(serve_script, sessions, gate):
    repo = make_repo(faults=[mockrdr.Fault(kind="badtoken", page=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert summary.completed
    # page one is re-read after the restart; every record still arrives once
    assert summary.records == 7
    assert sorted(r.oai_identifier for r in got) == sorted(expected_ids(repo))


def test_bad_token_restart_budget_is_one(serve_script, sessions, gate):
    repo = make_repo(faults=[mockrdr.Fault(kind="badtoken", page=2, times=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert not summary.completed
    # only the first page's records were obtained
    assert summary.records == 3
    assert {r.oai_identifier for r in got} == {
        mockrdr.oai_identifier(repo.name, i) for i in range(3)
    }


def test_503_retry_after_is_honoured(serve_script, sessions, gate):
    repo = make_repo(
        faults=[mockrdr.Fault(kind="503", page=2, retry_after=0.05)]
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert summary.completed
    assert summary.records == 7
    # three pages plus the retried one: the 503 consumed a request
    assert len(hub.requests_to("/oai/")) == 4


def test_503_beyond_timeout_budget_gives_partial(serve_script, sessions, gate):
    repo = make_repo(
        faults=[mockrdr.Fault(kind="503", page=2, retry_after=9.0)]
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate, fast_config(timeout=0.5))
    assert not summary.completed
    assert summary.pages == 1
    assert summary.records == 3


def test_timeout_is_retried(serve_script, sessions, gate):
    repo = make_repo(faults=[mockrdr.Fault(kind="timeout", page=2)])
    hub = serve_script(
        mockrdr.ScenarioScript(repositories=[repo], timeout_stall=1.2)
    )
    summary, got = harvest(hub, repo.name, sessions, gate, fast_config(timeout=0.4))
    assert summary.completed
    assert summary.records == 7


def test_timeout_exhaustion_gives_partial(serve_script, sessions, gate):
    repo = make_repo(faults=[mockrdr.Fault(kind="timeout", page=2, times=2)])
    hub = serve_script(
        mockrdr.ScenarioScript(repositories=[repo], timeout_stall=1.2)
    )
    summary, got = harvest(hub, repo.name, sessions, gate, fast_config(timeout=0.4))
    assert not summary.completed
    assert summary.records == 3


def test_dropped_connection_is_retried(serve_script, sessions, gate):
    repo = make_repo(faults=[mockrdr.Fault(kind="drop", page=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert summary.completed
    assert summary.records == 7


def test_malformed_page_stops_the_chain(serve_script, sessions, gate):
    repo = make_repo(faults=[mockrdr.Fault(kind="malformed", page=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, sessions, gate)
    assert not summary.completed
    assert summary.pages == 1
    assert summary.records == 3


def test_seen_set_carries_across_calls(serve_script, sessions, gate):
    repo = make_repo(
        n=5, page_size=2, faults=[mockrdr.Fault(kind="malformed", page=3)]
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    seen: set[str] = set()
    got: list[RawRecord] = []
    first = harvest_records(
        hub.oai_endpoint(repo.name), "datacite", fast_config(),
        collect(got), seen=seen, gate=gate, session=sessions,
    )
    assert not first.completed and first.records == 4
    second = harvest_records(
        hub.oai_endpoint(repo.name), "datacite", fast_config(), collect(got),
        seen=seen, gate=gate, session=sessions,
    )
    assert second.completed
    # the resumed pass rereads the chain but only the fifth record is new
    assert second.records == 1
    assert len(got) == 5
    assert len({r.oai_identifier for r in got}) == 5


def test_chain_walked_in_two_calls_matches_one_walk(serve_script, sessions, gate):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    endpoint = hub.oai_endpoint(repo.name)
    whole, _ = harvest(hub, repo.name, sessions, gate)
    got: list[RawRecord] = []
    seen: set[str] = set()
    first = harvest_records(
        endpoint, "datacite", fast_config(), collect(got), seen=seen,
        first_page_only=True, gate=gate, session=sessions,
    )
    assert (first.pages, first.records, first.completed) == (1, 3, False)
    assert first.token and first.complete_list_size == 7
    rest = harvest_records(
        endpoint, "datacite", fast_config(), collect(got), seen=seen,
        token=first.token, gate=gate, session=sessions,
    )
    assert (rest.pages, rest.records, rest.token) == (2, 4, None)
    assert first + rest == whole
    assert {r.oai_identifier for r in got} == expected_ids(repo)
    assert len(hub.requests_to("/oai/")) == 3 + 3  # the one walk, then 1 + 2


def test_expired_token_spends_the_one_restart(serve_script, sessions, gate):
    # tokens live 0.3 s and each chain waits 0.5 s between its two calls:
    # "expiring" then completes one page late, "expiring-flaky" also has its
    # page-3 token rejected afterwards, with no restart left for it
    ok = make_repo(name="expiring", n=9, page_size=3)
    flaky = make_repo(
        name="expiring-flaky",
        n=12,
        page_size=3,
        faults=[mockrdr.Fault(kind="badtoken", page=3)],
    )
    ok.token_ttl = flaky.token_ttl = 0.3
    hub = serve_script(mockrdr.ScenarioScript(repositories=[ok, flaky]))

    def walk(name):
        endpoint = hub.oai_endpoint(name)
        seen: set[str] = set()
        first = harvest_records(
            endpoint, "datacite", fast_config(), discard, seen=seen,
            first_page_only=True, gate=gate, session=sessions,
        )
        time.sleep(0.5)
        rest = harvest_records(
            endpoint, "datacite", fast_config(), discard, seen=seen,
            token=first.token, gate=gate, session=sessions,
        )
        return first + rest

    # page 1; the expired page-2 token, then pages 1-3
    assert walk("expiring") == HarvestSummary(
        pages=4, records=9, completed=True, complete_list_size=9
    )
    assert [r.target for r in hub.requests_to("/oai/")] == ["/oai/expiring"] * 5
    # page 1; the expired page-2 token, pages 1-2, the rejected page-3 token
    partial = walk("expiring-flaky")
    assert (partial.pages, partial.records, partial.completed) == (3, 6, False)


def test_politeness_spacing_per_endpoint(serve_script, sessions):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    delay_ms = 120.0
    harvest(
        hub, repo.name, sessions, HostGate(delay_ms),
        fast_config(politeness_delay=delay_ms),
    )
    starts = [e.t for e in hub.requests_to("/oai/")]
    assert len(starts) == 3
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    # timestamps are taken server side; allow a little scheduling slack
    assert all(gap >= 0.9 * delay_ms / 1000.0 for gap in gaps)


def test_politeness_does_not_serialise_distinct_endpoints(
    serve_script, monkeypatch, sessions
):
    repos = [make_repo(name="east", n=9, page_size=3),
             make_repo(name="west", n=9, page_size=3)]
    hub = serve_script(mockrdr.ScenarioScript(repositories=repos))
    delay_ms = 150.0
    gate = HostGate(delay_ms)
    config = fast_config(politeness_delay=delay_ms)
    # the gate spaces request starts; an arrival at the mock also carries the
    # connect of a first request, so the starts are read inside the slot
    starts: dict[str, list[float]] = defaultdict(list)
    slot = HostGate.slot

    @contextmanager
    def recording_slot(gate, endpoint):
        with slot(gate, endpoint):
            starts[endpoint].append(gate._last_start[endpoint])
            yield

    monkeypatch.setattr(HostGate, "slot", recording_slot)

    def run(name):
        harvest_records(
            hub.oai_endpoint(name), "datacite", config, discard,
            gate=gate, session=sessions,
        )

    threads = [threading.Thread(target=run, args=(r.name,)) for r in repos]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    arrived = [
        e
        for name in ("east", "west")
        for e in hub.requests_to(f"/oai/{name}")
        if "verb=ListRecords" in e.path
    ]
    assert len(arrived) == 6
    assert sorted(starts) == sorted(hub.oai_endpoint(r.name) for r in repos)
    # a gate that serialised the two endpoints would space every start
    merged = sorted(t for times in starts.values() for t in times)
    gaps = [b - a for a, b in zip(merged, merged[1:])]
    assert min(gaps) < 0.9 * delay_ms / 1000.0

    for times in starts.values():
        assert len(times) == 3
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= delay_ms / 1000.0 for gap in gaps)


def test_list_metadata_formats(serve_script, sessions, gate):
    repo = make_repo()
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    prefixes = list_metadata_formats(
        hub.oai_endpoint(repo.name), fast_config(), gate=gate, session=sessions
    )
    assert prefixes == ["oai_dc", "datacite"]


@pytest.mark.parametrize(
    "prefixes,expected",
    [
        (["oai_dc", "datacite"], "datacite"),
        (["datacite4", "oai_datacite"], "datacite4"),
        (["oai_datacite3", "datacite4"], "datacite4"),
        (["oai_datacite", "oai_datacite3"], "oai_datacite"),
        (["datacite3", "datacite", "datacite4"], "datacite"),
        (["oai_dc", "marcxml"], None),
        ([], None),
    ],
)
def test_select_datacite_prefix(prefixes, expected):
    assert select_datacite_prefix(prefixes) == expected


def test_estimate_list_size_variants(serve_script, sessions, gate):
    multi = make_repo(name="multi", n=7, page_size=3)
    single = make_repo(name="single", n=2, page_size=10)
    empty = make_repo(name="empty", n=0)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[multi, single, empty]))
    config = fast_config()

    def estimate(name):
        return estimate_list_size(
            hub.oai_endpoint(name), "datacite", config, gate=gate, session=sessions
        )

    assert estimate("multi") == 7
    assert estimate("single") == 2
    assert estimate("empty") == 0


def test_estimate_list_size_unreachable_is_unknown(sessions, gate):
    config = fast_config(timeout=0.3)
    assert (
        estimate_list_size(
            "http://127.0.0.1:9/oai", "datacite", config, gate=gate, session=sessions
        )
        is None
    )


OAI_RECORD = (
    "<record><header><identifier>oai:x:1</identifier>"
    "<datestamp>2016-01-01</datestamp></header>"
    '<metadata><resource xmlns="http://datacite.org/schema/kernel-4">'
    '<identifier identifierType="DOI">10.1/1</identifier>'
    "</resource></metadata></record>"
)


def oai_body(inner: str) -> bytes:
    return (
        '<?xml version="1.0"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
        f"<ListRecords>{inner}</ListRecords></OAI-PMH>"
    ).encode()


def test_page_without_token_element_completes(scripted_http, sessions, gate):
    base = scripted_http([(200, {}, oai_body(OAI_RECORD))])
    got: list[RawRecord] = []
    summary = harvest_records(
        base, "datacite", fast_config(), collect(got), gate=gate, session=sessions
    )
    assert summary.completed
    assert summary.records == 1
    assert summary.complete_list_size is None


def test_xml_declaration_sets_the_encoding(scripted_http, sessions, gate):
    # text/xml without a charset: the declaration, not ISO-8859-1, decides
    # (RFC 7303 section 3.2, XML 1.0 section 4.3.3)
    record = OAI_RECORD.replace(
        "</identifier></resource>",
        "</identifier><geoLocations><geoLocation><geoLocationPlace>Zürich"
        "</geoLocationPlace></geoLocation></geoLocations></resource>",
    )
    body = oai_body(record).replace(
        b'<?xml version="1.0"?>', b'<?xml version="1.0" encoding="UTF-8"?>'
    )
    base = scripted_http([(200, {"Content-Type": "text/xml"}, body)])
    got: list[RawRecord] = []
    harvest_records(
        base, "datacite", fast_config(), collect(got), gate=gate, session=sessions
    )
    assert "Zürich" in payload_text(got[0])


def test_charset_parameter_outranks_the_default_encoding(scripted_http, sessions, gate):
    # a charset in the Content-Type comes before the XML declaration's
    # default of UTF-8 (RFC 7303 section 3)
    record = OAI_RECORD.replace(
        "</identifier></resource>",
        "</identifier><geoLocations><geoLocation><geoLocationPlace>Zürich"
        "</geoLocationPlace></geoLocation></geoLocations></resource>",
    )
    body = (
        oai_body(record)
        .decode()
        .replace('<?xml version="1.0"?>', "")
        .encode("iso-8859-1")
    )
    base = scripted_http(
        [(200, {"Content-Type": "text/xml; charset=ISO-8859-1"}, body)]
    )
    got: list[RawRecord] = []
    summary = harvest_records(
        base, "datacite", fast_config(), collect(got), gate=gate, session=sessions
    )
    assert summary.completed
    assert "Zürich" in payload_text(got[0])


@pytest.mark.parametrize(
    "nested",
    [
        '<c:error xmlns:c="urn:calib" code="calib">drift</c:error>',
        '<c:resumptionToken xmlns:c="urn:calib" completeListSize="9">nope'
        "</c:resumptionToken>",
    ],
    ids=["error", "resumptionToken"],
)
def test_payload_elements_cannot_steer_paging(scripted_http, nested, sessions, gate):
    # only children of the root and of ListRecords are protocol elements
    # (OAI-PMH 2.0 sections 3.5 and 3.6), whatever a payload holds
    first = OAI_RECORD.replace(
        "</identifier></resource>",
        "</identifier><descriptions><description descriptionType=\"Other\">"
        f"{nested}</description></descriptions></resource>",
    )
    second = OAI_RECORD.replace("oai:x:1", "oai:x:2").replace("10.1/1", "10.1/2")
    targets: list[str] = []
    base = scripted_http(
        [
            (200, {}, oai_body(
                first + '<resumptionToken completeListSize="2">tok-2'
                "</resumptionToken>"
            )),
            (200, {}, oai_body(second + "<resumptionToken/>")),
        ],
        targets,
    )
    got: list[RawRecord] = []
    summary = harvest_records(
        base, "datacite", fast_config(), collect(got), gate=gate, session=sessions
    )
    assert summary.completed
    assert (summary.pages, summary.records) == (2, 2)
    assert summary.complete_list_size == 2
    assert [r.oai_identifier for r in got] == ["oai:x:1", "oai:x:2"]
    assert "drift" in payload_text(got[0]) or "nope" in payload_text(got[0])
    assert targets[1].endswith("resumptionToken=tok-2")


def test_unparseable_retry_after_counts_as_unresponsive(scripted_http, sessions, gate):
    base = scripted_http([(503, {"Retry-After": "in a while"}, b"busy")])
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert not summary.completed
    assert summary.pages == 0


@pytest.mark.parametrize("retry_after", ["nan", "inf", "-inf"])
def test_non_finite_retry_after_counts_as_unresponsive(
    scripted_http, retry_after, sessions, gate
):
    targets = []
    base = scripted_http([(503, {"Retry-After": retry_after}, b"busy")], targets)
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert not summary.completed
    assert summary.pages == 0
    assert len(targets) == 1


def test_zero_retry_after_spends_an_attempt(scripted_http, sessions, gate):
    targets = []
    busy = (503, {"Retry-After": "0"}, b"busy")
    base = scripted_http([busy] * 200, targets)
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert not summary.completed
    assert summary.pages == 0
    # two attempts, each answered with an immediate retry
    assert len(targets) == ATTEMPTS == 2
    base = scripted_http([busy, (200, {}, oai_body(OAI_RECORD))])
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert summary.completed and summary.records == 1


def test_a_fractional_retry_after_spends_whole_seconds_of_the_budget(
    scripted_http, sessions, gate
):
    targets = []
    busy = (503, {"Retry-After": "0.001"}, b"busy")
    base = scripted_http([busy] * 100, targets)
    config = fast_config(timeout=1.0)
    summary = harvest_records(
        base, "datacite", config, discard, gate=gate, session=sessions
    )
    assert not summary.completed
    assert summary.pages == 0
    # each wait counts as 1 s against the 1 s budget
    assert len(targets) <= config.timeout + ATTEMPTS


def test_transient_http_error_is_retried(scripted_http, sessions, gate):
    base = scripted_http(
        [(500, {}, b"boom"), (200, {}, oai_body(OAI_RECORD))]
    )
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert summary.completed
    assert summary.records == 1


def test_persistent_http_error_exhausts_attempts(scripted_http, sessions, gate):
    base = scripted_http([(500, {}, b"boom"), (500, {}, b"boom")])
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert not summary.completed
    assert summary.pages == 0


def test_oai_error_other_than_known_codes_is_partial(scripted_http, sessions, gate):
    body = (
        '<?xml version="1.0"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
        '<error code="cannotDisseminateFormat">nope</error></OAI-PMH>'
    ).encode()
    base = scripted_http([(200, {}, body)])
    summary = harvest_records(
        base, "datacite", fast_config(), discard, gate=gate, session=sessions
    )
    assert not summary.completed
    assert summary.records == 0


def test_list_metadata_formats_protocol_error(scripted_http, sessions, gate):
    body = (
        '<?xml version="1.0"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
        '<error code="badVerb">what</error></OAI-PMH>'
    ).encode()
    base = scripted_http([(200, {}, body)])
    with pytest.raises(ProtocolError):
        list_metadata_formats(base, fast_config(), gate=gate, session=sessions)
