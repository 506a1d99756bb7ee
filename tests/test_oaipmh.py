"""Harvesting: paging, flow control, fault recovery, prefix selection."""

from __future__ import annotations

import threading
import time

import pytest

from fairprobe import mockrdr
from fairprobe.oaipmh import (
    HarvestPolicy,
    HarvestSummary,
    MetadataFormatInfo,
    ProtocolError,
    RawRecord,
    estimate_list_size,
    harvest_records,
    list_metadata_formats,
    select_datacite_prefix,
)
from fairprobe.throttle import HostGate


def make_repo(name="orchard", n=7, page_size=3, faults=(), records=None):
    if records is None:
        records = [mockrdr.MockRecord(doi=f"10.77/{name}-{i}") for i in range(n)]
    return mockrdr.MockRepository(
        name=name, records=records, page_size=page_size, faults=list(faults)
    )


def fast_policy(**overrides) -> HarvestPolicy:
    settings = dict(request_timeout=5.0, retries_after_timeout=1, politeness_delay=0.0)
    settings.update(overrides)
    return HarvestPolicy(**settings)


def harvest(hub, name, policy=None, prefix="datacite"):
    got: list[RawRecord] = []
    summary = harvest_records(
        hub.oai_endpoint(name), prefix, policy or fast_policy(), got.append
    )
    return summary, got


def expected_ids(repo: mockrdr.MockRepository) -> set[str]:
    return {
        mockrdr.oai_identifier(repo.name, i)
        for i, record in enumerate(repo.records)
        if not record.deleted
    }


def test_multi_page_chain(serve_script):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert summary.completed
    assert summary.pages == 3
    assert summary.records == 7
    assert summary.deleted == 0
    assert summary.complete_list_size == 7
    assert {r.oai_identifier for r in got} == expected_ids(repo)
    assert all(r.source_endpoint == hub.oai_endpoint(repo.name) for r in got)
    assert all(r.payload.strip() for r in got)


def test_empty_list_is_complete(serve_script):
    repo = make_repo(n=0)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert summary.completed
    assert (summary.pages, summary.records, got) == (0, 0, [])


def test_deleted_records_counted_but_not_delivered(serve_script):
    records = [
        mockrdr.MockRecord(doi="10.77/a"),
        mockrdr.MockRecord(doi="10.77/b", deleted=True),
        mockrdr.MockRecord(doi="10.77/c"),
    ]
    repo = make_repo(n=3, page_size=2, records=records)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert summary.completed
    assert summary.records == 2
    assert summary.deleted == 1
    assert {r.oai_identifier for r in got} == expected_ids(repo)
    assert all(not r.deleted for r in got)


def test_bad_token_triggers_one_restart(serve_script):
    repo = make_repo(faults=[mockrdr.Fault(kind="badtoken", page=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert summary.completed
    # page one is re-read after the restart; every record still arrives once
    assert summary.records == 7
    assert sorted(r.oai_identifier for r in got) == sorted(expected_ids(repo))


def test_bad_token_restart_budget_is_one(serve_script):
    repo = make_repo(faults=[mockrdr.Fault(kind="badtoken", page=2, times=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert not summary.completed
    # only the first page's records were obtained
    assert summary.records == 3
    assert {r.oai_identifier for r in got} == {
        mockrdr.oai_identifier(repo.name, i) for i in range(3)
    }


def test_503_retry_after_is_honoured(serve_script):
    repo = make_repo(
        faults=[mockrdr.Fault(kind="503", page=2, retry_after=0.05)]
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert summary.completed
    assert summary.records == 7
    # three pages plus the retried one: the 503 consumed a request
    assert len(hub.requests_to("/oai/")) == 4


def test_503_beyond_timeout_budget_gives_partial(serve_script):
    repo = make_repo(
        faults=[mockrdr.Fault(kind="503", page=2, retry_after=9.0)]
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, fast_policy(request_timeout=0.5))
    assert not summary.completed
    assert summary.pages == 1
    assert summary.records == 3


def test_timeout_is_retried(serve_script):
    repo = make_repo(faults=[mockrdr.Fault(kind="timeout", page=2)])
    hub = serve_script(
        mockrdr.ScenarioScript(repositories=[repo], timeout_stall=1.2)
    )
    summary, got = harvest(hub, repo.name, fast_policy(request_timeout=0.4))
    assert summary.completed
    assert summary.records == 7


def test_timeout_exhaustion_gives_partial(serve_script):
    repo = make_repo(faults=[mockrdr.Fault(kind="timeout", page=2, times=2)])
    hub = serve_script(
        mockrdr.ScenarioScript(repositories=[repo], timeout_stall=1.2)
    )
    summary, got = harvest(
        hub, repo.name, fast_policy(request_timeout=0.4, retries_after_timeout=1)
    )
    assert not summary.completed
    assert summary.records == 3


def test_dropped_connection_is_retried(serve_script):
    repo = make_repo(faults=[mockrdr.Fault(kind="drop", page=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert summary.completed
    assert summary.records == 7


def test_malformed_page_stops_the_chain(serve_script):
    repo = make_repo(faults=[mockrdr.Fault(kind="malformed", page=2)])
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name)
    assert not summary.completed
    assert summary.pages == 1
    assert summary.records == 3


def test_page_cap_yields_partial(serve_script):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    summary, got = harvest(hub, repo.name, fast_policy(max_pages=1))
    assert not summary.completed
    assert summary.pages == 1
    assert summary.records == 3


def test_seen_set_carries_across_calls(serve_script):
    repo = make_repo(n=5, page_size=2)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    seen: set[str] = set()
    got: list[RawRecord] = []
    first = harvest_records(
        hub.oai_endpoint(repo.name), "datacite", fast_policy(max_pages=2),
        got.append, seen=seen,
    )
    assert not first.completed and first.records == 4
    second = harvest_records(
        hub.oai_endpoint(repo.name), "datacite", fast_policy(), got.append,
        seen=seen,
    )
    assert second.completed
    # the resumed pass rereads the chain but only the fifth record is new
    assert second.records == 1
    assert len(got) == 5
    assert len({r.oai_identifier for r in got}) == 5


def test_chain_walked_in_two_calls_matches_one_walk(serve_script):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    endpoint = hub.oai_endpoint(repo.name)
    whole, _ = harvest(hub, repo.name)
    got: list[RawRecord] = []
    seen: set[str] = set()
    first = harvest_records(
        endpoint, "datacite", fast_policy(), got.append, seen=seen,
        first_page_only=True,
    )
    assert (first.pages, first.records, first.completed) == (1, 3, False)
    assert first.token and first.complete_list_size == 7
    rest = harvest_records(
        endpoint, "datacite", fast_policy(), got.append, seen=seen, after=first
    )
    assert (rest.pages, rest.records, rest.token) == (2, 4, None)
    assert first + rest == whole
    assert {r.oai_identifier for r in got} == expected_ids(repo)
    assert {r.source_endpoint for r in got} == {endpoint}
    assert len(hub.requests_to("/oai/")) == 3 + 3  # the one walk, then 1 + 2


def test_page_cap_spans_both_calls_of_a_chain(serve_script):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    endpoint = hub.oai_endpoint(repo.name)
    policy = fast_policy(max_pages=2)
    first = harvest_records(
        endpoint, "datacite", policy, lambda r: None, first_page_only=True
    )
    rest = harvest_records(endpoint, "datacite", policy, lambda r: None, after=first)
    assert (first.pages, rest.pages, rest.completed) == (1, 1, False)
    assert len(hub.requests_to("/oai/")) == 2


def test_expired_token_spends_the_one_restart(serve_script):
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
            endpoint, "datacite", fast_policy(), lambda r: None, seen=seen,
            first_page_only=True,
        )
        time.sleep(0.5)
        rest = harvest_records(
            endpoint, "datacite", fast_policy(), lambda r: None, seen=seen,
            after=first,
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


def test_politeness_spacing_per_endpoint(serve_script):
    repo = make_repo(n=7, page_size=3)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    delay_ms = 120.0
    harvest(hub, repo.name, fast_policy(politeness_delay=delay_ms))
    starts = [e.t for e in hub.requests_to("/oai/")]
    assert len(starts) == 3
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    # timestamps are taken server side; allow a little scheduling slack
    assert all(gap >= 0.9 * delay_ms / 1000.0 for gap in gaps)


def test_politeness_does_not_serialise_distinct_endpoints(serve_script):
    repos = [make_repo(name="east", n=9, page_size=3),
             make_repo(name="west", n=9, page_size=3)]
    hub = serve_script(mockrdr.ScenarioScript(repositories=repos))
    delay_ms = 150.0
    gate = HostGate(delay_ms)
    policy = fast_policy(politeness_delay=delay_ms)

    def run(name):
        harvest_records(
            hub.oai_endpoint(name), "datacite", policy, lambda r: None, gate=gate
        )

    begin = time.monotonic()
    threads = [threading.Thread(target=run, args=(r.name,)) for r in repos]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - begin

    # three spaced requests per endpoint run concurrently, not back to back
    serialised_floor = 6 * delay_ms / 1000.0
    assert elapsed < serialised_floor * 0.75

    for name in ("east", "west"):
        starts = [e.t for e in hub.requests_to(f"/oai/{name}")]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= 0.9 * delay_ms / 1000.0 for gap in gaps)


def test_list_metadata_formats(serve_script):
    repo = make_repo()
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    formats = list_metadata_formats(hub.oai_endpoint(repo.name), fast_policy())
    assert [f.prefix for f in formats] == ["oai_dc", "datacite"]
    assert all(f.schema_url for f in formats)


def info(prefix: str) -> MetadataFormatInfo:
    return MetadataFormatInfo(prefix=prefix, schema_url="", namespace="")


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
    assert select_datacite_prefix([info(p) for p in prefixes]) == expected


def test_estimate_list_size_variants(serve_script):
    multi = make_repo(name="multi", n=7, page_size=3)
    single = make_repo(name="single", n=2, page_size=10)
    empty = make_repo(name="empty", n=0)
    hub = serve_script(mockrdr.ScenarioScript(repositories=[multi, single, empty]))
    policy = fast_policy()
    assert estimate_list_size(hub.oai_endpoint("multi"), "datacite", policy) == 7
    assert estimate_list_size(hub.oai_endpoint("single"), "datacite", policy) == 2
    assert estimate_list_size(hub.oai_endpoint("empty"), "datacite", policy) == 0


def test_estimate_list_size_unreachable_is_unknown():
    policy = fast_policy(request_timeout=0.3, retries_after_timeout=0)
    assert (
        estimate_list_size("http://127.0.0.1:9/oai", "datacite", policy) is None
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


def test_page_without_token_element_completes(scripted_http):
    base = scripted_http([(200, {}, oai_body(OAI_RECORD))])
    got: list[RawRecord] = []
    summary = harvest_records(base, "datacite", fast_policy(), got.append)
    assert summary.completed
    assert summary.records == 1
    assert summary.complete_list_size is None


def test_xml_declaration_sets_the_encoding(scripted_http):
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
    harvest_records(base, "datacite", fast_policy(), got.append)
    assert "Zürich<" in got[0].payload


def test_charset_parameter_outranks_the_default_encoding(scripted_http):
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
    summary = harvest_records(base, "datacite", fast_policy(), got.append)
    assert summary.completed
    assert "Zürich<" in got[0].payload


@pytest.mark.parametrize(
    "nested",
    [
        '<c:error xmlns:c="urn:calib" code="calib">drift</c:error>',
        '<c:resumptionToken xmlns:c="urn:calib" completeListSize="9">nope'
        "</c:resumptionToken>",
    ],
    ids=["error", "resumptionToken"],
)
def test_payload_elements_cannot_steer_paging(scripted_http, nested):
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
    summary = harvest_records(base, "datacite", fast_policy(), got.append)
    assert summary.completed
    assert (summary.pages, summary.records) == (2, 2)
    assert summary.complete_list_size == 2
    assert [r.oai_identifier for r in got] == ["oai:x:1", "oai:x:2"]
    assert "drift" in got[0].payload or "nope" in got[0].payload
    assert targets[1].endswith("resumptionToken=tok-2")


def test_unparseable_retry_after_counts_as_unresponsive(scripted_http):
    base = scripted_http([(503, {"Retry-After": "in a while"}, b"busy")])
    summary = harvest_records(base, "datacite", fast_policy(), lambda r: None)
    assert not summary.completed
    assert summary.pages == 0


def test_transient_http_error_is_retried(scripted_http):
    base = scripted_http(
        [(500, {}, b"boom"), (200, {}, oai_body(OAI_RECORD))]
    )
    summary = harvest_records(
        base, "datacite", fast_policy(retries_after_timeout=1), lambda r: None
    )
    assert summary.completed
    assert summary.records == 1


def test_persistent_http_error_exhausts_attempts(scripted_http):
    base = scripted_http([(500, {}, b"boom"), (500, {}, b"boom")])
    summary = harvest_records(
        base, "datacite", fast_policy(retries_after_timeout=1), lambda r: None
    )
    assert not summary.completed
    assert summary.pages == 0


def test_oai_error_other_than_known_codes_is_partial(scripted_http):
    body = (
        '<?xml version="1.0"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
        '<error code="cannotDisseminateFormat">nope</error></OAI-PMH>'
    ).encode()
    base = scripted_http([(200, {}, body)])
    summary = harvest_records(base, "datacite", fast_policy(), lambda r: None)
    assert not summary.completed
    assert summary.records == 0


def test_list_metadata_formats_protocol_error(scripted_http):
    body = (
        '<?xml version="1.0"?>'
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/">'
        '<error code="badVerb">what</error></OAI-PMH>'
    ).encode()
    base = scripted_http([(200, {}, body)])
    with pytest.raises(ProtocolError):
        list_metadata_formats(base, fast_policy())


def test_policy_validation():
    with pytest.raises(ValueError):
        HarvestPolicy(request_timeout=0.0)
    with pytest.raises(ValueError):
        HarvestPolicy(retries_after_timeout=-1)
