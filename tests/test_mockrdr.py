"""The scripted landscape itself: payload fidelity, oracle sums, fault budgets."""

from __future__ import annotations

import itertools
import json
import xml.etree.ElementTree as ET
from dataclasses import asdict

import pytest

from fairprobe import mockrdr
from fairprobe.assessor import f_chrono, f_geo, f_lic
from fairprobe.datacite import is_of_interest, parse_record
from fairprobe.scoring import EmptyCorpusError


def script_with(records, name="repo", **repo_kwargs) -> mockrdr.ScenarioScript:
    repo = mockrdr.MockRepository(name=name, records=list(records), **repo_kwargs)
    return mockrdr.ScenarioScript(repositories=[repo])


def test_pages_arithmetic():
    def repo(n, page_size):
        return mockrdr.MockRepository(
            name="r",
            records=[mockrdr.MockRecord(doi=f"10.1/{i}") for i in range(n)],
            page_size=page_size,
        )

    assert repo(0, 3).pages() == 0
    assert repo(1, 10).pages() == 1
    assert repo(6, 3).pages() == 2
    assert repo(7, 3).pages() == 3


@pytest.mark.parametrize(
    "prefixes,expected",
    [
        (("oai_dc",), False),
        (("oai_dc", "datacite"), True),
        (("datacite4",), True),
        (("oai_datacite3",), True),
        ((), False),
    ],
)
def test_has_datacite_prefix(prefixes, expected):
    repo = mockrdr.MockRepository(name="r", prefixes=tuple(prefixes))
    assert repo.has_datacite_prefix() is expected


@pytest.mark.parametrize(
    "retrieval,retrievable",
    [
        ("client", True),
        ("redirect", True),
        ("link", True),
        ("landing", False),
        ("missing", False),
        ("unrouted", False),
    ],
)
def test_retrieval_styles_define_ground_truth(retrieval, retrievable):
    assert mockrdr.MockRecord(doi="10.1/x", retrieval=retrieval).ret is retrievable


def broken_scripts():
    ok = mockrdr.MockRecord(doi="10.1/x")
    yield script_with([ok], name="")  # nameless repository
    twice = mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(name="same", records=[ok]),
            mockrdr.MockRepository(name="same"),
        ]
    )
    yield twice
    yield script_with([ok], page_size=0)
    yield script_with([mockrdr.MockRecord(doi="")])
    yield script_with([ok, mockrdr.MockRecord(doi="10.1/x")])  # duplicate doi
    yield script_with([mockrdr.MockRecord(doi="10.1/y", retrieval="teleport")])
    yield script_with([ok], faults=[mockrdr.Fault(kind="gremlin", page=1)])
    yield script_with([ok], faults=[mockrdr.Fault(kind="503", page=1, times=0)])
    # badtoken needs a resumption token, so a one-page list cannot carry one
    yield script_with([ok], faults=[mockrdr.Fault(kind="badtoken", page=1)])
    yield script_with([ok], faults=[mockrdr.Fault(kind="503", page=5)])
    bad_route = mockrdr.ScenarioScript(resolver_routes={"10.1/x": []})
    yield bad_route
    bad_status = mockrdr.ScenarioScript(
        resolver_routes={"10.1/x": [mockrdr.RouteHop(99)]}
    )
    yield bad_status


@pytest.mark.parametrize("script", list(broken_scripts()))
def test_validate_rejects_broken_scripts(script):
    with pytest.raises(mockrdr.ScriptError):
        mockrdr.validate(script)


def test_materialize_routes_fills_styles_and_keeps_explicit():
    explicit = [mockrdr.RouteHop(200, "image/gif")]
    records = [
        mockrdr.MockRecord(doi="10.2/client", retrieval="client"),
        mockrdr.MockRecord(doi="10.2/redirect", retrieval="redirect"),
        mockrdr.MockRecord(doi="10.2/link", retrieval="link"),
        mockrdr.MockRecord(doi="10.2/landing", retrieval="landing"),
        mockrdr.MockRecord(doi="10.2/missing", retrieval="missing"),
        mockrdr.MockRecord(doi="10.2/unrouted", retrieval="unrouted"),
    ]
    script = script_with(records)
    script.resolver_routes["10.2/client"] = explicit
    routes, blobs = mockrdr.materialize_routes(script)

    assert routes["10.2/client"] is explicit
    assert [h.status for h in routes["10.2/redirect"]] == [302, 302, 200]
    link_hops = routes["10.2/link"]
    assert len(link_hops) == 1 and link_hops[0].link
    blob_key = link_hops[0].link.split(">")[0].lstrip("</blob/")
    assert blobs[blob_key][0] == "image/tiff"
    assert [h.status for h in routes["10.2/landing"]] == [200]
    assert routes["10.2/landing"][0].content_type == "text/html"
    assert [h.status for h in routes["10.2/missing"]] == [404]
    assert "10.2/unrouted" not in routes


INTENT_COMBOS = list(
    itertools.product(
        (3, 4),  # kernel
        (False, True),  # wrapped
        ("point", "box", "place"),
        ((False, False, False), (True, True, True), (True, False, True)),
    )
)


@pytest.mark.parametrize("kernel,wrapped,geo_style,flags", INTENT_COMBOS)
def test_generated_payload_parses_to_the_scripted_intents(
    kernel, wrapped, geo_style, flags
):
    chrono, geo, lic = flags
    record = mockrdr.MockRecord(
        doi="10.3/x",
        chrono=chrono,
        geo=geo,
        lic=lic,
        kernel=kernel,
        geo_style=geo_style,
        wrapped=wrapped,
    )
    parsed = parse_record(ET.fromstring(mockrdr.record_payload(record)), repository="r")
    assert parsed.doi == "10.3/x"
    assert is_of_interest(parsed)
    assert f_chrono(parsed) is chrono
    assert f_geo(parsed) is geo
    assert f_lic(parsed) is lic


@pytest.mark.parametrize(
    "interest_via,of_interest",
    [("type", True), ("format", True), ("wildcard", True), ("type", False)],
)
def test_interest_channels(interest_via, of_interest):
    record = mockrdr.MockRecord(
        doi="10.3/y", of_interest=of_interest, interest_via=interest_via
    )
    parsed = parse_record(ET.fromstring(mockrdr.record_payload(record)), repository="r")
    assert is_of_interest(parsed) is of_interest
    if of_interest and interest_via == "type":
        assert parsed.resource_type_general == "Image"
    if of_interest and interest_via in ("format", "wildcard"):
        assert parsed.resource_type_general == "Dataset"


def test_expected_scores_trivial_landscape():
    records = [
        mockrdr.MockRecord(
            doi="10.4/all", chrono=True, geo=True, lic=True, retrieval="client"
        ),
        mockrdr.MockRecord(doi="10.4/none"),
    ]
    oracle = mockrdr.expected_scores(script_with(records))
    assert oracle["d_size"] == 2
    assert oracle["q_sizes"] == {"chrono": 1, "geo": 1, "lic": 1, "ret": 1}
    assert oracle["rareness"] == {n: 0.5 for n in ("chrono", "geo", "lic", "ret")}
    assert oracle["total_rareness"] == 2.0
    assert oracle["weights"] == {n: 0.25 for n in ("chrono", "geo", "lic", "ret")}
    repo = oracle["repositories"]["repo"]
    assert repo["items"] == 2
    assert repo["avfixed"] == 0.5
    assert repo["avrelative"] == 0.5


def test_expected_scores_skips_unharvestable_and_uninteresting():
    harvestable = mockrdr.MockRepository(
        name="good",
        records=[
            mockrdr.MockRecord(doi="10.5/a"),
            mockrdr.MockRecord(doi="10.5/b", deleted=True),
            mockrdr.MockRecord(doi="10.5/c", of_interest=False),
        ],
    )
    rest_only = mockrdr.MockRepository(
        name="rest-only",
        records=[mockrdr.MockRecord(doi="10.5/d")],
        apis=("REST",),
    )
    dublin_only = mockrdr.MockRepository(
        name="dublin-only",
        records=[mockrdr.MockRecord(doi="10.5/e")],
        prefixes=("oai_dc",),
    )
    script = mockrdr.ScenarioScript(
        repositories=[harvestable, rest_only, dublin_only]
    )
    oracle = mockrdr.expected_scores(script)
    assert oracle["d_size"] == 1
    assert set(oracle["repositories"]) == {"good"}


def test_expected_scores_subset_mirrors_truncation():
    records = [mockrdr.MockRecord(doi=f"10.6/{i}", chrono=(i % 2 == 0)) for i in range(6)]
    script = script_with(records)
    subset = {("repo", "10.6/0"), ("repo", "10.6/1")}
    oracle = mockrdr.expected_scores(script, subset=subset)
    assert oracle["d_size"] == 2
    assert oracle["q_sizes"]["chrono"] == 1

    with pytest.raises(EmptyCorpusError):
        mockrdr.expected_scores(script, subset=set())


def test_expected_scores_empty_corpus_raises():
    only_deleted = script_with([mockrdr.MockRecord(doi="10.7/x", deleted=True)])
    with pytest.raises(EmptyCorpusError):
        mockrdr.expected_scores(only_deleted)


def test_fault_budget_is_consumed(serve_script):
    repo = mockrdr.MockRepository(
        name="flaky",
        records=[mockrdr.MockRecord(doi=f"10.8/{i}") for i in range(7)],
        page_size=3,
        faults=[mockrdr.Fault(kind="503", page=2, times=1)],
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    assert hub.take_fault("flaky", 2) is not None
    assert hub.take_fault("flaky", 2) is None  # budget spent
    assert hub.take_fault("flaky", 3) is None  # other pages unaffected
    assert hub.take_fault("other", 2) is None


def test_script_document_round_trip(tmp_path):
    script = mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name="alpha",
                records=[
                    mockrdr.MockRecord(
                        doi="10.9/a", chrono=True, retrieval="link",
                        kernel=3, geo_style="box", wrapped=True,
                    )
                ],
                page_size=2,
                prefixes=("oai_datacite3",),
                apis=("OAI-PMH", "REST"),
                faults=[mockrdr.Fault(kind="drop", page=1, times=2)],
            )
        ],
        resolver_routes={
            "10.9/z": [mockrdr.RouteHop(302, location="/elsewhere")]
        },
        blobs={"k": ("image/tiff", 128)},
        timeout_stall=2.5,
        response_delay=0.1,
    )
    assert mockrdr.script_from_dict(json.loads(json.dumps(asdict(script)))) == script

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(asdict(script)), encoding="utf-8")
    assert mockrdr.load_script(path) == script


def test_token_ttl_round_trips_and_must_be_positive():
    repo = mockrdr.MockRepository(
        name="r", records=[mockrdr.MockRecord(doi="10.9/t")], token_ttl=2.5
    )
    script = mockrdr.ScenarioScript(repositories=[repo])
    assert mockrdr.script_from_dict(asdict(script)) == script
    repo.token_ttl = 0.0
    with pytest.raises(mockrdr.ScriptError, match="token_ttl"):
        mockrdr.validate(script)


@pytest.mark.parametrize(
    "document",
    [
        {"repositories": [], "page_size": 3},
        {"repositories": [{"name": "r", "record": []}]},
        {"repositories": [{"name": "r", "records": [{"doi": "10.9/a", "ret": True}]}]},
        {"resolver_routes": {"10.9/a": [{"status": 200, "type": "image/png"}]}},
        {"repositories": [{"records": []}]},
    ],
    ids=["script", "repository", "record", "route-hop", "no-name"],
)
def test_a_script_document_with_an_unknown_or_missing_key_is_refused(document):
    with pytest.raises(mockrdr.ScriptError):
        mockrdr.script_from_dict(document)


@pytest.mark.parametrize(
    "name", ["scenario_small.json", "scenario_faults.json", "scenario_styles.json"]
)
def test_fixture_scenarios_are_valid(fixtures_dir, name):
    script = mockrdr.load_script(fixtures_dir / name)
    mockrdr.validate(script)
    assert script.repositories
