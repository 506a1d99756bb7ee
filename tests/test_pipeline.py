"""The five-step workflow: end-to-end runs, resume, gating, and reporting."""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from fairprobe import assessor, http, mockrdr, oaipmh, pipeline, probe, throttle, wire
from fairprobe.cli import main
from fairprobe.config import RunConfig
from fairprobe.pipeline import PipelineRun, PipelineError, PredecessorIncompleteError
from fairprobe.registry import RegistryError
from fairprobe.store import (
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STATUS_PENDING,
    CatalogueStore,
    load_manifest,
    manifest_path,
    read_ndjson,
    save_manifest,
)

from open_files import FD_DIR, needs_proc, sockets_to

CRITERIA = ("chrono", "geo", "lic", "ret")
REPORT_FILES = (
    "repositories.csv", "criteria.csv", "apis.csv", "fair_coverage.txt", "report.json"
)


def raw_ids(store: CatalogueStore, name: str) -> list[str]:
    """The oai identifiers of a raw partition, in the order step 3 took them."""
    return [
        identifier for page in store.read("raw", name) for identifier in page["ids"]
    ]


def read_report(run_dir) -> dict:
    return json.loads((run_dir / "report.json").read_text(encoding="utf-8"))


def assert_report_matches_oracle(doc: dict, oracle: dict) -> None:
    assert doc["d_size"] == oracle["d_size"]
    criteria = {row["criterion"]: row for row in doc["criteria"]}
    for name in CRITERIA:
        assert criteria[name]["q_size"] == oracle["q_sizes"][name]
        assert criteria[name]["rareness"] == pytest.approx(
            oracle["rareness"][name], abs=1e-12
        )
        assert criteria[name]["weight"] == pytest.approx(
            oracle["weights"][name], abs=1e-12
        )
    assert doc["total_rareness"] == pytest.approx(
        oracle["total_rareness"], abs=1e-12
    )
    rows = {row["rdr"]: row for row in doc["repositories"]}
    assert set(rows) == set(oracle["repositories"])
    for name, expected in oracle["repositories"].items():
        row = rows[name]
        assert row["items"] == expected["items"]
        assert row["met_counts"] == expected["met"]
        assert row["avfixed"] == pytest.approx(expected["avfixed"], abs=1e-12)
        assert row["avrelative"] == pytest.approx(expected["avrelative"], abs=1e-12)


def test_full_run_matches_scripted_oracle(fixtures_dir, serve_script, make_config):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    config = make_config(hub)
    run_dir = pipeline.run_all(config)

    doc = read_report(run_dir)
    oracle = mockrdr.expected_scores(script)
    assert_report_matches_oracle(doc, oracle)
    assert doc["warnings"] == []
    assert doc["summary"].endswith("across 2 repositories")
    assert doc["summary"].startswith(f"{oracle['d_size']} records of interest")

    # API adoption is computed over every registry entry, not only providers
    apis = {row["api"]: row for row in doc["apis"]}
    assert apis["OAI-PMH"]["repositories"] == 3
    assert apis["REST"]["repositories"] == 1
    assert apis["no API"]["repositories"] == 0

    manifest = load_manifest(run_dir)
    assert all(manifest.status(n) == STATUS_COMPLETE for n in (1, 2, 3, 4, 5))
    for name in ("repositories.csv", "criteria.csv", "apis.csv",
                 "fair_coverage.txt", "report.json", "manifest.json"):
        assert (run_dir / name).exists()


def test_fault_recovery_run_is_complete_and_exact(
    fixtures_dir, serve_script, make_config
):
    script = mockrdr.load_script(fixtures_dir / "scenario_faults.json")
    hub = serve_script(script)
    config = make_config(hub)
    run_dir = pipeline.run_all(config)
    doc = read_report(run_dir)
    assert_report_matches_oracle(doc, mockrdr.expected_scores(script))
    assert doc["warnings"] == []
    manifest = load_manifest(run_dir)
    assert manifest.status(3) == STATUS_COMPLETE
    # the deleted record was seen but never assessed
    repo_detail = manifest.steps[3].detail["repositories"]["flaky-trove"]
    assert repo_detail["deleted"] == 1


def test_every_retrieval_style_lands_where_scripted(
    fixtures_dir, serve_script, make_config
):
    script = mockrdr.load_script(fixtures_dir / "scenario_styles.json")
    hub = serve_script(script)
    config = make_config(hub)
    run_dir = pipeline.run_all(config)
    run = PipelineRun(RunConfig(**{**config.snapshot(), "run_id": run_dir.name}))
    by_doi = {}
    for name in run.store.partitions("assessed"):
        for entry in run.store.read("assessed", name):
            by_doi[entry["doi"]] = entry
    truth = {r.doi: r.ret for r in script.repositories[0].records}
    assert {doi: e["ret"] for doi, e in by_doi.items()} == truth
    outcomes = {
        doi: entry["probe_trace"]["outcome"] for doi, entry in by_doi.items()
    }
    assert outcomes["10.5072/sg-client"] == "client_negotiated"
    assert outcomes["10.5072/sg-redirect"] == "client_negotiated"
    assert outcomes["10.5072/sg-link"] == "link_negotiated"
    assert outcomes["10.5072/sg-landing"] == "failed"
    assert outcomes["10.5072/sg-missing"] == "failed"
    assert outcomes["10.5072/sg-unrouted"] == "failed"


def test_steps_gate_on_their_predecessor(tmp_path):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="gated")
    run = PipelineRun(config)
    with pytest.raises(PredecessorIncompleteError):
        run.run_step(2)
    with pytest.raises(PredecessorIncompleteError):
        run.run_step(5)
    with pytest.raises(PipelineError):
        run.run_step(7)


def test_partial_predecessor_runs_with_a_warning(tmp_path, caplog):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="part")
    run = PipelineRun(config)
    run.manifest.steps[3].status = STATUS_PARTIAL
    save_manifest(run.manifest, run.run_dir)
    # with no raw partitions the step has nothing to do, but it is allowed
    with caplog.at_level("WARNING", logger="fairprobe.pipeline"):
        manifest = PipelineRun(config).run_step(4)
    assert manifest.status(4) == STATUS_COMPLETE
    assert "step 4 starts on a partial step 3" in caplog.text


def test_truncated_harvest_then_resume_completes_the_catalogue(
    fixtures_dir, serve_script, make_config
):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    # one unparseable page 2 ends each multi-page harvest after page 1, once
    for repo in script.repositories:
        if repo.pages() > 1:
            repo.faults.append(mockrdr.Fault(kind="malformed", page=2))
    hub = serve_script(script)
    config = make_config(hub, run_id="resume-me")
    run = PipelineRun(config)
    run.run_step(1)
    run.run_step(2)
    run.run_step(3)
    assert run.manifest.status(3) == STATUS_PARTIAL
    assert run.manifest.steps[3].detail["incomplete"] == [
        "coastal-imagery", "survey-scans",
    ]
    truncated_counts = {
        name: len(raw_ids(run.store, name))
        for name in run.store.partitions("raw")
    }
    assert truncated_counts["coastal-imagery"] == 4  # page size, one page

    resumed = PipelineRun(config)
    resumed.run_step(3)
    assert resumed.manifest.status(3) == STATUS_COMPLETE
    for repo in script.repositories:
        if "OAI-PMH" not in repo.apis or not repo.has_datacite_prefix():
            continue
        want = {
            mockrdr.oai_identifier(repo.name, i)
            for i, r in enumerate(repo.records)
            if not r.deleted
        }
        got = raw_ids(resumed.store, repo.name)
        assert sorted(got) == sorted(want)  # every record exactly once

    resumed.run_step(4)
    resumed.run_step(5)
    resumed.finalize()
    doc = read_report(resumed.run_dir)
    assert_report_matches_oracle(doc, mockrdr.expected_scores(script))
    assert doc["warnings"] == []


def test_completed_steps_are_not_rerun(fixtures_dir, serve_script, make_config):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    config = make_config(hub, run_id="idem")
    run_dir = pipeline.run_all(config)
    first_report = (run_dir / "report.json").read_bytes()
    first_csv = (run_dir / "repositories.csv").read_bytes()
    requests_before = len(hub.request_log)

    again_dir = pipeline.run_all(make_config(hub, run_id="idem"))
    assert again_dir == run_dir
    assert len(hub.request_log) == requests_before  # nothing refetched
    assert (run_dir / "report.json").read_bytes() == first_report
    assert (run_dir / "repositories.csv").read_bytes() == first_csv


def test_providers_are_the_harvestable_repositories_one_line_each(
    fixtures_dir, serve_script, make_config
):
    hub = serve_script(mockrdr.load_script(fixtures_dir / "scenario_small.json"))
    run = PipelineRun(make_config(hub))
    for step in (1, 2):
        run.run_step(step)
    providers = read_ndjson(run.run_dir / pipeline.PROVIDERS_FILE)
    assert len(providers) == run.manifest.steps[2].detail["supported"]
    # rest-only-archive has no OAI-PMH endpoint, dublin-core-only no
    # Datacite prefix: neither is a provider
    assert providers == [
        {"registry_id": name, "endpoint": hub.oai_endpoint(name), "prefix": "datacite"}
        for name in ("coastal-imagery", "survey-scans")
    ]


def test_catalogue_stages_nest(fixtures_dir, serve_script, make_config):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    config = make_config(hub, run_id="nest")
    pipeline.run_all(config)
    run = PipelineRun(make_config(hub, run_id="nest"))

    assert set(run.store.partitions("parsed")) <= set(run.store.partitions("raw"))
    assert set(run.store.partitions("assessed")) == set(run.store.partitions("parsed"))
    for name in run.store.partitions("parsed"):
        parsed = list(run.store.read("parsed", name))
        assert {e["oai_identifier"] for e in parsed} <= set(raw_ids(run.store, name))
        parsed_dois = {e["doi"] for e in parsed}
        assessed_dois = {e["doi"] for e in run.store.read("assessed", name)}
        assert assessed_dois == parsed_dois


class PeakInFlight:
    """Wraps ``http.Sessions._send``, the exchange of every request, and
    keeps the most requests in flight at once: from a request's write to
    its answer."""

    def __init__(self, monkeypatch) -> None:
        self._lock = threading.Lock()
        self._running = 0
        self.peak = 0
        original = http.Sessions._send

        def counted(*args, **kwargs):
            steps = original(*args, **kwargs)
            wait = next(steps)  # written, or its connection opening
            with self._lock:
                self._running += 1
                self.peak = max(self.peak, self._running)
            try:
                while True:
                    wait = steps.send((yield wait))
            except StopIteration as done:
                return done.value
            finally:
                with self._lock:
                    self._running -= 1

        monkeypatch.setattr(http.Sessions, "_send", counted)


def test_worker_pools_stay_within_bounds(serve_script, make_config, monkeypatch):
    repos = [
        mockrdr.MockRepository(
            name=f"stack-{i}",
            records=[
                mockrdr.MockRecord(doi=f"10.20/stack-{i}-{j}") for j in range(4)
            ],
            page_size=2,
        )
        for i in range(6)
    ]
    hub = serve_script(mockrdr.ScenarioScript(repositories=repos))
    run = PipelineRun(make_config(hub, workers_harvest=2, workers_probe=3))
    # workers_harvest bounds the requests each of steps 1-3 sends at once,
    # workers_probe the hops step 5 sends at once
    for step in (1, 2, 3):
        with monkeypatch.context() as patch:
            gets = PeakInFlight(patch)
            run.run_step(step)
        assert 1 <= gets.peak <= 2
    run.run_step(4)
    hops = PeakInFlight(monkeypatch)
    run.run_step(5)
    assert 1 <= hops.peak <= 3
    assert run.manifest.steps[5].detail["probed"] == 24


def test_two_clean_runs_write_equal_manifests(fixtures_dir, serve_script, make_config):
    hub = serve_script(mockrdr.load_script(fixtures_dir / "scenario_small.json"))

    def manifest_without_times() -> dict:
        document = json.loads(
            manifest_path(pipeline.run_all(make_config(hub))).read_text(encoding="utf-8")
        )
        for key in ("run_id", "created"):
            del document[key]
        for step in document["steps"].values():
            del step["started"], step["finished"]
        return document

    first = manifest_without_times()
    assert first["steps"]["5"]["detail"]["probed"] > 0
    assert manifest_without_times() == first


def test_landscape_without_interesting_records(serve_script, make_config):
    repo = mockrdr.MockRepository(
        name="dull",
        records=[
            mockrdr.MockRecord(doi="10.21/a", of_interest=False),
            mockrdr.MockRecord(doi="10.21/b", of_interest=False),
        ],
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    run_dir = pipeline.run_all(make_config(hub))
    doc = read_report(run_dir)
    assert doc["d_size"] == 0
    assert doc["criteria"] == []
    assert doc["repositories"] == []
    assert doc["summary"] == (
        "no records of interest were found; score tables are empty"
    )
    csv = (run_dir / "repositories.csv").read_text(encoding="utf-8")
    assert csv.splitlines() == ["rdr,items,avfixed,avrelative,chrono,geo,lic,ret", "# n = 0"]


def dedup_run(tmp_path) -> PipelineRun:
    """A run whose steps 1-3 are complete and whose one raw page, built as
    step 3 builds it, holds a DOI twice, a non-image and a record without
    metadata."""
    config = RunConfig(out=str(tmp_path / "runs"), run_id="dedup")
    run = PipelineRun(config)
    for number in (1, 2, 3):
        run.manifest.steps[number].status = STATUS_COMPLETE
    save_manifest(run.manifest, run.run_dir)

    def oai_record(index: int, payload: str | None) -> str:
        metadata = "" if payload is None else f"<metadata>{payload}</metadata>"
        return (
            f"<record><header><identifier>oai:dup-repo:{index:05d}</identifier>"
            f"<datestamp>2017-01-01</datestamp></header>{metadata}</record>"
        )

    first = mockrdr.record_payload(
        mockrdr.MockRecord(doi="10.22/same", chrono=True)
    )
    second = mockrdr.record_payload(
        mockrdr.MockRecord(doi="10.22/same", lic=True)
    )
    boring = mockrdr.record_payload(
        mockrdr.MockRecord(doi="10.22/other", of_interest=False)
    )
    # the last record has no metadata element, so no payload to parse
    body = (
        '<OAI-PMH xmlns="http://www.openarchives.org/OAI/2.0/"><ListRecords>'
        + oai_record(0, first)
        + oai_record(1, second)
        + oai_record(2, boring)
        + oai_record(3, None)
        + "</ListRecords></OAI-PMH>"
    )
    records, _, _ = oaipmh.parse_page(body)
    run.store.append("raw", "dup-repo", pipeline._page_line("dup-repo", body, records))
    run.store.close_all()
    return run


def test_step4_dedups_dois_and_counts_rejects(tmp_path):
    run = dedup_run(tmp_path)
    manifest = run.run_step(4)
    detail = manifest.steps[4].detail
    assert detail["parsed"] == 1
    assert detail["duplicates"] == 1
    assert detail["not_of_interest"] == 1
    assert detail["errors"] == 1

    parsed = list(run.store.read("parsed", "dup-repo"))
    assert len(parsed) == 1
    assert parsed[0]["doi"] == "10.22/same"
    assert parsed[0]["chrono"] is True  # the first occurrence won
    assert parsed[0]["lic"] is False

    # running over the same catalogue again, as a resumed step does, keeps
    # the counts and appends nothing
    counted = dict(detail)
    assert run.run_step(4).steps[4].detail == counted
    assert list(run.store.read("parsed", "dup-repo")) == parsed


def test_step4_parses_no_xml(tmp_path, monkeypatch, caplog):
    run = dedup_run(tmp_path)

    def no_xml(*args, **kwargs):
        raise AssertionError("step 4 parsed XML")

    for owner, name in ((oaipmh, "parse_page"), (ET, "fromstring"), (ET, "XML")):
        monkeypatch.setattr(owner, name, no_xml)
    with caplog.at_level("WARNING", logger="fairprobe"):
        detail = run.run_step(4).steps[4].detail
    assert detail == {"parsed": 1, "errors": 1, "not_of_interest": 1, "duplicates": 1}
    assert [entry.getMessage() for entry in caplog.records] == [
        "dup-repo oai:dup-repo:00003: record has no metadata payload"
    ]
    assert [entry["doi"] for entry in run.store.read("parsed", None)] == ["10.22/same"]


def test_partial_harvest_is_reported_as_warning(serve_script, make_config):
    repo = mockrdr.MockRepository(
        name="stubborn",
        records=[mockrdr.MockRecord(doi=f"10.23/{i}", chrono=True) for i in range(7)],
        page_size=3,
        faults=[mockrdr.Fault(kind="badtoken", page=2, times=2)],
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    run_dir = pipeline.run_all(make_config(hub))
    doc = read_report(run_dir)
    assert len(doc["warnings"]) == 1
    warning = doc["warnings"][0]
    assert warning.startswith(
        "harvest incomplete: scores are computed over a truncated corpus"
    )
    assert "stubborn" in warning
    assert doc["d_size"] == 3  # only the first page made it in
    assert load_manifest(run_dir).status(3) == STATUS_PARTIAL


def test_a_provider_lost_in_step_2_is_reported_as_warning(
    fixtures_dir, serve_script, make_config
):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    coastal = next(r for r in script.repositories if r.name == "coastal-imagery")
    # both attempts at its ListMetadataFormats lose the connection
    coastal.faults.append(mockrdr.Fault(kind="drop", page=0, times=2))
    run_dir = pipeline.run_all(make_config(serve_script(script)))
    doc = read_report(run_dir)
    assert "coastal-imagery" not in {row["rdr"] for row in doc["repositories"]}
    assert doc["warnings"] == [
        "provider selection incomplete: repositories whose metadata formats "
        "could not be listed are not scored (affected: coastal-imagery)"
    ]
    assert load_manifest(run_dir).steps[2].detail == {
        "candidates": 3, "supported": 1, "unusable": ["coastal-imagery"]
    }


def sized_landscape() -> mockrdr.ScenarioScript:
    """Five providers of 1 to 5 pages, listed in no particular size order."""
    sizes = {"alpha": 3, "bravo": 9, "charlie": 1, "delta": 6, "echo": 9}
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=name,
                records=[
                    mockrdr.MockRecord(doi=f"10.24/{name}-{i}") for i in range(size)
                ],
                page_size=2,
            )
            for name, size in sizes.items()
        ]
    )


def list_records_requests(hub: mockrdr.MockHandle) -> list[str]:
    """The repository of every ListRecords request, in arrival order."""
    return [
        entry.target.rsplit("/", 1)[-1]
        for entry in hub.requests_to("/oai/")
        if "verb=ListRecords" in entry.path
    ]


def test_step3_fetches_every_page_once(serve_script, make_config):
    hub = serve_script(sized_landscape())
    run = PipelineRun(make_config(hub, workers_harvest=2))
    run.run_step(1)
    run.run_step(2)
    assert list_records_requests(hub) == []
    run.run_step(3)
    assert run.manifest.status(3) == STATUS_COMPLETE
    detail = run.manifest.steps[3].detail["repositories"]
    assert {name: info["pages"] for name, info in detail.items()} == {
        "alpha": 2, "bravo": 5, "charlie": 1, "delta": 3, "echo": 5,
    }
    # the first page is both the size estimate and the start of the harvest
    assert len(list_records_requests(hub)) == sum(
        info["pages"] for info in detail.values()
    )


def test_step3_continues_the_largest_chains_first(serve_script, make_config):
    hub = serve_script(sized_landscape())
    run = PipelineRun(make_config(hub, workers_harvest=1))
    for step in (1, 2, 3):
        run.run_step(step)
    order = list_records_requests(hub)
    # pass 1: page 1 of every provider; pass 2: the rest of each unfinished
    # chain, by completeListSize, ties by registry id
    assert sorted(order[:5]) == ["alpha", "bravo", "charlie", "delta", "echo"]
    assert order[5:] == ["bravo"] * 4 + ["echo"] * 4 + ["delta"] * 2 + ["alpha"]


def test_a_small_chain_does_not_wait_behind_a_large_one(serve_script, make_config):
    # on one worker, the chains of pass 2 take turns at their endpoints'
    # spacing, so "small" is done long before its tokens expire
    large = mockrdr.MockRepository(
        name="large",
        records=[mockrdr.MockRecord(doi=f"10.26/large-{i}") for i in range(30)],
        page_size=1,
    )
    small = mockrdr.MockRepository(
        name="small",
        records=[mockrdr.MockRecord(doi=f"10.26/small-{i}") for i in range(6)],
        page_size=2,
        token_ttl=0.8,
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[large, small]))
    run = PipelineRun(make_config(hub, workers_harvest=1, politeness_delay=50.0))
    for step in (1, 2, 3):
        run.run_step(step)
    assert run.manifest.status(3) == STATUS_COMPLETE
    assert run.manifest.steps[3].detail["repositories"]["small"] == {
        "completed": True, "records": 6, "deleted": 0, "pages": 3,
    }
    assert list_records_requests(hub).count("small") == 3
    finished = [line["repository"] for line in run.store.read("harvested", None)]
    assert finished == ["small", "large"]


def test_token_that_expired_in_the_queue_costs_one_request(
    serve_script, make_config
):
    # one worker takes at most WINDOW_PER_WORKER chains at once, so "small"
    # waits until the first of the larger chains ends: 29 more pages at
    # 50 ms spacing, longer than its tokens live; its chain then starts
    # again at page 1
    larger = [
        mockrdr.MockRepository(
            name=f"large-{n}",
            records=[mockrdr.MockRecord(doi=f"10.26/large-{n}-{i}") for i in range(30)],
            page_size=1,
        )
        for n in range(throttle.WINDOW_PER_WORKER)
    ]
    small = mockrdr.MockRepository(
        name="small",
        records=[mockrdr.MockRecord(doi=f"10.26/small-{i}") for i in range(6)],
        page_size=2,
        token_ttl=0.8,
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[*larger, small]))
    run = PipelineRun(make_config(hub, workers_harvest=1, politeness_delay=50.0))
    for step in (1, 2, 3):
        run.run_step(step)
    assert run.manifest.status(3) == STATUS_COMPLETE
    # page 1; the expired page-2 token, then pages 1-3
    assert run.manifest.steps[3].detail["repositories"]["small"] == {
        "completed": True, "records": 6, "deleted": 0, "pages": 4,
    }
    assert list_records_requests(hub).count("small") == 5
    got = raw_ids(run.store, "small")
    assert sorted(got) == sorted(mockrdr.oai_identifier("small", i) for i in range(6))


def test_resumed_harvest_takes_each_record_once_across_a_restart(
    serve_script, make_config
):
    # the first attempt stops after two pages; the resumed one deletes them,
    # harvests again from page 1, and the restart forced on page 3 must not
    # deliver the records of pages 1 and 2 a second time
    repo = mockrdr.MockRepository(
        name="halfway",
        records=[mockrdr.MockRecord(doi=f"10.27/{i}") for i in range(8)],
        page_size=2,
        faults=[
            mockrdr.Fault(kind="malformed", page=3),
            mockrdr.Fault(kind="badtoken", page=3),
        ],
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    config = make_config(hub, run_id="halfway")
    first = PipelineRun(config)
    for step in (1, 2, 3):
        first.run_step(step)
    assert len(raw_ids(first.store, "halfway")) == 4

    resumed = PipelineRun(config)
    resumed.run_step(3)
    assert resumed.manifest.status(3) == STATUS_COMPLETE
    # page 1 in pass 1; pages 2, rejected 3, then 1-4 in pass 2, of which
    # pages 1 and 2 give no new record and store no line
    assert resumed.manifest.steps[3].detail["repositories"]["halfway"] == {
        "completed": True, "records": 8, "deleted": 0, "pages": 6,
    }
    got = raw_ids(resumed.store, "halfway")
    assert sorted(got) == sorted(mockrdr.oai_identifier("halfway", i) for i in range(8))


def test_restart_after_the_first_page_counts_deleted_records_once(
    serve_script, make_config
):
    records = [mockrdr.MockRecord(doi=f"10.25/{i}") for i in range(7)]
    records[1] = mockrdr.MockRecord(doi="10.25/gone", deleted=True)
    repo = mockrdr.MockRepository(
        name="handoff",
        records=records,
        page_size=3,
        faults=[mockrdr.Fault(kind="badtoken", page=2)],
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    run = PipelineRun(make_config(hub))
    for step in (1, 2, 3):
        run.run_step(step)
    assert run.manifest.status(3) == STATUS_COMPLETE
    # page 1, the rejected token, page 1 again after the restart, pages 2-3
    assert run.manifest.steps[3].detail["repositories"]["handoff"] == {
        "completed": True, "records": 6, "deleted": 1, "pages": 4,
    }
    got = raw_ids(run.store, "handoff")
    assert sorted(got) == sorted(
        mockrdr.oai_identifier("handoff", i) for i in range(7) if i != 1
    )


def test_failed_step1_stays_pending(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    config = RunConfig(
        out=str(tmp_path / "runs"),
        run_id="unlucky",
        registry_url=f"http://127.0.0.1:{port}",
        timeout=0.5,
    )
    run = PipelineRun(config)
    with pytest.raises(RegistryError):
        run.run_step(1)
    reloaded = load_manifest(run.run_dir)
    assert reloaded.status(1) == STATUS_PENDING
    assert reloaded.steps[1].started is not None
    assert reloaded.steps[1].finished is not None


def test_exception_in_late_step_marks_partial(tmp_path, monkeypatch):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="hurt")
    run = PipelineRun(config)
    for number in (1, 2):
        run.manifest.steps[number].status = STATUS_COMPLETE
    save_manifest(run.manifest, run.run_dir)

    def explode():
        raise RuntimeError("boom")

    monkeypatch.setattr(run, "_step3_harvest", explode)
    with pytest.raises(RuntimeError):
        run.run_step(3)
    assert load_manifest(run.run_dir).status(3) == STATUS_PARTIAL


def open_catalogue_files(run_dir: Path, writers_only: bool = False) -> list[str]:
    """Catalogue files this process has open, one entry per descriptor."""
    catalogue = str(run_dir / "catalogue") + os.sep
    found = []
    for fd in os.listdir(FD_DIR):
        try:
            target = os.readlink(FD_DIR / fd)
            info = (FD_DIR.parent / "fdinfo" / fd).read_text()
        except OSError:  # closed since the listing
            continue
        if not target.startswith(catalogue):
            continue
        flags = int(info.split("flags:", 1)[1].split()[0], 8)
        if writers_only and flags & os.O_ACCMODE == os.O_RDONLY:
            continue
        found.append(target)
    return found


def stacked_landscape(
    count: int = 6, retrieval: str = "client"
) -> mockrdr.ScenarioScript:
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=f"stack-{i}",
                records=[
                    mockrdr.MockRecord(doi=f"10.20/stack-{i}-{j}", retrieval=retrieval)
                    for j in range(4)
                ],
                page_size=2,
            )
            for i in range(count)
        ]
    )


POOL = 2


@needs_proc
def test_catalogue_handles_are_bounded_and_closed(
    serve_script, make_config, monkeypatch
):
    hub = serve_script(stacked_landscape())
    config = make_config(hub, workers_harvest=POOL, workers_probe=POOL)
    run = PipelineRun(config)
    writers: Counter[str] = Counter()  # most files open for writing, per stage
    appended: Counter[tuple[str, str]] = Counter()
    unseen: list[tuple[str, str, int, int]] = []
    lock = threading.Lock()
    original = CatalogueStore.append

    def watched(store, stage, repository, record):
        with lock:
            original(store, stage, repository, record)
            appended[stage, repository] += 1
            open_now = len(open_catalogue_files(run.run_dir, writers_only=True))
            writers[stage] = max(writers[stage], open_now)
            lines = sum(1 for _ in CatalogueStore(run.run_dir).read(stage, repository))
            if lines != appended[stage, repository]:
                unseen.append((stage, repository, appended[stage, repository], lines))

    monkeypatch.setattr(CatalogueStore, "append", watched)
    for step in (1, 2, 3, 4, 5):
        run.run_step(step)
        assert open_catalogue_files(run.run_dir) == []

    assert all(run.manifest.status(n) == STATUS_COMPLETE for n in (1, 2, 3, 4, 5))
    # one raw line per page (two per repository), 24 records in each of
    # parsed and assessed, and one outcome per harvested repository
    assert sum(appended.values()) == 12 + 2 * 24 + 6
    assert all(appended["harvested", f"stack-{i}"] == 1 for i in range(6))
    # a second store reading mid-step saw every line appended so far
    assert unseen == []
    # handles are bounded by the files in progress, not by the six
    # repositories: one raw partition per chain under way, the harvested
    # ledger beside them, and one ledger in each of steps 4 and 5
    assert 1 <= writers["raw"] <= POOL + 1
    assert 1 <= writers["harvested"] <= POOL
    assert writers["parsed"] == 1
    assert writers["assessed"] == 1


def fail_after(function, calls: int):
    lock = threading.Lock()
    made = {"calls": 0}

    def counted(*args, **kwargs):
        with lock:
            made["calls"] += 1
            if made["calls"] > calls:
                raise RuntimeError("injected failure")
        return function(*args, **kwargs)

    return counted


def harvest_failing_after(pages: int):
    """``oaipmh.walk_records``, failing on page ``pages + 1`` over all
    repositories, before that page is stored."""
    walk = oaipmh.walk_records
    trip = fail_after(lambda: None, pages)

    def failing_walk(endpoint, prefix, config, sink, **kwargs):
        def tripping_sink(body, records):
            trip()
            sink(body, records)

        return walk(endpoint, prefix, config, tripping_sink, **kwargs)

    return failing_walk


@needs_proc
@pytest.mark.parametrize("step", [3, 4, 5])
def test_failed_step_leaves_no_catalogue_file_open(
    serve_script, make_config, monkeypatch, step
):
    hub = serve_script(stacked_landscape())
    config = make_config(hub, workers_harvest=POOL, workers_probe=POOL)
    run = PipelineRun(config)
    for earlier in range(1, step):
        run.run_step(earlier)

    if step == 3:
        monkeypatch.setattr(oaipmh, "walk_records", harvest_failing_after(5))
    elif step == 4:
        monkeypatch.setattr(assessor, "assess", fail_after(assessor.assess, 5))
    else:
        monkeypatch.setattr(probe, "hops", fail_after(probe.hops, 5))

    with pytest.raises(RuntimeError, match="injected failure"):
        run.run_step(step)
    assert run.manifest.status(step) == STATUS_PARTIAL
    stage = {3: "raw", 4: "parsed", 5: "assessed"}[step]
    assert run.store.partitions(stage)  # lines were written before the failure
    assert open_catalogue_files(run.run_dir) == []


@needs_proc
def test_failed_probe_stops_the_queued_probes(serve_script, make_config, monkeypatch):
    hub = serve_script(stacked_landscape())
    run = PipelineRun(make_config(hub, workers_probe=POOL))
    for step in (1, 2, 3, 4):
        run.run_step(step)
    lock = threading.Lock()
    calls = {"made": 0}
    hops = probe.hops

    def fails_once(*args, **kwargs):
        with lock:
            calls["made"] += 1
            made = calls["made"]
        if made == 6:
            raise RuntimeError("injected failure")
        if made > 6:
            # the probes behind the failure are the slow ones, so a worker
            # that took one before the failure is still starting it
            time.sleep(0.05)
        return hops(*args, **kwargs)

    monkeypatch.setattr(probe, "hops", fails_once)
    with pytest.raises(RuntimeError, match="injected failure"):
        run.run_step(5)
    # 24 records were parsed; only the probes already taken when the
    # failure surfaced ran after it
    assert calls["made"] <= 6 + POOL
    assert open_catalogue_files(run.run_dir) == []


@needs_proc
def test_no_socket_outlives_a_step(serve_script, make_config, monkeypatch):
    # each probe ends on a small landing page, whose connection goes back to
    # the pool, so the pools hold open connections when the step ends
    hub = serve_script(stacked_landscape(retrieval="landing"))
    port = urlsplit(hub.base_url).port
    run = PipelineRun(make_config(hub, workers_probe=POOL))
    for step in (1, 2, 3, 4):
        run.run_step(step)
        assert sockets_to(port) == []
    with monkeypatch.context() as patch:
        patch.setattr(probe, "hops", fail_after(probe.hops, 9))
        with pytest.raises(RuntimeError, match="injected failure"):
            run.run_step(5)
    assert sockets_to(port) == []
    run.run_step(5)
    detail = run.manifest.steps[5].detail
    assert (detail["probed"], detail["retrievable"]) == (24, 0)
    assert sockets_to(port) == []


def test_probes_of_one_host_share_one_connection(serve_script, make_config, monkeypatch):
    hub = serve_script(stacked_landscape(retrieval="client"))
    run = PipelineRun(make_config(hub, workers_probe=POOL))
    for step in (1, 2, 3, 4):
        run.run_step(step)
    connects = []
    connect = wire.connect

    def counted(host, port, timeout):
        connects.append((host, port))
        return connect(host, port, timeout)

    monkeypatch.setattr(wire, "connect", counted)
    run.run_step(5)
    detail = run.manifest.steps[5].detail
    assert (detail["probed"], detail["retrievable"]) == (24, 24)
    # one probe request at a time reaches a host, and each small image reply
    # is drained, so its connection carries the next one
    assert len(connects) == 1


def test_assessed_follows_parsed(serve_script, make_config, monkeypatch):
    hub = serve_script(stacked_landscape())
    run = PipelineRun(make_config(hub, workers_probe=POOL))
    for step in (1, 2, 3, 4):
        run.run_step(step)
    names = run.store.partitions("parsed")
    first = {next(run.store.read("parsed", name))["doi"] for name in names}
    hops = probe.hops

    def slow_first(record, *args, **kwargs):
        if record.doi in first:
            time.sleep(0.05)  # a probe that starts late is still written first
        return hops(record, *args, **kwargs)

    monkeypatch.setattr(probe, "hops", slow_first)
    run.run_step(5)
    for name in names:
        assert [e["doi"] for e in run.store.read("assessed", name)] == [
            e["doi"] for e in run.store.read("parsed", name)
        ]


def mixed_landscape() -> mockrdr.ScenarioScript:
    flags = [(True, False, True), (False, True, True), (True, True, False)]
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=f"mixed-{i}",
                records=[
                    mockrdr.MockRecord(
                        doi=f"10.21/mixed-{i}-{j}",
                        of_interest=j % 3 != 2,
                        chrono=flags[j % 3][0],
                        geo=flags[(i + j) % 3][1],
                        lic=flags[j % 3][2],
                        retrieval="client" if j % 2 else "landing",
                    )
                    for j in range(6)
                ],
                page_size=3,
            )
            for i in range(3)
        ]
    )


@pytest.mark.parametrize("step", [3, 4, 5])
def test_resumed_step_counts_like_a_clean_run(
    serve_script, make_config, tmp_path, monkeypatch, step
):
    hub = serve_script(mixed_landscape())

    def run_in(directory: str) -> PipelineRun:
        return PipelineRun(make_config(hub, out=str(tmp_path / directory),
                                       run_id="same", workers_harvest=1))

    clean = run_in("clean")
    for number in (1, 2, 3, 4, 5):
        clean.run_step(number)
    clean.finalize()

    crashed = run_in("crashed")
    for number in range(1, step):
        crashed.run_step(number)
    with monkeypatch.context() as patch:
        if step == 3:
            # one worker: page 1 of each repository, then all of mixed-0,
            # then mixed-1 fails on its second page
            patch.setattr(oaipmh, "walk_records", harvest_failing_after(4))
        else:
            module, function = {4: (assessor, "assess"), 5: (probe, "hops")}[step]
            patch.setattr(module, function, fail_after(getattr(module, function), 5))
        with pytest.raises(RuntimeError, match="injected failure"):
            crashed.run_step(step)
    assert crashed.manifest.status(step) == STATUS_PARTIAL
    if step == 3:
        assert crashed.store.partitions("harvested") == ["mixed-0"]
        # a page is stored whole or not at all: mixed-1 kept its first page
        assert raw_ids(crashed.store, "mixed-1") == [
            mockrdr.oai_identifier("mixed-1", i) for i in range(3)
        ]
    resumed = run_in("crashed")
    for number in range(step, 6):
        resumed.run_step(number)
    resumed.finalize()

    harvested = {"completed": True, "records": 6, "deleted": 0, "pages": 2}
    assert clean.manifest.steps[3].detail["repositories"] == {
        f"mixed-{i}": harvested for i in range(3)
    }
    assert resumed.manifest.steps[3].detail["repositories"] == (
        clean.manifest.steps[3].detail["repositories"]
    )
    # a finished repository is not harvested again
    for name in resumed.store.partitions("harvested"):
        assert len(list(resumed.store.read("harvested", name))) == 1
    assert resumed.store.partitions("raw") == clean.store.partitions("raw")
    for name in clean.store.partitions("raw"):
        assert list(resumed.store.read("raw", name)) == list(
            clean.store.read("raw", name)
        )
    assert clean.manifest.steps[4].detail == {
        "parsed": 12, "errors": 0, "not_of_interest": 6, "duplicates": 0
    }
    assert resumed.manifest.steps[4].detail == clean.manifest.steps[4].detail
    probed = {"probed": 12, "retrievable": 6}
    for run in (clean, resumed):
        detail = run.manifest.steps[5].detail
        assert {key: detail[key] for key in probed} == probed
    names = clean.store.partitions("parsed")
    assert resumed.store.partitions("parsed") == names
    assert resumed.store.partitions("assessed") == names
    for name in names:
        assert list(resumed.store.read("parsed", name)) == list(
            clean.store.read("parsed", name)
        )
        # a resumed step 5 writes the probes the crash lost after the ones
        # it kept, both in parsed order
        assert [
            (e["doi"], e["ret"]) for e in resumed.store.read("assessed", name)
        ] == [(e["doi"], e["ret"]) for e in clean.store.read("assessed", name)]
    for name in ("repositories.csv", "criteria.csv", "apis.csv",
                 "fair_coverage.txt", "report.json"):
        assert (resumed.run_dir / name).read_bytes() == (
            clean.run_dir / name
        ).read_bytes()


def written_by(run: PipelineRun) -> dict[str, object]:
    """What a finished run keeps: its raw partitions and parsed ledger, byte
    for byte, the step 3 and 4 details of its manifest, and the report."""
    files = sorted((run.run_dir / "catalogue" / "raw").iterdir()) + [
        run.run_dir / "catalogue" / "parsed" / "all.ndjson",
        *(run.run_dir / name for name in REPORT_FILES),
    ]
    kept: dict[str, object] = {
        path.relative_to(run.run_dir).as_posix(): path.read_bytes() for path in files
    }
    kept["step 3"] = run.manifest.steps[3].detail
    kept["step 4"] = run.manifest.steps[4].detail
    return kept


# ListRecords requests of a step 3 resumed after the k-th raw page, with one
# harvest worker: pass 1 stores page 1 of mixed-0, -1 and -2, pass 2 page 2
# of each. Until a repository finishes, it is harvested again from page 1.
RESUMED_LIST_RECORDS = {1: 6, 2: 6, 3: 6, 4: 4, 5: 2}


@pytest.mark.parametrize("stage", ["raw", "parsed"])
def test_a_crash_after_any_append_resumes_to_a_clean_run(
    serve_script, make_config, tmp_path, monkeypatch, stage
):
    hub = serve_script(mixed_landscape())

    def run_in(directory: str) -> PipelineRun:
        return PipelineRun(make_config(hub, out=str(tmp_path / directory),
                                       run_id="same", workers_harvest=1))

    clean = run_in("clean")
    for number in (1, 2, 3, 4, 5):
        clean.run_step(number)
    clean.finalize()
    expected = written_by(clean)

    # mixed_landscape stores 6 raw pages and 12 parsed records; crash point k
    # fails the step just after its k-th append
    step, appends = {"raw": (3, 6), "parsed": (4, 12)}[stage]
    for k in range(1, appends):
        crashed = run_in(f"crash-{k}")
        for number in range(1, step):
            crashed.run_step(number)
        with monkeypatch.context() as patch:
            if stage == "raw":
                patch.setattr(oaipmh, "walk_records", harvest_failing_after(k))
            else:
                patch.setattr(assessor, "assess", fail_after(assessor.assess, k))
            with pytest.raises(RuntimeError, match="injected failure"):
                crashed.run_step(step)
        sent = len(list_records_requests(hub))
        resumed = run_in(f"crash-{k}")
        for number in range(step, 6):
            resumed.run_step(number)
        resumed.finalize()
        if stage == "raw":
            assert len(list_records_requests(hub)) - sent == RESUMED_LIST_RECORDS[k]
        assert written_by(resumed) == expected, k


def test_a_resumed_harvest_that_fails_again_keeps_only_its_own_pages(
    serve_script, make_config, monkeypatch
):
    script = mixed_landscape()
    hub = serve_script(script)
    config = make_config(hub, run_id="twice", workers_harvest=1)
    first = PipelineRun(config)
    for step in (1, 2):
        first.run_step(step)
    # page 1 of each repository, then mixed-0 finishes; mixed-1 fails on its
    # second page
    with monkeypatch.context() as patch:
        patch.setattr(oaipmh, "walk_records", harvest_failing_after(4))
        with pytest.raises(RuntimeError, match="injected failure"):
            first.run_step(3)
    assert first.store.partitions("raw") == ["mixed-0", "mixed-1", "mixed-2"]

    # the second attempt stores page 1 of mixed-1 again, then fails on page 1
    # of mixed-2, whose page from the first attempt is gone
    second = PipelineRun(config)
    with monkeypatch.context() as patch:
        patch.setattr(oaipmh, "walk_records", harvest_failing_after(1))
        with pytest.raises(RuntimeError, match="injected failure"):
            second.run_step(3)
    assert second.store.partitions("raw") == ["mixed-0", "mixed-1"]
    first_page = [mockrdr.oai_identifier("mixed-1", i) for i in range(3)]
    assert raw_ids(second.store, "mixed-1") == first_page

    for step in (4, 5):
        second.run_step(step)
    second.finalize()
    doc = read_report(second.run_dir)
    assert doc["warnings"] == [
        "harvest incomplete: scores are computed over a truncated corpus "
        "(affected: mixed-1, mixed-2)"
    ]
    kept = {("mixed-0", r.doi) for r in script.repositories[0].records} | {
        ("mixed-1", r.doi) for r in script.repositories[1].records[:3]
    }
    assert_report_matches_oracle(doc, mockrdr.expected_scores(script, kept))


def test_a_doi_served_by_two_repositories_counts_in_each(serve_script, make_config):
    # an aggregator serves a record of the origin repository again
    shared = mockrdr.MockRecord(doi="10.31/shared", chrono=True, lic=True,
                                retrieval="client")
    script = mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name="origin",
                records=[shared, mockrdr.MockRecord(doi="10.31/origin", geo=True)],
            ),
            mockrdr.MockRepository(
                name="aggregator",
                records=[mockrdr.MockRecord(doi="10.31/aggregated"), shared],
            ),
        ]
    )
    hub = serve_script(script)
    run_dir = pipeline.run_all(make_config(hub))
    doc = read_report(run_dir)
    oracle = mockrdr.expected_scores(script)
    assert oracle["d_size"] == 4
    assert_report_matches_oracle(doc, oracle)
    assert doc["warnings"] == []
    manifest = load_manifest(run_dir)
    assert manifest.steps[4].detail["duplicates"] == 0
    assert manifest.steps[5].detail["probed"] == 4
    assert len(hub.requests_to("/resolve/10.31/shared")) == 2


def paged_landscape() -> mockrdr.ScenarioScript:
    """Two providers of two pages."""
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=f"paged-{i}",
                records=[
                    mockrdr.MockRecord(
                        doi=f"10.29/paged-{i}-{j}",
                        of_interest=j % 4 != 3,
                        chrono=j % 2 == 0,
                        lic=j % 3 == 0,
                    )
                    for j in range(20)
                ],
                page_size=10,
            )
            for i in range(2)
        ]
    )


def test_torn_page_line_is_fetched_again_on_resume(
    serve_script, make_config, tmp_path, monkeypatch
):
    hub = serve_script(paged_landscape())

    def run_in(directory: str) -> PipelineRun:
        return PipelineRun(make_config(hub, out=str(tmp_path / directory),
                                       run_id="same", workers_harvest=1))

    clean = run_in("clean")
    for number in (1, 2, 3, 4, 5):
        clean.run_step(number)
    clean.finalize()

    # page 1 of both providers, then page 2 of paged-0; paged-1 fails while
    # its second page is written, which leaves a torn line
    crashed = run_in("crashed")
    for number in (1, 2):
        crashed.run_step(number)
    with monkeypatch.context() as patch:
        patch.setattr(oaipmh, "walk_records", harvest_failing_after(3))
        with pytest.raises(RuntimeError, match="injected failure"):
            crashed.run_step(3)
    assert crashed.unfinished_repositories() == ["paged-1"]
    path = crashed.run_dir / "catalogue" / "raw" / "paged-1.ndjson"
    lost = (clean.run_dir / "catalogue" / "raw" / "paged-1.ndjson").read_bytes()
    lost = lost.split(b"\n")[1]
    with open(path, "ab") as handle:
        handle.write(lost[: len(lost) - 10])

    # the resumed step deletes the unfinished partition, torn line and all,
    # and harvests paged-1 again
    resumed = run_in("crashed")
    for number in (3, 4, 5):
        resumed.run_step(number)
    resumed.finalize()

    assert path.read_bytes().count(b"\n") == 2
    assert [entry["ids"] for entry in resumed.store.read("raw", "paged-1")] == [
        entry["ids"] for entry in clean.store.read("raw", "paged-1")
    ]
    assert resumed.manifest.steps[4].detail == clean.manifest.steps[4].detail
    for name in clean.store.partitions("parsed"):
        assert list(resumed.store.read("parsed", name)) == list(
            clean.store.read("parsed", name)
        )
    for name in ("repositories.csv", "criteria.csv", "apis.csv",
                 "fair_coverage.txt", "report.json"):
        assert (resumed.run_dir / name).read_bytes() == (
            clean.run_dir / name
        ).read_bytes()


@pytest.mark.parametrize("stage", ["parsed", "assessed"])
def test_torn_ledger_line_is_written_again_on_resume(
    serve_script, make_config, tmp_path, monkeypatch, stage
):
    hub = serve_script(mixed_landscape())

    def run_in(directory: str) -> PipelineRun:
        return PipelineRun(make_config(hub, out=str(tmp_path / directory),
                                       run_id="same", workers_harvest=1))

    clean = run_in("clean")
    for number in (1, 2, 3, 4, 5):
        clean.run_step(number)
    clean.finalize()

    # the step fails on its sixth record; then a crash tears the final line
    # of the ledger it writes, which every repository shares
    step = {"parsed": 4, "assessed": 5}[stage]
    crashed = run_in("crashed")
    for number in range(1, step):
        crashed.run_step(number)
    module, function = {4: (assessor, "assess"), 5: (probe, "hops")}[step]
    with monkeypatch.context() as patch:
        patch.setattr(module, function, fail_after(getattr(module, function), 5))
        with pytest.raises(RuntimeError, match="injected failure"):
            crashed.run_step(step)
    ledger = crashed.run_dir / "catalogue" / stage / "all.ndjson"
    whole = ledger.read_bytes()
    assert whole.count(b"\n") == 5
    ledger.write_bytes(whole[: whole.rindex(b"\n", 0, -1) + 1 + 20])
    assert len(list(crashed.store.read(stage, None))) == 4

    resumed = run_in("crashed")
    for number in range(step, 6):
        resumed.run_step(number)
    resumed.finalize()

    for number in (3, 4, 5):
        assert resumed.manifest.steps[number].detail == (
            clean.manifest.steps[number].detail
        )
    assert list(resumed.store.read("parsed", None)) == list(
        clean.store.read("parsed", None)
    )
    assert [
        (e["repository"], e["doi"], e["ret"]) for e in resumed.store.read("assessed", None)
    ] == [(e["repository"], e["doi"], e["ret"]) for e in clean.store.read("assessed", None)]
    for name in REPORT_FILES:
        assert (resumed.run_dir / name).read_bytes() == (
            clean.run_dir / name
        ).read_bytes()


def test_a_store_version_2_run_directory_is_refused(tmp_path, capsys):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="older")
    run = PipelineRun(config)
    document = json.loads(manifest_path(run.run_dir).read_text(encoding="utf-8"))
    document["store_version"] = 2
    manifest_path(run.run_dir).write_text(json.dumps(document), encoding="utf-8")
    # version 2 kept one parsed partition per repository
    partition = run.run_dir / "catalogue" / "parsed" / "older.ndjson"
    partition.parent.mkdir(parents=True)
    partition.write_text('{"doi": "10.1/x", "repository": "older"}\n', encoding="utf-8")
    config_file = tmp_path / "older.json"
    config_file.write_text(json.dumps({"run_id": "older"}), encoding="utf-8")
    code = main(
        ["run-all", "--config", str(config_file), "--out", str(tmp_path / "runs")]
    )
    assert code == 2
    assert "store version 2" in capsys.readouterr().err
    assert load_manifest(run.run_dir).store_version == 2
    assert [p.name for p in partition.parent.iterdir()] == ["older.ndjson"]


def test_a_store_version_3_run_directory_is_refused(tmp_path, capsys):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="older")
    run = PipelineRun(config)
    for number in (1, 2, 3):
        run.manifest.steps[number].status = STATUS_COMPLETE
    run.manifest.store_version = 3
    save_manifest(run.manifest, run.run_dir)
    # a version-3 raw line held no parse outcomes, so step 4 would parse
    raw = run.run_dir / "catalogue" / "raw" / "older.ndjson"
    raw.parent.mkdir(parents=True)
    line = (
        '{"body": "<OAI-PMH/>", "bytes": false, "ids": ["oai:x:1"], '
        '"source_endpoint": "http://inline/oai"}\n'
    )
    raw.write_text(line, encoding="utf-8")
    config_file = tmp_path / "older.json"
    config_file.write_text(json.dumps({"run_id": "older"}), encoding="utf-8")
    code = main(
        ["run-all", "--config", str(config_file), "--out", str(tmp_path / "runs")]
    )
    assert code == 2
    assert "store version 3" in capsys.readouterr().err
    manifest = load_manifest(run.run_dir)
    assert manifest.store_version == 3
    assert manifest.status(4) == STATUS_PENDING
    assert raw.read_text(encoding="utf-8") == line
    assert not (run.run_dir / "catalogue" / "parsed").exists()


def test_a_store_version_4_run_directory_is_refused(tmp_path, capsys):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="older")
    run = PipelineRun(config)
    for number in (1, 2):
        run.manifest.steps[number].status = STATUS_COMPLETE
    run.manifest.store_version = 4
    save_manifest(run.manifest, run.run_dir)
    # a version-4 providers.ndjson listed every registry entry with its
    # Datacite support status
    providers = run.run_dir / pipeline.PROVIDERS_FILE
    line = json.dumps({
        "api_endpoints": [{"kind": "OAI-PMH", "url": "http://127.0.0.1:9/oai"}],
        "datacite_support": {"prefix": "datacite", "status": "supported"},
        "name": "older",
        "quality_info": [],
        "registry_id": "older",
    }) + "\n"
    providers.write_text(line, encoding="utf-8")
    config_file = tmp_path / "older.json"
    config_file.write_text(json.dumps({"run_id": "older"}), encoding="utf-8")
    out = str(tmp_path / "runs")
    assert main(["run-all", "--config", str(config_file), "--out", out]) == 2
    assert "store version 4" in capsys.readouterr().err
    assert main(["step", "3", "--out", out]) == 2
    assert "store version 4" in capsys.readouterr().err
    manifest = load_manifest(run.run_dir)
    assert manifest.store_version == 4
    assert manifest.status(3) == STATUS_PENDING
    assert providers.read_text(encoding="utf-8") == line
    assert not (run.run_dir / "catalogue").exists()


def test_report_names_truncated_repositories_from_the_catalogue(
    serve_script, make_config, monkeypatch
):
    hub = serve_script(mixed_landscape())
    run = PipelineRun(make_config(hub, workers_harvest=1))
    for step in (1, 2):
        run.run_step(step)
    with monkeypatch.context() as patch:
        patch.setattr(oaipmh, "walk_records", harvest_failing_after(4))
        with pytest.raises(RuntimeError, match="injected failure"):
            run.run_step(3)
    # the failed step wrote no detail; the harvested partitions know which
    # repositories finished
    assert run.manifest.steps[3].detail == {}
    assert run.unfinished_repositories() == ["mixed-1", "mixed-2"]
    for step in (4, 5):
        run.run_step(step)
    assert run.build_report().warnings == [
        "harvest incomplete: scores are computed over a truncated corpus "
        "(affected: mixed-1, mixed-2)"
    ]


@pytest.mark.parametrize("count", [2, 9])
def test_manifest_is_saved_only_at_step_boundaries(
    serve_script, make_config, monkeypatch, count
):
    hub = serve_script(stacked_landscape(count))
    saves = Counter()
    save = pipeline.save_manifest

    def counted(manifest, run_dir):
        saves[threading.get_ident()] += 1
        save(manifest, run_dir)

    monkeypatch.setattr(pipeline, "save_manifest", counted)
    run_dir = pipeline.run_all(make_config(hub, workers_harvest=POOL))
    assert load_manifest(run_dir).steps[3].detail["repositories"].keys() == {
        f"stack-{i}" for i in range(count)
    }
    # one save when the run is created, one as each step starts and ends,
    # all from the calling thread
    assert list(saves) == [threading.get_ident()]
    assert sum(saves.values()) <= 1 + 2 * 5
