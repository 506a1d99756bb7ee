"""The five-step workflow: end-to-end runs, resume, gating, and reporting."""

from __future__ import annotations

import json
import os
import socket
import threading
from collections import Counter
from pathlib import Path

import pytest

from fairprobe import assessor, mockrdr, oaipmh, pipeline, probe
from fairprobe.config import RunConfig
from fairprobe.pipeline import PipelineRun, PipelineError, PredecessorIncompleteError
from fairprobe.registry import RegistryError
from fairprobe.store import (
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STATUS_PENDING,
    CatalogueStore,
    load_manifest,
    save_manifest,
)

CRITERIA = ("chrono", "geo", "lic", "ret")


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


def test_partial_predecessor_needs_allow_partial(tmp_path):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="part", allow_partial=False)
    run = PipelineRun(config)
    run.manifest.steps[3].status = STATUS_PARTIAL
    save_manifest(run.manifest, run.run_dir)
    with pytest.raises(PredecessorIncompleteError):
        run.run_step(4)
    permissive = RunConfig(
        out=str(tmp_path / "runs"), run_id="part", allow_partial=True
    )
    # with no raw partitions the step has nothing to do, but it is allowed
    manifest = PipelineRun(permissive).run_step(4)
    assert manifest.status(4) == STATUS_COMPLETE


def test_page_cap_then_resume_completes_the_catalogue(
    fixtures_dir, serve_script, make_config
):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    capped = make_config(hub, run_id="resume-me", max_pages=1)
    run = PipelineRun(capped)
    run.run_step(1)
    run.run_step(2)
    run.run_step(3)
    assert run.manifest.status(3) == STATUS_PARTIAL
    capped_counts = {
        name: run.store.count("raw", name)
        for name in run.store.partitions("raw")
    }
    assert capped_counts["coastal-imagery"] == 4  # page size, one page

    resumed = PipelineRun(make_config(hub, run_id="resume-me", max_pages=None))
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
        got = [
            e["oai_identifier"] for e in resumed.store.read("raw", repo.name)
        ]
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


def test_catalogue_stages_nest(fixtures_dir, serve_script, make_config):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    config = make_config(hub, run_id="nest")
    pipeline.run_all(config)
    run = PipelineRun(make_config(hub, run_id="nest"))

    assert set(run.store.partitions("parsed")) <= set(run.store.partitions("raw"))
    assert set(run.store.partitions("assessed")) == set(run.store.partitions("parsed"))
    for name in run.store.partitions("parsed"):
        raw_ids = {e["oai_identifier"] for e in run.store.read("raw", name)}
        parsed = list(run.store.read("parsed", name))
        assert {e["oai_identifier"] for e in parsed} <= raw_ids
        parsed_dois = {e["doi"] for e in parsed}
        assessed_dois = {e["doi"] for e in run.store.read("assessed", name)}
        assert assessed_dois == parsed_dois


def test_worker_pools_stay_within_bounds(serve_script, make_config):
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
    config = make_config(hub, workers_harvest=2, workers_probe=3, workers_select=4)
    run_dir = pipeline.run_all(config)
    manifest = load_manifest(run_dir)
    assert 1 <= manifest.steps[3].detail["peak_workers"] <= 2
    assert 1 <= manifest.steps[5].detail["peak_workers"] <= 3
    assert 1 <= manifest.steps[2].detail["peak_workers"] <= 4
    assert manifest.steps[5].detail["probed"] == 24


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


def test_step4_dedups_dois_and_counts_rejects(tmp_path):
    config = RunConfig(out=str(tmp_path / "runs"), run_id="dedup")
    run = PipelineRun(config)
    for number in (1, 2, 3):
        run.manifest.steps[number].status = STATUS_COMPLETE
    save_manifest(run.manifest, run.run_dir)

    def raw_entry(identifier: str, payload: str) -> dict:
        return {
            "oai_identifier": identifier,
            "datestamp": "2017-01-01",
            "payload": payload,
            "source_endpoint": "http://inline/oai",
        }

    first = mockrdr.record_payload(
        mockrdr.MockRecord(doi="10.22/same", chrono=True)
    )
    second = mockrdr.record_payload(
        mockrdr.MockRecord(doi="10.22/same", lic=True)
    )
    boring = mockrdr.record_payload(
        mockrdr.MockRecord(doi="10.22/other", of_interest=False)
    )
    run.store.append("raw", "dup-repo", raw_entry("oai:dup-repo:00000", first))
    run.store.append("raw", "dup-repo", raw_entry("oai:dup-repo:00001", second))
    run.store.append("raw", "dup-repo", raw_entry("oai:dup-repo:00002", boring))
    run.store.append("raw", "dup-repo", raw_entry("oai:dup-repo:00003", "<resource"))

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


def test_token_that_expired_in_the_queue_costs_one_request(
    serve_script, make_config
):
    # "small" waits behind the 30-page chain of "large" (at least 1.45 s at
    # 50 ms spacing), longer than its tokens live; its chain then starts
    # again at page 1
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
    # page 1; the expired page-2 token, then pages 1-3
    assert run.manifest.steps[3].detail["repositories"]["small"] == {
        "completed": True, "records": 6, "deleted": 0, "pages": 4,
    }
    assert list_records_requests(hub).count("small") == 5
    got = [e["oai_identifier"] for e in run.store.read("raw", "small")]
    assert sorted(got) == sorted(mockrdr.oai_identifier("small", i) for i in range(6))


def test_resumed_harvest_rebuilds_seen_from_the_catalogue(serve_script, make_config):
    # the first attempt stops after two pages; on resume, the chain waiting
    # in pass 2 holds no ids of its own, yet the restart forced on page 3
    # must not deliver the recovered records again
    repo = mockrdr.MockRepository(
        name="halfway",
        records=[mockrdr.MockRecord(doi=f"10.27/{i}") for i in range(8)],
        page_size=2,
        faults=[mockrdr.Fault(kind="badtoken", page=3)],
    )
    hub = serve_script(mockrdr.ScenarioScript(repositories=[repo]))
    first = PipelineRun(make_config(hub, run_id="halfway", max_pages=2))
    for step in (1, 2, 3):
        first.run_step(step)
    assert first.store.count("raw", "halfway") == 4

    resumed = PipelineRun(make_config(hub, run_id="halfway", max_pages=None))
    resumed.run_step(3)
    assert resumed.manifest.status(3) == STATUS_COMPLETE
    # page 1 in pass 1; pages 2, rejected 3, then 1-4 in pass 2
    assert resumed.manifest.steps[3].detail["repositories"]["halfway"] == {
        "completed": True, "records": 8, "deleted": 0, "pages": 6,
    }
    got = [e["oai_identifier"] for e in resumed.store.read("raw", "halfway")]
    assert sorted(got) == sorted(mockrdr.oai_identifier("halfway", i) for i in range(8))


def test_page_cap_of_one_sends_one_request_per_provider(serve_script, make_config):
    hub = serve_script(sized_landscape())
    run = PipelineRun(make_config(hub, max_pages=1))
    for step in (1, 2, 3):
        run.run_step(step)
    assert sorted(list_records_requests(hub)) == [
        "alpha", "bravo", "charlie", "delta", "echo",
    ]
    assert run.manifest.status(3) == STATUS_PARTIAL
    assert run.manifest.steps[3].detail["incomplete"] == [
        "alpha", "bravo", "delta", "echo",
    ]


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
    got = [e["oai_identifier"] for e in run.store.read("raw", "handoff")]
    assert sorted(got) == sorted(
        mockrdr.oai_identifier("handoff", i) for i in range(7) if i != 1
    )


def test_module_level_run_step(fixtures_dir, serve_script, make_config):
    script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
    hub = serve_script(script)
    config = make_config(hub, run_id="functional")
    run = PipelineRun(config)
    manifest = pipeline.run_step(1, run.manifest, config)
    assert manifest.status(1) == STATUS_COMPLETE
    assert load_manifest(run.run_dir).status(1) == STATUS_COMPLETE


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


FD_DIR = Path("/proc/self/fd")
needs_proc = pytest.mark.skipif(
    not FD_DIR.is_dir(), reason="no /proc/self/fd to list open files"
)


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


def stacked_landscape(count: int = 6) -> mockrdr.ScenarioScript:
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=f"stack-{i}",
                records=[
                    mockrdr.MockRecord(doi=f"10.20/stack-{i}-{j}", retrieval="client")
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
    config = make_config(
        hub, workers_harvest=POOL, workers_select=POOL, workers_probe=POOL
    )
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
            lines = CatalogueStore(run.run_dir).count(stage, repository)
            if lines != appended[stage, repository]:
                unseen.append((stage, repository, appended[stage, repository], lines))

    monkeypatch.setattr(CatalogueStore, "append", watched)
    for step in (1, 2, 3, 4, 5):
        run.run_step(step)
        assert open_catalogue_files(run.run_dir) == []

    assert all(run.manifest.status(n) == STATUS_COMPLETE for n in (1, 2, 3, 4, 5))
    assert sum(appended.values()) == 3 * 24
    # a second store reading mid-step saw every line appended so far
    assert unseen == []
    # handles are bounded by the partitions in progress, not by the six
    # repositories: one per harvest or assessment worker, and one more in
    # step 5 for a partition whose last job is queued behind the others
    assert 1 <= writers["raw"] <= POOL
    assert 1 <= writers["parsed"] <= POOL
    assert 1 <= writers["assessed"] <= POOL + 1


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


@needs_proc
@pytest.mark.parametrize("step", [3, 4, 5])
def test_failed_step_leaves_no_catalogue_file_open(
    serve_script, make_config, monkeypatch, step
):
    hub = serve_script(stacked_landscape())
    config = make_config(
        hub, workers_harvest=POOL, workers_select=POOL, workers_probe=POOL
    )
    run = PipelineRun(config)
    for earlier in range(1, step):
        run.run_step(earlier)

    if step == 3:
        harvest = oaipmh.harvest_records
        trip = fail_after(lambda: None, 5)  # counts records across repositories

        def failing_harvest(endpoint, prefix, policy, sink, **kwargs):
            def tripping_sink(record):
                trip()
                sink(record)

            return harvest(endpoint, prefix, policy, tripping_sink, **kwargs)

        monkeypatch.setattr(oaipmh, "harvest_records", failing_harvest)
    elif step == 4:
        monkeypatch.setattr(assessor, "assess", fail_after(assessor.assess, 5))
    else:
        monkeypatch.setattr(probe, "f_ret", fail_after(probe.f_ret, 5))

    with pytest.raises(RuntimeError, match="injected failure"):
        run.run_step(step)
    assert run.manifest.status(step) == STATUS_PARTIAL
    stage = {3: "raw", 4: "parsed", 5: "assessed"}[step]
    assert run.store.partitions(stage)  # lines were written before the failure
    assert open_catalogue_files(run.run_dir) == []
