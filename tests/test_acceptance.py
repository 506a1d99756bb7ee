"""Acceptance gate: seven criteria the finished pipeline must satisfy.

Each test prints one ``[acceptance] criterion N (...): PASS|FAIL`` line so a
log scan shows the verdict per criterion at a glance.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from fairprobe import mockrdr, pipeline
from fairprobe.assessor import AssessmentResult
from fairprobe.config import RunConfig
from fairprobe.datacite import DataciteRecord
from fairprobe.pipeline import PipelineRun
from fairprobe.probe import f_ret
from fairprobe.report import render_criterion_table, render_repository_table
from fairprobe.scoring import (
    CRITERIA,
    repository_score_from_counts,
    stats_from_counts,
)
from fairprobe.store import STATUS_COMPLETE, load_manifest

from oracle import compute_stats, corpus_totals, score_fixed, score_relative

# Reference landscape: ~1.4M records, aggregates known to seven decimals.
LANDSCAPE_D = 1_408_929
LANDSCAPE_Q = {"chrono": 8, "geo": 34, "lic": 184_852, "ret": 34}
LANDSCAPE_REPOS = {
    "figshare": (1_224_071, {"chrono": 0, "geo": 0, "lic": 0, "ret": 2}),
    "Zenodo": (184_796, {"chrono": 0, "geo": 0, "lic": 184_796, "ret": 0}),
    "PANGAEA": (35, {"chrono": 0, "geo": 29, "lic": 32, "ret": 32}),
    "PUB Data Publications": (18, {"chrono": 0, "geo": 0, "lic": 18, "ret": 0}),
    "GFZ Data Services": (9, {"chrono": 8, "geo": 5, "lic": 6, "ret": 0}),
}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_corpus_statistics():
    with criterion(1, "corpus statistics at seven decimals"):
        started = time.monotonic()
        stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
        by_name = {s.name: s for s in stats}

        expected = {
            "chrono": (0.9999943, 0.2584802),
            "geo": (0.9999759, 0.2584755),
            "lic": (0.8687996, 0.2245688),
            "ret": (0.9999759, 0.2584755),
        }
        for name, (rareness, weight) in expected.items():
            assert by_name[name].rareness == pytest.approx(rareness, abs=1e-7)
            assert by_name[name].weight == pytest.approx(weight, abs=1e-7)

        table = render_criterion_table(stats, LANDSCAPE_D)
        assert "lic,184852,0.8687996,0.2245688" in table
        assert "chrono,8,0.9999943,0.2584802" in table
        assert "geo,34,0.9999759,0.2584755" in table
        assert "ret,34,0.9999759,0.2584755" in table
        assert table.splitlines()[-1] == "# n = 1408929 ; total_rareness = 3.87"
        total = corpus_totals(stats, LANDSCAPE_D).total_rareness
        assert total == pytest.approx(3.8687457, abs=1e-7)
        assert time.monotonic() - started < 1.0


def test_criterion_2_repository_scores():
    with criterion(2, "repository scores at seven decimals"):
        started = time.monotonic()
        stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
        rows = [
            repository_score_from_counts(name, items, met, stats)
            for name, (items, met) in LANDSCAPE_REPOS.items()
        ]
        table = render_repository_table(rows, LANDSCAPE_D)
        assert table.splitlines() == [
            "rdr,items,avfixed,avrelative,chrono,geo,lic,ret",
            "figshare,1224071,0.0000004,0.0000004,0,0,0,2",
            "Zenodo,184796,0.2500000,0.2245688,0,0,184796,0",
            "PANGAEA,35,0.6642857,0.6558059,0,29,32,32",
            "PUB Data Publications,18,0.2500000,0.2245688,0,0,18,0",
            "GFZ Data Services,9,0.5277778,0.5230702,8,5,6,0",
            "# n = 1408929",
        ]
        assert time.monotonic() - started < 1.0


def random_repository(rng: random.Random, index: int) -> mockrdr.MockRepository:
    name = f"rdr-{index}"
    page_size = rng.randrange(2, 8)
    records = [
        mockrdr.MockRecord(
            doi=f"10.77/{name}-{i}",
            of_interest=rng.random() < 0.8,
            chrono=rng.random() < 0.4,
            geo=rng.random() < 0.4,
            lic=rng.random() < 0.6,
            retrieval=rng.choice(sorted(mockrdr.RETRIEVAL_STYLES)),
            deleted=rng.random() < 0.1,
            kernel=rng.choice((3, 4)),
            geo_style=rng.choice(("point", "box", "place")),
            interest_via=rng.choice(("type", "format", "wildcard")),
            wrapped=rng.random() < 0.25,
        )
        for i in range(rng.randrange(0, 19))
    ]
    style = rng.random()
    prefixes: tuple[str, ...] = ("oai_dc", "datacite")
    apis: tuple[str, ...] = ("OAI-PMH",)
    if style < 0.12:
        apis = ("REST",)
    elif style < 0.24:
        prefixes = ("oai_dc",)
    else:
        prefixes = rng.choice(
            (("oai_dc", "datacite"), ("datacite4",), ("oai_datacite",))
        )
    faults = []
    pages = (len(records) + page_size - 1) // page_size if records else 0
    if pages >= 2 and rng.random() < 0.5:
        # recoverable faults only: every scenario must still finish exactly
        faults.append(
            mockrdr.Fault(
                kind=rng.choice(("badtoken", "503", "drop")),
                page=rng.randrange(2, pages + 1),
                retry_after=0.05,
            )
        )
    return mockrdr.MockRepository(
        name=name, records=records, page_size=page_size,
        prefixes=prefixes, apis=apis, faults=faults,
    )


def check_report_equals_oracle(doc: dict, oracle: dict) -> None:
    assert doc["d_size"] == oracle["d_size"]
    criteria_rows = {row["criterion"]: row for row in doc["criteria"]}
    for name in CRITERIA:
        assert criteria_rows[name]["q_size"] == oracle["q_sizes"][name]
        assert criteria_rows[name]["rareness"] == pytest.approx(
            oracle["rareness"][name], abs=1e-12
        )
        assert criteria_rows[name]["weight"] == pytest.approx(
            oracle["weights"][name], abs=1e-12
        )
    assert doc["total_rareness"] == pytest.approx(
        oracle["total_rareness"], abs=1e-12
    )
    rows = {row["rdr"]: row for row in doc["repositories"]}
    assert set(rows) == set(oracle["repositories"])
    for name, want in oracle["repositories"].items():
        row = rows[name]
        assert row["items"] == want["items"]
        assert row["met_counts"] == want["met"]
        assert row["avfixed"] == pytest.approx(want["avfixed"], abs=1e-12)
        assert row["avrelative"] == pytest.approx(want["avrelative"], abs=1e-12)


def test_criterion_3_randomised_landscapes(tmp_path, serve_script):
    with criterion(3, "20 randomised landscapes reproduce their oracle"):
        started = time.monotonic()
        rng = random.Random(20170314)
        ran = 0
        for round_number in range(20):
            script = mockrdr.ScenarioScript(
                repositories=[
                    random_repository(rng, index)
                    for index in range(rng.randrange(2, 6))
                ]
            )
            hub = serve_script(script)
            config = RunConfig(
                registry_url=hub.registry_url,
                doi_resolver=hub.resolver_base,
                out=str(tmp_path / f"round-{round_number}"),
                timeout=5.0,
                politeness_delay=0.0,
                per_host_delay=0.0,
                workers_probe=8,
            )
            run_dir = pipeline.run_all(config)
            doc = json.loads(
                (run_dir / "report.json").read_text(encoding="utf-8")
            )
            assert doc["warnings"] == []  # recoverable faults never truncate
            try:
                oracle = mockrdr.expected_scores(script)
            except Exception:
                assert doc["d_size"] == 0
                continue
            check_report_equals_oracle(doc, oracle)
            ran += 1
        assert ran >= 15  # barren landscapes are rare under these settings
        assert time.monotonic() - started < 300.0


def test_criterion_4_protocol_resilience(tmp_path, serve_script):
    with criterion(4, "faulted endpoints still yield every record once"):
        repos = [
            mockrdr.MockRepository(
                name="alpha",
                records=[mockrdr.MockRecord(doi=f"10.81/a{i}") for i in range(9)],
                page_size=3,
                faults=[
                    mockrdr.Fault(kind="badtoken", page=2),
                    mockrdr.Fault(kind="503", page=3, retry_after=0.05),
                ],
            ),
            mockrdr.MockRepository(
                name="bravo",
                records=[mockrdr.MockRecord(doi=f"10.81/b{i}") for i in range(7)],
                page_size=3,
                faults=[
                    mockrdr.Fault(kind="timeout", page=2),
                    mockrdr.Fault(kind="drop", page=3),
                ],
            ),
            mockrdr.MockRepository(
                name="charlie",
                records=[
                    mockrdr.MockRecord(doi=f"10.81/c{i}", deleted=i in (1, 3))
                    for i in range(5)
                ],
                page_size=2,
            ),
            mockrdr.MockRepository(name="delta", records=[]),
        ]
        script = mockrdr.ScenarioScript(repositories=repos, timeout_stall=1.5)
        hub = serve_script(script)
        config = RunConfig(
            registry_url=hub.registry_url,
            doi_resolver=hub.resolver_base,
            out=str(tmp_path / "runs"),
            timeout=0.5,
            politeness_delay=0.0,
            per_host_delay=0.0,
        )
        run = PipelineRun(config)
        for number in (1, 2, 3):
            run.run_step(number)
        assert run.manifest.status(3) == STATUS_COMPLETE

        for repo in repos:
            want = sorted(
                mockrdr.oai_identifier(repo.name, i)
                for i, record in enumerate(repo.records)
                if not record.deleted
            )
            got = [
                identifier
                for page in run.store.read("raw", repo.name)
                for identifier in page["ids"]
            ]
            assert sorted(got) == want, repo.name
            assert len(got) == len(set(got))  # exactly once, no duplicates
        detail = run.manifest.steps[3].detail["repositories"]
        assert detail["charlie"]["deleted"] == 2
        assert detail["delta"]["completed"] is True


def test_criterion_5_probe_decision_matrix(serve_script, sessions, gate):
    with criterion(5, "probe decision matrix"):
        tiff_link = '</blob/tif1>; rel="alternate"; type="image/tiff"'
        hub = serve_script(
            mockrdr.ScenarioScript(
                resolver_routes={
                    "10.82/direct": [mockrdr.RouteHop(200, "image/png")],
                    "10.82/chain": [
                        mockrdr.RouteHop(302),
                        mockrdr.RouteHop(303),
                        mockrdr.RouteHop(200, "image/jpeg")
                    ],
                    "10.82/landing": [
                        mockrdr.RouteHop(200, "text/html", body="<html/>")
                    ],
                    "10.82/gone": [mockrdr.RouteHop(404, "text/html", body="x")],
                    "10.82/linked": [
                        mockrdr.RouteHop(
                            200, "text/html", body="<html/>", link=tiff_link
                        )
                    ],
                    "10.82/loop": [mockrdr.RouteHop(302, location="self")],
                    "10.82/liar": [
                        mockrdr.RouteHop(
                            200, "text/html", body="<html/>",
                            link='</blob/fake>; rel="alternate"; type="image/tiff"',
                        )
                    ],
                },
                blobs={
                    "tif1": ("image/tiff", 64),
                    "fake": ("text/plain", 16),
                },
            )
        )
        config = RunConfig(
            doi_resolver=hub.resolver_base,
            timeout=2.0,
            per_host_delay=0.0,
        )

        def probe(doi: str, formats=("image/png",)):
            record = DataciteRecord(doi=doi, formats=list(formats))
            ok, trace = f_ret(record, config, gate=gate, session=sessions)
            return ok, trace.outcome, trace.reason

        matrix = {
            ("10.82/direct", ("image/png",)): (True, "client_negotiated", None),
            ("10.82/chain", ("image/png",)): (True, "client_negotiated", None),
            ("10.82/landing", ("image/png",)): (
                False, "failed", "no-image-content-type"
            ),
            ("10.82/gone", ("image/png",)): (False, "failed", "non-200"),
            ("10.82/linked", ("image/tiff",)): (True, "link_negotiated", None),
            ("10.82/linked", ("image/png",)): (False, "failed", "no-link-match"),
            ("10.82/loop", ("image/png",)): (False, "failed", "redirect-limit"),
            ("10.82/liar", ("image/tiff",)): (
                False, "failed", "no-image-content-type"
            ),
            ("10.82/unregistered", ("image/png",)): (False, "failed", "non-200"),
        }
        for (doi, formats), want in matrix.items():
            assert probe(doi, formats) == want, doi

        # a resolver that never answers: transport failure, one silent step
        import socket
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead = f"http://127.0.0.1:{sock.getsockname()[1]}/resolve/"
        ok, trace = f_ret(
            DataciteRecord(doi="10.82/dark", formats=["image/png"]),
            RunConfig(doi_resolver=dead, timeout=0.5, per_host_delay=0.0),
            gate=gate,
            session=sessions,
        )
        assert (ok, trace.outcome, trace.reason) == (False, "failed", "transport")
        assert [s.status for s in trace.steps] == [0]


def test_criterion_6_scoring_invariants_at_scale():
    with criterion(6, "scoring invariants over ten thousand assessments"):
        rng = random.Random(19680301)
        corpus = [
            AssessmentResult(
                doi=f"10.83/{i}",
                repository=f"repo-{rng.randrange(12)}",
                chrono=rng.random() < 0.08,
                geo=rng.random() < 0.3,
                lic=rng.random() < 0.75,
                ret=rng.random() < 0.45,
            )
            for i in range(10_000)
        ]
        stats, totals = compute_stats(corpus)
        weights = {s.name: s.weight for s in stats}

        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        for a, b in itertools.combinations(stats, 2):
            if a.q_size < b.q_size:
                assert a.weight > b.weight

        for item in corpus:
            fixed = score_fixed(item)
            relative = score_relative(item, stats)
            assert 0.0 <= fixed <= 1.0
            assert 0.0 <= relative <= 1.0 + 1e-12

        for item in rng.sample(corpus, 2_000):
            unmet = [name for name in CRITERIA if not getattr(item, name)]
            if not unmet:
                continue
            name = rng.choice(unmet)
            better = replace(item, **{name: True})
            assert score_fixed(better) - fixed_of(item) == pytest.approx(
                0.25, abs=1e-12
            )
            assert score_relative(better, stats) - score_relative(
                item, stats
            ) == pytest.approx(weights[name], abs=1e-12)

        by_repo: dict[str, list[AssessmentResult]] = {}
        for item in corpus:
            by_repo.setdefault(item.repository, []).append(item)
        for name, members in by_repo.items():
            met = {
                key: sum(1 for m in members if getattr(m, key))
                for key in CRITERIA
            }
            score = repository_score_from_counts(name, len(members), met, stats)
            naive_fixed = sum(score_fixed(m) for m in members) / len(members)
            naive_rel = sum(
                score_relative(m, stats) for m in members
            ) / len(members)
            assert score.avfixed == pytest.approx(naive_fixed, abs=1e-12)
            assert score.avrelative == pytest.approx(naive_rel, abs=1e-12)
        assert totals.d_size == 10_000


def fixed_of(item: AssessmentResult) -> float:
    return score_fixed(item)


def test_criterion_7_truncated_corpus_is_flagged_and_exact(
    fixtures_dir, tmp_path, serve_script
):
    with criterion(7, "truncated harvest: flagged, and scored over what exists"):
        script = mockrdr.load_script(fixtures_dir / "scenario_small.json")
        # an unparseable page 2 ends each multi-page harvest after page 1
        for repo in script.repositories:
            if repo.pages() > 1:
                repo.faults.append(mockrdr.Fault(kind="malformed", page=2))
        hub = serve_script(script)
        config = RunConfig(
            registry_url=hub.registry_url,
            doi_resolver=hub.resolver_base,
            out=str(tmp_path / "runs"),
            timeout=5.0,
            politeness_delay=0.0,
            per_host_delay=0.0,
            workers_probe=8,
        )
        run_dir = pipeline.run_all(config)
        doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))

        assert len(doc["warnings"]) == 1
        assert doc["warnings"][0].startswith(
            "harvest incomplete: scores are computed over a truncated corpus"
        )
        manifest = load_manifest(run_dir)
        assert manifest.status(3) == "partial"

        run = PipelineRun(
            RunConfig(**{**config.snapshot(), "run_id": run_dir.name})
        )
        subset = {
            (name, entry["doi"])
            for name in run.store.partitions("parsed")
            for entry in run.store.read("parsed", name)
        }
        assert subset  # one page per repository still yields records
        oracle = mockrdr.expected_scores(script, subset=subset)
        check_report_equals_oracle(doc, oracle)
        full = mockrdr.expected_scores(script)
        assert doc["d_size"] < full["d_size"]  # genuinely truncated
