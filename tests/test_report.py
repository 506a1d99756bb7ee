"""Report rendering: exact row strings, ordering, and the output file set."""

from __future__ import annotations

import errno
import json
import random
from pathlib import Path

import pytest

from fairprobe.report import (
    API_HEADER,
    CRITERION_HEADER,
    FAIR_COVERAGE,
    REPOSITORY_HEADER,
    ApiRow,
    ScoreReport,
    render_api_table,
    render_criterion_table,
    render_fair_coverage,
    render_repository_table,
    report_document,
    write_report,
)
from fairprobe.scoring import repository_score_from_counts, stats_from_counts

from oracle import corpus_totals

# Frozen landscape used across the scoring and report tests.
LANDSCAPE_D = 1_408_929
LANDSCAPE_Q = {"chrono": 8, "geo": 34, "lic": 184_852, "ret": 34}
LANDSCAPE_COUNTS = {
    "figshare": (1_224_071, {"chrono": 0, "geo": 0, "lic": 0, "ret": 2}),
    "Zenodo": (184_796, {"chrono": 0, "geo": 0, "lic": 184_796, "ret": 0}),
    "PANGAEA": (35, {"chrono": 0, "geo": 29, "lic": 32, "ret": 32}),
    "PUB Data Publications": (18, {"chrono": 0, "geo": 0, "lic": 18, "ret": 0}),
    "GFZ Data Services": (9, {"chrono": 8, "geo": 5, "lic": 6, "ret": 0}),
}


@pytest.fixture
def landscape_rows():
    stats = stats_from_counts(LANDSCAPE_Q, LANDSCAPE_D)
    rows = [
        repository_score_from_counts(name, items, met, stats)
        for name, (items, met) in LANDSCAPE_COUNTS.items()
    ]
    return stats, rows


def test_repository_table_exact_rows(landscape_rows):
    stats, rows = landscape_rows
    shuffled = list(rows)
    random.Random(7).shuffle(shuffled)
    table = render_repository_table(shuffled, LANDSCAPE_D)
    assert table.splitlines() == [
        REPOSITORY_HEADER,
        "figshare,1224071,0.0000004,0.0000004,0,0,0,2",
        "Zenodo,184796,0.2500000,0.2245688,0,0,184796,0",
        "PANGAEA,35,0.6642857,0.6558059,0,29,32,32",
        "PUB Data Publications,18,0.2500000,0.2245688,0,0,18,0",
        "GFZ Data Services,9,0.5277778,0.5230702,8,5,6,0",
        "# n = 1408929",
    ]
    assert table.endswith("\n")


def test_criterion_table_exact_rows(landscape_rows):
    stats, _ = landscape_rows
    table = render_criterion_table(stats, LANDSCAPE_D)
    lines = table.splitlines()
    assert lines[0] == CRITERION_HEADER
    assert set(lines[1:5]) == {
        "chrono,8,0.9999943,0.2584802",
        "geo,34,0.9999759,0.2584755",
        "lic,184852,0.8687996,0.2245688",
        "ret,34,0.9999759,0.2584755",
    }
    assert lines[5] == "# n = 1408929 ; total_rareness = 3.87"


def test_repository_table_is_deterministic(landscape_rows):
    _, rows = landscape_rows
    orders = []
    for seed in range(5):
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        orders.append(render_repository_table(shuffled, LANDSCAPE_D))
    assert len(set(orders)) == 1


def test_repository_table_ties_break_by_name(landscape_rows):
    stats, _ = landscape_rows
    met = {"chrono": 0, "geo": 0, "lic": 0, "ret": 0}
    rows = [
        repository_score_from_counts(name, 3, met, stats)
        for name in ("zeta", "alpha", "midway")
    ]
    table = render_repository_table(rows, 9)
    names = [line.split(",")[0] for line in table.splitlines()[1:-1]]
    assert names == ["alpha", "midway", "zeta"]


def test_empty_and_tiny_tables():
    table = render_repository_table([], 0)
    assert table == f"{REPOSITORY_HEADER}\n# n = 0\n"
    assert render_criterion_table([], 0).splitlines()[-1] == (
        "# n = 0 ; total_rareness = 0.00"
    )
    assert render_api_table([]) == f"{API_HEADER}\n"


def test_api_table_two_decimal_shares():
    rows = [
        ApiRow(kind="REST", count=304, share_percent=304 / 2093 * 100),
        ApiRow(kind="OAI-PMH", count=162, share_percent=162 / 2093 * 100),
        ApiRow(kind="SOAP", count=68, share_percent=68 / 2093 * 100),
        ApiRow(kind="SPARQL", count=27, share_percent=27 / 2093 * 100),
        ApiRow(kind="no API", count=1165, share_percent=1165 / 2093 * 100),
    ]
    table = render_api_table(rows)
    assert table.splitlines() == [
        API_HEADER,
        "REST,304,14.52",
        "OAI-PMH,162,7.74",
        "SOAP,68,3.25",
        "SPARQL,27,1.29",
        "no API,1165,55.66",
    ]


def test_fair_coverage_block():
    assert len(FAIR_COVERAGE) == 15
    by_principle = {entry[0]: entry[1] for entry in FAIR_COVERAGE}
    assert [entry[0] for entry in FAIR_COVERAGE] == [
        "F1", "F2", "F3", "F4",
        "A1", "A1.1", "A1.2", "A2",
        "I1", "I2", "I3",
        "R1", "R1.1", "R1.2", "R1.3",
    ]
    assert by_principle["F2"] == "Q_geo, Q_chrono"
    assert by_principle["R1"] == "Q_geo, Q_chrono"
    assert by_principle["R1.1"] == "Q_lic"
    assert by_principle["A1"] == "Q_ret"
    assert by_principle["A1.1"] == "Q_ret"
    assert by_principle["A1.2"] == "Q_ret"
    for principle in ("A2", "I2", "I3", "R1.2", "R1.3"):
        assert by_principle[principle] == "not-covered"
    for principle in ("F1", "F3", "F4", "I1"):
        assert by_principle[principle] == "covered"

    rendered = render_fair_coverage()
    assert len(rendered.splitlines()) == 15
    assert rendered.splitlines()[0].startswith("F1")


def test_write_report_file_set(tmp_path, landscape_rows):
    stats, rows = landscape_rows
    report = ScoreReport(
        run_id="run-0001",
        executed="2026-08-19T00:00:00",
        d_size=LANDSCAPE_D,
        repositories=rows,
        criteria=stats,
        total_rareness=sum(s.rareness for s in stats),
        apis=[ApiRow(kind="OAI-PMH", count=162, share_percent=7.74)],
        warnings=["harvest incomplete: scores are computed over a truncated corpus (affected: x)"],
        summary="1408929 records of interest across 5 repositories",
    )
    written = write_report(report, tmp_path)
    assert set(written) == {
        "repositories.csv",
        "criteria.csv",
        "apis.csv",
        "fair_coverage.txt",
        "report.json",
    }
    for path in written.values():
        assert path.parent == tmp_path / "run-0001"
        assert path.exists()

    doc = json.loads(written["report.json"].read_text(encoding="utf-8"))
    assert doc["d_size"] == LANDSCAPE_D
    assert doc["run_id"] == "run-0001"
    assert doc["repositories"][0]["rdr"] == "figshare"
    assert doc["repositories"][0]["met_counts"]["ret"] == 2
    assert len(doc["fair_coverage"]) == 15
    assert doc["warnings"] == report.warnings
    assert doc["summary"] == report.summary

    csv_lines = written["repositories.csv"].read_text(encoding="utf-8").splitlines()
    assert csv_lines[1].startswith("figshare,1224071,")


def test_failed_report_write_keeps_the_earlier_file(
    tmp_path, landscape_rows, monkeypatch
):
    stats, rows = landscape_rows
    report = ScoreReport(
        run_id="run-0002",
        executed="2026-08-19",
        d_size=LANDSCAPE_D,
        repositories=rows,
        criteria=stats,
        total_rareness=sum(s.rareness for s in stats),
        summary="first",
    )
    earlier = write_report(report, tmp_path)["report.json"].read_bytes()
    write_text = Path.write_text

    def disk_full_in_report_json(path, data, *args, **kwargs):
        # the disk fills up halfway through writing report.json
        if not path.name.startswith("report.json"):
            return write_text(path, data, *args, **kwargs)
        write_text(path, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full_in_report_json)
    report.summary = "second"
    with pytest.raises(OSError):
        write_report(report, tmp_path)
    target = tmp_path / "run-0002"
    assert (target / "report.json").read_bytes() == earlier
    assert sorted(p.name for p in target.iterdir()) == [
        "apis.csv", "criteria.csv", "fair_coverage.txt",
        "report.json", "repositories.csv",
    ]


def test_zero_item_rows_are_skipped(landscape_rows):
    stats, rows = landscape_rows
    # Build a zero-item row by hand; the constructor refuses items <= 0.
    ghost = rows[0].__class__(
        repository="ghost",
        items=0,
        met_counts={"chrono": 0, "geo": 0, "lic": 0, "ret": 0},
        avfixed=0.0,
        avrelative=0.0,
    )
    table = render_repository_table([ghost, rows[2]], 35)
    names = [line.split(",")[0] for line in table.splitlines()[1:-1]]
    assert names == ["PANGAEA"]
    doc = report_document(
        ScoreReport(
            run_id="r", executed="", d_size=35, repositories=[ghost, rows[2]],
            criteria=stats, total_rareness=0.0,
        )
    )
    assert [row["rdr"] for row in doc["repositories"]] == ["PANGAEA"]


def test_report_document_round_trips_through_json(landscape_rows):
    stats, rows = landscape_rows
    report = ScoreReport(
        run_id="run-0002",
        executed="2026-08-19T00:00:00",
        d_size=LANDSCAPE_D,
        repositories=rows,
        criteria=stats,
        total_rareness=corpus_totals(stats, LANDSCAPE_D).total_rareness,
    )
    doc = report_document(report)
    again = json.loads(json.dumps(doc))
    assert again == doc
