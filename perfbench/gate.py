"""Correctness gate and operation counts, read from a finished run directory."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from fairprobe.probe import REASON_TIMEOUT, REASON_TRANSPORT
from fairprobe.scoring import CRITERIA

TOLERANCE = 1e-12
CSV_FILES = ("repositories.csv", "criteria.csv", "apis.csv")


def report_problems(doc: dict[str, Any], oracle: dict[str, Any]) -> list[str]:
    """Where ``report.json`` differs from ``mockrdr.expected_scores``.

    Mirrors ``check_report_equals_oracle`` of the acceptance suite, and also
    requires a report without warnings. A NaN never counts as close.
    """
    problems: list[str] = []

    def equal(label: str, got: Any, want: Any) -> None:
        if got != want:
            problems.append(f"{label}: {got!r} != {want!r}")

    def close(label: str, got: float, want: float) -> None:
        if not abs(got - want) <= TOLERANCE:
            problems.append(f"{label}: {got!r} != {want!r}")

    equal("d_size", doc["d_size"], oracle["d_size"])
    criteria = {row["criterion"]: row for row in doc["criteria"]}
    for name in CRITERIA:
        row = criteria.get(name)
        if row is None:
            problems.append(f"criterion {name} missing")
            continue
        equal(f"{name}.q_size", row["q_size"], oracle["q_sizes"][name])
        close(f"{name}.rareness", row["rareness"], oracle["rareness"][name])
        close(f"{name}.weight", row["weight"], oracle["weights"][name])
    close("total_rareness", doc["total_rareness"], oracle["total_rareness"])
    rows = {row["rdr"]: row for row in doc["repositories"]}
    equal("repositories", sorted(rows), sorted(oracle["repositories"]))
    for name, want in oracle["repositories"].items():
        row = rows.get(name)
        if row is None:
            continue
        equal(f"{name}.items", row["items"], want["items"])
        equal(f"{name}.met_counts", row["met_counts"], want["met"])
        close(f"{name}.avfixed", row["avfixed"], want["avfixed"])
        close(f"{name}.avrelative", row["avrelative"], want["avrelative"])
    equal("warnings", doc["warnings"], [])
    return problems


def report_files(run_dir: Path) -> dict[str, bytes]:
    return {name: (run_dir / name).read_bytes() for name in CSV_FILES}


def operations(run_dir: Path) -> tuple[int, int]:
    """(attempted, failed) operations of a run.

    Attempted: probes, repositories harvested and raw records. Failed:
    probes that ended in a timeout or transport failure, repositories whose
    harvest stayed incomplete, and raw records that failed to parse.
    """
    steps = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["steps"]
    harvested = steps["3"]["detail"].get("repositories", {})
    incomplete = sum(1 for info in harvested.values() if not info.get("completed"))
    raw = sum(info.get("records", 0) for info in harvested.values())
    parse_errors = steps["4"]["detail"].get("errors", 0)
    probes = probe_failures = 0
    for path in (run_dir / "catalogue" / "assessed").glob("*.ndjson"):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                probes += 1
                reason = json.loads(line)["probe_trace"]["reason"]
                probe_failures += reason in (REASON_TIMEOUT, REASON_TRANSPORT)
    attempted = probes + len(harvested) + raw
    return attempted, probe_failures + incomplete + parse_errors
