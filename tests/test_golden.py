"""Byte-identical report files and the parsed ledger for the scenario landscapes.

``tests/golden/<scenario>/`` holds what ``run_all`` wrote for
``tests/fixtures/<scenario>.json`` with the run id ``golden``: the five
report files and the ``catalogue/parsed`` ledger. A fresh run must write
the same bytes. Two values differ between runs for reasons that have
nothing to do with the scores, and only those are masked: ``run_id`` and
``executed`` (the run's date) in ``report.json``.

Regenerate the files, after a change that is meant to move them, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import re
import shutil
import tempfile
from pathlib import Path

import pytest

from fairprobe import datacite, mockrdr, oaipmh, pipeline
from fairprobe.config import RunConfig
from fairprobe.store import CatalogueStore

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
SCENARIOS = sorted(path.stem for path in (HERE / "fixtures").glob("scenario_*.json"))
REPORT_FILES = (
    "repositories.csv",
    "criteria.csv",
    "apis.csv",
    "fair_coverage.txt",
    "report.json",
)
RUN_ID = "golden"
VARYING = re.compile(rb'^(  "(?:run_id|executed)": )".*"(,?)$', re.MULTILINE)


def run_scenario(scenario: str, out: Path) -> Path:
    hub = mockrdr.serve(mockrdr.load_script(HERE / "fixtures" / f"{scenario}.json"))
    try:
        return pipeline.run_all(
            RunConfig(
                registry_url=hub.registry_url,
                doi_resolver=hub.resolver_base,
                out=str(out),
                run_id=RUN_ID,
                timeout=5.0,
                politeness_delay=0.0,
                per_host_delay=0.0,
                workers_probe=8,
            )
        )
    finally:
        hub.shutdown()


def pinned_files(run_dir: Path) -> dict[str, bytes]:
    """The pinned files of a run, by path relative to the run directory."""
    files = {name: (run_dir / name).read_bytes() for name in REPORT_FILES}
    for path in sorted((run_dir / "catalogue" / "parsed").glob("*.ndjson")):
        files[path.relative_to(run_dir).as_posix()] = path.read_bytes()
    return files


def masked(content: bytes) -> bytes:
    return VARYING.sub(rb'\1"*"\2', content)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_matches_golden_files(scenario, tmp_path):
    golden = pinned_files(GOLDEN / scenario)
    fresh = pinned_files(run_scenario(scenario, tmp_path / "runs"))
    assert sorted(fresh) == sorted(golden)
    for name, content in golden.items():
        assert masked(fresh[name]) == masked(content), name


def served_body(line: dict) -> bytes | str:
    """The body of a ``raw`` line exactly as step 3 parsed it: a body
    served as bytes was stored as its UTF-8 reading with surrogates."""
    body = line["body"]
    return body.encode("utf-8", "surrogateescape") if line["bytes"] else body


def fresh_outcome(payload, repository: str, identifier: str) -> dict | None:
    """A taken record's parse outcome, from the full parse of its payload."""
    try:
        record = datacite.parse_record(
            payload, repository=repository, oai_identifier=identifier
        )
    except datacite.RecordParseError as exc:
        return {"error": str(exc)}
    return datacite.record_to_dict(record) if datacite.is_of_interest(record) else None


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stored_outcomes_match_a_fresh_parse(scenario, tmp_path):
    """Step 4 trusts the outcomes step 3 stored; each raw body, parsed
    again, must give them."""
    store = CatalogueStore(run_scenario(scenario, tmp_path / "runs"))
    images = 0
    for name in store.partitions("raw"):
        for line in store.read("raw", name):
            records, _, _ = oaipmh.parse_page(served_body(line))
            payloads: dict[str, object] = {}
            for record in records:
                payloads.setdefault(record.oai_identifier, record.payload)
            assert line["records"] == [
                fresh_outcome(payloads[identifier], name, identifier)
                for identifier in line["ids"]
            ]
            images += sum(
                outcome is not None and "error" not in outcome
                for outcome in line["records"]
            )
    assert images > 0


def write_golden() -> None:
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as scratch:
            run_dir = run_scenario(scenario, Path(scratch))
            target = GOLDEN / scenario
            shutil.rmtree(target, ignore_errors=True)
            for name, content in pinned_files(run_dir).items():
                (target / name).parent.mkdir(parents=True, exist_ok=True)
                (target / name).write_bytes(content)
        print(f"wrote {target}")


if __name__ == "__main__":
    write_golden()
