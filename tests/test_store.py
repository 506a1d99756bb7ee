"""Catalogue partitions, crash repair, and the run manifest."""

from __future__ import annotations

import json
import threading
from datetime import datetime

import pytest

from fairprobe.store import (
    STATUS_COMPLETE,
    STATUS_PARTIAL,
    STATUS_PENDING,
    STEP_NAMES,
    STORE_VERSION,
    CatalogueStore,
    StoreCorruptError,
    StoreError,
    load_manifest,
    manifest_path,
    new_manifest,
    now_iso,
    read_ndjson,
    save_manifest,
    write_ndjson,
)


def test_append_read_round_trip(tmp_path):
    store = CatalogueStore(tmp_path)
    rows = [{"doi": f"10.1/{i}", "n": i} for i in range(5)]
    for row in rows:
        store.append("raw", "Some Archive", row)
    assert list(store.read("raw", "Some Archive")) == rows
    assert store.count("raw", "Some Archive") == 5
    assert list(store.read("raw", "never written")) == []
    store.close_all()


def test_partition_names_survive_awkward_repositories(tmp_path):
    store = CatalogueStore(tmp_path)
    names = ["plain", "with space", "slash/inside", "ümlaut-ärchive", "a:b?c"]
    for name in names:
        store.append("parsed", name, {"repo": name})
    store.close_all()
    assert store.partitions("parsed") == sorted(names)
    for name in names:
        assert [r["repo"] for r in store.read("parsed", name)] == [name]
    # one file per repository, all inside the stage directory
    stage_dir = tmp_path / "catalogue" / "parsed"
    assert len(list(stage_dir.iterdir())) == len(names)
    assert all("/" not in p.name[:-len(".ndjson")] for p in stage_dir.iterdir())


def test_reader_drops_truncated_tail(tmp_path):
    store = CatalogueStore(tmp_path)
    store.append("raw", "r", {"n": 1})
    store.append("raw", "r", {"n": 2})
    path = tmp_path / "catalogue" / "raw" / "r.ndjson"
    with open(path, "ab") as handle:
        handle.write(b'{"n": 3, "cut in ha')
    assert [r["n"] for r in store.read("raw", "r")] == [1, 2]
    store.close_all()


def test_append_repairs_truncated_tail_first(tmp_path):
    store = CatalogueStore(tmp_path)
    store.append("raw", "r", {"n": 1})
    store.close_all()
    path = tmp_path / "catalogue" / "raw" / "r.ndjson"
    with open(path, "ab") as handle:
        handle.write(b'{"n": 2, "cut')
    fresh = CatalogueStore(tmp_path)  # new instance, repair not yet done
    fresh.append("raw", "r", {"n": 3})
    fresh.close_all()
    assert [r["n"] for r in fresh.read("raw", "r")] == [1, 3]
    # the file itself holds exactly two intact lines now
    assert path.read_bytes().count(b"\n") == 2


def test_truncated_only_line_becomes_empty_file(tmp_path):
    store = CatalogueStore(tmp_path)
    path = tmp_path / "catalogue" / "raw" / "r.ndjson"
    path.parent.mkdir(parents=True)
    path.write_bytes(b'{"half of a single line')
    store.append("raw", "r", {"n": 1})
    store.close_all()
    assert [r["n"] for r in store.read("raw", "r")] == [1]


def test_corrupt_middle_line_raises(tmp_path):
    store = CatalogueStore(tmp_path)
    path = tmp_path / "catalogue" / "raw" / "r.ndjson"
    path.parent.mkdir(parents=True)
    path.write_bytes(b'{"n": 1}\nnot json at all\n{"n": 3}\n')
    with pytest.raises(StoreCorruptError):
        list(store.read("raw", "r"))


def test_unknown_stage_rejected(tmp_path):
    store = CatalogueStore(tmp_path)
    with pytest.raises(StoreError):
        store.append("shiny", "r", {})
    with pytest.raises(StoreError):
        list(store.read("shiny", "r"))
    assert store.partitions("raw") == []


def test_concurrent_appends_stay_line_atomic(tmp_path):
    store = CatalogueStore(tmp_path)

    def writer(worker: int) -> None:
        for i in range(50):
            store.append("raw", "shared", {"worker": worker, "i": i})

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close_all()
    rows = list(store.read("raw", "shared"))
    assert len(rows) == 400
    for worker in range(8):
        mine = [r["i"] for r in rows if r["worker"] == worker]
        assert mine == list(range(50))  # per-writer order preserved


def test_manifest_round_trip(tmp_path):
    manifest = new_manifest("run-0007", {"timeout": 5.0})
    assert manifest.store_version == STORE_VERSION
    assert set(manifest.steps) == set(STEP_NAMES)
    assert all(manifest.status(n) == STATUS_PENDING for n in STEP_NAMES)

    manifest.steps[1].status = STATUS_COMPLETE
    manifest.steps[1].started = now_iso()
    manifest.steps[1].finished = now_iso()
    manifest.steps[3].status = STATUS_PARTIAL
    manifest.steps[3].detail = {"repositories": {"r": {"records": 3}}}
    save_manifest(manifest, tmp_path)

    again = load_manifest(tmp_path)
    assert again.run_id == "run-0007"
    assert again.config_snapshot == {"timeout": 5.0}
    assert again.status(1) == STATUS_COMPLETE
    assert again.status(3) == STATUS_PARTIAL
    assert again.steps[3].detail == {"repositories": {"r": {"records": 3}}}
    assert again.status(5) == STATUS_PENDING


def test_now_iso_carries_its_offset():
    assert datetime.fromisoformat(now_iso()).tzinfo is not None


def test_manifest_document_is_keyed_by_step_number(tmp_path):
    manifest = new_manifest("run-0008", {})
    save_manifest(manifest, tmp_path)
    document = json.loads(manifest_path(tmp_path).read_text(encoding="utf-8"))
    assert set(document["steps"]) == {str(n) for n in STEP_NAMES}
    for number, name in STEP_NAMES.items():
        assert document["steps"][str(number)]["name"] == name
    # atomic save leaves no scratch file behind
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_write_read_ndjson(tmp_path):
    path = tmp_path / "nested" / "rows.ndjson"
    rows = [{"a": 1}, {"b": [1, 2]}, {"c": "päyload"}]
    write_ndjson(path, rows)
    assert read_ndjson(path) == rows
    write_ndjson(path, [{"replaced": True}])
    assert read_ndjson(path) == [{"replaced": True}]
