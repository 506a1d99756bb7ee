"""Catalogue partitions and ledgers, crash repair, and the run manifest."""

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
    assert list(store.read("raw", "never written")) == []
    store.close_all()


def test_partition_names_survive_awkward_repositories(tmp_path):
    store = CatalogueStore(tmp_path)
    names = ["plain", "with space", "slash/inside", "ümlaut-ärchive", "a:b?c"]
    for name in names:
        store.append("raw", name, {"repo": name})
        store.append("parsed", name, {"repo": name})
    store.close_all()
    for stage in ("raw", "parsed"):
        assert store.partitions(stage) == sorted(names)
        for name in names:
            assert [r["repo"] for r in store.read(stage, name)] == [name]
    # raw: one file per repository, its quoted name inside the stage directory
    raw_dir = tmp_path / "catalogue" / "raw"
    assert len(list(raw_dir.iterdir())) == len(names)
    assert all("/" not in p.name[:-len(".ndjson")] for p in raw_dir.iterdir())
    # a ledger: one file, each line naming its repository as a JSON field
    ledger = tmp_path / "catalogue" / "parsed" / "all.ndjson"
    assert [p.name for p in ledger.parent.iterdir()] == ["all.ndjson"]
    assert [json.loads(line) for line in ledger.read_text("utf-8").splitlines()] == [
        {"repo": name, "repository": name} for name in names
    ]
    assert [r["repository"] for r in store.read("parsed", None)] == names


def test_a_ledger_is_one_handle_for_every_repository(tmp_path):
    store = CatalogueStore(tmp_path)
    store.append("assessed", "a", {"n": 1})
    handle = store._partition("assessed", "a").handle
    store.append("assessed", "b", {"n": 2, "repository": "b"})
    assert store._partition("assessed", "b").handle is handle
    store.close_all()
    assert handle.closed
    assert list(store.read("assessed", None)) == [
        {"n": 1, "repository": "a"},
        {"n": 2, "repository": "b"},
    ]
    assert list(store.read("assessed", "b")) == [{"n": 2, "repository": "b"}]
    with pytest.raises(StoreError):
        list(store.read("raw", None))


def test_interleaved_ledger_appends_keep_each_repositorys_order(tmp_path):
    store = CatalogueStore(tmp_path)
    repositories = {0: ["a", "b", "c"], 1: ["d", "e"]}

    def writer(worker: int) -> None:
        for attempt in range(40):
            for name in repositories[worker]:
                store.append("harvested", name, {"attempt": attempt})

    threads = [threading.Thread(target=writer, args=(w,)) for w in repositories]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close_all()
    lines = list(store.read("harvested", None))
    assert len(lines) == 40 * 5
    last: dict[str, int] = {}
    for line in lines:
        last[line["repository"]] = line["attempt"]
    # the last line of each repository is its last append
    assert last == dict.fromkeys("abcde", 39)
    for name in "abcde":
        assert [
            line["attempt"] for line in lines if line["repository"] == name
        ] == list(range(40))


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


def test_append_repairs_a_torn_line_longer_than_a_read_chunk(tmp_path):
    store = CatalogueStore(tmp_path)
    store.append("assessed", "r", {"n": 1})
    store.close_all()
    path = tmp_path / "catalogue" / "assessed" / "all.ndjson"
    # the repair reads back 4 KiB at a time to find where the line starts
    with open(path, "ab") as handle:
        handle.write(b'{"n": 2, "pad": "' + b"x" * 10_000)
    store.append("assessed", "r", {"n": 3})
    store.close_all()
    assert [r["n"] for r in store.read("assessed", None)] == [1, 3]
    assert path.read_bytes().count(b"\n") == 2


def test_discard_closes_and_deletes_a_file(tmp_path):
    store = CatalogueStore(tmp_path)
    store.append("raw", "r", {"n": 1})
    store.append("parsed", "r", {"n": 1})
    store.discard("raw", "r")  # its handle is open
    store.discard("parsed", None)
    store.discard("raw", "never-written")
    assert store.partitions("raw") == []
    assert not (tmp_path / "catalogue" / "parsed" / "all.ndjson").exists()
    # a later append starts a new file
    store.append("raw", "r", {"n": 2})
    store.close_all()
    assert [r["n"] for r in store.read("raw", "r")] == [2]


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


@pytest.mark.parametrize(
    "edit",
    ["extra top-level key", "step without detail", "step without status"],
)
def test_a_manifest_with_an_extra_or_a_missing_key_loads(tmp_path, edit):
    manifest = new_manifest("run-0009", {"timeout": 5.0})
    manifest.steps[2].status = STATUS_COMPLETE
    manifest.steps[2].detail = {"supported": 1}
    save_manifest(manifest, tmp_path)
    path = manifest_path(tmp_path)
    document = json.loads(path.read_text(encoding="utf-8"))
    if edit == "extra top-level key":
        document["comment"] = "not a field"
    elif edit == "step without detail":
        del document["steps"]["2"]["detail"]
        manifest.steps[2].detail = {}
    else:
        del document["steps"]["2"]["status"]
        manifest.steps[2].status = STATUS_PENDING
    path.write_text(json.dumps(document), encoding="utf-8")
    assert load_manifest(tmp_path) == manifest


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
