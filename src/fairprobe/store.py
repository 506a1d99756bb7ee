"""Run persistence: the append-only catalogue store and the run manifest.

Catalogue files are newline-delimited JSON, one file per (run, repository,
stage). A file stays open while a step writes to it, and each append is one
flushed write, so after a crash only the final line can be damaged; readers
drop a final line without its newline and treat anything else unparseable as
real corruption. The manifest is a single JSON document replaced atomically
on every update.

The on-disk layout is versioned so later tooling can detect old runs.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, Iterator
from urllib.parse import quote, unquote

logger = logging.getLogger(__name__)

STORE_VERSION = 1
STAGES = ("raw", "parsed", "assessed")

STATUS_PENDING = "pending"
STATUS_PARTIAL = "partial"
STATUS_COMPLETE = "complete"

STEP_NAMES = {
    1: "registry",
    2: "provider-selection",
    3: "harvest",
    4: "selection-assessment",
    5: "retrieval-probing",
}


class StoreError(Exception):
    pass


class StoreCorruptError(StoreError):
    """A catalogue line other than a truncated tail failed to parse."""


class _Partition:
    """One catalogue file: its writer lock and, while a step writes to it,
    its open append handle."""

    __slots__ = ("path", "lock", "handle")

    def __init__(self, path: Path):
        self.path = path
        self.lock = threading.Lock()
        self.handle: BinaryIO | None = None


class CatalogueStore:
    """Append-only ndjson partitions under {run_dir}/catalogue/{stage}/.

    A partition is opened on its first append and stays open until ``close``
    or ``close_all``. Each line is one write, flushed before ``append``
    returns, so readers in this process see every line.
    """

    def __init__(self, run_dir: str | Path):
        self.root = Path(run_dir) / "catalogue"
        self._mutex = threading.Lock()
        self._partitions: dict[tuple[str, str], _Partition] = {}

    def _path(self, stage: str, repository: str) -> Path:
        if stage not in STAGES:
            raise StoreError(f"unknown stage {stage!r}")
        return self.root / stage / (quote(repository, safe="") + ".ndjson")

    def _partition(self, stage: str, repository: str) -> _Partition:
        with self._mutex:
            partition = self._partitions.get((stage, repository))
            if partition is None:
                partition = _Partition(self._path(stage, repository))
                self._partitions[(stage, repository)] = partition
            return partition

    def append(self, stage: str, repository: str, record: dict[str, Any]) -> None:
        partition = self._partition(stage, repository)
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with partition.lock:
            handle = partition.handle
            if handle is None:
                partition.path.parent.mkdir(parents=True, exist_ok=True)
                self._truncate_partial_tail(partition.path)
                handle = partition.handle = open(partition.path, "ab")
            handle.write(line)
            handle.flush()

    def close(self, stage: str, repository: str) -> None:
        """Close one partition's handle; a later append opens it again."""
        with self._mutex:
            partition = self._partitions.get((stage, repository))
        if partition is not None:
            self._close(partition)

    def close_all(self) -> None:
        with self._mutex:
            partitions = list(self._partitions.values())
        for partition in partitions:
            self._close(partition)

    @staticmethod
    def _close(partition: _Partition) -> None:
        with partition.lock:
            if partition.handle is not None:
                partition.handle.close()
                partition.handle = None

    @staticmethod
    def _truncate_partial_tail(path: Path) -> None:
        """Cut a crash-truncated final line so new appends start clean."""
        if not path.exists():
            return
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            position = size
            while position > 0:
                step = min(4096, position)
                handle.seek(position - step)
                chunk = handle.read(step)
                cut = chunk.rfind(b"\n")
                if cut != -1:
                    logger.warning(
                        "%s: removing truncated final line before append", path
                    )
                    handle.truncate(position - step + cut + 1)
                    return
                position -= step
            logger.warning("%s: removing truncated only line before append", path)
            handle.truncate(0)

    def read(self, stage: str, repository: str) -> Iterator[dict[str, Any]]:
        """All intact records of one partition, in append order."""
        path = self._path(stage, repository)
        if not path.exists():
            return
        with open(path, "rb") as handle:
            pending: bytes | None = None
            terminated = False
            for raw in handle:
                if pending is not None:
                    yield self._decode(path, pending)
                pending = raw.rstrip(b"\n")
                terminated = raw.endswith(b"\n")
            if pending is None:
                return
            if not terminated:
                logger.warning(
                    "%s: dropping truncated final line (%d bytes)",
                    path,
                    len(pending),
                )
                return
            yield self._decode(path, pending)

    @staticmethod
    def _decode(path: Path, raw: bytes) -> dict[str, Any]:
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise StoreCorruptError(f"{path}: unreadable line: {exc}") from exc

    def partitions(self, stage: str) -> list[str]:
        """Repository ids having a partition at this stage, sorted."""
        directory = self.root / stage
        if not directory.is_dir():
            return []
        return sorted(
            unquote(entry.name[: -len(".ndjson")])
            for entry in directory.iterdir()
            if entry.name.endswith(".ndjson")
        )

    def count(self, stage: str, repository: str) -> int:
        return sum(1 for _ in self.read(stage, repository))


@dataclass
class StepState:
    status: str = STATUS_PENDING
    started: str | None = None
    finished: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class RunManifest:
    run_id: str
    created: str
    config_snapshot: dict[str, Any]
    store_version: int = STORE_VERSION
    steps: dict[int, StepState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for number in STEP_NAMES:
            self.steps.setdefault(number, StepState())

    def status(self, step: int) -> str:
        return self.steps[step].status


def now_iso() -> str:
    """The current UTC time to the second, with its offset."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def new_manifest(run_id: str, config_snapshot: dict[str, Any]) -> RunManifest:
    return RunManifest(
        run_id=run_id, created=now_iso(), config_snapshot=dict(config_snapshot)
    )


def manifest_path(run_dir: str | Path) -> Path:
    return Path(run_dir) / "manifest.json"


def save_manifest(manifest: RunManifest, run_dir: str | Path) -> None:
    document = {
        "run_id": manifest.run_id,
        "created": manifest.created,
        "store_version": manifest.store_version,
        "config_snapshot": manifest.config_snapshot,
        "steps": {
            str(number): {
                "name": STEP_NAMES[number],
                "status": state.status,
                "started": state.started,
                "finished": state.finished,
                "detail": state.detail,
            }
            for number, state in sorted(manifest.steps.items())
        },
    }
    path = manifest_path(run_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(".json.tmp")
    # compact: an indent would force the pure-Python encoder on every save
    scratch.write_text(
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    os.replace(scratch, path)


def load_manifest(run_dir: str | Path) -> RunManifest:
    document = json.loads(manifest_path(run_dir).read_text(encoding="utf-8"))
    manifest = RunManifest(
        run_id=document["run_id"],
        created=document["created"],
        config_snapshot=document.get("config_snapshot", {}),
        store_version=document.get("store_version", STORE_VERSION),
    )
    for key, value in document.get("steps", {}).items():
        manifest.steps[int(key)] = StepState(
            status=value.get("status", STATUS_PENDING),
            started=value.get("started"),
            finished=value.get("finished"),
            detail=value.get("detail", {}),
        )
    return manifest


def write_ndjson(path: str | Path, records: list[dict[str, Any]]) -> None:
    """Replace a whole ndjson file (used for step outputs, not catalogues)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_suffix(target.suffix + ".tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(scratch, target)


def read_ndjson(path: str | Path) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
