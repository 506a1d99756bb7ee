"""Run persistence: the append-only catalogue store and the run manifest.

The catalogue is newline-delimited JSON under ``{run_dir}/catalogue/{stage}/``.
``raw`` has one file per repository, one line per harvested ListRecords
page. ``parsed`` and ``assessed`` (one line per record) and ``harvested``
(one line each time step 3 finishes a repository) are ledgers: one file per
run, ``{stage}/all.ndjson``, whose every line names its ``repository``. A
file stays open while a step writes to it, and each append is one flushed
write, so after a crash only the final line can be damaged; readers drop a
final line without its newline and treat anything else unparseable as real
corruption. Steps 3 and 4 delete a file they left unfinished before they
write it again (``discard``). The manifest is a single JSON document,
replaced atomically when a step starts and when it ends.

The on-disk layout is versioned (``STORE_VERSION``, kept in the manifest);
the pipeline refuses a run directory of another version.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, Iterator
from urllib.parse import quote, unquote

logger = logging.getLogger(__name__)

STORE_VERSION = 5
STAGES = ("raw", "parsed", "assessed", "harvested")
LEDGERS = ("parsed", "assessed", "harvested")
LEDGER_FILE = "all.ndjson"

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
    """One catalogue file, a raw partition or a ledger: its writer lock and,
    while a step writes to it, its open append handle."""

    __slots__ = ("path", "lock", "handle")

    def __init__(self, path: Path):
        self.path = path
        self.lock = threading.Lock()
        self.handle: BinaryIO | None = None


class CatalogueStore:
    """Append-only ndjson files under {run_dir}/catalogue/{stage}/: one
    partition per repository for ``raw``, one ledger per run for each stage
    in ``LEDGERS``.

    A file is opened on its first append and stays open until ``close`` or
    ``close_all``, so a ledger is opened, and its tail checked, once per
    step. Each line is one write, flushed before ``append`` returns, so
    readers in this process see every line.
    """

    def __init__(self, run_dir: str | Path):
        self.root = Path(run_dir) / "catalogue"
        self._mutex = threading.Lock()
        # keyed by (stage, repository), the repository None for a ledger
        self._partitions: dict[tuple[str, str | None], _Partition] = {}

    def _path(self, stage: str, repository: str | None) -> Path:
        if stage not in STAGES:
            raise StoreError(f"unknown stage {stage!r}")
        if stage in LEDGERS:
            return self.root / stage / LEDGER_FILE
        if repository is None:
            raise StoreError(f"{stage} is kept per repository")
        return self.root / stage / (quote(repository, safe="") + ".ndjson")

    @staticmethod
    def _key(stage: str, repository: str | None) -> tuple[str, str | None]:
        return stage, None if stage in LEDGERS else repository

    def _partition(self, stage: str, repository: str | None) -> _Partition:
        key = self._key(stage, repository)
        with self._mutex:
            partition = self._partitions.get(key)
            if partition is None:
                partition = _Partition(self._path(stage, repository))
                self._partitions[key] = partition
            return partition

    def append(self, stage: str, repository: str, record: dict[str, Any]) -> None:
        """Append one line; a ledger line carries ``repository`` as a field."""
        if stage in LEDGERS and record.get("repository") != repository:
            record = {**record, "repository": repository}
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
        """Close one file's handle; a later append opens it again."""
        with self._mutex:
            partition = self._partitions.get(self._key(stage, repository))
        if partition is not None:
            self._close(partition)

    def discard(self, stage: str, repository: str | None) -> None:
        """Close one file's handle and delete the file, if there is one."""
        partition = self._partition(stage, repository)
        self._close(partition)
        partition.path.unlink(missing_ok=True)

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

    def read(self, stage: str, repository: str | None) -> Iterator[dict[str, Any]]:
        """Intact records in append order: a repository's records, or with
        ``repository`` None every line of a ledger, in one pass."""
        path = self._path(stage, repository)
        if stage in LEDGERS and repository is not None:
            for record in self._lines(path):
                if record["repository"] == repository:
                    yield record
        else:
            yield from self._lines(path)

    def _lines(self, path: Path) -> Iterator[dict[str, Any]]:
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
        """Repository ids having records at this stage, sorted."""
        if stage in LEDGERS:
            return sorted({record["repository"] for record in self.read(stage, None)})
        directory = self.root / stage
        if not directory.is_dir():
            return []
        return sorted(
            unquote(entry.name[: -len(".ndjson")])
            for entry in directory.iterdir()
            if entry.name.endswith(".ndjson")
        )


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
    config_snapshot: dict[str, Any] = field(default_factory=dict)
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
        **vars(manifest),
        "steps": {
            str(number): {"name": STEP_NAMES[number], **vars(state)}
            for number, state in sorted(manifest.steps.items())
        },
    }
    # compact: an indent would force the pure-Python encoder on every save
    replace_file(
        manifest_path(run_dir),
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
    )


def _fields_of(cls: type, data: dict[str, Any]) -> dict[str, Any]:
    """The entries of ``data`` that name a field of dataclass ``cls``."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in data.items() if key in names}


def load_manifest(run_dir: str | Path) -> RunManifest:
    path = manifest_path(run_dir)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise StoreError(f"{path} is not a fairprobe manifest: {exc}") from exc
    if not isinstance(document, dict) or not {"run_id", "created"} <= document.keys():
        raise StoreError(
            f"{path} is not a fairprobe manifest: it needs run_id and created"
        )
    listed = document.get("steps", {})
    if not isinstance(listed, dict) or not isinstance(
        document.get("config_snapshot", {}), dict
    ):
        raise StoreError(
            f"{path} is not a fairprobe manifest: steps and config_snapshot"
            " must be objects"
        )
    steps = {}
    for key, value in listed.items():
        if not (key.isdecimal() and isinstance(value, dict)):
            raise StoreError(
                f"{path} is not a fairprobe manifest: step {key!r} must be"
                " an object under a step number"
            )
        steps[int(key)] = StepState(**_fields_of(StepState, value))
    return RunManifest(**{**_fields_of(RunManifest, document), "steps": steps})


def replace_file(path: str | Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``: a reader, or a crash, sees the old file or the new one, never a
    half-written one."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + ".tmp")
    try:
        scratch.write_text(text, encoding="utf-8")
        os.replace(scratch, target)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


def write_ndjson(path: str | Path, records: list[dict[str, Any]]) -> None:
    """Replace a whole ndjson file (used for step outputs, not catalogues)."""
    replace_file(
        path, "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    )


def read_ndjson(path: str | Path) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
