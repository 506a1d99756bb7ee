"""Spans and counts around the layer entry points that the pipeline calls.

Nothing is traced inside the program: ``Tracer.install`` replaces the module
and class attributes that ``fairprobe.pipeline`` calls through with wrappers
that record a span per call. A span has a name, start, end, thread and
parent. The parent is the innermost open span of the same thread, or the
current step span for pool threads that have none open. Spans are kept in
memory; ``layer_metrics`` turns them into the per-layer metrics when the run
has ended.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import requests
import urllib3.connection

from fairprobe import assessor, datacite, oaipmh, pipeline, probe, registry
from fairprobe.store import CatalogueStore, manifest_path
from fairprobe.throttle import HostGate


class Span:
    __slots__ = ("id", "name", "start", "end", "thread", "parent", "mark", "error")

    def __init__(self, span_id: int, name: str, start: float, thread: int,
                 parent: int | None):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.mark = start  # throttle slots: when the gate let the caller in
        self.error = False

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.step_span: int | None = None
        self.counts: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.step_span
        record = Span(next(self._ids), name, time.perf_counter(),
                      threading.get_ident(), parent)
        stack.append(record.id)
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """A pipeline stage; pool-thread spans without an open span of
        their own take it as parent."""
        with self.span(f"pipeline.{name}") as record:
            self.step_span = record.id
            try:
                yield
            finally:
                self.step_span = None

    def add(self, name: str, count: int = 1, seconds: float = 0.0) -> None:
        with self._lock:
            self.counts[name] += count
            self.seconds[name] += seconds

    def _wrap(self, owner: Any, attr: str, name: str,
              after: Callable[..., None] | None = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer entry point for the rest of this process."""
        wrap = self._wrap
        wrap(registry, "fetch_repository_list", "registry.fetch",
             lambda repos, *a: self.add("registry.repositories", len(repos)))
        wrap(oaipmh, "list_metadata_formats", "oaipmh.formats")
        wrap(oaipmh, "estimate_list_size", "oaipmh.estimate")
        wrap(oaipmh, "harvest_records", "oaipmh.harvest", self._after_harvest)
        wrap(datacite, "parse_record", "datacite.parse")
        wrap(datacite, "is_of_interest", "datacite.interest",
             lambda interesting, *a: self.add("datacite.of_interest", int(interesting)))
        wrap(datacite, "record_to_dict", "datacite.to_dict")
        wrap(datacite, "record_from_dict", "datacite.from_dict")
        wrap(assessor, "assess", "assessor.assess")
        wrap(CatalogueStore, "append", "store.append")
        wrap(pipeline, "save_manifest", "store.manifest_save",
             lambda _, manifest, run_dir: self.add(
                 "store.manifest_bytes", os.stat(manifest_path(run_dir)).st_size))
        wrap(pipeline, "write_report", "report.write")
        wrap(pipeline.PipelineRun, "build_report", "report.build")
        wrap(probe, "f_ret", "probe.f_ret", self._after_probe)
        wrap(requests.Session, "request", "http.request")
        self._wrap_read()
        self._wrap_slot()
        self._wrap_connect()

    def _after_harvest(self, summary: oaipmh.HarvestSummary, *args: Any) -> None:
        self.add("oaipmh.pages", summary.pages)
        self.add("oaipmh.records", summary.records)

    def _after_probe(self, result: tuple[bool, probe.ProbeTrace], *args: Any) -> None:
        retrievable, trace = result
        self.add("probe.requests", len(trace.steps))
        self.add("probe.retrievable", int(retrievable))
        if any(step.request_accept != "image/*" for step in trace.steps):
            self.add("probe.link_fallbacks")

    def _wrap_read(self) -> None:
        original = CatalogueStore.read

        @functools.wraps(original)
        def read(store: CatalogueStore, stage: str, repository: str) -> Iterator[dict]:
            # time spent producing lines only, not the caller's work between them
            lines = 0
            busy = 0.0
            source = original(store, stage, repository)
            try:
                while True:
                    started = time.perf_counter()
                    try:
                        entry = next(source)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - started
                    lines += 1
                    yield entry
            finally:
                source.close()
                self.add("store.read", lines, busy)

        CatalogueStore.read = read

    def _wrap_slot(self) -> None:
        original = HostGate.slot

        @functools.wraps(original)
        @contextmanager
        def slot(gate: HostGate, host: str) -> Iterator[None]:
            self.add("throttle.key:" + host)
            with self.span("throttle.slot") as record:
                with original(gate, host):
                    record.mark = time.perf_counter()
                    yield

        HostGate.slot = slot

    def _wrap_connect(self) -> None:
        original = urllib3.connection.HTTPConnection.connect

        @functools.wraps(original)
        def connect(conn: Any) -> None:
            self.add("http.connects")
            original(conn)

        urllib3.connection.HTTPConnection.connect = connect


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    own: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        own[span.id] = span.end - span.start - covered
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, run_dir: Path, steps: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run; ``steps`` holds the pipeline ones."""
    calls: Counter[str] = Counter()
    busy: Counter[str] = Counter()
    own_total: Counter[str] = Counter()
    own = self_times(tracer.spans)
    wait = hold = 0.0
    errors = 0
    for span in tracer.spans:
        calls[span.name] += 1
        busy[span.name] += span.end - span.start
        own_total[span.name] += own[span.id]
        if span.name == "throttle.slot":
            wait += span.mark - span.start
            hold += span.end - span.mark
        elif span.name == "http.request" and span.error:
            errors += 1
    counts, seconds = tracer.counts, tracer.seconds
    keys = {k: v for k, v in counts.items() if k.startswith("throttle.key:")}
    catalogue = sum(
        path.stat().st_size for path in (run_dir / "catalogue").glob("*/*.ndjson")
    )
    metrics = dict(steps)
    metrics.update({
        "registry.fetch_s": busy["registry.fetch"],
        "registry.repositories": counts["registry.repositories"],
        "oaipmh.harvest_s": own_total["oaipmh.harvest"],
        "oaipmh.pages": counts["oaipmh.pages"],
        "oaipmh.records": counts["oaipmh.records"],
        "oaipmh.pages_per_s": _ratio(counts["oaipmh.pages"], steps["pipeline.step3_s"]),
        "oaipmh.formats_calls": calls["oaipmh.formats"],
        "oaipmh.formats_s": busy["oaipmh.formats"],
        "oaipmh.estimate_calls": calls["oaipmh.estimate"],
        "oaipmh.estimate_s": busy["oaipmh.estimate"],
        "datacite.parse_calls": calls["datacite.parse"],
        "datacite.parse_s": busy["datacite.parse"],
        "datacite.parse_per_s": _ratio(calls["datacite.parse"], busy["datacite.parse"]),
        "datacite.interest_share": _ratio(
            counts["datacite.of_interest"], calls["datacite.interest"]),
        "datacite.to_dict_s": busy["datacite.to_dict"],
        "datacite.from_dict_s": busy["datacite.from_dict"],
        "assessor.assess_calls": calls["assessor.assess"],
        "assessor.assess_s": busy["assessor.assess"],
        "store.appends": calls["store.append"],
        "store.append_s": busy["store.append"],
        "store.append_per_s": _ratio(calls["store.append"], busy["store.append"]),
        "store.append_bytes": catalogue,
        "store.manifest_saves": calls["store.manifest_save"],
        "store.manifest_save_s": busy["store.manifest_save"],
        "store.manifest_bytes": counts["store.manifest_bytes"],
        "store.read_lines": counts["store.read"],
        "store.read_s": seconds["store.read"],
        "probe.probes": calls["probe.f_ret"],
        "probe.busy_s": busy["probe.f_ret"],
        "probe.probes_per_s": _ratio(calls["probe.f_ret"], steps["pipeline.step5_s"]),
        "probe.link_fallbacks": counts["probe.link_fallbacks"],
        "probe.retrievable_share": _ratio(counts["probe.retrievable"], calls["probe.f_ret"]),
        "probe.requests": counts["probe.requests"],
        "probe.requests_per_probe": _ratio(counts["probe.requests"], calls["probe.f_ret"]),
        "throttle.slots": calls["throttle.slot"],
        "throttle.wait_s": wait,
        "throttle.hold_s": hold,
        "throttle.keys": len(keys),
        "throttle.busiest_share": _ratio(max(keys.values(), default=0), sum(keys.values())),
        "http.requests": calls["http.request"],
        "http.busy_s": busy["http.request"],
        "http.connects": counts["http.connects"],
        "http.requests_per_connect": _ratio(calls["http.request"], counts["http.connects"]),
        "http.errors": errors,
        "report.build_s": busy["report.build"],
        "report.write_s": busy["report.write"],
    })
    return metrics
