"""Steps 1-3's per-endpoint scheduling (``throttle.run_per_host``) on mock
endpoints."""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import pytest

from fairprobe import http, mockrdr
from fairprobe.pipeline import PipelineRun
from fairprobe.store import CatalogueStore

DELAY_MS = 50.0


def landscape(
    sizes=(7, 5, 3, 9, 1, 6), **script
) -> mockrdr.ScenarioScript:
    """One repository per size, two records a page."""
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=f"ends-{i}",
                records=[
                    mockrdr.MockRecord(doi=f"10.23/ends-{i}-{j}") for j in range(size)
                ],
                page_size=2,
            )
            for i, size in enumerate(sizes)
        ],
        **script,
    )


class Gets:
    """Wraps ``http.Sessions._send``, the exchange of every request: when
    each request to each URL (without its query) started and when it
    was answered, the threads that wrote requests, and the most requests
    one URL, the most URLs, and the most requests in all had in flight at
    once."""

    def __init__(self, monkeypatch) -> None:
        self.lock = threading.Lock()
        self.starts: dict[str, list[float]] = defaultdict(list)
        self.ends: list[float] = []
        self.threads: set[threading.Thread] = set()
        self.in_flight: dict[str, int] = defaultdict(int)
        self.most = 0
        self.most_urls = 0
        self.most_in_flight = 0
        self.busy_s = 0.0  # the requests' durations, summed
        original = http.Sessions._send

        def send(sessions, url, *args, **kwargs):
            steps = original(sessions, url, *args, **kwargs)
            wait = next(steps)  # written, or its connection opening
            started = time.monotonic()
            with self.lock:
                self.starts[url].append(started)
                self.threads.add(threading.current_thread())
                self.in_flight[url] += 1
                self.most = max(self.most, self.in_flight[url])
                urls = sum(1 for count in self.in_flight.values() if count)
                self.most_urls = max(self.most_urls, urls)
                self.most_in_flight = max(self.most_in_flight, sum(self.in_flight.values()))
            try:
                while True:
                    wait = steps.send((yield wait))
            except StopIteration as done:
                return done.value
            finally:
                ended = time.monotonic()
                with self.lock:
                    self.in_flight[url] -= 1
                    self.busy_s += ended - started
                    self.ends.append(ended)

        monkeypatch.setattr(http.Sessions, "_send", send)

    def first_written(self, count: int) -> list[float]:
        return sorted(start for starts in self.starts.values() for start in starts)[:count]


def fast_switching(run: PipelineRun, step: int) -> float:
    """Run one step with threads switching as often as they can; returns
    how long it took."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    began = time.monotonic()
    try:
        run.run_step(step)
    finally:
        sys.setswitchinterval(interval)
    return time.monotonic() - began


def pipeline_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("fairprobe-")]


def harvested_at(monkeypatch) -> dict[str, float]:
    """When each repository's ``harvested`` line was appended."""
    at: dict[str, float] = {}
    append = CatalogueStore.append

    def timed(store, stage, repository, record):
        append(store, stage, repository, record)
        if stage == "harvested":
            at[repository] = time.monotonic()

    monkeypatch.setattr(CatalogueStore, "append", timed)
    return at


@pytest.mark.parametrize("delay", [0.0, 20.0])
def test_a_loopback_harvest_is_sent_on_the_steps_own_thread(
    serve_script, make_config, monkeypatch, delay
):
    hub = serve_script(landscape())
    run = PipelineRun(make_config(hub, workers_harvest=4, politeness_delay=delay))
    gets = Gets(monkeypatch)
    for step in (1, 2, 3):
        fast_switching(run, step)

    assert run.manifest.status(3) == "complete"
    # the registry list and six details, six formats requests, 18 pages
    assert sum(map(len, gets.starts.values())) == 1 + 6 + 6 + 18
    assert gets.threads == {threading.current_thread()}
    assert gets.most_in_flight <= 4


def test_an_endpoint_has_one_request_in_flight_and_its_starts_spaced(
    serve_script, make_config, monkeypatch
):
    hub = serve_script(landscape())
    run = PipelineRun(make_config(hub, workers_harvest=4, politeness_delay=DELAY_MS))
    fast_switching(run, 1)
    gets = Gets(monkeypatch)
    for step in (2, 3):
        fast_switching(run, step)

    assert run.manifest.status(3) == "complete"
    assert len(gets.starts) == 6
    assert gets.most == 1
    assert gets.most_in_flight <= 4
    for endpoint, starts in gets.starts.items():
        # the formats request, page 1 in pass 1, the rest in pass 2
        gaps = [later - earlier for earlier, later in zip(starts, starts[1:])]
        assert min(gaps) >= 0.9 * DELAY_MS / 1000.0, endpoint
    assert pipeline_threads() == []


def test_slow_endpoints_are_waited_for_at_once(serve_script, make_config, monkeypatch):
    hub = serve_script(landscape(response_delay=0.06))
    run = PipelineRun(make_config(hub, workers_harvest=4))
    for step in (1, 2):
        run.run_step(step)
    gets = Gets(monkeypatch)
    took = fast_switching(run, 3)

    assert run.manifest.status(3) == "complete"
    assert gets.most == 1
    assert gets.most_urls > 1
    assert 1 < gets.most_in_flight <= 4
    # the first four requests are written before any of them is answered:
    # no request waits for another to stall
    assert max(gets.first_written(4)) < min(gets.ends)
    assert gets.threads == {threading.current_thread()}
    # one request after another would take the sum of their durations
    assert took < 0.6 * gets.busy_s
    assert pipeline_threads() == []


def test_a_retry_after_holds_up_only_its_own_chain(
    serve_script, make_config, monkeypatch
):
    script = landscape()
    largest = script.repositories[3]
    largest.faults.append(mockrdr.Fault(kind="503", page=2, times=1, retry_after=1.0))
    hub = serve_script(script)
    run = PipelineRun(make_config(hub, workers_harvest=2))
    for step in (1, 2):
        run.run_step(step)
    at = harvested_at(monkeypatch)
    gets = Gets(monkeypatch)
    began = time.monotonic()
    fast_switching(run, 3)

    assert run.manifest.status(3) == "complete"
    assert run.manifest.steps[3].detail["repositories"][largest.name]["pages"] == 5
    # the other chains end while the largest one waits out its Retry-After
    assert at[largest.name] - began >= 1.0
    others = [at[repo.name] - began for repo in script.repositories if repo is not largest]
    assert max(others) < 0.5
    assert gets.most == 1
    assert gets.most_in_flight <= 2
    assert pipeline_threads() == []


@pytest.mark.parametrize("step", [1, 2, 3])
def test_no_thread_outlives_a_step_that_fails(
    serve_script, make_config, monkeypatch, step
):
    hub = serve_script(landscape(response_delay=0.06))
    run = PipelineRun(make_config(hub, workers_harvest=4))
    for earlier in range(1, step):
        run.run_step(earlier)
        assert pipeline_threads() == []
    lock = threading.Lock()
    made = {"sends": 0}
    send = http.Sessions._send

    def failing(sessions, *args, **kwargs):
        with lock:
            made["sends"] += 1
            fails = made["sends"] == 5
        if fails:
            raise RuntimeError("injected failure")
        return send(sessions, *args, **kwargs)

    monkeypatch.setattr(http.Sessions, "_send", failing)
    with pytest.raises(RuntimeError, match="injected failure"):
        fast_switching(run, step)
    assert pipeline_threads() == []

    # the step runs again to its end, and leaves no thread either
    monkeypatch.setattr(http.Sessions, "_send", send)
    fast_switching(run, step)
    assert run.manifest.status(step) == "complete"
    assert pipeline_threads() == []
