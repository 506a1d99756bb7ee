"""Step 5's per-host scheduling (``throttle.run_per_host``) on mock hosts."""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from urllib.parse import quote, urlsplit

import pytest

from fairprobe import http, mockrdr, probe, throttle
from fairprobe.pipeline import PipelineRun

STYLES = ("client", "redirect", "link", "landing")
DELAY_MS = 20.0


def landscape() -> mockrdr.ScenarioScript:
    """Six repositories of four image records in four retrieval styles."""
    return mockrdr.ScenarioScript(
        repositories=[
            mockrdr.MockRepository(
                name=f"hosts-{i}",
                records=[
                    mockrdr.MockRecord(
                        doi=f"10.22/hosts-{i}-{j}", retrieval=STYLES[(i + j) % 4]
                    )
                    for j in range(4)
                ],
                page_size=2,
            )
            for i in range(6)
        ]
    )


def serve_on_hosts(
    serve_script, hosts: int = 3, answer_after: float = 0.0
) -> mockrdr.MockHandle:
    """The landscape, its DOIs sent on by the resolver with one 302 to one of
    ``hosts`` further hosts, repository by repository; each host serves
    the rest of the chain and the Link targets, as a repository does, and
    answers each request ``answer_after`` seconds late."""
    script = landscape()
    hub = serve_script(script)
    targets = [
        serve_script(mockrdr.ScenarioScript(response_delay=answer_after))
        for _ in range(hosts)
    ]
    for index, repo in enumerate(script.repositories):
        target = targets[index % hosts]
        target.blobs = hub.blobs
        for record in repo.records:
            target.routes[record.doi] = hub.routes[record.doi]
            hub.routes[record.doi] = [
                mockrdr.RouteHop(
                    302, location=f"{target.base_url}/resolve/{quote(record.doi)}"
                )
            ]
    return hub


class Hops:
    """Wraps ``http.Sessions.hop``: when each hop to each host started, the
    threads that sent hops, and the most hops one host had in flight at
    once."""

    def __init__(self, monkeypatch) -> None:
        self.lock = threading.Lock()
        self.starts: dict[str, list[float]] = defaultdict(list)
        self.threads: set[threading.Thread] = set()
        self.in_flight: dict[str, int] = defaultdict(int)
        self.most = 0
        self.most_hosts = 0  # the most hosts with a hop in flight at once
        self.busy_s = 0.0  # the hops' durations, summed
        original = http.Sessions.hop

        def hop(sessions, url, *args, **kwargs):
            host = urlsplit(url).netloc
            started = time.monotonic()
            with self.lock:
                self.starts[host].append(started)
                self.threads.add(threading.current_thread())
                self.in_flight[host] += 1
                self.most = max(self.most, self.in_flight[host])
                hosts = sum(1 for count in self.in_flight.values() if count)
                self.most_hosts = max(self.most_hosts, hosts)
            try:
                return original(sessions, url, *args, **kwargs)
            finally:
                with self.lock:
                    self.in_flight[host] -= 1
                    self.busy_s += time.monotonic() - started

        monkeypatch.setattr(http.Sessions, "hop", hop)


def harvested(hub, make_config, **settings) -> PipelineRun:
    run = PipelineRun(make_config(hub, **settings))
    for step in (1, 2, 3, 4):
        run.run_step(step)
    return run


def probe_fast_switching(run: PipelineRun) -> None:
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run.run_step(5)
    finally:
        sys.setswitchinterval(interval)


def assessed_dois(run: PipelineRun) -> list[str]:
    return [entry["doi"] for entry in run.store.read("assessed", None)]


def parsed_dois(run: PipelineRun) -> list[str]:
    return [entry["doi"] for entry in run.store.read("parsed", None)]


def outliving(threads: set[threading.Thread]) -> list[threading.Thread]:
    return [t for t in threads if t.is_alive() and t is not threading.current_thread()]


@pytest.mark.parametrize("answer_after", [0.0, 3 * DELAY_MS / 1000.0])
def test_a_host_has_one_hop_in_flight_and_its_starts_spaced(
    serve_script, make_config, monkeypatch, answer_after
):
    hub = serve_on_hosts(serve_script, answer_after=answer_after)
    run = harvested(hub, make_config, workers_probe=4, per_host_delay=DELAY_MS)
    hops = Hops(monkeypatch)
    probe_fast_switching(run)

    assert run.manifest.steps[5].detail == {"probed": 24, "retrievable": 18}
    assert len(hops.starts) == 4  # the resolver and three repository hosts
    assert hops.most == 1
    for starts in hops.starts.values():
        gaps = [later - earlier for earlier, later in zip(starts, starts[1:])]
        assert min(gaps) >= 0.9 * DELAY_MS / 1000.0
    if answer_after:
        # hosts slower than SLOW_HOP_S bring in more workers
        assert 1 < len(hops.threads) <= 4
    else:
        # the step's own thread is back before each host's spacing ends
        assert hops.threads == {threading.current_thread()}
    assert outliving(hops.threads) == []
    assert assessed_dois(run) == parsed_dois(run)


def test_a_slow_repository_host_leaves_the_resolver_at_its_spacing(
    serve_script, make_config, monkeypatch
):
    # every repository host answers three times slower than the spacing: a
    # worker that waits for one must not hold back the next probe
    hub = serve_on_hosts(serve_script, hosts=6, answer_after=3 * DELAY_MS / 1000.0)
    run = harvested(hub, make_config, workers_probe=8, per_host_delay=DELAY_MS)
    hops = Hops(monkeypatch)
    probe_fast_switching(run)

    assert run.manifest.steps[5].detail == {"probed": 24, "retrievable": 18}
    assert hops.most == 1
    resolver = hops.starts[urlsplit(hub.base_url).netloc]
    gaps = sorted(later - earlier for earlier, later in zip(resolver, resolver[1:]))
    assert len(resolver) == 24
    assert gaps[0] >= 0.9 * DELAY_MS / 1000.0
    # one probe after another would space them by a repository's chain
    assert gaps[len(gaps) // 2] < 2 * DELAY_MS / 1000.0
    assert assessed_dois(run) == parsed_dois(run)
    assert outliving(hops.threads) == []


def test_slow_hosts_are_waited_for_at_once_without_spacing(
    serve_script, make_config, monkeypatch
):
    hub = serve_on_hosts(serve_script, hosts=6, answer_after=0.06)
    run = harvested(hub, make_config, workers_probe=8, per_host_delay=0.0)
    hops = Hops(monkeypatch)
    began = time.monotonic()
    probe_fast_switching(run)
    took = time.monotonic() - began

    assert run.manifest.steps[5].detail == {"probed": 24, "retrievable": 18}
    assert hops.most == 1
    assert hops.most_hosts > 1
    assert 1 < len(hops.threads) <= 8
    # one hop after another would take the sum of the hops' durations
    assert took < 0.6 * hops.busy_s
    assert assessed_dois(run) == parsed_dois(run)
    assert outliving(hops.threads) == []


@pytest.mark.parametrize("delay", [0.0, DELAY_MS])
def test_assessed_follows_parsed_across_hosts(
    serve_script, make_config, monkeypatch, delay
):
    hub = serve_on_hosts(serve_script)
    run = harvested(hub, make_config, workers_probe=4, per_host_delay=delay)
    hops = Hops(monkeypatch)
    probe_fast_switching(run)

    assert run.manifest.steps[5].detail == {"probed": 24, "retrievable": 18}
    assert hops.most == 1
    assert assessed_dois(run) == parsed_dois(run)
    assert outliving(hops.threads) == []


@pytest.mark.parametrize("delay", [0.0, DELAY_MS])
def test_one_host_is_probed_on_the_steps_own_thread(
    serve_script, make_config, monkeypatch, delay
):
    hub = serve_script(landscape())
    run = harvested(hub, make_config, workers_probe=4, per_host_delay=delay)
    hops = Hops(monkeypatch)
    probe_fast_switching(run)

    assert run.manifest.steps[5].detail == {"probed": 24, "retrievable": 18}
    assert sum(len(starts) for starts in hops.starts.values()) == 24 + 6 * 2 + 6
    assert hops.threads == {threading.current_thread()}
    assert assessed_dois(run) == parsed_dois(run)


@pytest.mark.parametrize("delay", [0.0, DELAY_MS])
@pytest.mark.parametrize("fails_on", [1, 7, 13])
def test_a_failed_probe_stops_taking_probes_and_leaves_a_prefix(
    serve_script, make_config, monkeypatch, fails_on, delay
):
    hub = serve_on_hosts(serve_script)
    run = harvested(hub, make_config, workers_probe=4, per_host_delay=delay)
    hops = Hops(monkeypatch)
    lock = threading.Lock()
    started = []
    original = probe.hops

    def failing(record, config):
        with lock:
            started.append(record.doi)
            if len(started) == fails_on:
                raise RuntimeError("injected failure")
        return original(record, config)

    monkeypatch.setattr(probe, "hops", failing)
    with pytest.raises(RuntimeError, match="injected failure"):
        probe_fast_switching(run)

    # no probe is started once the failure is seen, save those that workers
    # had taken already; every probe before the failed one is written
    assert len(started) <= fails_on + 4
    written = assessed_dois(run)
    assert written == parsed_dois(run)[: len(written)]
    assert fails_on - 4 <= len(written) < fails_on
    assert outliving(hops.threads) == []
    assert [t for t in threading.enumerate() if t.name.startswith("fairprobe-")] == []

    # a resumed step probes the rest, after the prefix
    monkeypatch.setattr(probe, "hops", original)
    run.run_step(5)
    assert assessed_dois(run) == parsed_dois(run)


def test_a_slow_first_job_holds_back_at_most_the_window():
    workers = 3
    window = throttle.WINDOW_PER_WORKER * workers
    taken, ended, written = [], [], []

    def job(index: int):
        # every job waits for the spacing of the shared host; the last hop
        # of job 0 is slow, and later jobs end meanwhile
        yield "shared", index
        yield "shared", index
        yield f"own-{index}", index
        ended.append(index)
        return index

    def jobs():
        for index in range(40):
            taken.append(index)
            yield job(index)

    def send(hop):
        if hop == ("own-0", 0):
            time.sleep(0.3)

    def write(index):
        # what is taken and not yet written never exceeds the window
        assert len(taken) - len(written) <= window
        if not written:
            # the jobs after job 0 ended while it ran, and were held back
            assert sorted(ended) == list(range(window))
        written.append(index)

    throttle.run_per_host(
        jobs(), send=send, host=lambda hop: hop[0], write=write,
        workers=workers, min_interval_ms=1.0,
    )
    assert written == list(range(40))


def test_a_failed_write_stops_the_writes_and_is_raised():
    def job(index: int):
        yield "host", index
        return index

    written = []

    def write(index):
        if index == 3:
            raise OSError("disk full")
        written.append(index)

    with pytest.raises(OSError, match="disk full"):
        throttle.run_per_host(
            (job(index) for index in range(10)), send=lambda hop: None,
            host=lambda hop: hop[0], write=write, workers=2, min_interval_ms=0.0,
        )
    assert written == [0, 1, 2]
