"""Step 5's per-host scheduling (``throttle.run_per_host``) on mock hosts."""

from __future__ import annotations

import socket
import socketserver
import sys
import threading
import time
from collections import defaultdict
from urllib.parse import quote, urlsplit

import pytest

from fairprobe import http, mockrdr, probe, throttle, wire
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
    """Wraps ``http.Sessions._send``, the exchange of every request: when
    each hop to each host started and when it was answered, the threads
    that wrote hops, the most hops one host had in flight at once, and the
    most hops in flight at once in all."""

    def __init__(self, monkeypatch) -> None:
        self.lock = threading.Lock()
        self.starts: dict[str, list[float]] = defaultdict(list)
        self.ends: dict[str, list[float]] = defaultdict(list)
        self.threads: set[threading.Thread] = set()
        self.in_flight: dict[str, int] = defaultdict(int)
        self.most = 0
        self.most_hosts = 0  # the most hosts with a hop in flight at once
        self.most_in_flight = 0
        self.busy_s = 0.0  # the hops' durations, summed
        original = http.Sessions._send

        def send(sessions, url, *args, **kwargs):
            host = urlsplit(url).netloc
            steps = original(sessions, url, *args, **kwargs)
            wait = next(steps)  # written, or its connection opening
            started = time.monotonic()
            with self.lock:
                self.starts[host].append(started)
                self.threads.add(threading.current_thread())
                self.in_flight[host] += 1
                self.most = max(self.most, self.in_flight[host])
                hosts = sum(1 for count in self.in_flight.values() if count)
                self.most_hosts = max(self.most_hosts, hosts)
                self.most_in_flight = max(self.most_in_flight, sum(self.in_flight.values()))
            try:
                while True:
                    wait = steps.send((yield wait))
            except StopIteration as done:
                return done.value
            finally:
                ended = time.monotonic()
                with self.lock:
                    self.in_flight[host] -= 1
                    self.busy_s += ended - started
                    self.ends[host].append(ended)

        monkeypatch.setattr(http.Sessions, "_send", send)


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
    # every hop is written on the step's own thread, at most four at once
    assert hops.threads == {threading.current_thread()}
    assert hops.most_in_flight <= 4
    if answer_after:
        # hosts that answer late have their hops in flight together
        assert hops.most_in_flight > 1
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
    assert hops.threads == {threading.current_thread()}
    assert hops.most_in_flight <= 8


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
    assert 1 < hops.most_in_flight <= 8
    assert hops.threads == {threading.current_thread()}
    # the first hop to each of the six slow hosts is written before any of
    # them is answered: no hop waits for another to stall
    resolver = urlsplit(hub.base_url).netloc
    slow = [host for host in hops.starts if host != resolver]
    assert len(slow) == 6
    first_answer = min(min(hops.ends[host]) for host in slow)
    assert max(min(hops.starts[host]) for host in slow) < first_answer
    # one hop after another would take the sum of the hops' durations
    assert took < 0.6 * hops.busy_s
    assert assessed_dois(run) == parsed_dois(run)


class TrickleHost(socketserver.ThreadingTCPServer):
    """A host that answers each request with ``head``, three bytes every
    quarter of a second, and then closes the connection."""

    daemon_threads = True

    def __init__(self, head: bytes):
        class Handler(socketserver.StreamRequestHandler):
            disable_nagle_algorithm = True

            def handle(self):
                while self.rfile.readline() not in (b"\r\n", b"\n", b""):
                    pass  # the request head
                try:
                    for start in range(0, len(head), 3):
                        time.sleep(0.25)
                        self.wfile.write(head[start : start + 3])
                except OSError:  # the client closed the connection
                    pass

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def trickle_host():
    server = TrickleHost(b"HTTP/1.1 404 \r\n\r\n")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_a_trickling_host_holds_up_no_other(
    serve_script, make_config, monkeypatch, trickle_host
):
    hub = serve_on_hosts(serve_script)
    # the last repository's first record: every probe after it fits in the
    # window beside it
    trickled = "10.22/hosts-5-0"
    hub.routes[trickled] = [mockrdr.RouteHop(302, location=trickle_host.url + "/x")]
    run = harvested(hub, make_config, workers_probe=4)
    hops = Hops(monkeypatch)
    probe_fast_switching(run)

    assert run.manifest.steps[5].detail["probed"] == 24
    slow = urlsplit(trickle_host.url).netloc
    assert len(hops.ends[slow]) == 1
    # the head takes 1.5 s to arrive, and meanwhile every other host's hops
    # are written and answered
    assert hops.ends[slow][0] - hops.starts[slow][0] >= 1.4
    others = [end for host, ends in hops.ends.items() if host != slow for end in ends]
    assert max(others) < hops.ends[slow][0]
    # the verdict is the one of a 404 that arrives at once
    entry = next(e for e in run.store.read("assessed", None) if e["doi"] == trickled)
    assert not entry["ret"]
    assert entry["probe_trace"]["reason"] == "non-200"
    assert [step["status"] for step in entry["probe_trace"]["steps"]] == [302, 404]
    assert assessed_dois(run) == parsed_dois(run)


class SilentHost(socketserver.ThreadingTCPServer):
    """A host that takes each connection and never sends a byte: a TLS
    handshake or a ``CONNECT`` sent to it waits out its timeout."""

    daemon_threads = True

    def __init__(self):
        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                try:
                    while self.request.recv(4096):
                        pass
                except OSError:
                    pass

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def silent_host():
    server = SilentHost()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.mark.parametrize("stall", ["handshake", "tunnel"])
def test_a_connection_that_does_not_open_holds_up_no_other(
    serve_script, make_config, monkeypatch, silent_host, stall
):
    hub = serve_on_hosts(serve_script)
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    if stall == "handshake":
        # the host never answers the TLS client hello
        target = silent_host.url.replace("http:", "https:")
    else:
        # the proxy never answers the CONNECT
        target = "https://repo.example"
        monkeypatch.setenv("HTTPS_PROXY", silent_host.url)
    trickled = "10.22/hosts-5-0"
    hub.routes[trickled] = [mockrdr.RouteHop(302, location=target + "/x")]
    run = harvested(hub, make_config, workers_probe=4, timeout=1.5)
    hops = Hops(monkeypatch)
    probe_fast_switching(run)

    assert run.manifest.steps[5].detail["probed"] == 24
    slow = urlsplit(target).netloc
    assert len(hops.ends[slow]) == 1
    # the connection takes the whole timeout not to open, and meanwhile
    # every other host's hops are written and answered
    assert hops.ends[slow][0] - hops.starts[slow][0] >= 1.4
    others = [end for host, ends in hops.ends.items() if host != slow for end in ends]
    assert max(others) < hops.ends[slow][0]
    entry = next(e for e in run.store.read("assessed", None) if e["doi"] == trickled)
    assert not entry["ret"]
    assert entry["probe_trace"]["reason"] == "timeout"
    assert [step["status"] for step in entry["probe_trace"]["steps"]] == [302, 0]
    assert assessed_dois(run) == parsed_dois(run)


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
    assert hops.most_in_flight <= 4
    assert assessed_dois(run) == parsed_dois(run)
    assert hops.threads == {threading.current_thread()}


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
    # one host takes one hop at a time
    assert hops.most_in_flight == 1
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


def answered_at_once(hop):
    """An exchange that answers None without waiting."""
    return None
    yield


def answered_after(seconds: float, sock: socket.socket):
    """An exchange that answers None once ``seconds`` have passed: it
    waits on ``sock``, on which nothing arrives, until its deadline."""
    deadline = time.monotonic() + seconds
    assert not (yield sock, wire.READ, deadline)
    assert time.monotonic() >= deadline
    return None


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
            return answered_after(0.3, quiet)
        return answered_at_once(hop)

    def write(index):
        # what is taken and not yet written never exceeds the window
        assert len(taken) - len(written) <= window
        if not written:
            # the jobs after job 0 ended while it ran, and were held back
            assert sorted(ended) == list(range(window))
        written.append(index)

    quiet, other_end = socket.socketpair()
    try:
        throttle.run_per_host(
            jobs(), send=send, host=lambda hop: hop[0], write=write,
            workers=workers, min_interval_ms=1.0,
        )
    finally:
        quiet.close()
        other_end.close()
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
            (job(index) for index in range(10)), send=answered_at_once,
            host=lambda hop: hop[0], write=write, workers=2, min_interval_ms=0.0,
        )
    assert written == [0, 1, 2]
