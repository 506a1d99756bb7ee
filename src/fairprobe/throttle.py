"""Per-host politeness: at most one request in flight per host, and request
starts to one host at least a minimum interval apart.

Every request of a run's steps 1-3 and 5 belongs to a job written as a
generator of requests: a registry detail, a ListMetadataFormats request, a
ListRecords chain or a probe. ``run_per_host`` keeps politeness for the
pipeline by scheduling such jobs on the calling thread: it starts the
request of every free host, up to ``workers`` requests in flight, and waits
on all their sockets at once (``wire.Exchange``).

``HostGate`` keeps it with a lock per host for library callers whose
threads share one gate: ``run_alone`` runs one job through
``run_per_host`` with each request in its host's ``HostGate.slot``, as
``oaipmh.harvest_records``, ``oaipmh.list_metadata_formats`` and
``probe.f_ret`` do.
"""

from __future__ import annotations

import select
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Generator, Generic, Iterator, NamedTuple, TypeVar

from . import wire

Hop = TypeVar("Hop")
Answer = TypeVar("Answer")
Result = TypeVar("Result")

# jobs taken and not yet written, per request that may be in flight: a job
# whose result waits for an earlier one holds that result until then
WINDOW_PER_WORKER = 4


class NotBefore(NamedTuple):
    """What a job yields in place of ``hop`` when that hop must not start
    before ``when`` (``time.monotonic``), as after a ``Retry-After``: its
    host takes no request before then."""

    hop: object
    when: float


def _sleep_until(when: float) -> None:
    wait = when - time.monotonic()
    if wait > 0:
        time.sleep(wait)


class HostGate:
    """Allows at most one in-flight request per host and keeps consecutive
    request starts to the same host at least ``min_interval_ms`` apart.

    The gate is shared by all threads talking to the same set of hosts; a
    thread enters ``slot(host)`` around each request it issues, as
    ``run_alone`` does. The pipeline's steps use ``run_per_host`` instead,
    which keeps the same rules on one thread.
    """

    def __init__(self, min_interval_ms: float = 0.0):
        self.min_interval = max(min_interval_ms, 0.0) / 1000.0
        self._mutex = threading.Lock()
        self._locks: dict[str, threading.Lock] = {}
        self._last_start: dict[str, float] = {}

    def _lock_for(self, host: str) -> threading.Lock:
        with self._mutex:
            lock = self._locks.get(host)
            if lock is None:
                lock = threading.Lock()
                self._locks[host] = lock
            return lock

    @contextmanager
    def slot(self, host: str):
        lock = self._lock_for(host)
        with lock:
            if self.min_interval > 0:
                last = self._last_start.get(host)
                if last is not None:
                    _sleep_until(last + self.min_interval)
            self._last_start[host] = time.monotonic()
            yield


def run_alone(
    job: Generator[Hop, Answer, Result],
    *,
    send: Callable[[Hop], wire.Exchange[Answer]],
    host: Callable[[Hop], str],
    gate: HostGate,
) -> Result:
    """One job of ``run_per_host``'s kind run to its end by ``run_per_host``
    on the calling thread, each request in its host's ``gate.slot``, so
    that threads that share ``gate`` keep its politeness between them."""

    def in_slot(hop: Hop) -> wire.Exchange[Answer]:
        with gate.slot(host(hop)):
            return (yield from send(hop))

    results: list[Result] = []
    run_per_host(
        iter([job]), send=in_slot, host=host, write=results.append,
        workers=1, min_interval_ms=0.0,
    )
    return results[0]


class _Job:
    __slots__ = ("index", "steps", "done", "result")

    def __init__(self, index: int, steps: Generator) -> None:
        self.index = index  # place in the order of ``jobs``
        self.steps = steps
        self.done = False
        self.result = None


class _Flight:
    """A hop whose request is in flight: its exchange, what it waits for on
    its socket (``wire.READ`` or ``wire.WRITE``), and until when."""

    __slots__ = ("job", "host", "exchange", "events", "deadline")

    def __init__(self, job: _Job, host: str, exchange: wire.Exchange) -> None:
        self.job = job
        self.host = host
        self.exchange = exchange
        self.events = 0
        self.deadline = 0.0


class _Frontier(Generic[Hop, Answer, Result]):
    """``run_per_host``'s state: the jobs under way, the hops waiting for
    their hosts, and the requests in flight."""

    def __init__(
        self,
        jobs: Iterator[Generator[Hop, Answer, Result]],
        send: Callable[[Hop], wire.Exchange[Answer]],
        host: Callable[[Hop], str],
        write: Callable[[Result], None],
        workers: int,
        min_interval_ms: float,
        due: dict[str, float] | None,
    ) -> None:
        self.jobs = jobs
        self.send = send
        self.host = host
        self.write = write
        self.workers = max(workers, 1)
        self.interval = max(min_interval_ms, 0.0) / 1000.0
        self.window: deque[_Job] = deque()  # taken and unwritten, in order
        self.taken = 0
        self.more = True  # whether ``jobs`` may hold more
        # hops that wait for their host, oldest first; no empty queue is kept
        self.queues: dict[str, deque[tuple[_Job, Hop]]] = {}
        self.flying: dict[int, _Flight] = {}  # by their socket's descriptor
        self.busy: set[str] = set()  # the hosts of ``flying``
        self.poller = select.poll()  # the sockets of ``flying``
        # when each host's next start may be; may outlive this call
        self.due: dict[str, float] = {} if due is None else due
        self.failure: BaseException | None = None
        self.failed_at = sys.maxsize  # jobs from this index on are dropped

    def run(self) -> None:
        try:
            while True:
                wake = self.start()
                if self.flying:
                    self.wait(wake)
                elif wake is None:
                    break
                else:
                    _sleep_until(wake)
        finally:
            for flight in self.flying.values():
                flight.exchange.close()
        if self.failure is not None:
            raise self.failure

    def start(self) -> float | None:
        """Write the request of the oldest hop of each free host, taking
        jobs while no host is free, up to ``workers`` requests in flight.
        Returns when the spacing of the first host with a hop waiting ends,
        or None when none waits or no request may start."""
        queues, busy, due = self.queues, self.busy, self.due
        while len(self.flying) < self.workers:
            now = time.monotonic()
            wake = None
            for name, queue in queues.items():
                if name in busy:
                    continue
                at = due.get(name, 0.0)
                if at <= now:
                    job, hop = queue.popleft()
                    if not queue:
                        del queues[name]
                    self.launch(job, hop, name)
                    break
                if wake is None or at < wake:
                    wake = at
            else:
                if not self.take():
                    return wake
        return None

    def take(self) -> bool:
        """Take the next job and run it to its first hop; False when none
        may be taken now."""
        if (
            not self.more
            or self.failure is not None
            or len(self.window) >= WINDOW_PER_WORKER * self.workers
        ):
            return False
        try:
            steps = next(self.jobs)
        except StopIteration:
            self.more = False
            return False
        except Exception as exc:
            self.fail(exc, self.taken)
            return False
        job = _Job(self.taken, steps)
        self.taken += 1
        self.window.append(job)
        self.advance(job, None)
        return True

    def launch(self, job: _Job, hop: Hop, name: str) -> None:
        """Start a hop's request, writing it or opening its connection, and
        date its host's next start from then."""
        answered = failed = None
        try:
            exchange = self.send(hop)
            wait = next(exchange)
        except StopIteration as done:  # answered without waiting
            answered = done
        except Exception as exc:
            failed = exc
        finally:
            # before the job goes on, which may put off this host further
            self.due[name] = time.monotonic() + self.interval
        if answered is not None:
            self.advance(job, answered.value)
        elif failed is not None:
            self.fail(failed, job.index)
        else:
            self.busy.add(name)
            self.hold(_Flight(job, name, exchange), wait)

    def hold(self, flight: _Flight, wait: wire.Wait) -> None:
        sock, flight.events, flight.deadline = wait
        fd = sock.fileno()
        self.flying[fd] = flight
        self.poller.register(fd, flight.events)

    def wait(self, wake: float | None) -> None:
        """Wait in one poll for the first socket to become ready, the first
        deadline, or ``wake``; send each exchange what it waited for."""
        until = min(flight.deadline for flight in self.flying.values())
        timeout = until if wake is None or until < wake else wake
        for fd, _ in self.poller.poll(wire.wait_ms(timeout)):
            self.resume(fd, True)
        now = time.monotonic()
        if now >= until:
            for fd in [fd for fd, flight in self.flying.items() if flight.deadline <= now]:
                self.resume(fd, False)

    def resume(self, fd: int, ready: bool) -> None:
        """Send an exchange whether its socket became ready; keep waiting on
        what it yields next, or answer its job when it returned."""
        flight = self.flying[fd]
        try:
            wait = flight.exchange.send(ready)
        except StopIteration as done:
            self.land(fd, flight)
            self.advance(flight.job, done.value)
        except Exception as exc:
            self.land(fd, flight)
            self.fail(exc, flight.job.index)
        else:
            sock, events, flight.deadline = wait
            if sock.fileno() != fd:  # a redirect or a new connection
                del self.flying[fd]
                self.poller.unregister(fd)
                self.hold(flight, wait)
            elif events != flight.events:  # a connection opened, now written
                flight.events = events
                self.poller.modify(fd, events)

    def land(self, fd: int, flight: _Flight) -> None:
        del self.flying[fd]
        self.poller.unregister(fd)
        self.busy.discard(flight.host)

    def advance(self, job: _Job, answer: Answer | None) -> None:
        """Send ``answer`` into a job: queue the hop it yields next, unless
        the job is dropped, or write or fail it when it returns or raises."""
        try:
            hop = job.steps.send(answer)
            if type(hop) is NotBefore:
                name = self.host(hop.hop)
                self.due[name] = max(self.due.get(name, 0.0), hop.when)
                hop = hop.hop
            else:
                name = self.host(hop)
        except StopIteration as done:
            self.end(job, done.value)
            return
        except Exception as exc:
            self.fail(exc, job.index)
            return
        if job.index < self.failed_at:
            self.queues.setdefault(name, deque()).append((job, hop))

    def end(self, job: _Job, result: Result) -> None:
        """Write the results that wait for no earlier job, in order."""
        job.done, job.result = True, result
        window = self.window
        while window and window[0].done and window[0].index < self.failed_at:
            first = window.popleft()
            try:
                self.write(first.result)
            except BaseException as exc:
                self.fail(exc, first.index)
            first.result = None

    def fail(self, exc: BaseException, index: int) -> None:
        """Stop taking jobs, and drop the jobs from ``index`` on; the first
        failure is the one raised."""
        if self.failure is None:
            self.failure = exc
        if index < self.failed_at:
            self.failed_at = index
            for name in list(self.queues):
                kept = deque(hop for hop in self.queues[name] if hop[0].index < index)
                if kept:
                    self.queues[name] = kept
                else:
                    del self.queues[name]


def run_per_host(
    jobs: Iterator[Generator[Hop, Answer, Result]],
    *,
    send: Callable[[Hop], wire.Exchange[Answer]],
    host: Callable[[Hop], str],
    write: Callable[[Result], None],
    workers: int,
    min_interval_ms: float,
    due: dict[str, float] | None = None,
) -> None:
    """Run jobs that are generators of hops: each yields a hop, is sent the
    answer that the exchange ``send(hop)`` returns, and returns a result.

    As in Mercator's frontier (Heydon and Najork, 1999), the hops that wait
    for a host form one queue, and the host serves one hop at a time, its
    starts at least ``min_interval_ms`` apart; ``host(hop)`` names it.
    - Everything runs on the calling thread, and no thread is started. The
      request of each free host's oldest hop is started at once, up to
      ``workers`` requests in flight; then one poll waits for the first
      reply, the end of the next host's spacing, or the first deadline, as
      a crawler with asynchronous sockets waits (Shkapenyuk and Suel,
      2002). The answer is sent into its job, whose own work, such as a
      page parse or a store append, runs there; meanwhile the other hosts
      go on serving the requests in flight.
    - A host's next start is dated from its last request's start. A
      job that yields ``NotBefore(hop, when)`` keeps its host from any
      start before ``when``; nothing sleeps for it but the loop, when no
      request is in flight.
    - A request starts when it is written, or when the connection it
      needs starts to open: connecting, a proxy's ``CONNECT`` and the TLS
      handshake are waited for in the same poll. Only a name lookup waits
      on the calling thread.
    - Jobs are taken from ``jobs`` one at a time, when no waiting hop can
      start, and at most ``WINDOW_PER_WORKER * workers`` are unwritten at
      once. Each result is passed to ``write``, in the order of ``jobs``,
      so what was written is always a prefix of ``jobs``.
    - The first exception, from taking a job, from a job, from ``send`` or
      from ``write``, stops the taking of jobs. The jobs taken before the
      one that failed are still run and written, later ones are dropped;
      the exception is raised once no request is in flight.
    - ``due``, when given, is where the hosts' spacing is kept: when each
      host's next start may be. Calls that share it keep the spacing
      across them, as step 3's two passes do.
    """
    _Frontier(jobs, send, host, write, workers, min_interval_ms, due).run()
