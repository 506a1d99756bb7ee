"""Per-host politeness: at most one request in flight per host, and request
starts to one host at least a minimum interval apart.

Every request of a run's steps 1-3 and 5 belongs to a job written as a
generator of requests: a registry detail, a ListMetadataFormats request, a
ListRecords chain or a probe. ``run_per_host`` keeps politeness for the
pipeline by scheduling such jobs. No worker of it ever waits on a busy
host, and it adds workers only when a request stalls.

``HostGate`` keeps it with a lock per host, and serves only the
synchronous drivers: ``HostGate.run`` sends one job's requests in turn on
the calling thread, as ``oaipmh.harvest_records``,
``oaipmh.list_metadata_formats`` and ``probe.f_ret`` do for library use.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Generator, Generic, Iterator, TypeVar

Hop = TypeVar("Hop")
Answer = TypeVar("Answer")
Result = TypeVar("Result")

# jobs taken and not yet written, per worker: a job whose result waits for
# an earlier one holds that result until then
WINDOW_PER_WORKER = 4
# a hop in flight this long has stalled: its host is slower than a loopback
# one, and the watcher becomes a worker so that other jobs go on meanwhile
SLOW_HOP_S = 0.05


class HostGate:
    """Allows at most one in-flight request per host and keeps consecutive
    request starts to the same host at least ``min_interval_ms`` apart.

    The gate is shared by all workers talking to the same set of hosts; a
    worker enters ``slot(host)`` around each request it issues.
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
                    wait = last + self.min_interval - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
            self._last_start[host] = time.monotonic()
            yield

    def run(
        self,
        job: Generator[Hop, Answer, Result],
        send: Callable[[Hop], Answer],
        host: Callable[[Hop], str],
    ) -> Result:
        """A job of ``run_per_host``'s kind, run to its end on the calling
        thread: each hop is sent in its host's ``slot``."""
        answer = None
        try:
            while True:
                hop = job.send(answer)
                with self.slot(host(hop)):
                    answer = send(hop)
        except StopIteration as done:
            return done.value


class _Job:
    __slots__ = ("index", "steps", "done", "result")

    def __init__(self, index: int, steps: Generator) -> None:
        self.index = index  # place in the order of ``jobs``
        self.steps = steps
        self.done = False
        self.result = None


# the host of an outcome (``_Frontier.advance``) whose job returned or raised
_ENDED = object()
_FAILED = object()


class _Frontier(Generic[Hop, Answer, Result]):
    """The state that ``run_per_host``'s workers share, under one lock."""

    def __init__(
        self,
        jobs: Iterator[Generator[Hop, Answer, Result]],
        send: Callable[[Hop], Answer],
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
        self.lock = threading.Lock()
        # an idle worker waits on ``clock`` until the next host's spacing
        # ends, unless another one wakes by then; the others wait on ``rest``
        self.clock = threading.Condition(self.lock)
        self.rest = threading.Condition(self.lock)
        self.deadlines: list[float] = []  # when the workers on ``clock`` wake
        self.resting = 0  # workers waiting on ``rest``
        # the thread, not yet a worker, that looks out for a stalled hop
        self.watch = threading.Condition(self.lock)
        self.watcher: threading.Thread | None = None
        self.window: deque[_Job] = deque()  # taken and unwritten, in order
        self.taken = 0
        self.more = True  # whether ``jobs`` may hold more
        # hops that wait for their host, oldest first; no empty queue is kept
        self.queues: dict[str, deque[tuple[_Job, Hop, str]]] = {}
        self.busy: dict[str, float] = {}  # hosts with a hop in flight: since when
        # when each host's next start may be; may outlive this call
        self.due: dict[str, float] = {} if due is None else due
        self.threads: list[threading.Thread] = []
        self.failure: BaseException | None = None
        self.failed_at = sys.maxsize  # jobs from this index on are dropped

    # -- under the lock ---------------------------------------------------

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
        self.wake_all()

    def wake_all(self) -> None:
        self.clock.notify_all()
        self.rest.notify_all()
        self.watch.notify_all()

    def settle(self, outcome: tuple | None) -> tuple[_Job, Hop, str] | None:
        """Write or fail a job that returned or raised; pass on the next
        hop of a job that yielded one and is not dropped."""
        if outcome is None:
            return None
        job, value, name = outcome
        if name is _ENDED:
            job.done, job.result = True, value
            window = self.window
            # the oldest unwritten job holds back the results after it
            while window and window[0].done and window[0].index < self.failed_at:
                first = window.popleft()
                try:
                    self.write(first.result)
                except BaseException as exc:
                    self.fail(exc, first.index)
                first.result = None
            return None
        if name is _FAILED:
            self.fail(value, job.index)
            return None
        return outcome if job.index < self.failed_at else None

    def room(self) -> bool:
        """Whether a job may be taken now."""
        return (
            self.more
            and self.failure is None
            and len(self.window) < WINDOW_PER_WORKER * self.workers
        )

    def take(self) -> _Job | None:
        """The next job, taken in order, or None when none may be taken now."""
        if not self.room():
            return None
        try:
            steps = next(self.jobs)
        except StopIteration:
            self.more = False
            return None
        except Exception as exc:
            self.fail(exc, self.taken)
            return None
        job = _Job(self.taken, steps)
        self.taken += 1
        self.window.append(job)
        return job

    def pick(
        self, own: tuple[_Job, Hop, str] | None
    ) -> tuple[_Job, Hop | None, str | None] | None:
        """What the calling worker does next, waiting while there is nothing
        to do: ``(job, hop, host)`` sends a hop, its host claimed here;
        ``(job, None, None)`` starts a job; None ends the worker.

        ``own`` is the next hop of the job the worker advanced last: the
        worker sends it itself when its host is free, so that a job changes
        threads only when hosts are contended. Otherwise it waits in its
        host's queue, and the worker sends the oldest hop whose host is
        free, or else starts the next job.
        """
        if own is not None:
            if self.free(own[2], time.monotonic()):
                return self.claim(own)
            self.queues.setdefault(own[2], deque()).append(own)
        while True:
            now = time.monotonic()
            found = self.oldest_sendable(now)
            if found is not None:
                return self.claim(found)
            job = self.take()
            if job is not None:
                return job, None, None
            if not self.queues and (not self.more or self.failure is not None):
                self.wake_all()
                return None
            self.idle(now)

    def claim(self, hop: tuple[_Job, Hop, str]) -> tuple[_Job, Hop, str]:
        self.busy[hop[2]] = time.monotonic()
        return hop

    def release(self, name: str, started: float) -> None:
        """A host's hop is answered; its next may start ``interval`` after
        this one did."""
        del self.busy[name]
        self.due[name] = started + self.interval

    def free(self, name: str, now: float) -> bool:
        return name not in self.busy and self.due.get(name, 0.0) <= now

    def oldest_sendable(self, now: float) -> tuple[_Job, Hop, str] | None:
        """The oldest waiting hop of a free host, taken off its queue."""
        for name, queue in self.queues.items():
            if self.free(name, now):
                found = queue.popleft()
                if not queue:
                    del self.queues[name]
                return found
        return None

    def next_due(self) -> float | None:
        """When the spacing ends of the first host that is not busy and has
        a hop waiting; None when no such host."""
        return min(
            (self.due.get(name, 0.0) for name in self.queues if name not in self.busy),
            default=None,
        )

    def covered(self, wake: float) -> bool:
        """Whether a worker on ``clock`` wakes by ``wake``."""
        return bool(self.deadlines) and min(self.deadlines) <= wake

    def idle(self, now: float) -> None:
        """Wait for work: on ``clock`` until ``next_due`` when no worker
        wakes by then, else on ``rest`` until woken."""
        wake = self.next_due()
        if wake is not None and not self.covered(wake):
            self.deadlines.append(wake)
            self.clock.wait(wake - now)
            self.deadlines.remove(wake)
        else:
            self.resting += 1
            self.rest.wait()
            self.resting -= 1

    def leaving(self) -> None:
        """Before a worker sends a hop, and so may be away long: wake a
        resting worker for the next host's spacing unless one wakes for it,
        and start the watcher when there is none and room for a thread."""
        wake = self.next_due()
        if wake is not None and self.resting and not self.covered(wake):
            self.rest.notify()
        if (
            self.watcher is None
            and len(self.threads) + 1 < self.workers
            and self.failure is None
            and (self.more or self.queues)
        ):
            self.watcher = threading.Thread(
                target=self.look_out, name=f"fairprobe-hops-{len(self.threads) + 1}"
            )
            self.threads.append(self.watcher)
            self.watcher.start()

    def stalled(self, now: float) -> bool:
        """Whether a hop has been in flight for ``SLOW_HOP_S`` while a job
        may be taken or a hop may be sent."""
        if not self.busy or min(self.busy.values()) + SLOW_HOP_S > now:
            return False
        due = self.next_due()
        return self.room() or (due is not None and due <= now)

    # -- outside the lock ---------------------------------------------------

    def advance(self, job: _Job, answer: Answer | None) -> tuple:
        """Send ``answer`` into a job. The outcome is ``(job, hop, host)``
        for its next hop, ``(job, result, _ENDED)`` when it returned, and
        ``(job, exception, _FAILED)`` when it raised."""
        try:
            hop = job.steps.send(answer)
            return job, hop, self.host(hop)
        except StopIteration as done:
            return job, done.value, _ENDED
        except Exception as exc:
            return job, exc, _FAILED

    def look_out(self) -> None:
        """The watcher's loop: every half ``SLOW_HOP_S``, see whether a hop
        has stalled; if one has, become a worker, so that the jobs waiting
        behind the stalled ones go on. Ends when nothing is left to take or
        send."""
        with self.lock:
            while True:
                if self.failure is not None or (not self.more and not self.queues):
                    self.watcher = None
                    return
                if self.stalled(time.monotonic()):
                    self.watcher = None
                    break
                self.watch.wait(SLOW_HOP_S / 2)
        self.work()

    def work(self) -> None:
        """One worker's loop; the calling thread of ``run_per_host`` is the
        first worker."""
        own = None  # the outcome of the job this worker advanced last
        sent = None  # the host of the hop sent last, still claimed
        started = 0.0  # when that hop was sent
        try:
            while True:
                with self.lock:
                    if sent is not None:
                        self.release(sent, started)
                        sent = None
                    picked = self.pick(self.settle(own))
                    if picked is None:
                        return
                    job, hop, sent = picked
                    if hop is not None:
                        self.leaving()
                if hop is None:
                    own = self.advance(job, None)
                    continue
                try:
                    started = time.monotonic()
                    answer = self.send(hop)
                except Exception as exc:
                    own = job, exc, _FAILED
                else:
                    own = self.advance(job, answer)
        except BaseException as exc:
            with self.lock:
                if sent is not None:
                    self.release(sent, started)
                self.fail(exc, -1)

    def run(self) -> None:
        try:
            self.work()
        finally:
            while True:
                with self.lock:
                    if not self.threads:
                        break
                    thread = self.threads.pop()
                thread.join()
        if self.failure is not None:
            raise self.failure


def run_per_host(
    jobs: Iterator[Generator[Hop, Answer, Result]],
    *,
    send: Callable[[Hop], Answer],
    host: Callable[[Hop], str],
    write: Callable[[Result], None],
    workers: int,
    min_interval_ms: float,
    due: dict[str, float] | None = None,
) -> None:
    """Run jobs that are generators of hops: each yields a hop, is sent the
    answer ``send(hop)`` gives, and returns a result.

    As in Mercator's frontier (Heydon and Najork, 1999), the hops that wait
    for a host form one queue, and the host serves one hop at a time, its
    starts at least ``min_interval_ms`` apart; ``host(hop)`` names it.
    - The calling thread is the first worker. A worker never waits on a
      busy host: it sends another hop, or starts the next job, or sleeps
      until a host's spacing ends. One idle worker keeps that time; the
      others sleep until woken.
    - One more thread, the watcher, looks every ``SLOW_HOP_S / 2`` for a
      hop that has been in flight for ``SLOW_HOP_S`` while a job could be
      taken or a hop sent. Then it becomes a worker, and the next hop sent
      starts a new watcher, up to ``workers`` threads in all. So against
      hosts that answer within ``SLOW_HOP_S``, as on loopback, one worker
      sends every hop, one after another; slower hosts bring in one more
      worker for each stall.
    - A worker holds a host from the moment it picks a hop to it until it
      has sent the answer into the job, and keeps the job on that job's
      next host when the host is free: a chain of hops to one host, or a
      job whose next host is idle, stays on one thread. With one host
      that answers within ``SLOW_HOP_S``, every hop is sent on the calling
      thread.
    - Jobs are taken from ``jobs`` one at a time, as workers need them, and
      at most ``WINDOW_PER_WORKER * workers`` are unwritten at once. Each
      result is passed to ``write``, in the order of ``jobs``, by whichever
      worker ends the oldest unwritten job, so what was written is always a
      prefix of ``jobs``.
    - The first exception, from taking a job, from a job, from ``send`` or
      from ``write``, stops the taking of jobs. The jobs taken before the
      one that failed are still run and written, later ones are dropped;
      the exception is raised once every worker has exited.
    - ``due``, when given, is where the hosts' spacing is kept: when each
      host's next start may be. Calls that share it keep the spacing
      across them, as step 3's two passes do.
    """
    _Frontier(jobs, send, host, write, workers, min_interval_ms, due).run()
