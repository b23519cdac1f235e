"""Bounded priority scheduler with admission control.

Many sessions share one dataset, one plan cache, and one file-handle
cache; letting every request run the moment it arrives would thrash all
three (and the page cache under them). The scheduler instead bounds the
number of *executing* requests to ``capacity`` worker threads and parks
the overflow in a priority queue:

- **priority** — interactive refinements (a session adding quality to a
  view it already holds, or a cheap first paint below the interactive
  quality threshold) run before cold full-quality scans, so a heavy
  analytics client cannot starve the viewers;
- **admission control** — the global queue is bounded by ``max_queued``
  and each session may hold at most :data:`MAX_SESSION_QUEUE` outstanding
  requests; past either bound, :meth:`submit` raises
  :class:`AdmissionRejected` immediately instead of letting latency grow
  without bound. Rejection is cheap and explicit — clients back off and
  retry, which is the behaviour the adaptive degradation layer needs to
  see load actually drain.

Within a priority class, requests run in strict FIFO (a monotone sequence
number breaks ties), so two equal-priority requests from one session
execute in submission order.

Work cheaper than the hand-off to a worker — the service's result-cache
hits — runs on the submitting thread instead (:meth:`RequestScheduler.run_inline`):
its ticket takes the next sequence number and is resolved when returned,
never queued, and counted ``inline`` rather than ``admitted``.

A subscriber hook that raises when its ticket resolves is logged; the
outcome is recorded first, and the worker serves on, as
``close(wait=False)`` goes on to the next queued ticket.

Each worker thread loops on :meth:`RequestScheduler.run_one`, which runs
one ticket. A test that overrides the thread start calls it itself and
replays one order of ``submit``, ``run_one`` and ``close`` exactly.
"""

from __future__ import annotations

import heapq
import logging
import threading
import time
from collections import Counter

from ..errors import AdmissionRejected
from .streaming import StreamOutbox

__all__ = [
    "AdmissionRejected",
    "SchedulerClosed",
    "Ticket",
    "RequestScheduler",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BULK",
]

lgr = logging.getLogger("repro.serve.scheduler")

#: runs first: refinements of an existing view / cheap first paints
PRIORITY_INTERACTIVE = 0
#: runs after: cold full-quality scans
PRIORITY_BULK = 1

#: outstanding (queued + running) requests allowed per session
MAX_SESSION_QUEUE = 8


class SchedulerClosed(RuntimeError):
    """The scheduler was shut down while this request was pending."""


class Ticket(StreamOutbox):
    """One admitted request: its completion channel (the
    :class:`~repro.serve.streaming.StreamOutbox` it is) plus what the
    queue orders and times it by."""

    __slots__ = (
        "priority", "seq", "session_id", "fn",
        "enqueued_at", "started_at", "finished_at", "wait_seconds",
    )

    def __init__(self, priority: int, seq: int, session_id: int, fn):
        super().__init__()
        self.priority = priority
        self.seq = seq
        self.session_id = session_id
        self.fn = fn
        self.enqueued_at = 0.0
        self.started_at = 0.0
        #: stamped just before the ticket resolves; with ``enqueued_at``
        #: it gives open-loop drivers the latency from *scheduled* arrival
        self.finished_at = 0.0
        self.wait_seconds = 0.0

    def __lt__(self, other: "Ticket") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class RequestScheduler:
    """Priority queue + bounded worker pool fronting the read path:
    ``capacity`` worker threads, at most ``max_queued`` requests waiting."""

    def __init__(self, capacity: int = 4, max_queued: int = 64, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        self.capacity = capacity
        self.max_queued = max_queued
        self._clock = clock
        self._cond = threading.Condition()
        self._heap: list[Ticket] = []
        self._per_session: Counter = Counter()
        self._seq = 0
        #: tickets a worker is running
        self._running: set[Ticket] = set()
        self._closed = False
        self.admitted = 0
        self.rejected_queue_full = 0
        self.rejected_session_full = 0
        self.executed = 0
        #: tickets run on the submitting thread by :meth:`run_inline`
        self.inline = 0
        self.max_queue_depth = 0
        self._workers = self._start_workers()

    def _start_workers(self) -> list[threading.Thread]:
        """Start ``capacity`` worker threads, each looping on :meth:`run_one`."""
        workers = [
            threading.Thread(target=self._work, name=f"serve-worker-{i}", daemon=True)
            for i in range(self.capacity)
        ]
        for w in workers:
            w.start()
        return workers

    def _work(self) -> None:
        while self.run_one():
            pass

    # -- admission -----------------------------------------------------------

    def submit(self, fn, session_id: int = 0, priority: int = PRIORITY_BULK) -> Ticket:
        """Admit ``fn`` for execution or raise :class:`AdmissionRejected`.

        ``fn`` is called on a worker thread with the ticket as its only
        argument (so the work can read its own queue-wait time); its
        return value / exception surfaces through the returned ticket.
        """
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            depth = len(self._heap)
            if depth >= self.max_queued:
                self.rejected_queue_full += 1
                raise AdmissionRejected("global queue full", depth)
            if self._per_session[session_id] >= MAX_SESSION_QUEUE:
                self.rejected_session_full += 1
                raise AdmissionRejected(f"session {session_id} queue full", depth)
            self._seq += 1
            ticket = Ticket(priority, self._seq, session_id, fn)
            ticket.enqueued_at = self._clock()
            heapq.heappush(self._heap, ticket)
            self._per_session[session_id] += 1
            self.admitted += 1
            self.max_queue_depth = max(self.max_queue_depth, len(self._heap))
            self._cond.notify()
            return ticket

    def run_inline(self, fn, session_id: int = 0, priority: int = PRIORITY_BULK) -> Ticket:
        """Run ``fn`` on the calling thread, as a ticket that never queued.

        The ticket takes the next sequence number and is resolved when
        this returns (``wait_seconds`` 0, an exception of ``fn`` held in
        it as a worker would hold it). It is counted ``inline``, not
        ``admitted``, and bypasses the queue bounds: the caller uses this
        only for work cheaper than the hand-off. Raises
        :class:`SchedulerClosed` once closed.
        """
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            self._seq += 1
            self.inline += 1
            ticket = Ticket(priority, self._seq, session_id, fn)
        ticket.enqueued_at = ticket.started_at = self._clock()
        self._run(ticket)
        return ticket

    # -- introspection -------------------------------------------------------

    def idle(self, session_id: int) -> bool:
        """Whether ``session_id`` has nothing queued or running."""
        with self._cond:
            return not self._per_session[session_id]

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._heap)

    @property
    def in_flight(self) -> int:
        with self._cond:
            return len(self._running)

    def load_factor(self) -> float:
        """Backlog relative to capacity; > 1.0 means requests are waiting."""
        with self._cond:
            return (len(self._heap) + len(self._running)) / self.capacity

    def stats(self) -> dict:
        with self._cond:
            return {
                "capacity": self.capacity,
                "max_queued": self.max_queued,
                "max_session_queue": MAX_SESSION_QUEUE,
                "queued": len(self._heap),
                "in_flight": len(self._running),
                "admitted": self.admitted,
                "executed": self.executed,
                "inline": self.inline,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_session_full": self.rejected_session_full,
                "max_queue_depth": self.max_queue_depth,
            }

    # -- execution -----------------------------------------------------------

    def run_one(self) -> bool:
        """Run the next queued ticket, waiting for one to be queued, and
        resolve it; the bookkeeping is done even if that raises. Returns
        ``False``, running nothing, once the scheduler is closed and its
        queue empty. Each worker thread calls this in a loop."""
        with self._cond:
            while not self._heap and not self._closed:
                self._cond.wait()
            if not self._heap:
                return False
            ticket = heapq.heappop(self._heap)
            self._running.add(ticket)
        ticket.started_at = self._clock()
        ticket.wait_seconds = ticket.started_at - ticket.enqueued_at
        try:
            self._run(ticket)
        finally:
            with self._cond:
                self._running.discard(ticket)
                self._leave(ticket.session_id)
                self.executed += 1
                self._cond.notify_all()
        return True

    def _leave(self, session_id: int) -> None:
        """Count one request of ``session_id`` as no longer outstanding;
        a count that reaches 0 is dropped (lock held)."""
        self._per_session[session_id] -= 1
        if self._per_session[session_id] <= 0:
            del self._per_session[session_id]

    def _run(self, ticket: Ticket) -> None:
        result = error = None
        try:
            result = ticket.fn(ticket)
        except BaseException as exc:  # surface through the ticket
            error = exc
        ticket.finished_at = self._clock()
        self._finish(ticket, result, error)

    @staticmethod
    def _finish(ticket: Ticket, result=None, error: BaseException | None = None) -> None:
        """Resolve ``ticket``; a subscriber hook that raises is logged once,
        so the caller (a worker, or :meth:`close`) goes on."""
        try:
            ticket.finish(result, error)
        except Exception:  # the outcome is in before the hook
            lgr.warning(
                "a subscriber of ticket %d raised on finish", ticket.seq,
                exc_info=True, extra={"seq": ticket.seq, "session_id": ticket.session_id},
            )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and nothing is executing."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._heap or self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and join the workers once the queue is empty.

        ``wait=False`` empties it first: queued tickets finish with
        :class:`SchedulerClosed`, and running ones are abandoned, so a
        streamed worker sheds at its next rung boundary instead of
        blocking on a consumer that is not draining.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            pending, running = [], []
            if not wait:
                pending, self._heap = self._heap, []
                running = list(self._running)
                for t in pending:
                    self._leave(t.session_id)
            self._cond.notify_all()
        for t in running:
            t.abandon()
        for t in pending:
            self._finish(t, error=SchedulerClosed("scheduler closed"))
        for w in self._workers:
            w.join()

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"RequestScheduler(capacity={s['capacity']}, queued={s['queued']}, "
            f"in_flight={s['in_flight']})"
        )
