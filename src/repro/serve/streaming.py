"""One request's completion: its increments, with backpressure, and its outcome.

A streamed request's worker produces increments faster than a slow
client consumes them; buffering the gap unboundedly is exactly the
failure mode the serve tier exists to avoid. A :class:`StreamOutbox` is
a small bounded queue between one worker (producer) and one client
(consumer): the worker's :meth:`~StreamOutbox.push` blocks while the
outbox is full, and when the client has not drained it within the grace
period the push returns ``False`` — the worker then stops producing at
the current quality rung ("sheds"). Because rung slot-ranges chain
exactly, everything pushed so far *is* the byte-exact result at the last
delivered rung's quality, and the session refines from there once the
client catches up — the same convergence contract as load-driven quality
degradation.

The outbox is also the request's one completion channel:
:meth:`~StreamOutbox.finish` records the final result or error (the first
call wins), :meth:`~StreamOutbox.result` waits for it and
:meth:`~StreamOutbox.done` tells whether it is there. The scheduler's
:class:`~repro.serve.scheduler.Ticket` *is* an outbox, so a one-shot
request's ticket and a streamed request's stream are one object.
Everything sits on one ``threading.Condition``; event-loop consumers
(:mod:`repro.serve.aio`) :meth:`~StreamOutbox.subscribe` one hook, fired
— outside the lock — on every push and on finish, and drain with the
non-blocking :meth:`~StreamOutbox.try_pop`.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["DONE", "EMPTY", "STREAM_GRACE", "STREAM_OUTBOX", "StreamOutbox"]

#: consumer sentinel: the producer finished (successfully or not)
DONE = object()
#: ``try_pop`` sentinel: nothing buffered right now
EMPTY = object()

#: increments buffered per streamed request before its worker blocks
STREAM_OUTBOX = 8
#: how long a streamed worker waits on a full outbox before shedding the
#: remaining rungs (None = never shed on backpressure)
STREAM_GRACE: float | None = 2.0


class StreamOutbox:
    """Bounded single-producer / single-consumer increments, then an outcome.

    Holds at most :data:`STREAM_OUTBOX` increments, read when the outbox
    is made. Iterating yields the increments until the producer finished
    (a failure re-raised after the increments produced before it);
    leaving a ``with`` block abandons it (:meth:`abandon`).
    """

    __slots__ = (
        "maxsize", "blocked_pushes",
        "_cond", "_items", "_finished", "_result", "_error", "_abandoned", "_hook",
    )

    def __init__(self):
        self.maxsize = STREAM_OUTBOX
        #: pushes that found the outbox full and waited at all
        self.blocked_pushes = 0
        self._cond = threading.Condition()
        self._items: deque = deque()
        self._finished = False
        self._result = None
        self._error: BaseException | None = None
        self._abandoned = False
        self._hook = None

    # -- producer (worker) side ---------------------------------------------

    def push(self, item, grace: float | None) -> bool:
        """Enqueue ``item``; block up to ``grace`` seconds while full.

        Returns ``False`` when the consumer is gone or did not free a
        slot within the grace period — the producer must shed (stop at
        the current rung boundary) instead of buffering further.
        """
        deadline = None if grace is None else time.monotonic() + grace
        with self._cond:
            if len(self._items) >= self.maxsize and not self._abandoned:
                self.blocked_pushes += 1
            while len(self._items) >= self.maxsize and not self._abandoned:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            if self._abandoned:
                return False
            self._items.append(item)
            self._cond.notify_all()
            hook = self._hook
        if hook is not None:
            hook()
        return True

    def finish(self, result=None, error: BaseException | None = None) -> None:
        """Record the outcome; buffered increments stay consumable.

        First call wins: a later ``finish`` (a shutdown cancelling what a
        worker already resolved, say) changes nothing.
        """
        with self._cond:
            if self._finished:
                return
            # the outcome before the flag: done() and result() read the
            # flag without the lock
            self._result = result
            self._error = error
            self._finished = True
            self._cond.notify_all()
            hook = self._hook
        if hook is not None:
            hook()

    # -- consumer (client) side ----------------------------------------------

    def subscribe(self, hook) -> None:
        """Call ``hook()`` on every push and on finish — at once if already
        finished. One hook per outbox: a later call replaces it. It runs
        on the producing thread, outside the lock; event-loop consumers
        must trampoline via ``loop.call_soon_threadsafe``."""
        with self._cond:
            self._hook = hook
            finished = self._finished
        if finished:
            hook()

    def done(self) -> bool:
        return self._finished

    def result(self, timeout: float | None = None):
        """Block until the outcome is recorded; re-raise a recorded error.
        Drains nothing: the increments stay consumable."""
        if not self._finished:
            with self._cond:
                if not self._cond.wait_for(self.done, timeout):
                    raise TimeoutError("request still pending")
        if self._error is not None:
            raise self._error
        return self._result

    def pop(self, timeout: float | None = None):
        """Next increment, blocking; :data:`DONE` once drained and finished.

        Re-raises the producer's error (after all increments produced
        before it were consumed). Raises ``TimeoutError`` if nothing
        arrives in time.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                item = self._take()
                if item is not EMPTY:
                    return item
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("stream increment still pending")
                self._cond.wait(remaining)

    def try_pop(self):
        """Non-blocking :meth:`pop`: :data:`EMPTY` when nothing is buffered."""
        with self._cond:
            return self._take()

    def _take(self):
        """:meth:`try_pop` with the lock held."""
        if self._items:
            item = self._items.popleft()
            self._cond.notify_all()
            return item
        if self._finished:
            if self._error is not None:
                raise self._error
            return DONE
        return EMPTY

    def __iter__(self):
        while (item := self.pop()) is not DONE:
            yield item

    def abandon(self) -> None:
        """Consumer walks away: pending pushes return ``False`` immediately."""
        with self._cond:
            self._abandoned = True
            self._cond.notify_all()

    def __enter__(self) -> "StreamOutbox":
        return self

    def __exit__(self, *exc) -> None:
        self.abandon()
