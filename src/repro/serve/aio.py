"""Asyncio front end: many progressive sessions on one event loop.

A thread per client tops out at hundreds of clients; a visualization
deployment wants thousands of idle viewers each holding a progressive
session open. This module multiplexes them over a single event loop
without adding any I/O threads of its own:
admission (:meth:`QueryService.stream`) is non-blocking, execution stays
on the service's existing worker pool, and delivery rides the one hook
the request's ticket (a :class:`~repro.serve.streaming.StreamOutbox`)
lets a consumer :meth:`~repro.serve.streaming.StreamOutbox.subscribe` —
the worker thread wakes the consuming coroutine with
``loop.call_soon_threadsafe`` on every increment and when the ticket
resolves, and the coroutine drains the ticket with non-blocking
``try_pop``. A coroutine that stops draining exerts the same
backpressure as a slow thread: the bounded outbox fills, the worker
sheds at a rung boundary, and the session refines later.

``await service.request(...)`` resolves on the same wake-up, so a
pending request costs one waiting event, not a parked thread — the
asyncio front end's whole reason to exist. A result-cache hit is served
during admission, on the loop's own thread, and its ticket is resolved
on return: awaiting it then returns at once, with no round trip through
the loop. :func:`repro.serve.run_load` drives every load model through
this class.
"""

from __future__ import annotations

import asyncio
import threading

from ..api import QueryRequest
from .service import QueryService, ServeConfig, ServeResponse
from .streaming import DONE, EMPTY

__all__ = ["AsyncQueryService", "AsyncStream"]


def _wakeup(ticket) -> asyncio.Event:
    """An event that ``ticket`` sets, on the running loop, on every
    increment and when it resolves: its one subscription."""
    loop = asyncio.get_running_loop()
    event = asyncio.Event()
    loop_thread = threading.get_ident()

    def hook():
        # a hit served during admission resolved on the loop's own thread
        if threading.get_ident() == loop_thread:
            event.set()
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            # the loop is closed: nobody is left to consume, so shed. The
            # hook runs on the worker, which must not die of it
            ticket.abandon()

    ticket.subscribe(hook)
    return event


async def _resolved(ticket, event: asyncio.Event | None = None) -> ServeResponse:
    """``ticket``'s response, awaited on its wake-up ``event`` (subscribed
    here when not given) unless it is resolved already (a hit served
    during admission)."""
    if not ticket.done():
        if event is None:
            event = _wakeup(ticket)
        while not ticket.done():
            event.clear()
            await event.wait()
    return ticket.result(0)


class AsyncStream:
    """One streamed request, consumed from the event loop.

    ``async for inc in stream`` yields increments as the worker delivers
    them; ``await stream.result()`` resolves to the final
    :class:`~repro.serve.service.ServeResponse`. Both wait on the one
    wake-up the ticket fires.
    """

    def __init__(self, ticket):
        self._ticket = ticket
        self._event = _wakeup(ticket)

    def __aiter__(self) -> "AsyncStream":
        return self

    async def __anext__(self):
        while True:
            item = self._ticket.try_pop()
            if item is DONE:
                raise StopAsyncIteration
            if item is not EMPTY:
                return item
            self._event.clear()
            await self._event.wait()

    async def result(self) -> ServeResponse:
        return await _resolved(self._ticket, self._event)

    def close(self) -> None:
        """Stop consuming; the worker sheds the remaining rungs."""
        self._ticket.abandon()

    async def __aenter__(self) -> "AsyncStream":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()


class AsyncQueryService:
    """Event-loop face of one :class:`QueryService`.

    Construct from a source (owns the service) or wrap an existing one
    with ``AsyncQueryService(service=svc)`` (shares it; ``aclose`` then
    leaves it open). All methods must be called from a running loop.
    """

    def __init__(
        self,
        source=None,
        config: ServeConfig | None = None,
        *,
        service: QueryService | None = None,
    ):
        if service is None:
            if source is None:
                raise ValueError("AsyncQueryService needs a source or a service")
            service = QueryService(source, config)
            self._owned = True
        else:
            self._owned = False
        self.service = service

    # -- sessions (cheap, never block on I/O) --------------------------------

    def open_session(self, step: int = 0) -> int:
        return self.service.open_session(step)

    def close_session(self, session_id: int):
        return self.service.close_session(session_id)

    # -- requests ------------------------------------------------------------

    def stream(
        self,
        session_id: int,
        request: QueryRequest,
        *,
        step: int | None = None,
        ladder: tuple | None = None,
    ) -> AsyncStream:
        """Streaming request; raises
        :class:`~repro.serve.scheduler.AdmissionRejected` synchronously
        when the service is past its admission bounds."""
        return AsyncStream(self.service.stream(session_id, request, step=step, ladder=ladder))

    async def request(
        self, session_id: int, request: QueryRequest, *, step: int | None = None
    ) -> ServeResponse:
        """One-shot request awaited without parking a thread."""
        return await _resolved(self.service.submit(session_id, request, step=step))

    async def snapshot(self) -> dict:
        return self.service.snapshot()

    async def aclose(self, *, cancel: bool = False) -> None:
        if self._owned:
            loop = asyncio.get_running_loop()
            # close() drains (or with cancel=True, sheds) the worker
            # pool — keep the event loop responsive while it does
            await loop.run_in_executor(
                None, lambda: self.service.close(cancel=cancel)
            )

    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()
