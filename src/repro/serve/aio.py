"""Asyncio front end: many progressive sessions on one event loop.

The thread-per-client model of :mod:`repro.serve.loadgen` tops out at
hundreds of clients; a visualization deployment wants thousands of idle
viewers each holding a progressive session open. This module multiplexes
them over a single event loop without adding any I/O threads of its own:
admission (:meth:`QueryService.stream`) is non-blocking, execution stays
on the service's existing worker pool, and delivery rides the
:class:`~repro.serve.streaming.StreamOutbox`'s ``on_event`` hook — the
worker thread wakes the consuming coroutine with
``loop.call_soon_threadsafe``, and the coroutine drains the outbox with
non-blocking ``try_pop``. A coroutine that stops draining exerts the
same backpressure as a slow thread: the bounded outbox fills, the worker
sheds at a rung boundary, and the session refines later.

``await service.request(...)`` resolves on a ticket done-callback, so a
pending request costs one waiting Future, not a parked thread — the
asyncio front end's whole reason to exist.
"""

from __future__ import annotations

import asyncio
import time

from ..api import QueryRequest
from .loadgen import LoadReport, TraceOp  # noqa: F401 (TraceOp re-export)
from .scheduler import AdmissionRejected
from .service import QueryService, ServeConfig, ServeResponse
from .streaming import DONE, EMPTY

__all__ = ["AsyncQueryService", "AsyncStream", "run_load_async"]


class AsyncStream:
    """One streamed request, consumed from the event loop.

    ``async for inc in stream`` yields increments as the worker delivers
    them; ``await stream.result()`` resolves to the final
    :class:`~repro.serve.service.ServeResponse`.
    """

    def __init__(self, handle, event: asyncio.Event):
        self._handle = handle
        self._event = event

    def __aiter__(self) -> "AsyncStream":
        return self

    async def __anext__(self):
        while True:
            item = self._handle.outbox.try_pop()
            if item is DONE:
                raise StopAsyncIteration
            if item is not EMPTY:
                return item
            self._event.clear()
            await self._event.wait()

    async def result(self) -> ServeResponse:
        ticket = self._handle.ticket
        loop = asyncio.get_running_loop()
        fut = loop.create_future()

        def on_done(_t, loop=loop, fut=fut):
            loop.call_soon_threadsafe(
                lambda: fut.done() or fut.set_result(None)
            )

        ticket.add_done_callback(on_done)
        await fut
        return ticket.result(0)

    def close(self) -> None:
        """Stop consuming; the worker sheds the remaining rungs."""
        self._handle.close()

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
        loop = asyncio.get_running_loop()
        event = asyncio.Event()
        handle = self.service.stream(
            session_id,
            request,
            step=step,
            ladder=ladder,
            on_event=lambda: loop.call_soon_threadsafe(event.set),
        )
        return AsyncStream(handle, event)

    async def request(
        self, session_id: int, request: QueryRequest, *, step: int | None = None
    ) -> ServeResponse:
        """One-shot request awaited without parking a thread."""
        ticket = self.service.submit(session_id, request, step=step)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()

        def on_done(_t, loop=loop, fut=fut):
            loop.call_soon_threadsafe(
                lambda: fut.done() or fut.set_result(None)
            )

        ticket.add_done_callback(on_done)
        await fut
        return ticket.result(0)

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


async def _drive_session(
    aservice: AsyncQueryService,
    trace: list[TraceOp],
    step: int,
    report: LoadReport,
    sample_base: int,
    identity_sample_every: int,
    sem: asyncio.Semaphore | None,
) -> None:
    if sem is not None:
        await sem.acquire()
    try:
        sid = aservice.open_session(step)
        try:
            for op_index, op in enumerate(trace):
                req = QueryRequest(quality=op.quality, box=op.box, filters=op.filters)
                t0 = time.perf_counter()
                try:
                    stream = aservice.stream(sid, req)
                except AdmissionRejected:
                    report.requests += 1
                    report.rejected += 1
                    continue
                first = None
                async for _inc in stream:
                    if first is None:
                        first = time.perf_counter() - t0
                resp = await stream.result()
                dt = time.perf_counter() - t0
                # single event loop: no lock needed between sessions
                report.requests += 1
                report.latencies.append(dt)
                if first is not None:
                    report.ttfi.append(first)
                report.points += len(resp)
                report.nbytes += resp.batch.nbytes
                report.increments += resp.increments
                if resp.degraded:
                    report.degraded += 1
                if resp.cache_hit:
                    report.cache_hits += 1
                if resp.collapsed:
                    report.collapsed += 1
                if resp.shed:
                    report.shed += 1
                sample_slot = sample_base * 131 + op_index
                if (
                    sample_slot % identity_sample_every == 0
                    and len(resp)
                    and not resp.partial
                ):
                    report.identity_samples.append(
                        (
                            step,
                            op.box,
                            tuple(op.filters),
                            resp.prev_quality,
                            resp.served_quality,
                            resp.batch.digest(),
                        )
                    )
        finally:
            aservice.close_session(sid)
    finally:
        if sem is not None:
            sem.release()


def run_load_async(
    service: QueryService,
    traces: list[list[TraceOp]],
    identity_sample_every: int = 7,
    step: int = 0,
    max_concurrent_sessions: int | None = None,
) -> LoadReport:
    """Replay ``traces`` as concurrent asyncio sessions on one loop.

    The streaming analogue of :func:`repro.serve.loadgen.run_load`:
    every trace becomes one coroutine holding a progressive session and
    consuming streamed increments; all of them multiplex over the
    service's worker pool through a single event loop. The report's
    ``ttfi`` list records time-to-first-increment per request — the
    latency a progressive viewer actually perceives.
    """

    async def main() -> LoadReport:
        report = LoadReport()
        aservice = AsyncQueryService(service=service)
        sem = (
            asyncio.Semaphore(max_concurrent_sessions)
            if max_concurrent_sessions
            else None
        )
        t_start = time.perf_counter()
        await asyncio.gather(
            *(
                _drive_session(
                    aservice, trace, step, report, i, identity_sample_every, sem
                )
                for i, trace in enumerate(traces)
            )
        )
        report.elapsed_seconds = time.perf_counter() - t_start
        return report

    return asyncio.run(main())
