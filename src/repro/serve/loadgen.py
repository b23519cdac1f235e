"""Load generator: replay interactive session traces against the service.

Models the paper's visualization clients (§V-B): each simulated client
opens a session and walks a deterministic trace of *zoom* (progressive
quality ramp into a shrinking box), *pan* (box translation, which resets
the progression), and *filter* (attribute range toggles) operations.
Traces are lists of :class:`~repro.api.QueryRequest` generated from a
seed, so two runs at the same settings send the identical request
stream — only scheduling differs.

``run_load`` is the one replay function: every request is a coroutine
on one event loop over :class:`~repro.serve.aio.AsyncQueryService`,
under a closed or open load model, one-shot or streamed. Its
:class:`LoadReport` holds what only a client can observe — latencies,
time-to-first-increment, rejections — and a sample of served responses
as ``(step, window, digest)``, ``window`` being the frozen request at the
coordinates it was served at. :func:`verify_identity_samples` replays
those windows against a direct :class:`~repro.core.dataset.BATDataset`
and asserts byte identity, so "fast under load" can never drift from
"correct". What the service counts itself (degraded, cache hits,
collapsed, shed, increments, bytes) is on its ``snapshot()``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..api import QueryRequest
from ..bat.query import AttributeFilter
from ..types import Box
from .aio import AsyncQueryService
from .scheduler import AdmissionRejected
from .service import QueryService

__all__ = [
    "LoadReport",
    "make_traces",
    "make_hot_traces",
    "run_load",
    "verify_identity_samples",
]


@dataclass
class LoadReport:
    """What the clients of one load run observed."""

    requests: int = 0
    rejected: int = 0
    elapsed_seconds: float = 0.0
    #: request latency; under open-loop arrivals, measured from the
    #: *scheduled* arrival time (coordinated-omission-free)
    latencies: list[float] = field(default_factory=list)
    #: time-to-first-increment per streamed request (its latency when
    #: the stream delivered nothing new)
    ttfi: list[float] = field(default_factory=list)
    #: (step, window, digest) samples of complete, non-empty responses
    identity_samples: list[tuple] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0


def _zoom_trace(rng, bounds: Box, steps: int) -> list[QueryRequest]:
    """Progressively refine into a shrinking box around one focus point."""
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    focus = lo + rng.random(3) * (hi - lo)
    ops = []
    qualities = np.linspace(0.2, 1.0, steps)
    for i, q in enumerate(qualities):
        half = (hi - lo) * (0.5 - 0.35 * i / max(steps - 1, 1)) / 2.0
        box = Box(tuple((focus - half).tolist()), tuple((focus + half).tolist()))
        ops.append(QueryRequest(quality=float(q), box=box))
    return ops


def _pan_trace(rng, bounds: Box, steps: int) -> list[QueryRequest]:
    """Slide a window across the domain; every move resets progression."""
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    size = (hi - lo) * 0.3
    start = lo + rng.random(3) * (hi - lo - size)
    step_vec = (hi - lo - size) / max(steps, 1) * rng.choice([-1.0, 1.0], 3)
    ops = []
    for i in range(steps):
        corner = np.clip(start + i * step_vec, lo, hi - size)
        box = Box(tuple(corner.tolist()), tuple((corner + size).tolist()))
        ops.append(QueryRequest(quality=0.6, box=box))
    return ops


def _filter_trace(rng, attr_ranges: dict, steps: int) -> list[QueryRequest]:
    """Toggle attribute ranges at moderate quality, then go full."""
    if not attr_ranges:
        return [QueryRequest(quality=float(q)) for q in np.linspace(0.3, 1.0, steps)]
    name = sorted(attr_ranges)[int(rng.integers(len(attr_ranges)))]
    glo, ghi = attr_ranges[name]
    ops = []
    for i in range(steps):
        width = 0.25 + 0.5 * rng.random()
        start = glo + rng.random() * (1.0 - width) * (ghi - glo)
        filt = AttributeFilter(name, float(start), float(start + width * (ghi - glo)))
        ops.append(QueryRequest(quality=0.5 if i % 2 else 1.0, filters=(filt,)))
    return ops


def make_traces(
    n_sessions: int,
    bounds: Box,
    attr_ranges: dict | None = None,
    ops_per_session: int = 6,
    seed: int = 0,
) -> list[list[QueryRequest]]:
    """Deterministic per-session request traces, mixing the three patterns."""
    rng = np.random.default_rng(seed)
    traces = []
    kinds = ["zoom", "pan", "filter"]
    for i in range(n_sessions):
        kind = kinds[i % len(kinds)]
        if kind == "zoom":
            traces.append(_zoom_trace(rng, bounds, ops_per_session))
        elif kind == "pan":
            traces.append(_pan_trace(rng, bounds, ops_per_session))
        else:
            traces.append(_filter_trace(rng, attr_ranges or {}, ops_per_session))
    return traces


def make_hot_traces(
    n_sessions: int,
    bounds: Box,
    n_views: int = 4,
    ops_per_session: int = 6,
    seed: int = 0,
) -> list[list[QueryRequest]]:
    """Traces where many sessions walk a shared set of hot views.

    A realistic thundering herd: viewers pile onto the same handful of
    interesting regions (a collaboration session, a linked dashboard), so
    concurrent requests overlap heavily. This is the workload where
    the result cache and its single-flight pay — :func:`make_traces`
    gives every session its own random focus and they rarely trigger.
    """
    rng = np.random.default_rng(seed)
    views = [_zoom_trace(rng, bounds, ops_per_session) for _ in range(n_views)]
    # block assignment: cohorts of adjacent sessions share a view, so
    # their requests are in flight together (round-robin would interleave
    # views and a small worker pool would rarely see two alike at once)
    return [views[i * n_views // n_sessions] for i in range(n_sessions)]


def run_load(
    service: QueryService,
    traces: list[list[QueryRequest]],
    concurrency: int,
    *,
    stream: bool = False,
    arrival: str = "closed",
    rate_hz: float = 200.0,
    arrival_seed: int = 0,
    identity_sample_every: int = 7,
    step: int = 0,
) -> LoadReport:
    """Replay ``traces`` against ``service``, all of it on one event loop.

    ``arrival`` picks the load model. ``"closed"``: sessions are dealt
    round-robin to ``concurrency`` client coroutines; each walks its
    sessions in turn with one outstanding request, like a viewer awaiting
    its increment. That under-reports latency when the service stalls
    (coordinated omission: a stalled client stops generating the load
    that would have queued), so ``"open"`` instead interleaves the
    sessions' requests round-robin, draws seeded Poisson interarrivals at
    ``rate_hz`` and starts each request at its scheduled instant whether
    or not earlier ones completed; latency is measured from that instant,
    so a stall shows up in every latency it delayed. The service's
    per-session lock keeps each session's progression ordered; open mode
    has no client bound.

    ``stream`` picks the delivery: an awaited one-shot response, or a
    drained stream whose time-to-first-increment lands in
    ``report.ttfi``. Rejected requests are counted and the client moves
    on — the retry policy lives with clients, not here.
    """
    if arrival not in ("closed", "open"):
        raise ValueError(f"arrival must be 'closed' or 'open', got {arrival!r}")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if rate_hz <= 0:
        raise ValueError("rate_hz must be > 0")
    report = LoadReport()
    aservice = AsyncQueryService(service=service)

    async def one(sid, s_index, op_index, t0) -> None:
        """Send one trace request and time it from ``t0``; single event
        loop, so the report needs no lock."""
        request = traces[s_index][op_index]
        report.requests += 1
        first = None
        try:
            if stream:
                # the context closes the stream if this task dies mid-way,
                # so its worker sheds instead of waiting on a full outbox
                async with aservice.stream(sid, request) as handle:
                    async for _inc in handle:
                        if first is None:
                            first = time.perf_counter() - t0
                    resp = await handle.result()
            else:
                resp = await aservice.request(sid, request)
        except AdmissionRejected:
            report.rejected += 1
            return
        latency = time.perf_counter() - t0
        report.latencies.append(latency)
        if stream:
            report.ttfi.append(latency if first is None else first)
        # a partial response is served but is not what a direct query of
        # the whole dataset returns: it is never sampled
        slot = s_index * 131 + op_index * 17
        if slot % identity_sample_every == 0 and len(resp) and not resp.partial:
            window = replace(
                request, prev_quality=resp.prev_quality, quality=resp.served_quality
            )
            report.identity_samples.append((step, window, resp.batch.digest()))

    async def client(s_indices) -> None:
        for s_index in s_indices:
            sid = aservice.open_session(step)
            try:
                for op_index in range(len(traces[s_index])):
                    await one(sid, s_index, op_index, time.perf_counter())
            finally:
                aservice.close_session(sid)

    async def open_loop(t_start) -> None:
        rng = np.random.default_rng(arrival_seed)
        max_ops = max((len(t) for t in traces), default=0)
        flat = [
            (s_index, op_index)
            for op_index in range(max_ops)
            for s_index, trace in enumerate(traces)
            if op_index < len(trace)
        ]
        arrivals = np.cumsum(rng.exponential(1.0 / rate_hz, size=len(flat)))
        sids = [aservice.open_session(step) for _ in traces]
        tasks = []
        try:
            for (s_index, op_index), t_arr in zip(flat, arrivals):
                scheduled = t_start + t_arr
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(
                    one(sids[s_index], s_index, op_index, scheduled)
                ))
            await asyncio.gather(*tasks)
        finally:
            for sid in sids:
                aservice.close_session(sid)

    async def main() -> None:
        t_start = time.perf_counter()
        if arrival == "open":
            await open_loop(t_start)
        else:
            await asyncio.gather(*(
                client(range(i, len(traces), concurrency)) for i in range(concurrency)
            ))
        report.elapsed_seconds = time.perf_counter() - t_start

    asyncio.run(main())
    return report


def verify_identity_samples(dataset, samples) -> int:
    """Re-run sampled responses directly; raise on any byte difference.

    Returns the number of samples checked. The direct query bypasses the
    scheduler, the degradation policy, and the result cache entirely —
    whatever those layers did, the bytes must match.
    """
    for step, window, digest in samples:
        batch, _ = dataset.query(window)
        if batch.digest() != digest:
            raise AssertionError(
                f"served response diverged from direct query at step={step}: "
                f"{window}"
            )
    return len(samples)
