"""Load generator: replay interactive session traces against the service.

Models the paper's visualization clients (§V-B): each simulated client
opens a session and walks a deterministic trace of *zoom* (progressive
quality ramp into a shrinking box), *pan* (box translation, which resets
the progression), and *filter* (attribute range toggles) operations.
Traces are generated from a seed, so two runs at the same settings issue
the identical request stream — only scheduling differs.

``run_load`` drives one :class:`~repro.serve.service.QueryService` with
``concurrency`` client threads and returns a :class:`LoadReport` carrying
per-request latencies (p50/p99), throughput, rejection counts, and a
sample of served responses with their exact ``(step, box, filters,
prev_quality, quality)`` coordinates — the bench suite replays those
coordinates against a direct :class:`~repro.core.dataset.BATDataset` and
asserts byte identity, so "fast under load" can never drift from
"correct".
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..api import QueryRequest
from ..bat.query import AttributeFilter
from ..types import Box
from .scheduler import AdmissionRejected
from .service import QueryService

__all__ = ["TraceOp", "LoadReport", "make_traces", "make_hot_traces", "run_load"]


@dataclass(frozen=True)
class TraceOp:
    """One client request: reach ``quality`` for the given view."""

    quality: float
    box: Box | None = None
    filters: tuple[AttributeFilter, ...] = ()


@dataclass
class LoadReport:
    """Everything one load run observed, ready for the bench payload."""

    requests: int = 0
    rejected: int = 0
    degraded: int = 0
    cache_hits: int = 0
    #: responses served off an overlapping in-flight decode
    collapsed: int = 0
    #: streamed responses cut short at a rung boundary by backpressure
    shed: int = 0
    #: increments delivered across all requests
    increments: int = 0
    points: int = 0
    nbytes: int = 0
    elapsed_seconds: float = 0.0
    #: request latency; under open-loop arrivals, measured from the
    #: *scheduled* arrival time (coordinated-omission-free)
    latencies: list[float] = field(default_factory=list)
    #: time-to-first-increment per streamed request
    ttfi: list[float] = field(default_factory=list)
    #: (step, box, filters, prev_quality, served_quality, digest) samples
    identity_samples: list[tuple] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0


def _zoom_trace(rng, bounds: Box, steps: int) -> list[TraceOp]:
    """Progressively refine into a shrinking box around one focus point."""
    lo = np.asarray(bounds.lower)
    hi = np.asarray(bounds.upper)
    focus = lo + rng.random(3) * (hi - lo)
    ops = []
    qualities = np.linspace(0.2, 1.0, steps)
    for i, q in enumerate(qualities):
        half = (hi - lo) * (0.5 - 0.35 * i / max(steps - 1, 1)) / 2.0
        box = Box(tuple((focus - half).tolist()), tuple((focus + half).tolist()))
        ops.append(TraceOp(quality=float(q), box=box))
    return ops


def _pan_trace(rng, bounds: Box, steps: int) -> list[TraceOp]:
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
        ops.append(TraceOp(quality=0.6, box=box))
    return ops


def _filter_trace(rng, attr_ranges: dict, steps: int) -> list[TraceOp]:
    """Toggle attribute ranges at moderate quality, then go full."""
    if not attr_ranges:
        return [TraceOp(quality=q) for q in np.linspace(0.3, 1.0, steps)]
    name = sorted(attr_ranges)[int(rng.integers(len(attr_ranges)))]
    glo, ghi = attr_ranges[name]
    ops = []
    for i in range(steps):
        width = 0.25 + 0.5 * rng.random()
        start = glo + rng.random() * (1.0 - width) * (ghi - glo)
        filt = AttributeFilter(name, float(start), float(start + width * (ghi - glo)))
        ops.append(TraceOp(quality=0.5 if i % 2 else 1.0, filters=(filt,)))
    return ops


def make_traces(
    n_sessions: int,
    bounds: Box,
    attr_ranges: dict | None = None,
    ops_per_session: int = 6,
    seed: int = 0,
) -> list[list[TraceOp]]:
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
) -> list[list[TraceOp]]:
    """Traces where many sessions walk a shared set of hot views.

    A realistic thundering herd: viewers pile onto the same handful of
    interesting regions (a collaboration session, a linked dashboard), so
    concurrent requests overlap heavily. This is the workload where
    pre-completion request collapsing pays — :func:`make_traces` gives
    every session its own random focus and collapse rarely triggers.
    """
    rng = np.random.default_rng(seed)
    views = [_zoom_trace(rng, bounds, ops_per_session) for _ in range(n_views)]
    # block assignment: cohorts of adjacent sessions share a view, so
    # their requests are in flight together (round-robin would interleave
    # views and a small worker pool would rarely see two alike at once)
    return [views[i * n_views // n_sessions] for i in range(n_sessions)]


def run_load(
    service: QueryService,
    traces: list[list[TraceOp]],
    concurrency: int,
    identity_sample_every: int = 7,
    step: int = 0,
    arrival: str = "closed",
    rate_hz: float = 200.0,
    arrival_seed: int = 0,
) -> LoadReport:
    """Replay ``traces`` with ``concurrency`` client threads.

    Sessions are dealt round-robin to clients; each client walks its
    sessions sequentially (one outstanding request at a time, like a real
    viewer awaiting its increment). Rejected requests are counted and the
    client moves on — the retry policy lives with clients, not here.

    ``arrival`` picks the load model. The default ``"closed"`` loop above
    waits for each response before issuing the next request, which
    under-reports latency when the service stalls (coordinated omission:
    a stalled client stops generating the load that would have queued).
    ``arrival="open"`` instead draws seeded Poisson interarrivals at
    ``rate_hz`` and submits on that schedule regardless of completions;
    latency is then measured from each request's *scheduled* arrival to
    its completion, so a stall shows up in every latency it delayed.
    ``concurrency`` is ignored in open mode (one dispatcher, completions
    observed via ticket callbacks).
    """
    if arrival not in ("closed", "open"):
        raise ValueError(f"arrival must be 'closed' or 'open', got {arrival!r}")
    if arrival == "open":
        return _run_load_open(
            service, traces, rate_hz, arrival_seed, identity_sample_every, step
        )
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    lanes: list[list[list[TraceOp]]] = [[] for _ in range(concurrency)]
    for i, trace in enumerate(traces):
        lanes[i % concurrency].append(trace)

    report = LoadReport()
    lock = threading.Lock()

    def client(lane: list[list[TraceOp]], lane_index: int) -> None:
        for trace_index, trace in enumerate(lane):
            sid = service.open_session(step)
            try:
                for op_index, op in enumerate(trace):
                    t0 = time.perf_counter()
                    try:
                        resp = service.request(
                            sid,
                            QueryRequest(
                                quality=op.quality, box=op.box, filters=op.filters
                            ),
                        )
                    except AdmissionRejected:
                        with lock:
                            report.requests += 1
                            report.rejected += 1
                        continue
                    dt = time.perf_counter() - t0
                    with lock:
                        report.requests += 1
                        report.latencies.append(dt)
                        report.points += len(resp)
                        report.nbytes += resp.batch.nbytes
                        if resp.degraded:
                            report.degraded += 1
                        if resp.cache_hit:
                            report.cache_hits += 1
                        sample_slot = (
                            lane_index * 131 + trace_index * 17 + op_index
                        )
                        if sample_slot % identity_sample_every == 0 and len(resp):
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
                service.close_session(sid)

    threads = [
        threading.Thread(target=client, args=(lane, i), name=f"loadgen-{i}")
        for i, lane in enumerate(lanes)
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.elapsed_seconds = time.perf_counter() - t_start
    return report


def _run_load_open(
    service: QueryService,
    traces: list[list[TraceOp]],
    rate_hz: float,
    arrival_seed: int,
    identity_sample_every: int,
    step: int,
) -> LoadReport:
    """Open-loop arrivals: deterministic Poisson schedule, pipelined submits.

    Requests are interleaved round-robin across sessions (so concurrent
    arrivals mix views) and submitted at their scheduled instants whether
    or not earlier ones completed; the per-session lock inside the
    service keeps each session's progression ordered. Latency uses the
    ticket's ``finished_at`` stamp against the scheduled arrival — both
    on the service's clock only when it is the default
    ``time.perf_counter``, which is what the bench suite uses.
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be > 0")
    rng = np.random.default_rng(arrival_seed)
    sids = [service.open_session(step) for _ in traces]
    flat: list[tuple[int, int, TraceOp]] = []
    max_ops = max((len(t) for t in traces), default=0)
    for op_index in range(max_ops):
        for s_index, trace in enumerate(traces):
            if op_index < len(trace):
                flat.append((s_index, op_index, trace[op_index]))
    arrivals = np.cumsum(rng.exponential(1.0 / rate_hz, size=len(flat)))

    report = LoadReport()
    lock = threading.Lock()
    completions = threading.Semaphore(0)

    def on_done(ticket, scheduled: float, op: TraceOp, slot: int) -> None:
        try:
            resp = ticket.result(0)
        except BaseException:
            completions.release()
            return
        latency = max(ticket.finished_at - scheduled, 0.0)
        with lock:
            report.latencies.append(latency)
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
            if slot % identity_sample_every == 0 and len(resp) and not resp.partial:
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
        completions.release()

    issued = 0
    t0 = time.perf_counter()
    try:
        for i, ((s_index, op_index, op), t_arr) in enumerate(zip(flat, arrivals)):
            now = time.perf_counter() - t0
            if t_arr > now:
                time.sleep(t_arr - now)
            scheduled = t0 + t_arr
            with lock:
                report.requests += 1
            try:
                ticket = service.submit(
                    sids[s_index],
                    QueryRequest(quality=op.quality, box=op.box, filters=op.filters),
                )
            except AdmissionRejected:
                with lock:
                    report.rejected += 1
                continue
            issued += 1
            slot = s_index * 131 + op_index * 17
            ticket.add_done_callback(
                lambda t, scheduled=scheduled, op=op, slot=slot: on_done(
                    t, scheduled, op, slot
                )
            )
    finally:
        for _ in range(issued):
            completions.acquire()
        for sid in sids:
            service.close_session(sid)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def verify_identity_samples(dataset, samples) -> int:
    """Re-run sampled responses directly; raise on any byte difference.

    Returns the number of samples checked. The direct query bypasses the
    scheduler, the degradation policy, and the result cache entirely —
    whatever those layers did, the bytes must match.
    """
    for step, box, filters, prev_q, served_q, digest in samples:
        batch, _ = dataset.query(
            QueryRequest(
                quality=served_q, prev_quality=prev_q, box=box, filters=filters
            )
        )
        if batch.digest() != digest:
            raise AssertionError(
                f"served response diverged from direct query at step={step} "
                f"box={box} filters={filters} q={prev_q}->{served_q}"
            )
    return len(samples)
