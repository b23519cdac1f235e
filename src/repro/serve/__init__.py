"""Concurrent query serving over BAT datasets (the read side at scale).

The paper's read path (§V–VI) is built to answer *something useful at any
budget*; this package supplies the machinery that makes that promise hold
for many simultaneous clients instead of one: a bounded priority
scheduler with admission control (:mod:`~repro.serve.scheduler`),
adaptive quality degradation under load (:mod:`~repro.serve.degrade`), a
shared TTL+LRU result cache above the plan cache whose single-flight
hands an executing window's result to identical requests that arrive
meanwhile (:mod:`~repro.serve.cache`; the decoded-column cache does the
same per treelet column), streamed per-rung delivery with bounded-outbox backpressure
(:mod:`~repro.serve.streaming`), and a windowed JSON metrics surface
(:mod:`~repro.serve.metrics`). :class:`~repro.serve.service.QueryService`
ties them together, and :mod:`repro.serve.aio` fronts it with a single
asyncio event loop for thousands of concurrent progressive sessions. The
deterministic load generator (:mod:`~repro.serve.loadgen`) replays
session traces through that front end: one replay function for closed
and open arrivals, one-shot and streamed, byte-verifying a sample of what
it was served.

There is one serve core: :class:`~repro.serve.shard.ShardedQueryService`
is the same class with its per-step backend swapped — each window is
scattered to the worker processes owning its leaves (each owns one
contiguous run of the Aggregation Tree's leaf order,
:mod:`~repro.serve.hashing`) and their replies merged by leaf runs — so
all of the above runs unchanged over shards. :mod:`~repro.serve.jobs` is a
durable batch queue over either one's stateless ``execute``.
"""

from .aio import AsyncQueryService, AsyncStream
from .cache import ResultCache
from .degrade import DegradationPolicy
from .hashing import assign_leaves
from .jobs import JobConfig, JobRunner, JobStore, make_sweep
from .loadgen import (
    LoadReport,
    make_hot_traces,
    make_traces,
    run_load,
    verify_identity_samples,
)
from .metrics import RequestSpan, ServeMetrics, json_sanitize, percentile
from .scheduler import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    AdmissionRejected,
    RequestScheduler,
    SchedulerClosed,
    Ticket,
)
from .service import (
    QueryService,
    ServeConfig,
    ServeResponse,
    ServeSession,
)
from .shard import (
    ShardCrashed,
    ShardedQueryService,
    ShardUnavailable,
    StaleGeneration,
    request_from_doc,
    request_to_doc,
)
from .streaming import StreamOutbox

__all__ = [
    "AdmissionRejected",
    "AsyncQueryService",
    "AsyncStream",
    "DegradationPolicy",
    "JobConfig",
    "JobRunner",
    "JobStore",
    "LoadReport",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "QueryService",
    "RequestScheduler",
    "RequestSpan",
    "ResultCache",
    "SchedulerClosed",
    "ServeConfig",
    "ServeMetrics",
    "ServeResponse",
    "ServeSession",
    "ShardCrashed",
    "ShardUnavailable",
    "ShardedQueryService",
    "StaleGeneration",
    "StreamOutbox",
    "Ticket",
    "assign_leaves",
    "json_sanitize",
    "make_hot_traces",
    "make_sweep",
    "make_traces",
    "percentile",
    "request_from_doc",
    "request_to_doc",
    "run_load",
    "verify_identity_samples",
]
