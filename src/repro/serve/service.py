"""The concurrent query service fronting one dataset or time series.

:class:`QueryService` multiplexes many client sessions over one set of
shared resources — one file-handle cache (and the decoded-column cache
on it), one plan cache per timestep, one result cache. A request
travels::

    request() ── session idle, window cached (ResultCache.peek) ──▶ the
        │        executor below, on the submitting thread: one
        │        pre-ordered increment, the ticket resolved on return
        ▼ else
    admission ──▶ RequestScheduler (priority queue,
        │ rejected past bounds      capacity worker threads)
        │                               │
        │                               ▼ per-session lock
        │                    DegradationPolicy.observe(load)
        │                               │ quality ceiling
        │                               ▼
        │                    ResultCache.get ── hit ──▶ one pre-ordered
        │                               │ miss          increment
        │                               ▼
        │                    ResultCache.join ── identical window in
        │                               │ lead     flight: wait, take
        │                               ▼          its result
        │                    Dataset.plan (PlanCache) ─▶ Dataset.stream
        │                               │                (DecodedColumnCache,
        │                               ▼                 BATFileCache)
        │                    increments ─▶ ticket (streams) ─▶ reassemble
        │                               │
        └──────────◀─────────  cache put, settle waiters, session accounting

One executor serves every query window, as a ladder of rungs: a cache
hit (or an identical window in flight) is one pre-ordered increment, a
miss is :meth:`~repro.core.dataset.BATDataset.stream` over the window's
ladder. The two execution modes differ only in that ladder and in where
the increments go. :meth:`QueryService.submit` /
:meth:`~QueryService.request` are the one-shot mode: the ladder is the
one rung ``(effective,)`` and the response carries one batch
(:meth:`QueryService.execute` is the same executor without a session:
the stateless batch-job path, behind a gate that caps batch work at
``BATCH_SHARE`` of the scheduler's slots). :meth:`QueryService.stream`
is the progressive mode: the ladder has a rung per quality step, and
each increment is pushed into the request's ticket — a bounded outbox
(:mod:`repro.serve.streaming`), which is also its one completion
channel — as it materializes; a consumer that falls behind sheds the
remaining rungs at a rung boundary (the session simply refines from
there later, like load degradation). A neighbor request shares the same
result-cache sequence, accounting and response; only its backend call,
``neighbors``, differs.

**A hit does not queue.** A session's query window that is already in
the result cache is served on the thread that submits it
(:meth:`QueryService._serve_hit`): a lookup, not a hand-off to a worker
and back. Only while the session has nothing queued or running, so a
hit never overtakes its own session's requests, and only from a step
already open. The look counts nothing, so a miss then queues exactly as
if it had never been looked for, and a miss never runs on the submitting
thread (an event loop's, say). Misses, neighbor requests and the
stateless :meth:`~QueryService.execute` always take the scheduler.

Concurrent work is deduplicated by single-flight in the two keyed
caches (:mod:`repro.serve.cache`): per identical one-shot or neighbor
window, which streams may wait on but never lead, and per treelet column.

**One core, two step backends.** Everything above reaches a timestep
through one narrow surface — ``metadata.generation``, ``plan``,
``stream``, ``neighbors``, ``attribute_specs``, ``plan_cache``,
``quarantined``, ``close`` — of whatever
:meth:`QueryService._open_step` built: here a
:class:`~repro.core.dataset.BATDataset` (it *is* that surface, unwrapped),
in :class:`~repro.serve.shard.ShardedQueryService` a scatter/gather
object over worker processes. Where the leaf files live changes who
opens them, not what a request means. The steps are held by one
:class:`~repro.core.timeseries.StepTable`, opened through ``_open_step``.

:class:`ServeConfig` holds what callers set; what no caller varies is a
module constant: the degradation ramp (:mod:`repro.serve.degrade`), the
per-session bound (:mod:`repro.serve.scheduler`), the stream outbox's
bound and grace (:mod:`repro.serve.streaming`).

**One identity.** The effective window is derived in one place,
:meth:`QueryService._resolve`, and built once, by whichever thread
resolves it — ``window = replace(request, quality=effective,
prev_quality=prev, on_error="degrade")``, for a neighbor request
``replace(request, on_error="degrade")`` — and ``(step, generation,
window)`` is the result-cache and single-flight key, and ``window`` the
request handed to the step backend. A session's view is the request's
other fields (:func:`_view_of`). Requests are frozen dataclasses, so a
field added to one enters every tier's identity, and the view, by
construction.

Every response is byte-identical to a direct
:meth:`~repro.core.dataset.BATDataset.query` at the same effective
``(prev_quality, quality)`` — the scheduler, the caches and the
streaming mode reorder and deduplicate work, they never alter results.
Degradation and shedding only lower the quality ceiling of *new*
increments, so a degraded or shed session refining after load drains
converges to exactly the full-quality data set.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from ..api import (
    NeighborRequest,
    NeighborResult,
    QueryRequest,
    StreamIncrement,
    reassemble_stream,
)
from ..bat.colcache import DEFAULT_COLUMN_CACHE_BYTES, MemoryBudget
from ..bat.filecache import DEFAULT_CAPACITY, BATFileCache
from ..bat.query import default_quality_ladder
from ..core.dataset import BATDataset, empty_batch
from ..core.metadata import DatasetMetadata
from ..core.timeseries import StepTable
from ..errors import AdmissionRejected
from ..types import ParticleBatch
from . import streaming
from .cache import ResultCache
from .degrade import DegradationPolicy
from .metrics import AccessTelemetry, RequestSpan, ServeMetrics, json_sanitize
from .scheduler import (
    MAX_SESSION_QUEUE,
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    RequestScheduler,
    Ticket,
)

__all__ = [
    "ServeConfig",
    "ServeSession",
    "ServeResponse",
    "QueryService",
]

lgr = logging.getLogger("repro.serve.service")

#: share of the scheduler's slots :meth:`QueryService.execute` may hold
BATCH_SHARE = 0.5

#: requests at or below this quality count as interactive first paints
INTERACTIVE_QUALITY = 0.35

#: quality-ladder resolution for streamed requests (2**levels rungs
#: across the full quality range; see ``default_quality_ladder``)
STREAM_LEVELS = 8

#: stands in for the session lock on session-less (batch) windows
_UNLOCKED = nullcontext()


@dataclass(frozen=True)
class ServeConfig:
    """The service's tuning knobs (the module docstring names the
    constants that stand for the rest).

    ``memory_bytes`` bounds the decoded columns (walk tables included)
    and the cached results together, and results give way to columns
    (:class:`~repro.bat.colcache.MemoryBudget` holds the rule and its
    reason). Shard workers take it as their column budget; the router,
    which opens no leaf, gives it all to results.
    """

    #: maximum concurrently executing queries (scheduler worker threads)
    capacity: int = 4
    #: global queue bound; submissions past it are rejected
    max_queued: int = 64
    #: byte budget of decoded columns plus cached results (0 caches
    #: neither; columns then decode cold on every touch)
    memory_bytes: int = DEFAULT_COLUMN_CACHE_BYTES
    #: result-cache TTL (seconds; None disables expiry)
    result_ttl: float | None = 30.0
    #: lower the quality ceiling under load (:mod:`repro.serve.degrade`)
    degradation: bool = True
    #: bound on simultaneously open leaf files, shared by all sessions
    max_open_files: int = DEFAULT_CAPACITY


@dataclass
class ServeSession:
    """One client's progressive view, owned by the service."""

    session_id: int
    step: int = 0
    #: the view being refined: :func:`_view_of` the last request; a
    #: request for any other restarts from zero
    view: tuple | None = None
    delivered_quality: float = 0.0
    bytes_sent: int = 0
    requests: int = 0
    downgrades: int = 0
    #: serializes this session's requests across scheduler workers
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


#: a query request's view: every field but its quality window and error
#: policy — what it reads, whatever slice of the progression it asks for
_view_of = attrgetter(*(
    f.name for f in fields(QueryRequest)
    if f.name not in ("quality", "prev_quality", "on_error")
))


class _Hit(NamedTuple):
    """A cached window found on the submitting thread (:meth:`QueryService._serve_hit`)."""

    #: the load sample and the quality ceiling it was found at
    load: float
    cap: float
    #: what :meth:`QueryService._resolve` derived at that ceiling,
    #: ``(prev, window)``, kept so a hit builds its window once
    resolved: tuple
    batch: ParticleBatch


@dataclass
class ServeResponse:
    """What one admitted request returns."""

    batch: ParticleBatch
    requested_quality: float
    served_quality: float
    prev_quality: float
    #: quality was lowered by the load-shedding policy (not a data loss)
    degraded: bool
    cache_hit: bool
    span: RequestSpan
    #: data from quarantined (corrupt/missing) leaf files is absent
    partial: bool = False
    #: how many leaf files this response could not see
    quarantined_files: int = 0
    #: served from an identical in-flight window's result
    collapsed: bool = False
    #: the stream stopped early at a rung boundary (slow consumer);
    #: ``served_quality`` is the last fully delivered rung
    shed: bool = False
    #: increments delivered (1 for a one-shot response, 0 if nothing new)
    increments: int = 0
    #: the full neighbor-query result when the request was a
    #: :class:`~repro.api.NeighborRequest` (``batch`` then holds its rows)
    neighbors: NeighborResult | None = None

    def __len__(self) -> int:
        return len(self.batch)


class QueryService:
    """Concurrent, admission-controlled front end over BAT datasets.

    ``source`` is either a ``*.meta.json`` manifest (one timestep, served
    as step 0) or a time-series directory containing ``series.json``.
    """

    def __init__(self, source, config: ServeConfig | None = None, clock=time.perf_counter):
        self.config = config or ServeConfig()
        self._clock = clock
        #: the byte budget the decoded columns and the results share
        self.memory = MemoryBudget(self.config.memory_bytes)
        self._file_cache = BATFileCache(
            self.config.max_open_files, column_cache_bytes=self.memory
        )
        #: the source's steps, each opened by :meth:`_open_step`
        self._steps = StepTable(source, self._open_step)
        if not self._steps.manifests:
            raise ValueError(f"time series at {source} has no written steps")
        self.scheduler = RequestScheduler(
            self.config.capacity, self.config.max_queued, clock=clock
        )
        self.degradation = DegradationPolicy(self.config.degradation)
        self.results = ResultCache(self.memory, ttl=self.config.result_ttl)
        self.metrics = ServeMetrics(clock=clock)
        #: per-(step, leaf) access tallies — the reorganizer's evidence
        self.telemetry = AccessTelemetry()
        self._sessions: dict[int, ServeSession] = {}
        self._session_lock = threading.Lock()
        self._next_session = 0
        # the shared admission budget: stateless batch work may hold at
        # most this many scheduler slots, interactive traffic the rest
        self._batch_gate = threading.BoundedSemaphore(min(
            max(1, round(self.config.capacity * BATCH_SHARE)),
            MAX_SESSION_QUEUE,
        ))
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self, *, cancel: bool = False) -> None:
        """Release every shared resource; by default drain queued work first.

        ``cancel=True`` is the bounded-shutdown path: queued tickets are
        cancelled with :class:`~repro.serve.scheduler.SchedulerClosed`
        rather than drained, and running ones are abandoned (a streamed
        worker then sheds at its next rung boundary instead of blocking
        on a full outbox). Either way the workers join before datasets
        close — so teardown never races a worker still publishing, and
        every admitted request's ticket is resolved: no consumer can
        block forever on a service that no longer exists.
        """
        with self._session_lock:
            if self._closed:
                return
            self._closed = True
        self.scheduler.close(wait=not cancel)
        self._steps.close()
        self.results.clear()
        self._file_cache.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structure -------------------------------------------------------------

    @property
    def steps(self) -> list[int]:
        return self._steps.steps

    def manifest_path(self, step: int = 0) -> Path:
        """The ``*.meta.json`` this service reads one step's layout from."""
        return self._steps.manifest(step)

    def _open_step(self, step: int, manifest: Path):
        """Build the backend that answers one step (the module docstring
        lists the surface it must have); the sharded router's override."""
        ds = BATDataset(manifest, file_cache=self._file_cache)
        ds.telemetry = self.telemetry.bind(step)
        return ds

    def dataset(self, step: int = 0):
        """The (lazily opened) backend of one step; shared handles."""
        return self._steps.get(step)

    def generation(self, step: int = 0) -> int:
        """The layout generation the service currently serves for a step."""
        return self.dataset(step).metadata.generation

    def reload_step(self, step: int = 0) -> int:
        """Swap in the step's current on-disk manifest; returns its generation.

        The coherent-invalidation path of an online reorganization
        republish: the old dataset is closed (its handles drop from the
        shared file cache — deferred under leases, so streams in flight
        finish on their pinned old-generation handles), the step's result
        entries are evicted eagerly, and the fresh manifest's generation
        flows into every plan/result key from here on. In-flight
        requests holding the old dataset object still read the old leaf
        files (a reorg never deletes them in place), so whichever
        generation a request observed, its response is byte-identical to
        a direct query against that generation.
        """
        generation = self._steps.reload(step).metadata.generation
        evicted = self.results.invalidate_step(step)
        lgr.info(
            "reloaded step %d at generation %d; %d cached results evicted",
            step, generation, evicted,
            extra={"step": step, "generation": generation, "evicted": evicted},
        )
        return generation

    def maybe_reload(self, step: int = 0) -> bool:
        """Reload one step iff its on-disk manifest generation moved."""
        on_disk = DatasetMetadata.load(self.manifest_path(step)).generation
        if on_disk == self.dataset(step).metadata.generation:
            return False
        self.reload_step(step)
        return True

    # -- sessions ----------------------------------------------------------------

    def open_session(self, step: int = 0) -> int:
        self.manifest_path(step)  # KeyError for a step this source lacks
        with self._session_lock:
            sid = self._next_session
            self._next_session += 1
            self._sessions[sid] = ServeSession(session_id=sid, step=step)
            return sid

    def close_session(self, session_id: int) -> ServeSession:
        with self._session_lock:
            return self._sessions.pop(session_id)

    def session(self, session_id: int) -> ServeSession:
        with self._session_lock:
            return self._sessions[session_id]

    @property
    def n_sessions(self) -> int:
        with self._session_lock:
            return len(self._sessions)

    # -- requests ----------------------------------------------------------------

    def _priority(self, sess: ServeSession, req: QueryRequest, view, step) -> int:
        """Refinements of a held view and cheap first paints go first."""
        if req.quality <= INTERACTIVE_QUALITY:
            return PRIORITY_INTERACTIVE
        if (sess.step, sess.view) == (step, view) and sess.delivered_quality > 0.0:
            return PRIORITY_INTERACTIVE
        return PRIORITY_BULK

    def _submit(self, sess: ServeSession | None, request, step,
                streamed: bool = False, ladder: tuple | None = None) -> Ticket:
        """Admit one request of either family — the one admission point
        (``sess=None`` is the stateless batch path, at bulk priority); a
        rejection is recorded on the metrics surface, then re-raised.
        A ``streamed`` request's ticket receives its increments."""
        session_id = self.BATCH_SESSION if sess is None else sess.session_id
        span = RequestSpan(session_id=session_id, seq=0, requested_quality=1.0)
        span.streamed = streamed
        view, priority = None, PRIORITY_BULK
        if isinstance(request, QueryRequest):
            span.requested_quality = request.quality
            if sess is not None:
                view = _view_of(request)
                span.priority = priority = self._priority(sess, request, view, step)
                ticket = self._serve_hit(sess, span, request, step, view)
                if ticket is not None:
                    return ticket
        elif not isinstance(request, NeighborRequest):
            raise TypeError(
                "submit() and execute() take a repro.QueryRequest or repro.NeighborRequest"
            )
        span.priority = priority
        try:
            ticket = self.scheduler.submit(
                lambda t: self._execute(t, sess, span, request, step, view, ladder),
                session_id=session_id, priority=priority,
            )
        except Exception as exc:
            span.rejected = True
            span.queue_depth = getattr(exc, "queue_depth", 0)
            self.metrics.record(span)
            if isinstance(exc, AdmissionRejected):
                lgr.warning(
                    "rejected a request of session %d: %s", session_id, exc.reason,
                    extra={"session_id": session_id, "reason": exc.reason,
                           "queue_depth": exc.queue_depth},
                )
            raise
        span.seq = ticket.seq
        return ticket

    def _serve_hit(self, sess: ServeSession, span, req: QueryRequest, step,
                   view) -> Ticket | None:
        """Serve a session's query window on the submitting thread if it is
        already cached: the resolved ticket, or None to queue the request.

        Only while the session has nothing queued or running (a hit never
        overtakes its own session's requests) and its lock is free, which
        is then held until the ticket resolves. The window is resolved by
        :meth:`_resolve`, as :meth:`_execute` resolves it, at the
        degradation ceiling this load sample would set, but with no side
        effect, and looked up with :meth:`ResultCache.peek`, so a miss
        counts nothing and queues as if never looked for. A hit runs the
        executor here on the batch found: an entry evicted meanwhile is
        still served, never read.
        """
        if not sess.lock.acquire(blocking=False):
            return None
        try:
            sched = self.scheduler
            # a step not opened yet is never a hit: opening it reads its
            # manifest (and finding an open one takes no lock)
            ds = self._steps.peek(step)
            if ds is None or not sched.idle(sess.session_id):
                return None
            load = sched.load_factor()
            cap = self.degradation.ceiling(load)
            resolved = self._resolve(sess, req, step, view, cap)
            window = resolved[1]
            if window is None:
                return None  # nothing new to send is not a lookup
            batch = self.results.peek((step, ds.metadata.generation, window))
            if batch is None:
                return None
            hit = _Hit(load, cap, resolved, batch)
            return sched.run_inline(
                lambda t: self._execute(t, sess, span, req, step, view, None, hit),
                session_id=sess.session_id, priority=span.priority,
            )
        finally:
            sess.lock.release()

    def submit(
        self,
        session_id: int,
        request: QueryRequest | NeighborRequest,
        *,
        step: int | None = None,
    ) -> Ticket:
        """Admit one progressive request; the ticket resolves to a
        :class:`ServeResponse`, and is already resolved when the window was
        a result-cache hit served here (its ``wait_seconds`` is then 0).
        Raises :class:`~repro.serve.scheduler.AdmissionRejected` past the
        bounds (the rejection is recorded on the metrics surface).

        Takes a :class:`~repro.api.QueryRequest` or a
        :class:`~repro.api.NeighborRequest` (served one-shot at bulk
        priority through the same caches).
        """
        sess = self.session(session_id)
        return self._submit(sess, request, sess.step if step is None else step)

    def request(
        self,
        session_id: int,
        request: QueryRequest | NeighborRequest,
        *,
        step: int | None = None,
        timeout: float | None = None,
    ) -> ServeResponse:
        """Synchronous :meth:`submit` — blocks until the response is ready."""
        return self.submit(session_id, request, step=step).result(timeout)

    #: scheduler session id of stateless batch work (no ServeSession)
    BATCH_SESSION = -1

    def execute(
        self, request: QueryRequest | NeighborRequest, step: int = 0,
        timeout: float | None = None,
    ) -> ServeResponse:
        """Stateless one-shot window at bulk priority (the batch-job path).

        No session, no degradation: the window is exactly the request's
        ``(prev_quality, quality]``, so re-executing the same request —
        the at-least-once redelivery of :mod:`repro.serve.jobs` — always
        reproduces the identical bytes and completion digest. Shares the
        result cache and scheduler with interactive traffic but never
        outranks it, and blocks while the batch gate's
        ``capacity * BATCH_SHARE`` slots are all taken: a sweep throttles
        itself, interactive sessions do not queue behind it.

        Also takes a :class:`~repro.api.NeighborRequest` — neighbor
        queries are one-shot by nature, so the stateless path serves
        them for both batch jobs and sessionless clients.
        """
        with self._batch_gate:
            return self._submit(None, request, step).result(timeout)

    def stream(
        self,
        session_id: int,
        request: QueryRequest,
        *,
        step: int | None = None,
        ladder: tuple | None = None,
    ) -> Ticket:
        """Admit one progressive request in streaming mode.

        The returned ticket is the stream: iterating it yields one
        :class:`~repro.api.StreamIncrement` per quality-ladder rung as
        the worker materializes it, and ``ticket.result()`` resolves to
        the same :class:`ServeResponse` a one-shot :meth:`request` would
        return, whose batch is the reassembly of exactly the delivered
        increments. A consumer that stops draining sheds the remaining
        rungs (``response.shed``); the session's ``delivered_quality``
        then reflects only the rungs actually delivered, so the next
        request refines from there — convergence is never lost.
        ``ticket.abandon()`` (or leaving its ``with`` block) tells the
        worker to stop producing.

        ``ladder`` overrides the default quality ladder (rungs outside
        the effective ``(prev, quality]`` window are dropped). Event-loop
        consumers :meth:`~repro.serve.streaming.StreamOutbox.subscribe`
        a wake-up to the ticket.
        """
        if not isinstance(request, QueryRequest):
            raise TypeError("stream() takes a repro.QueryRequest")
        sess = self.session(session_id)
        return self._submit(sess, request, sess.step if step is None else step, True, ladder)

    # -- the worker-side hot path ----------------------------------------------

    def _resolve(self, sess: ServeSession | None, req, step, view: tuple | None,
                 cap: float) -> tuple:
        """A request's window: ``(prev, window)`` — the one derivation,
        for the hit path and the executor alike; it changes nothing.

        A query window is, with a session, ``(delivered, ceiling]`` of its
        held view (``view``: :func:`_view_of` the request; another view
        starts from zero) at the degradation ceiling ``cap``;
        ``sess=None`` is the stateless batch case: exactly the request's
        own window, never degraded. A neighbor request is its own
        one-shot window, never degraded. ``window`` is the request handed
        to the step backend and the last part of the result key (its
        ``quality`` is the effective one), and None when there is nothing
        new to send.
        """
        if isinstance(req, NeighborRequest):
            return 0.0, replace(req, on_error="degrade")
        if sess is None:
            prev, effective = req.prev_quality, req.quality
        else:
            prev = sess.delivered_quality if (sess.step, sess.view) == (step, view) else 0.0
            effective = min(req.quality, cap)
        if effective <= prev:
            return prev, None
        return prev, replace(req, quality=effective, prev_quality=prev, on_error="degrade")

    def _execute(
        self, ticket, sess: ServeSession | None, span, req, step,
        view: tuple | None, ladder: tuple | None, hit: _Hit | None = None,
    ) -> ServeResponse:
        """Serve one request — the only executor — on the window
        :meth:`_resolve` derives.

        ``hit`` is what :meth:`_serve_hit` found, on the submitting thread
        that holds the session lock: its window, as resolved there, is
        served from its batch, at the load sample and ceiling it was
        found with. The lock was held since, so resolving again would
        give the same window.
        """
        t_start = self._clock()
        span.wait_seconds = ticket.wait_seconds
        sched = self.scheduler
        neighbor = isinstance(req, NeighborRequest)
        with sess.lock if sess is not None and hit is None else _UNLOCKED:
            span.queue_depth = sched.queue_depth + sched.in_flight
            cap = 1.0
            if sess is not None and not neighbor:
                if hit is None:
                    cap = self.degradation.observe(sched.load_factor())
                else:
                    # the sample is observed as a worker would observe it,
                    # but the window is the one the hit was found under
                    self.degradation.observe(hit.load)
                    cap = hit.cap
                span.degraded = self.degradation.apply(req.quality, cap)[1]
                if span.degraded:
                    sess.downgrades += 1
                # a view change restarts the progression — the old
                # increments are for another view
                if (sess.step, sess.view) != (step, view):
                    sess.step = step
                    sess.view = view
                    sess.delivered_quality = 0.0
            prev, window = (
                self._resolve(sess, req, step, view, cap) if hit is None else hit.resolved
            )
            span.prev_quality = prev

            ds = self.dataset(step)
            if window is None:
                # nothing new to send at this ceiling (already-delivered
                # data is never re-sent, degraded or not)
                result, served = empty_batch(ds, req.columns), prev
            else:
                key = (step, ds.metadata.generation, window)
                result, served = self._window(
                    span, ds, key, ticket, ladder, t_start, None if hit is None else hit.batch
                )
            span.nbytes = result.nbytes
            if sess is not None:
                if served > prev and not neighbor:
                    sess.delivered_quality = served
                sess.requests += 1
                sess.bytes_sent += span.nbytes
        span.served_quality = served
        span.points = len(result)
        span.total_seconds = span.wait_seconds + (self._clock() - t_start)
        self.metrics.record(span)
        return ServeResponse(
            batch=result.batch if neighbor else result,
            requested_quality=span.requested_quality,
            served_quality=served,
            prev_quality=prev,
            degraded=span.degraded,
            cache_hit=span.cache_hit,
            span=span,
            partial=span.partial,
            quarantined_files=span.quarantined_files,
            collapsed=span.collapsed,
            shed=span.shed,
            increments=span.increments,
            neighbors=result if neighbor else None,
        )

    def _window(self, span, ds, key, ticket, ladder, t_start, found=None):
        """One window through the result tier: ``(result, served quality)``.

        ``key`` is ``(step, generation, window)``. get → join → execute →
        put unless partial → settle. A query
        window is a loop over increments: a hit (or an identical
        in-flight window's result) is one pre-ordered increment, a miss
        is ``ds.stream`` over the window's ladder — ``(effective,)`` for
        a one-shot window. Each increment is pushed to a streamed
        request's ticket, then the delivered ones are reassembled. A
        neighbor window's miss is ``ds.neighbors``.

        ``found`` is the batch the submitting thread found under ``key``
        (:meth:`_serve_hit`): the hit, whatever the cache holds by now.

        Partial results — a quarantined leaf — are never cached and never
        handed over; shed results are cached at the ``(prev, served]``
        window they actually cover.
        """
        window = key[2]
        neighbor = isinstance(window, NeighborRequest)
        prev, effective = (0.0, 1.0) if neighbor else (window.prev_quality, window.quality)
        result = self.results.get(key, found)
        span.cache_hit = result is not None
        flight = None
        if result is None:
            # a streamed leader's progress would hang on its own
            # consumer, so streams only ever wait
            result, flight = self.results.join(key, lead=not span.streamed)
            span.collapsed = result is not None
        missed = result is None
        handed = None
        try:
            t0 = self._clock()
            if neighbor:
                if missed:
                    result = ds.neighbors(window)
                    span.quarantined_files = result.stats.quarantined_files
                    span.partial = span.quarantined_files > 0
                served = effective
                span.increments = 1
            else:
                if not missed:
                    incs = (StreamIncrement(effective, prev, batch=result),)
                else:
                    plan = ds.plan(window.box, window.filters)
                    span.plan_seconds = self._clock() - t0
                    if not span.streamed:
                        ladder = (effective,)
                    elif ladder is None:
                        ladder = default_quality_ladder(effective, prev, levels=STREAM_LEVELS)
                    else:
                        # degradation may have lowered the target below
                        # the caller's ladder; keep the rungs inside the window
                        ladder = tuple(q for q in ladder if prev < q < effective) + (effective,)
                    incs = ds.stream(window, ladder=ladder, plan=plan)
                result, served = self._deliver(span, ds, window, incs, ticket, t_start)
            if missed:
                span.traverse_seconds = self._clock() - t0 - span.plan_seconds
                t0 = self._clock()
                if not span.partial and served > prev:
                    if served != effective:
                        key = (*key[:2], replace(window, quality=served))
                    self.results.put(key, result)
                    handed = result
                span.gather_seconds = self._clock() - t0
        finally:
            if flight is not None:
                self.results.settle(flight, handed)
        return result, served

    def _deliver(self, span, ds, window, incs, ticket, t_start):
        """Collect one query window's increments — each pushed to the
        ticket first when the request is streamed — and reassemble them:
        ``(batch, served quality)``. A push the consumer does not take in
        time sheds the remaining rungs."""
        delivered = []
        try:
            for inc in incs:
                if inc.partial:
                    span.partial = True
                if span.streamed:
                    if not ticket.push(inc, streaming.STREAM_GRACE):
                        span.shed = True
                        break
                    if span.first_increment_seconds == 0.0:
                        span.first_increment_seconds = (
                            span.wait_seconds + (self._clock() - t_start)
                        )
                delivered.append(inc)
        finally:
            # a backend's stream holds its files' leases until closed
            close = getattr(incs, "close", None)
            if close is not None:
                close()
        span.increments = len(delivered)
        if not delivered:
            return empty_batch(ds, window.columns), window.prev_quality
        if delivered[-1].stats is not None:
            span.quarantined_files = delivered[-1].stats.quarantined_files
        served = delivered[-1].quality
        if span.shed:
            lgr.info(
                "session %d shed its stream at quality %g of %g",
                span.session_id, served, span.requested_quality,
                extra={"session_id": span.session_id, "served_quality": served,
                       "requested_quality": span.requested_quality},
            )
        return reassemble_stream(delivered).batch, served

    # -- metrics ----------------------------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """Per-(step, leaf) open/decode/point tallies of everything this
        service read — what :func:`repro.reorg.plan_reorg` consumes."""
        return self.telemetry.snapshot()

    def snapshot(self) -> dict:
        """The full JSON metrics surface: requests, scheduler, caches."""
        opened = self._steps.opened()
        plans = {
            "hits": sum(ds.plan_cache.hits for ds in opened.values()),
            "misses": sum(ds.plan_cache.misses for ds in opened.values()),
            "entries": sum(len(ds.plan_cache) for ds in opened.values()),
        }
        quarantined = {step: ds.quarantined() for step, ds in opened.items()}
        generations = {str(step): ds.metadata.generation for step, ds in opened.items()}
        file_stats = self._file_cache.stats()
        doc = self.metrics.snapshot()
        doc["scheduler"] = self.scheduler.stats()
        doc["degradation"] = self.degradation.stats()
        doc["caches"] = {
            "results": self.results.stats(),
            # the result tier's single-flight: windows led, and waits
            # served by (or executed after) an identical leader
            "collapse": self.results.flight_stats(),
            "plans": plans,
            "files": file_stats,
            # the decoded-column tier rides on the file cache; hoist it so
            # dashboards see all four tiers side by side
            "decoded_columns": file_stats.pop("decoded_columns"),
        }
        doc["memory"] = self.memory.stats()
        doc["integrity"] = {
            "quarantined_leaves": sum(len(q) for q in quarantined.values()),
            "quarantined_by_step": {
                str(step): sorted(q) for step, q in quarantined.items() if q
            },
            "partial_responses": self.metrics.partial_responses,
            "file_open_errors": file_stats["open_errors"],
        }
        doc["sessions"] = self.n_sessions
        doc["steps"] = len(self._steps.manifests)
        #: per-(step, leaf) open/decode/point tallies for the reorganizer
        doc["telemetry"] = self.telemetry.snapshot()
        doc["generations"] = generations
        # strictly JSON: shard workers ship this over IPC and re-emit it
        # verbatim; nothing numpy-shaped or tuple-keyed may leak through
        return json_sanitize(doc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryService(steps={len(self._steps.manifests)}, "
            f"sessions={self.n_sessions}, capacity={self.config.capacity})"
        )
