"""Sharded serve tier: the serve core over N shard worker processes.

One :class:`QueryService` process tops out at one GIL, one page cache
working set, and one failure domain. :class:`ShardedQueryService` splits
the dataset across worker **processes**: leaf files are dealt out as
contiguous runs of the Aggregation Tree's leaf order, cut by bytes
(:mod:`repro.serve.hashing`), and every shard owns its own
BATFileCache, DecodedColumnCache, PlanCache, quarantine set, and decode
threads for exactly the leaves it was dealt.

It is not a second service: it *is* :class:`QueryService` — sessions,
admission, degradation, result cache, streamed tickets, batch gate,
asyncio front end, one copy — with the per-step backend
replaced. Where the core holds a :class:`~repro.core.dataset.BATDataset`
the router holds a :class:`_ShardedStep`, which plans against the
manifest alone (the router never opens a leaf file) and answers
``stream`` by scattering each rung's window to the shards whose leaves
the plan touches::

    request ── QueryService core (admission, session, degradation,
        │                          ResultCache, ticket)
        │                        │ step.plan / step.stream
        │                        ▼
        │        _ShardedStep: plan (manifest only) ─▶ owners (leaf runs)
        │                        │ scatter per ladder rung
        │              ┌─────────┼─────────┐    (pipe RPC, one frame each way)
        │         shard 0    shard 1  ...  shard k     (processes)
        │          restricted plan → ds.stream → rows + leaf runs
        │              └─────────┼─────────┘   (+ order keys, multi-rung)
        │                        ▼ gather
        └──────◀── leaf-run merge: runs of all replies sorted by leaf,
                   sliced end to end (reassemble_stream, pre-ordered)

**Byte-identity across the scatter.** A shard executes the query with
the full plan *filtered to its owned leaves* — never via planner
exclusion, which would count the other shards' files as quarantined and
mark every response partial. A shard's rows arrive file by file, leaves
ascending, and each leaf file has one owner; so each reply lists its
**leaf runs** (``(global leaf index, row count)`` per file) and the
router lays the runs of all replies end to end in leaf order — exactly
the single-process delivery order, with no per-row sort. Every window
is a ladder of rungs, scattered once per rung (a rung of a multi-rung
stream equals the one-rung stream of its ``(prev, q]`` window — the one
call workers serve; a one-shot window is the ladder ``(quality,)``);
only the rungs of a multi-rung ladder ship per-row order keys — the
global ``(leaf, treelet_rank, slot)`` a single-process stream gives the
same rows — since clients reassemble rungs by them. Responses are
property-tested byte-identical to :class:`QueryService`'s in every mode
the core has, including boxes spanning shard boundaries; only neighbor
requests are refused.

**Frames.** Every message on a shard pipe, either way, is one frame
(:func:`write_frame` / :func:`read_frame`): a protocol-5 pickle head
with each contiguous array out of band. The sender hands the arrays'
own memory to ``writev`` and the receiver ``readv`` reads them into
arrays it allocates, so between the worker's gather and the router's
merge a reply's rows are copied by nothing but the pipe itself.

**One generation per request.** A step object is immutable: a reload
replaces it, so a request plans, scatters and keys its caches against
the generation it fetched. Every scatter doc carries that generation; a
worker that is behind reloads the manifest before answering, one that
is ahead refuses with :class:`StaleGeneration`, which fails the request
— a merged batch never mixes two layouts and is never cached under the
wrong one. Router and workers read the step layout the same way: each
holds a :class:`~repro.core.timeseries.StepTable` over the same source,
the router's opening a :class:`_ShardedStep` per step, a worker's its
datasets with the leaves it owns, and a worker's table does the
reopen-when-behind.

**Crash containment.** Each shard client owns the worker process, a
receiver thread, and a pending-reply table. A worker death (EOF on the
pipe, between frames or inside one) fails the in-flight replies with
:class:`ShardCrashed`; the caller
respawns the worker — fresh caches, ownership recomputed from the
manifest — and retries once. The batch-job tier
(:mod:`repro.serve.jobs`) layers at-least-once redelivery on top.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import os
import pickle
import struct
import threading
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ..api import (
    NeighborRequest,
    StreamIncrement,
    reassemble_stream,
    request_from_doc,
    request_to_doc,
)
from ..bat.file import BATFile
from ..bat.filecache import BATFileCache
from ..bat.query import QueryStats
from ..core.dataset import BATDataset
from ..core.metadata import DatasetMetadata
from ..core.planner import PlanCache
from ..core.timeseries import StepTable
from ..errors import InvalidRequestError, ReproError
from ..types import ParticleBatch
from .hashing import assign_leaves
from .metrics import (
    AccessTelemetry,
    RequestSpan,
    ServeMetrics,
    json_sanitize,
    merge_telemetry,
)
from .service import QueryService, ServeConfig, empty_batch

__all__ = [
    "ShardCrashed",
    "ShardUnavailable",
    "StaleGeneration",
    "ShardedQueryService",
    "request_to_doc",
    "request_from_doc",
    "shard_worker_main",
]

#: how long the router waits on one worker reply before giving the shard up
RPC_TIMEOUT = 120.0

#: a frame's fixed header: pickle head length, out-of-band buffer count
_HEADER = struct.Struct("<QQ")
#: the most iovecs one ``readv`` / ``writev`` call takes
_IOV_MAX = os.sysconf("SC_IOV_MAX")

lgr = logging.getLogger("repro.serve.shard")


class ShardCrashed(ReproError, RuntimeError):
    """The worker process died while a reply was pending."""


class ShardUnavailable(ReproError, RuntimeError):
    """A shard stayed unreachable even after a respawn retry."""


class StaleGeneration(ReproError, RuntimeError):
    """A worker serves a different layout generation than the request was
    planned against, even after reloading the step's manifest.
    ``shard_id`` names the shard whose reply showed it, when known."""

    def __init__(self, message: str, shard_id: int | None = None):
        super().__init__(message)
        self.shard_id = shard_id


# -- frames --------------------------------------------------------------------


def write_frame(fd: int, obj) -> None:
    """Send ``obj`` down a shard pipe as one frame.

    The frame is the fixed header, every out-of-band buffer's size, the
    protocol-5 pickle head, then each contiguous array's raw bytes, written
    by ``writev`` straight from the arrays' memory: nothing the pickle
    takes out of band is copied on this side. Non-contiguous arrays go in
    band, inside the head.
    """
    buffers: list = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [b.raw() for b in buffers]
    sizes = struct.pack(f"<{len(raws)}Q", *(r.nbytes for r in raws))
    _transfer(os.writev, fd, [_HEADER.pack(len(head), len(raws)), sizes, head, *raws])


def read_frame(fd: int):
    """Receive one :func:`write_frame` frame from a shard pipe.

    Each out-of-band buffer is read by ``readv`` straight into its own
    ``np.empty`` array (aligned and writeable), and the arrays the head
    rebuilds are views of those. EOF — at a frame boundary or inside a
    frame — raises :class:`EOFError`.
    """
    header = bytearray(_HEADER.size)
    _transfer(os.readv, fd, [header])
    head_len, n_buffers = _HEADER.unpack(header)
    meta = bytearray(8 * n_buffers + head_len)
    _transfer(os.readv, fd, [meta])
    sizes = struct.unpack_from(f"<{n_buffers}Q", meta)
    buffers = [np.empty(size, dtype=np.uint8) for size in sizes]
    _transfer(os.readv, fd, buffers)
    return pickle.loads(memoryview(meta)[8 * n_buffers:], buffers=buffers)


def _transfer(call, fd: int, buffers) -> None:
    """Move all of ``buffers`` through ``call`` (``os.readv`` or
    ``os.writev``), at most :data:`_IOV_MAX` at a time, resuming after
    a partial transfer; a call that moves nothing is EOF."""
    views = [m for m in map(memoryview, buffers) if m.nbytes]
    i = 0
    while i < len(views):
        n = call(fd, views[i : i + _IOV_MAX])
        if n == 0:
            raise EOFError("shard pipe closed")
        while n:
            size = views[i].nbytes
            if n < size:
                views[i] = views[i][n:]
                break
            n -= size
            i += 1


# -- worker process ------------------------------------------------------------


class _OwnedStep(NamedTuple):
    """A worker's open step: its dataset and the leaves this shard owns."""

    ds: BATDataset
    owned: frozenset

    @property
    def metadata(self) -> DatasetMetadata:
        return self.ds.metadata

    def close(self) -> None:
        self.ds.close()


class _ShardWorker:
    """Everything one shard worker process owns (built post-spawn)."""

    def __init__(self, source: str, shard_id: int, n_shards: int, options: dict):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.options = options
        #: the source's steps, as the router reads them; each an :class:`_OwnedStep`
        self.steps = StepTable(source, self._open_step)
        self._file_cache = BATFileCache(
            options.get("max_open_files", 64),
            column_cache_bytes=options.get("memory_bytes", 0),
        )
        self.metrics = ServeMetrics()
        self.telemetry = AccessTelemetry()
        self._started = time.perf_counter()

    def _open_step(self, step: int, manifest) -> _OwnedStep:
        ds = BATDataset(manifest, file_cache=self._file_cache)
        ds.telemetry = self.telemetry.bind(step)
        owners = assign_leaves(ds.metadata, self.n_shards)
        return _OwnedStep(ds, frozenset(
            i for i, owner in enumerate(owners) if owner == self.shard_id
        ))

    def reload(self, doc: dict) -> dict:
        """Drop one step's dataset and reload its on-disk manifest.

        The router broadcasts this after a reorganization republish: the
        worker's file-handle/decoded-column entries for the step drop
        with the dataset, leaf ownership is recomputed over the new leaf
        set, and the reply reports the generation now being served.
        """
        ds, owned = self.steps.reload(int(doc["step"]))
        return {
            "shard": self.shard_id,
            "generation": ds.metadata.generation,
            "owned_leaves": len(owned),
        }

    def execute(self, doc: dict) -> dict:
        """One scattered window on this shard's leaves: rows and leaf runs.

        The plan is the worker's own (quarantine-aware) plan filtered to
        owned leaves — filtering, not planner exclusion, so foreign
        leaves are not miscounted as quarantined. ``runs`` is an
        ``(files, 2)`` int64 array of ``(global leaf index, row count)``
        in emission order, leaves ascending; the router merges by it.
        Only a rung of a multi-rung stream (``doc["keyed"]``) builds and
        ships the rows' order keys ``(leaf, treelet_rank, slot)``, the
        keys ``BATDataset.stream`` gives the same rows; else ``order`` is
        ``None``.
        """
        t0 = time.perf_counter()
        step = int(doc["step"])
        req = request_from_doc(doc["request"])
        # a worker the router's ``reload`` has not reached yet catches up
        # here; it never answers from a layout older than the request's
        ds, owned = self.steps.get(step, doc["generation"])
        if ds.metadata.generation != doc["generation"]:
            raise StaleGeneration(
                f"step {step}: request planned on generation "
                f"{doc['generation']}, shard {self.shard_id} serves "
                f"{ds.metadata.generation}", self.shard_id,
            )
        full_plan = ds.plan(req.box, req.filters)
        files = tuple(fp for fp in full_plan.files if fp.leaf_index in owned)
        span = RequestSpan(
            session_id=self.shard_id, seq=0, requested_quality=req.quality,
            prev_quality=req.prev_quality,
        )
        if not files:  # no owned leaf survives this worker's own plan
            span.total_seconds = time.perf_counter() - t0
            self.metrics.record(span)
            return {
                "count": 0, "positions": None, "attributes": {}, "order": None,
                "runs": np.empty((0, 2), dtype=np.int64),
                "partial": full_plan.excluded_files > 0,
                "quarantined_files": full_plan.excluded_files,
            }
        plan = replace(full_plan, files=files, n_files=len(files))
        # the one-rung window; only a multi-rung stream's rows get keys
        ((inc, rows),) = ds._stream_rungs(req, (req.quality,), plan, keyed=doc["keyed"])
        lut = np.array([fp.leaf_index for fp in plan.files], dtype=np.int64)
        sent = rows > 0  # the files with rows, in plan (= leaf) order
        runs = np.column_stack((lut[sent], rows[sent]))
        stats = inc.stats
        batch = inc.batch
        span.served_quality = req.quality
        span.partial = inc.partial or stats.quarantined_files > 0
        span.quarantined_files = stats.quarantined_files
        span.points = len(batch)
        span.nbytes = batch.nbytes
        span.increments = 1
        span.traverse_seconds = time.perf_counter() - t0
        span.total_seconds = span.traverse_seconds
        self.metrics.record(span)
        return {
            "count": len(batch),
            "positions": batch.positions,
            "attributes": dict(batch.attributes),
            "order": inc.order,
            "runs": runs,
            "partial": span.partial,
            "quarantined_files": stats.quarantined_files,
        }

    def snapshot(self) -> dict:
        """This shard's strictly-JSON metrics slice (shipped over IPC)."""
        opened = self.steps.opened()
        datasets = [ds for ds, _ in opened.values()]
        file_stats = self._file_cache.stats()
        doc = self.metrics.snapshot()
        doc["shard"] = self.shard_id
        doc["uptime_seconds"] = time.perf_counter() - self._started
        doc["owned_leaves"] = {step: len(s.owned) for step, s in opened.items()}
        doc["caches"] = {
            "plans": {
                "hits": sum(ds.plan_cache.hits for ds in datasets),
                "misses": sum(ds.plan_cache.misses for ds in datasets),
            },
            "files": file_stats,
            "decoded_columns": file_stats.pop("decoded_columns"),
        }
        doc["memory"] = self._file_cache.memory.stats()
        doc["quarantined_leaves"] = sum(len(ds.quarantined()) for ds in datasets)
        doc["generations"] = {str(step): s.metadata.generation for step, s in opened.items()}
        doc["telemetry"] = self.telemetry.snapshot()
        return json_sanitize(doc)

    def close(self) -> None:
        self.steps.close()
        self._file_cache.close()


def shard_worker_main(conn, source: str, shard_id: int, n_shards: int,
                      options: dict) -> None:
    """Worker-process entry point: serve pipe RPCs until shutdown/EOF.

    Requests are handled on a small thread pool (``capacity`` threads)
    so one shard serves the router's concurrent scatter calls; replies
    are tagged with the request id, so completion order is free. Every
    message each way is one :func:`write_frame` frame.
    """
    from concurrent.futures import ThreadPoolExecutor

    worker = _ShardWorker(source, shard_id, n_shards, options)
    send_lock = threading.Lock()
    fd = conn.fileno()

    def reply(req_id, payload, *, ok=True):
        try:
            with send_lock:
                write_frame(fd, ("ok" if ok else "err", req_id, payload))
        except (OSError, ValueError):  # router went away
            pass

    def handle(kind, req_id, doc):
        try:
            if kind == "query":
                reply(req_id, worker.execute(doc))
            elif kind == "snapshot":
                reply(req_id, worker.snapshot())
            elif kind == "reload":
                reply(req_id, worker.reload(doc))
            elif kind == "ping":
                reply(req_id, {"shard": shard_id})
            else:
                reply(req_id, ("ValueError", f"unknown message kind {kind!r}"), ok=False)
        except BaseException as exc:  # noqa: BLE001 - reported to the router
            reply(req_id, (type(exc).__name__, str(exc)), ok=False)

    pool = ThreadPoolExecutor(
        max_workers=max(1, int(options.get("capacity", 2)))
    )
    try:
        while True:
            try:
                msg = read_frame(fd)
            except (EOFError, OSError):
                break
            if msg[0] == "shutdown":
                break
            pool.submit(handle, msg[0], msg[1], msg[2] if len(msg) > 2 else None)
    finally:
        pool.shutdown(wait=True)
        worker.close()
        try:
            conn.close()
        except OSError:
            pass


# -- router side ---------------------------------------------------------------


class _Reply:
    """One pending RPC's landing slot."""

    __slots__ = ("event", "value", "error", "crashed")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.error = None
        self.crashed = False


class _ShardClient:
    """Router-side handle of one worker process: pipe, receiver, respawn."""

    def __init__(self, shard_id: int, source: str, n_shards: int,
                 options: dict, ctx):
        self.shard_id = shard_id
        self._source = source
        self._n_shards = n_shards
        self._options = options
        self._ctx = ctx
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._ids = itertools.count()
        self._alive = False
        self._closing = False
        self.process = None
        self._conn = None
        self.restarts = -1  # first spawn is not a restart
        with self._lock:
            self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child, self._source, self.shard_id, self._n_shards,
                  self._options),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        proc.start()
        child.close()
        self.process = proc
        self._conn = parent
        # the live pipe's pending replies: each pipe has its own table, so
        # the receiver of a dead pipe fails only what was sent on it
        self._pending: dict[int, _Reply] = {}
        pending = self._pending
        self._alive = True
        self.restarts += 1
        if self.restarts:
            lgr.warning(
                "respawned shard %d worker (restart %d)", self.shard_id, self.restarts,
                extra={"shard_id": self.shard_id, "restarts": self.restarts},
            )
        else:
            lgr.info(
                "spawned shard %d worker (pid %d)", self.shard_id, proc.pid,
                extra={"shard_id": self.shard_id, "pid": proc.pid},
            )
        self._rx = threading.Thread(
            target=self._receive, args=(parent, proc.pid, pending),
            name=f"repro-shard-rx-{self.shard_id}", daemon=True,
        )
        self._rx.start()

    def _receive(self, conn, pid: int, pending: dict) -> None:
        # ``conn`` is held here so the pipe stays open while this reads it
        fd = conn.fileno()
        while True:
            try:
                kind, req_id, payload = read_frame(fd)
            except (EOFError, OSError):  # EOF inside a frame is a death too
                break
            with self._lock:
                reply = pending.pop(req_id, None)
            if reply is None:
                continue
            if kind == "ok":
                reply.value = payload
            else:
                reply.error = payload  # (exception type name, message)
            reply.event.set()
        # worker gone: fail whatever was still in flight on this pipe
        with self._lock:
            if conn is self._conn:
                self._alive = False
            stranded = [r for r in pending.values() if not r.event.is_set()]
            pending.clear()
            closing = self._closing
        if not closing:
            lgr.warning(
                "shard %d worker (pid %d) died with %d replies pending",
                self.shard_id, pid, len(stranded),
                extra={"shard_id": self.shard_id, "pid": pid, "stranded": len(stranded)},
            )
        for reply in stranded:
            reply.crashed = True
            reply.event.set()

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            conn, proc, rx = self._conn, self.process, self._rx
            self._alive = False
            self._closing = True
        if conn is not None:
            try:
                with self._send_lock:
                    write_frame(conn.fileno(), ("shutdown",))
            except (OSError, ValueError):
                pass
        if proc is not None:
            proc.join(timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout)
            rx.join(timeout)  # the worker's exit is the receiver's EOF
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    # -- RPC ---------------------------------------------------------------

    def _start(self, kind: str, doc):
        """Send one request, respawning a dead worker first; returns a reply."""
        with self._lock:
            if not self._alive or self.process is None or not self.process.is_alive():
                self._spawn()
            reply = _Reply()
            req_id = next(self._ids)
            pending = self._pending
            pending[req_id] = reply
            conn = self._conn
        try:
            with self._send_lock:
                write_frame(conn.fileno(), (kind, req_id, doc))
        except (OSError, ValueError):
            with self._lock:
                pending.pop(req_id, None)
                if conn is self._conn:
                    self._alive = False
            reply.crashed = True
            reply.event.set()
        return reply

    def call(self, kind: str, doc=None, timeout: float | None = RPC_TIMEOUT):
        """Blocking RPC with one transparent respawn-and-retry on crash."""
        return self.finish(self._start(kind, doc), timeout, retry=(kind, doc))

    def finish(self, reply: _Reply, timeout: float | None, retry=None):
        """Wait for one started RPC; optionally retry once after a crash."""
        if not reply.event.wait(timeout):
            raise ShardUnavailable(
                f"shard {self.shard_id} did not answer within {timeout}s"
            )
        if reply.crashed:
            if retry is None:
                raise ShardCrashed(f"shard {self.shard_id} worker died mid-request")
            kind, doc = retry
            fresh = self._start(kind, doc)
            if not fresh.event.wait(timeout):
                raise ShardUnavailable(
                    f"shard {self.shard_id} did not answer within {timeout}s"
                )
            if fresh.crashed:
                raise ShardUnavailable(
                    f"shard {self.shard_id} crashed twice on one request"
                )
            reply = fresh
        if reply.error is not None:
            name, message = reply.error
            message = f"shard {self.shard_id} failed: {name}: {message}"
            if name == "StaleGeneration":
                raise StaleGeneration(message, self.shard_id)
            raise ShardUnavailable(message)
        return reply.value


class _ShardedStep:
    """One step as the serve core reaches it, answered by scatter/gather.

    The slice of :class:`~repro.core.dataset.BATDataset` that
    :class:`QueryService` calls (see ``QueryService._open_step``), over
    the manifest alone: planning happens here, decoding in the workers
    that own the planned leaves. Immutable — a reload builds a new one —
    so a request that fetched this object plans, scatters and keys its
    caches against one generation's metadata and ownership throughout.
    """

    def __init__(self, router: "ShardedQueryService", step: int, manifest):
        self.metadata = DatasetMetadata.load(manifest)
        self.plan_cache = PlanCache()
        #: per-leaf shard assignment (deterministic; workers agree)
        self.owners = assign_leaves(self.metadata, router.n_shards)
        self._router = router
        self._step = step
        self._manifest = manifest

    def plan(self, box=None, filters=()):
        return self.plan_cache.get_or_build(self.metadata, box, tuple(filters))

    def attribute_specs(self) -> list:
        specs = self.metadata.attribute_specs()
        if specs is None:  # pre-attr_dtypes manifest: one transient open
            first = self.metadata.leaves[0]
            with BATFile(self._manifest.parent / first.file_name) as f:
                specs = f.attribute_specs()
        return specs

    def quarantined(self) -> dict:
        return {}  # quarantine sets live with the workers that open files

    def close(self) -> None:
        self.plan_cache.clear()

    def neighbors(self, request):
        raise InvalidRequestError(
            "the sharded tier does not serve NeighborRequest yet: neighbor "
            "lists cross shard ownership boundaries (ghost exchange spans "
            "leaf files owned by different workers); use QueryService or "
            "BATDataset.neighbors"
        )

    def _scatter(self, req, plan, keyed=False):
        """Send one ``(prev_quality, quality]`` window to every shard that
        owns a planned leaf and merge the replies by leaf runs: ``(batch,
        order, quarantined, partial)``, ``order`` the rows' global keys
        when ``keyed``, else ``None``."""
        needed = sorted({self.owners[fp.leaf_index] for fp in plan.files})
        if needed:  # a window pruned of every leaf reaches no worker
            self._router._count_fanout(len(needed))
        doc = {
            "step": self._step,
            "generation": self.metadata.generation,
            "request": request_to_doc(req),
            "keyed": keyed,
        }
        clients = [self._router._shards[s] for s in needed]
        started = [(c, c._start("query", doc)) for c in clients]
        try:
            payloads = [
                c.finish(reply, RPC_TIMEOUT, retry=("query", doc))
                for c, reply in started
            ]
            batch, order = _merge_replies(self.owners, req, zip(needed, payloads), keyed)
        except StaleGeneration as exc:
            lgr.warning(
                "shard %s disagrees with generation %d of step %d: %s",
                exc.shard_id, self.metadata.generation, self._step, exc,
                extra={"shard_id": exc.shard_id, "step": self._step,
                       "generation": self.metadata.generation},
            )
            raise
        if batch is None:  # no rows anywhere: the step's schema-stable empty
            batch = empty_batch(self, req.columns)
        quarantined = sum(p["quarantined_files"] for p in payloads)
        return batch, order, quarantined, any(p["partial"] for p in payloads)

    def stream(self, request, ladder, plan):
        """One scatter per ladder rung, one increment each.

        A rung of a multi-rung :meth:`BATDataset.stream` equals the
        one-rung stream of that rung's ``(prev, q]`` window, rows and
        order keys alike — which is the call workers serve — so the
        rungs, globally keyed, reassemble exactly as a single-process
        stream does. A one-rung ladder's increment is pre-ordered (the
        leaf-run merge), byte-identical to the single-process read of the
        window, and no worker builds keys for it.
        """
        keyed = len(ladder) > 1
        partial = False
        prev = request.prev_quality
        for q in ladder:
            batch, order, quarantined, rung_partial = self._scatter(
                replace(request, quality=q, prev_quality=prev), plan, keyed
            )
            partial = partial or rung_partial
            # per view a shard's count only grows, so the latest rung's
            # total is the stream's cumulative one
            yield StreamIncrement(
                quality=q, prev_quality=prev, batch=batch, order=order,
                stats=QueryStats(quarantined_files=quarantined), partial=partial,
            )
            prev = q


def _leaf_runs(owners, replies) -> list:
    """``(leaf, payload, start, end)`` of every leaf run in ``replies``
    (``(shard, payload)`` pairs), sorted by leaf; adjacent runs of one
    reply are coalesced, so a lone live reply is one run over all its rows.

    A run whose leaf the sending shard does not own, or that does not
    ascend within its reply, means router and worker disagree on the
    layout: :class:`StaleGeneration`, before anything is merged.
    """
    runs = []
    for shard, payload in replies:
        start, prev = 0, -1
        for leaf, count in payload["runs"].tolist():
            if leaf <= prev or leaf >= len(owners) or owners[leaf] != shard:
                why = "out of leaf order" if leaf <= prev else "not its leaf"
                raise StaleGeneration(
                    f"shard {shard} replied with rows of leaf {leaf} ({why})", shard
                )
            runs.append((leaf, payload, start, start + count))
            start, prev = start + count, leaf
    merged = []
    for leaf, payload, start, end in sorted(runs, key=lambda run: run[0]):
        if merged and merged[-1][1] is payload:  # its previous run ends at start
            leaf, _, start, _ = merged.pop()
        merged.append((leaf, payload, start, end))
    return merged


def _merge_replies(owners, window, replies, keyed):
    """One window's ``(shard, payload)`` replies as ``(batch, order)`` in
    single-process delivery order: the leaf runs laid end to end, rows as
    pre-ordered increments of :func:`reassemble_stream` (a lone run passes
    whole, uncopied) and order keys alike when ``keyed`` (else ``None``).
    ``batch`` is ``None`` when no reply holds a row.
    """
    runs = _leaf_runs(owners, replies)
    if not runs:
        return None, np.empty((0, 3), dtype=np.int64) if keyed else None
    batch = reassemble_stream([
        StreamIncrement(window.quality, window.prev_quality, ParticleBatch(
            None if p["positions"] is None else p["positions"][start:end],
            {name: col[start:end] for name, col in p["attributes"].items()},
            count=end - start,
        )) for _, p, start, end in runs
    ]).batch
    if not keyed:
        return batch, None
    keys = [p["order"][start:end] for _, p, start, end in runs]
    return batch, keys[0] if len(keys) == 1 else np.concatenate(keys)


class ShardedQueryService(QueryService):
    """:class:`QueryService` whose steps are answered by N worker processes.

    Sessions, admission, degradation, the result cache, streaming and
    the metrics surface are the base class's, unchanged; this class
    supplies the step backend (:class:`_ShardedStep`), owns the worker
    processes, and adds the ``shards`` block to the snapshot.
    """

    def __init__(
        self,
        source,
        config: ServeConfig | None = None,
        *,
        n_shards: int = 2,
        clock=time.perf_counter,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(source, config, clock=clock)
        self.n_shards = int(n_shards)
        self._fanout_lock = threading.Lock()
        self.fanout_single = 0
        self.fanout_multi = 0
        self.fanout_shards = 0
        options = {
            "capacity": max(1, self.config.capacity),
            "max_open_files": self.config.max_open_files,
            "memory_bytes": self.config.memory_bytes,
        }
        # spawn, not fork: the router already runs scheduler threads
        ctx = multiprocessing.get_context("spawn")
        self._shards = [
            _ShardClient(i, str(source), self.n_shards, options, ctx)
            for i in range(self.n_shards)
        ]

    def _count_fanout(self, n_shards: int) -> None:
        with self._fanout_lock:
            if n_shards > 1:
                self.fanout_multi += 1
            else:
                self.fanout_single += 1
            self.fanout_shards += n_shards

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, cancel: bool = False) -> None:
        """The base shutdown — streams resolved, then step objects closed
        — and only then the workers those streams were scattering to."""
        super().close(cancel=cancel)
        for client in self._shards:
            client.close()

    # -- structure ---------------------------------------------------------

    def _open_step(self, step: int, manifest) -> _ShardedStep:
        return _ShardedStep(self, step, manifest)

    def metadata(self, step: int = 0) -> DatasetMetadata:
        return self.dataset(step).metadata

    def owners(self, step: int = 0) -> tuple:
        """Per-leaf shard assignment (deterministic; workers agree)."""
        return self.dataset(step).owners

    @property
    def bounds(self):
        return self.metadata(self.steps[0]).bounds

    def reload_step(self, step: int = 0) -> int:
        """Re-read the step's manifest and fan invalidation out to workers.

        The base reload swaps in a fresh step object (new metadata, plan
        cache and ownership) and evicts the step's result entries; the
        broadcast then has every worker close its dataset (dropping
        file-handle and decoded-column entries) and reopen the new
        manifest *now*. It is an eager courtesy, not the consistency
        mechanism: scatter docs carry the generation, so a worker the
        broadcast has not reached reloads before it answers, and one
        that crashes and respawns reads the new manifest from disk.
        """
        generation = super().reload_step(step)
        for client in self._shards:
            client.call("reload", {"step": step})
        # owned leaves per shard as the router places them; each worker's
        # reload reply counts the same (one pure function of the manifest)
        owners = self.dataset(step).owners
        owned = [owners.count(shard) for shard in range(self.n_shards)]
        lgr.info(
            "reload of step %d at generation %d sent to %d shards; owned leaves per shard %s",
            step, generation, self.n_shards, owned,
            extra={"step": step, "generation": generation, "owned_leaves": owned},
        )
        return generation

    # -- requests ----------------------------------------------------------

    def _submit(self, sess, request, step, streamed=False, ladder=None):
        """Refuse a neighbor request at admission — the step backend's
        pointed error — rather than on a scheduler worker behind a ticket."""
        if isinstance(request, NeighborRequest):
            self.dataset(step).neighbors(request)
        return super()._submit(sess, request, step, streamed, ladder)

    # -- metrics -----------------------------------------------------------

    def snapshot(self, include_workers: bool = True) -> dict:
        """The base surface plus a ``shards`` block: fan-out counters and,
        with ``include_workers``, every worker's own slice (its file,
        decoded-column and plan tiers, latencies, quarantine) and their
        merged access telemetry in place of the router's empty one."""
        doc = super().snapshot()
        with self._fanout_lock:
            scattered = self.fanout_single + self.fanout_multi
            doc["shards"] = {
                "count": self.n_shards,
                "fanout_single": self.fanout_single,
                "fanout_multi": self.fanout_multi,
                "fanout_mean": (
                    self.fanout_shards / scattered if scattered else 0.0
                ),
                "restarts": sum(c.restarts for c in self._shards),
            }
        if include_workers:
            workers = []
            for client in self._shards:
                try:
                    workers.append(client.call("snapshot"))
                except (ShardCrashed, ShardUnavailable) as exc:
                    workers.append({"shard": client.shard_id, "error": str(exc)})
            doc["shards"]["workers"] = workers
            doc["telemetry"] = merge_telemetry(w.get("telemetry") for w in workers)
        return doc

    def telemetry_snapshot(self) -> dict:
        """Per-(step, leaf) access tallies merged across every worker.

        The traversal happens in the shard processes, so the authoritative
        open/decode/point counts live there, not in the router's own
        (empty) :class:`~repro.serve.metrics.AccessTelemetry`.
        """
        return self.snapshot()["telemetry"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedQueryService(shards={self.n_shards}, "
            f"steps={len(self.steps)}, sessions={self.n_sessions})"
        )
