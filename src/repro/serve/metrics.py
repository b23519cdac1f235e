"""Per-request spans and the aggregated serving metrics surface.

Every request the service admits carries a :class:`RequestSpan` through
its lifetime — enqueue, scheduling wait, planning, traversal, gather —
and drops it into a :class:`ServeMetrics` collector on completion. The
collector is the single JSON-able source of truth the CLI, the load
generator, and the bench suite print: latency percentiles, per-phase time
totals, queue-depth high-water marks, admission rejections, degradation
engage/release transitions, and the hit rates of every cache layer
(result → plan → decoded column → file handle).

Memory is bounded: per-request samples (latency, time to first
increment) live in a fixed-size ring buffer, so a service that has been
up for weeks holds the same few kilobytes as one that served ten
requests. Percentiles are exact over that window; counters and phase
totals stay cumulative since start.

Wall-clock reads go through an injectable ``clock`` so tests can drive
TTL and latency accounting deterministically.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_METRICS_WINDOW",
    "AccessTelemetry",
    "RequestSpan",
    "ServeMetrics",
    "json_sanitize",
    "merge_telemetry",
    "percentile",
]

#: ring-buffer size for per-request samples (latency, TTFI)
DEFAULT_METRICS_WINDOW = 4096


def _sanitize_key(key) -> str:
    """A strict-JSON object key: always ``str``, numpy unwrapped first."""
    if isinstance(key, str):
        return key
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, (tuple, list)):
        return "/".join(str(_sanitize_key(k)) for k in key)
    return str(key)


def json_sanitize(obj):
    """Make a metrics document strictly JSON-serializable.

    Shard workers ship their snapshots over IPC and dashboards re-emit
    them verbatim, so nothing numpy-shaped (scalars, arrays), no tuple or
    int dict keys, and no ``Path``/``set`` values may leak through.
    ``json.dumps(json_sanitize(doc), allow_nan=False)`` must always
    succeed for any snapshot the serve tier produces (regression-tested).
    Unknown objects fall back to ``str`` — a snapshot must never fail to
    serialize because one counter grew an exotic type.
    """
    if isinstance(obj, dict):
        return {_sanitize_key(k): json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json_sanitize(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return [json_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        # NaN/Inf are not JSON; surface them as null rather than crash
        return obj if obj == obj and abs(obj) != float("inf") else None
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Path):
        return str(obj)
    return str(obj)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of an unsorted sequence (0 for empty)."""
    if not values:
        return 0.0
    vals = sorted(values)
    # multiply first: 7 / 100 * 100 is 7.000000000000001
    rank = max(1, math.ceil(p * len(vals) / 100))
    return float(vals[min(rank, len(vals)) - 1])


@dataclass
class RequestSpan:
    """Timing and outcome record of one request through the service."""

    session_id: int
    seq: int
    requested_quality: float
    prev_quality: float = 0.0
    served_quality: float = 0.0
    priority: int = 0
    #: queue depth observed at admission time (this request included)
    queue_depth: int = 0
    degraded: bool = False
    cache_hit: bool = False
    rejected: bool = False
    #: the result is missing data from quarantined (corrupt/missing) leaves
    partial: bool = False
    #: leaf files this request's query could not see
    quarantined_files: int = 0
    #: served from an identical in-flight window's result
    collapsed: bool = False
    #: admitted by ``stream()``: its ticket received the increments,
    #: not one batch
    streamed: bool = False
    #: stopped early at a rung boundary (slow consumer / closed stream)
    shed: bool = False
    #: increments actually delivered (1 for a one-shot response)
    increments: int = 0
    #: submission → first increment available to the client (0 = untracked)
    first_increment_seconds: float = 0.0
    wait_seconds: float = 0.0
    plan_seconds: float = 0.0
    traverse_seconds: float = 0.0
    gather_seconds: float = 0.0
    total_seconds: float = 0.0
    points: int = 0
    nbytes: int = 0


@dataclass
class _PhaseTotals:
    wait: float = 0.0
    plan: float = 0.0
    traverse: float = 0.0
    gather: float = 0.0

    def add(self, span: RequestSpan) -> None:
        self.wait += span.wait_seconds
        self.plan += span.plan_seconds
        self.traverse += span.traverse_seconds
        self.gather += span.gather_seconds


class ServeMetrics:
    """Thread-safe aggregation of request spans and scheduler samples.

    Counters are cumulative since construction; per-request samples live
    in a ring buffer of ``window`` entries, so percentiles describe the
    recent window while the memory footprint stays constant.
    """

    def __init__(self, clock=time.perf_counter, window: int = DEFAULT_METRICS_WINDOW):
        if window < 1:
            raise ValueError("metrics window must be >= 1")
        self._lock = threading.Lock()
        self._clock = clock
        self._started = clock()
        self.window = int(window)
        self._latencies: deque[float] = deque(maxlen=self.window)
        #: submission → first increment, streamed/collapsed requests only
        self._ttfi: deque[float] = deque(maxlen=self.window)
        self._phases = _PhaseTotals()
        self.completed = 0
        self.rejected = 0
        self.degraded = 0
        self.cache_hits = 0
        #: responses that lacked data from quarantined leaf files
        self.partial_responses = 0
        #: sum of quarantined-file counts across all requests
        self.quarantined_files = 0
        self.empty_increments = 0
        self.points_served = 0
        self.bytes_served = 0
        self.max_queue_depth = 0
        #: requests served from an identical in-flight window's result
        self.collapsed = 0
        #: requests admitted by ``stream()`` (increments pushed to the ticket)
        self.streamed = 0
        #: streams stopped early at a rung boundary by backpressure
        self.shed = 0
        #: increments delivered across all requests
        self.increments = 0
        #: cumulative latency, so the all-time mean survives the window
        self.latency_sum = 0.0
        self.latency_max = 0.0

    # -- recording -----------------------------------------------------------

    def record(self, span: RequestSpan) -> None:
        with self._lock:
            if span.rejected:
                self.rejected += 1
                self.max_queue_depth = max(self.max_queue_depth, span.queue_depth)
                return
            self.completed += 1
            self._latencies.append(span.total_seconds)
            self.latency_sum += span.total_seconds
            self.latency_max = max(self.latency_max, span.total_seconds)
            self._phases.add(span)
            if span.degraded:
                self.degraded += 1
            if span.cache_hit:
                self.cache_hits += 1
            if span.partial:
                self.partial_responses += 1
                self.quarantined_files += span.quarantined_files
            if span.collapsed:
                self.collapsed += 1
            if span.streamed:
                self.streamed += 1
            if span.shed:
                self.shed += 1
            self.increments += span.increments
            if span.first_increment_seconds > 0.0:
                self._ttfi.append(span.first_increment_seconds)
            if span.points == 0:
                self.empty_increments += 1
            self.points_served += span.points
            self.bytes_served += span.nbytes
            self.max_queue_depth = max(self.max_queue_depth, span.queue_depth)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """The JSON-able metrics surface (latencies in milliseconds)."""
        with self._lock:
            lat = list(self._latencies)
            ttfi = list(self._ttfi)
            elapsed = max(self._clock() - self._started, 1e-9)
            n = max(self.completed, 1)
            return {
                "requests": {
                    "completed": self.completed,
                    "rejected": self.rejected,
                    "degraded": self.degraded,
                    "cache_hits": self.cache_hits,
                    "partial": self.partial_responses,
                    "quarantined_files": self.quarantined_files,
                    "empty_increments": self.empty_increments,
                    "points_served": self.points_served,
                    "bytes_served": self.bytes_served,
                    "throughput_rps": self.completed / elapsed,
                },
                "latency_ms": {
                    "p50": 1e3 * percentile(lat, 50),
                    "p99": 1e3 * percentile(lat, 99),
                    "mean": 1e3 * sum(lat) / len(lat) if lat else 0.0,
                    "max": 1e3 * max(lat) if lat else 0.0,
                    # cumulative, not windowed: for long-run dashboards
                    "mean_all": 1e3 * self.latency_sum / n,
                    "max_all": 1e3 * self.latency_max,
                    "window": self.window,
                    "window_count": len(lat),
                },
                "streaming": {
                    "streamed": self.streamed,
                    "collapsed": self.collapsed,
                    "shed": self.shed,
                    "increments": self.increments,
                    "ttfi_ms": {
                        "p50": 1e3 * percentile(ttfi, 50),
                        "p99": 1e3 * percentile(ttfi, 99),
                        "mean": 1e3 * sum(ttfi) / len(ttfi) if ttfi else 0.0,
                        "window_count": len(ttfi),
                    },
                },
                "phase_seconds": {
                    "wait": self._phases.wait,
                    "plan": self._phases.plan,
                    "traverse": self._phases.traverse,
                    "gather": self._phases.gather,
                    "wait_mean": self._phases.wait / n,
                },
                "queue": {"max_depth": self.max_queue_depth},
            }

    def to_json(self, **extra) -> str:
        doc = self.snapshot()
        doc.update(extra)
        return json.dumps(doc, indent=1, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServeMetrics(completed={self.completed}, rejected={self.rejected}, "
            f"degraded={self.degraded})"
        )


@dataclass
class _LeafTally:
    """Cumulative access counters for one (step, leaf)."""

    opens: int = 0
    points: int = 0
    decoded_bytes: int = 0

    def to_doc(self) -> dict:
        return {
            "opens": self.opens,
            "points": self.points,
            "decoded_bytes": self.decoded_bytes,
        }


class _StepTelemetry:
    """A per-step recording handle bound onto a dataset by the service.

    :class:`~repro.core.dataset.BATDataset` calls :meth:`leaf` once per
    planned file per executed query and :meth:`view` once per query; the
    handle forwards into the owning :class:`AccessTelemetry` with the
    step baked in, so the dataset layer stays step-agnostic.
    """

    __slots__ = ("_telemetry", "step")

    def __init__(self, telemetry: "AccessTelemetry", step: int):
        self._telemetry = telemetry
        self.step = int(step)

    def view(self, box, filters=(), columns=()) -> None:
        self._telemetry.record_view(self.step, box, filters, columns)

    def leaf(self, leaf_index: int, points: int = 0, decoded_bytes: int = 0) -> None:
        self._telemetry.record_leaf(self.step, leaf_index, points, decoded_bytes)


class AccessTelemetry:
    """Per-(step, leaf) access tallies plus hot-box/column evidence.

    This is the input side of online layout reorganization (Wan et al.,
    arXiv 2107.07108): the reorganizer needs to know *which leaves* real
    sessions open, how many points each contributes, how much column
    data it decodes, which query boxes recur, and which columns are
    touched. Everything here is cumulative counters plus a bounded
    top-K box census, so memory stays constant for a service that has
    been up for weeks.

    Thread-safe; a snapshot is strict-JSON (string keys, plain ints) so
    shard workers can ship theirs over the pipe RPC and the router can
    merge them with :func:`merge_telemetry`.
    """

    #: distinct boxes tracked per step before the census sheds rare ones
    BOX_CENSUS_CAP = 512

    def __init__(self):
        self._lock = threading.Lock()
        #: (step, leaf_index) -> tally
        self._leaves: dict[tuple[int, int], _LeafTally] = {}
        #: (step, column_name) -> touch count
        self._columns: dict[tuple[int, str], int] = {}
        #: step -> {(lower, upper) or None: count} — recurring query boxes
        self._boxes: dict[int, dict] = {}
        self.queries = 0

    def bind(self, step: int) -> _StepTelemetry:
        """A per-step recorder to attach to a dataset (``ds.telemetry``)."""
        return _StepTelemetry(self, step)

    # -- recording ---------------------------------------------------------

    def record_view(self, step: int, box, filters=(), columns=()) -> None:
        """Count one executed query: its box, filters, and touched columns."""
        step = int(step)
        if box is not None:
            box_key = (
                tuple(float(v) for v in box.lower),
                tuple(float(v) for v in box.upper),
            )
        else:
            box_key = None
        names = list(columns or ())
        for f in filters or ():
            name = f[0] if isinstance(f, (tuple, list)) else getattr(f, "name", None)
            if name is not None:
                names.append(name)
        with self._lock:
            self.queries += 1
            census = self._boxes.setdefault(step, {})
            census[box_key] = census.get(box_key, 0) + 1
            if len(census) > self.BOX_CENSUS_CAP:
                # shed the rarest half; recurring hot boxes survive
                keep = sorted(census.items(), key=lambda kv: -kv[1])
                census.clear()
                census.update(keep[: self.BOX_CENSUS_CAP // 2])
            for name in names:
                k = (step, str(name))
                self._columns[k] = self._columns.get(k, 0) + 1

    def record_leaf(
        self, step: int, leaf_index: int, points: int = 0, decoded_bytes: int = 0
    ) -> None:
        """Count one planned-file open and its per-query contribution."""
        k = (int(step), int(leaf_index))
        with self._lock:
            t = self._leaves.get(k)
            if t is None:
                t = self._leaves[k] = _LeafTally()
            t.opens += 1
            t.points += int(points)
            t.decoded_bytes += int(decoded_bytes)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Strict-JSON telemetry document, grouped per step.

        ``steps.<step>.leaves.<leaf_index>`` carries the open/point/decode
        tallies; ``boxes`` lists the top recurring query boxes as
        ``[lower, upper, count]`` (full-domain queries appear with null
        bounds); ``columns`` maps column name to touch count.
        """
        with self._lock:
            steps: dict[str, dict] = {}

            def _step_doc(step: int) -> dict:
                return steps.setdefault(
                    str(step), {"leaves": {}, "boxes": [], "columns": {}}
                )

            for (step, leaf), tally in self._leaves.items():
                _step_doc(step)["leaves"][str(leaf)] = tally.to_doc()
            for (step, name), n in self._columns.items():
                _step_doc(step)["columns"][name] = n
            for step, census in self._boxes.items():
                doc = _step_doc(step)
                top = sorted(census.items(), key=lambda kv: -kv[1])[:64]
                doc["boxes"] = [
                    [list(k[0]), list(k[1]), n] if k is not None else [None, None, n]
                    for k, n in top
                ]
            return {"queries": self.queries, "steps": steps}

    def files_opened(self, step: int | None = None) -> int:
        """Total planned-file opens recorded (optionally for one step)."""
        with self._lock:
            return sum(
                t.opens
                for (s, _), t in self._leaves.items()
                if step is None or s == int(step)
            )


def merge_telemetry(docs) -> dict:
    """Merge telemetry snapshots (e.g. one per shard worker) into one.

    Leaf tallies and column touches sum; box censuses sum per box. The
    result has the same shape as :meth:`AccessTelemetry.snapshot`, so the
    reorg planner consumes router-merged and single-process documents
    identically.
    """
    out = {"queries": 0, "steps": {}}
    for doc in docs:
        if not doc:
            continue
        out["queries"] += int(doc.get("queries", 0))
        for step, sdoc in doc.get("steps", {}).items():
            tgt = out["steps"].setdefault(
                str(step), {"leaves": {}, "boxes": [], "columns": {}}
            )
            for leaf, tally in sdoc.get("leaves", {}).items():
                cur = tgt["leaves"].setdefault(
                    str(leaf), {"opens": 0, "points": 0, "decoded_bytes": 0}
                )
                for k in cur:
                    cur[k] += int(tally.get(k, 0))
            for name, n in sdoc.get("columns", {}).items():
                tgt["columns"][name] = tgt["columns"].get(name, 0) + int(n)
            census: dict = {}
            for lo, hi, n in tgt["boxes"]:
                key = (tuple(lo), tuple(hi)) if lo is not None else None
                census[key] = census.get(key, 0) + int(n)
            for lo, hi, n in sdoc.get("boxes", []):
                key = (tuple(lo), tuple(hi)) if lo is not None else None
                census[key] = census.get(key, 0) + int(n)
            tgt["boxes"] = [
                [list(k[0]), list(k[1]), n] if k is not None else [None, None, n]
                for k, n in sorted(census.items(), key=lambda kv: -kv[1])
            ]
    return out
