"""Pluggable execution layer for the write pipeline and the restart reader.

The paper's two-phase pipeline keeps every aggregator busy concurrently
(§IV–V); this module supplies the process-local analogue so the
reproduction's two fan-out paths — per-aggregator BAT builds/writes and
per-file restart reads — actually overlap instead of running in one
Python thread. Visualization reads (:mod:`repro.core.dataset`, the serve
tier) do not use it: one reader walks the planned leaf files, and every
pool measured lost to that loop (docs/PERFORMANCE.md, "Why dataset
queries do not fan out").

Three executors share one tiny contract (:meth:`Executor.map` preserves
input order; results are deterministic regardless of completion order):

- ``serial`` — plain in-process loop, zero overhead, the default;
- ``thread`` — ``ThreadPoolExecutor``; wins when the work releases the GIL
  (numpy kernels, zlib, file writes) or is I/O bound;
- ``process`` — ``ProcessPoolExecutor``; wins for CPU-bound pure-Python
  work, at the cost of pickling tasks and results.

Executors are selected by *spec string* — ``"serial"``, ``"thread"``,
``"process"``, optionally suffixed with a worker count (``"thread:8"``,
``"process:4"``) — via the ``executor=`` parameter of
:class:`~repro.core.writer.TwoPhaseWriter` /
:class:`~repro.core.reader.TwoPhaseReader` or the ``REPRO_EXECUTOR``
environment variable. Both accept either a spec string or an
:class:`Executor` instance, so a pool can be built once and shared across
many writes/restart reads — including across threads: lazy pool
construction and shutdown are lock-protected.

Parallel output is required to be *bit-identical* to serial output: tasks
are pure functions of their inputs and the merge points re-impose input
order, so the only nondeterminism a pool could introduce (completion
order) never reaches the results. ``tests/test_parallel.py`` enforces
this property.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "parse_executor_spec",
    "available_executors",
    "default_workers",
    "default_thread_workers",
    "EXECUTOR_ENV_VAR",
]

#: environment variable consulted when no executor is configured
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def default_workers() -> int:
    """Worker count used when a spec names no explicit count."""
    return max(os.cpu_count() or 1, 1)


def default_thread_workers() -> int:
    """Default size of the *thread* pool.

    Threads here exist to overlap I/O (fsync, page faults) with
    GIL-releasing compute, so the pool is sized past the core count —
    ``cpu + 4`` capped at 32, the same shape ``ThreadPoolExecutor`` uses —
    instead of ``cpu_count``. On a 1-core machine the old default built a
    1-worker pool: pure serial execution plus futures overhead, which is
    exactly the thread-slower-than-serial regression the write+query bench
    used to show.
    """
    return min(32, (os.cpu_count() or 1) + 4)


def available_executors() -> list[str]:
    return ["serial", "thread", "process"]


class Executor:
    """Ordered-map execution contract shared by all executors.

    ``map(fn, items)`` applies ``fn`` to every item and returns a list in
    input order — completion order never leaks. Executors are context
    managers; :meth:`close` is idempotent and the serial executor's is a
    no-op.
    """

    #: spec name ("serial", "thread", "process")
    kind = "serial"

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn, items) -> list:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden by pools
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-process loop; the deterministic reference all pools must match."""

    kind = "serial"

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]


class _PoolExecutor(Executor):
    """Shared machinery for the concurrent.futures-backed executors."""

    _pool_cls: type = None  # set by subclasses
    _default_workers = staticmethod(default_workers)

    def __init__(self, workers: int | None = None):
        self._workers = int(workers) if workers else self._default_workers()
        if self._workers < 1:
            raise ValueError("executor worker count must be >= 1")
        self._pool = None
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self):
        # one executor may be shared by many serve-scheduler workers;
        # without the lock, racing first calls would each build a pool
        # and all but one would leak
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = self._pool_cls(max_workers=self._workers)
        return self._pool

    def map(self, fn, items) -> list:
        items = list(items)
        if len(items) <= 1:
            # pool startup isn't worth one task; also keeps empty maps cheap
            return [fn(item) for item in items]
        # concurrent.futures map() yields results in submission order, so
        # out-of-order completion cannot perturb the merge downstream.
        return list(self._ensure_pool().map(fn, items))

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ThreadExecutor(_PoolExecutor):
    """Thread pool; best for GIL-releasing numpy/zlib/file work."""

    kind = "thread"
    _pool_cls = ThreadPoolExecutor
    _default_workers = staticmethod(default_thread_workers)


class ProcessExecutor(_PoolExecutor):
    """Process pool; tasks and results must be picklable."""

    kind = "process"
    _pool_cls = ProcessPoolExecutor

    def map(self, fn, items) -> list:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        # modest chunking amortizes IPC for large fan-outs without
        # sacrificing balance for small ones
        chunksize = max(1, len(items) // (4 * self._workers))
        return list(self._ensure_pool().map(fn, items, chunksize=chunksize))


def parse_executor_spec(spec: str) -> tuple[str, int | None]:
    """Split ``"kind[:workers]"`` into its parts, validating both."""
    kind, sep, count = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in available_executors():
        raise ValueError(
            f"unknown executor {kind!r}; available: {available_executors()}"
        )
    workers = None
    if sep:
        try:
            workers = int(count)
        except ValueError:
            raise ValueError(f"bad worker count in executor spec {spec!r}") from None
        if workers < 1:
            raise ValueError("executor worker count must be >= 1")
    if kind == "serial" and workers not in (None, 1):
        raise ValueError("the serial executor has exactly one worker")
    return kind, workers


def get_executor(spec=None) -> Executor:
    """Resolve a spec string, ``None``, or an :class:`Executor` instance.

    ``None`` falls back to ``$REPRO_EXECUTOR``, then to serial. Instances
    pass through untouched so callers can share one pool across calls.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        spec = os.environ.get(EXECUTOR_ENV_VAR) or "serial"
    kind, workers = parse_executor_spec(str(spec))
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)
