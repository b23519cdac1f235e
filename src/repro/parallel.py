"""Pluggable execution layer for the write pipeline and the restart reader.

The paper's two-phase pipeline keeps every aggregator busy concurrently
(§III–IV); this module supplies the process-local analogue so the
reproduction's two fan-out paths — per-aggregator BAT builds/writes and
per-file restart reads — actually overlap instead of running in one
Python thread. Visualization reads (:mod:`repro.core.dataset`, the serve
tier) do not use it: one reader walks the planned leaf files, and every
pool measured lost to that loop (docs/PERFORMANCE.md, "Why dataset
queries do not fan out").

Three executors share one tiny contract (:meth:`Executor.map` preserves
input order; results are deterministic regardless of completion order):

- ``serial`` — plain in-process loop, zero overhead;
- ``thread`` — ``ThreadPoolExecutor``; wins when the work releases the GIL
  (numpy kernels, zlib, file writes) or is I/O bound. Each task runs in a
  copy of the caller's :mod:`contextvars` context, so whatever the caller
  set there (a trace's open span) is what the task sees;
- ``process`` — ``ProcessPoolExecutor``; wins for CPU-bound pure-Python
  work, at the cost of pickling tasks and results.

Executors are selected by *spec string* — ``"serial"``, ``"thread"``,
``"process"``, optionally suffixed with a worker count (``"thread:8"``,
``"process:4"``; without one, :func:`usable_cpus`) — via the ``executor=``
parameter of :class:`~repro.core.writer.TwoPhaseWriter` /
:class:`~repro.core.reader.TwoPhaseReader` or the ``REPRO_EXECUTOR``
environment variable; with neither, the writer fans its leaves over
:func:`threads_for` and the restart reader runs serially. A pool resolved
from a spec lives for one write or read (:func:`executor_scope`); an
:class:`Executor` instance passed instead is the caller's to share across
many calls and to close — including across threads: lazy pool
construction and shutdown are lock-protected.

Parallel output is required to be *bit-identical* to serial output: tasks
are pure functions of their inputs and the merge points re-impose input
order, so the only nondeterminism a pool could introduce (completion
order) never reaches the results. ``tests/test_parallel.py`` enforces
this property.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "executor_scope",
    "parse_executor_spec",
    "available_executors",
    "usable_cpus",
    "threads_for",
    "EXECUTOR_ENV_VAR",
]

#: environment variable consulted when no executor is configured
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a process pinned to one CPU gets one), else ``os.cpu_count()``.
    The worker count of a pool spec that names none."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # no affinity masks on this platform
        return max(os.cpu_count() or 1, 1)


def threads_for(tasks: int) -> str:
    """Spec for ``tasks`` GIL-releasing tasks: a thread per usable CPU, no
    more threads than tasks, and serial when that is one."""
    n = min(usable_cpus(), tasks)
    return f"thread:{n}" if n > 1 else "serial"


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

    def __init__(self, workers: int | None = None):
        self._workers = int(workers) if workers else usable_cpus()
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

    def map(self, fn, items) -> list:
        items = list(items)
        # one context copy per task, taken on the calling thread: a context
        # can be entered by one thread at a time
        contexts = [contextvars.copy_context() for _ in items]
        return super().map(lambda job: job[0].run(fn, job[1]), zip(contexts, items))


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


def get_executor(spec=None, default: str = "serial") -> Executor:
    """Resolve a spec string, ``None``, or an :class:`Executor` instance.

    ``None`` falls back to ``$REPRO_EXECUTOR``, then to ``default``.
    Instances pass through untouched so callers can share one pool across
    calls.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        spec = os.environ.get(EXECUTOR_ENV_VAR) or default
    kind, workers = parse_executor_spec(str(spec))
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)


@contextmanager
def executor_scope(spec=None, default: str = "serial"):
    """The executor for one fan-out, resolved as :func:`get_executor` does.

    A pool resolved here (from a spec string, ``$REPRO_EXECUTOR`` or
    ``default``) is shut down on exit, its workers joined; an
    :class:`Executor` instance is the caller's and stays open.
    """
    if isinstance(spec, Executor):
        yield spec
        return
    with get_executor(spec, default) as ex:
        yield ex
