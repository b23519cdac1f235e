"""The writer's fan-out: one task per aggregation leaf, a thread per CPU.

The paper's two-phase write keeps every aggregator busy at once
(§III–IV). :func:`fan_out` is the process-local analogue: the per-leaf
gather, build, encode and publish of :mod:`repro.core.writer` run on a
thread pool, because that work is numpy kernels, zlib and file writes,
which release the GIL. The restart reader and visualization reads do not
fan out (docs/PERFORMANCE.md, "Why dataset queries do not fan out").

Pooled output is bit-identical to an in-process run: tasks are pure
functions of their inputs and results come back in input order, so
completion order never reaches them. ``tests/test_parallel.py`` enforces
this across worker counts.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["fan_out", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a process pinned to one CPU gets one), else ``os.cpu_count()``."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # no affinity masks on this platform
        return max(os.cpu_count() or 1, 1)


def fan_out(fn, items) -> list:
    """``[fn(x) for x in items]``, in input order, on a thread per usable
    CPU (no more threads than items; in-process when that is one).

    Each task runs in its own copy of the caller's :mod:`contextvars`
    context, taken on the calling thread, so it sees what the caller set
    there (a trace's open span) and what it sets stays its own. The pool
    is joined before this returns.
    """
    items = list(items)
    jobs = [(contextvars.copy_context(), item) for item in items]
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [ctx.run(fn, item) for ctx, item in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda job: job[0].run(fn, job[1]), jobs))
