"""Durable, resumable batch-job queue over the serve tier.

An analysis sweep — ten thousand box/filter/quality queries over a
dataset — must survive everything a long run meets: worker crashes,
router restarts, poisoned queries, and an interactive session arriving
mid-sweep. This module keeps the sweep's entire state in one SQLite
file (stdlib ``sqlite3``, WAL mode) so a killed process resumes from the
last acknowledged query by simply being started again on the same store.

The state machine per task::

    pending ──lease──▶ leased ──complete──▶ done      (idempotent record)
       ▲                  │ fail (attempts < max)
       │◀── backoff ──────┤
       │                  │ fail (attempts == max)
       │                  ▼
       └── lease expiry   dead                         (dead-letter)

Delivery is **at-least-once**: a runner that dies mid-task leaves its
lease to expire, after which any runner re-leases the task and executes
it again. Completion is **idempotent and exactly-once in the log**: the
``completions`` table has one row per task (primary-keyed), a second
acknowledgement only bumps its ``duplicates`` counter — so "every query
answered exactly once in the completion log" is a table invariant, not a
scheduling hope. Results are digests (:meth:`ParticleBatch.digest`),
and because batch execution bypasses load degradation, a re-executed
task reproduces the identical digest — re-delivery is observable but
harmless.

Failures retry with exponential backoff (``not_before`` gates
re-leasing); a task that keeps failing lands in the ``dead`` state with
its last error preserved, and the sweep completes around it.

Runners feed the stateless :meth:`QueryService.execute` (the sharded
router inherits it), which runs at bulk priority under the shared
admission budget — a sweep cannot starve interactive sessions.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..api import QueryRequest, request_from_doc, request_to_doc
from ..types import Box

__all__ = ["JobConfig", "JobStore", "JobRunner", "make_sweep"]

#: idle poll interval while other runners hold the remaining leases
POLL_SECONDS = 0.05

lgr = logging.getLogger("repro.serve.jobs")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id   TEXT PRIMARY KEY,
    source   TEXT NOT NULL DEFAULT '',
    step     INTEGER NOT NULL DEFAULT 0,
    created  REAL NOT NULL,
    total    INTEGER NOT NULL,
    meta     TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS tasks (
    job_id       TEXT NOT NULL,
    idx          INTEGER NOT NULL,
    request      TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    lease_owner  TEXT,
    lease_expiry REAL,
    not_before   REAL NOT NULL DEFAULT 0,
    error        TEXT,
    PRIMARY KEY (job_id, idx)
);
CREATE INDEX IF NOT EXISTS tasks_by_state ON tasks (job_id, state, not_before);
CREATE TABLE IF NOT EXISTS completions (
    job_id     TEXT NOT NULL,
    idx        INTEGER NOT NULL,
    worker     TEXT NOT NULL,
    completed  REAL NOT NULL,
    digest     TEXT NOT NULL,
    points     INTEGER NOT NULL,
    duplicates INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (job_id, idx)
);
"""


@dataclass(frozen=True)
class JobConfig:
    """Runner/queue tuning knobs."""

    #: seconds a lease stays exclusive before any runner may re-lease
    lease_seconds: float = 30.0
    #: attempts before a task is dead-lettered
    max_attempts: int = 4
    #: base of the exponential retry backoff (seconds)
    backoff: float = 0.25
    #: tasks leased per store round-trip
    batch_size: int = 8


class JobStore:
    """SQLite-backed durable queue; safe across threads and processes.

    Every mutating method takes an optional ``now`` so tests can drive
    lease expiry and backoff deterministically; the default is wall
    clock. All methods are small single transactions — crash-killing a
    process between any two of them leaves a consistent store.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock, self._conn:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def submit(self, job_id: str, requests, *, source: str = "", step: int = 0,
               meta: dict | None = None, now: float | None = None) -> int:
        """Create a job (idempotent). Returns how many tasks were added.

        Re-submitting an existing job id is a no-op per task (INSERT OR
        IGNORE), so ``repro jobs submit`` after a crash never duplicates
        or resets work already done.
        """
        now = time.time() if now is None else now
        reqs = list(requests)
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO jobs (job_id, source, step, created, "
                "total, meta) VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, source, step, now, len(reqs),
                 json.dumps(meta or {}, sort_keys=True)),
            )
            added = 0
            for idx, req in enumerate(reqs):
                cur = self._conn.execute(
                    "INSERT OR IGNORE INTO tasks (job_id, idx, request) "
                    "VALUES (?, ?, ?)",
                    (job_id, idx, json.dumps(request_to_doc(req), sort_keys=True)),
                )
                added += cur.rowcount
        return added

    def job(self, job_id: str) -> dict:
        with self._lock:
            row = self._conn.execute(
                "SELECT job_id, source, step, created, total, meta FROM jobs "
                "WHERE job_id = ?", (job_id,),
            ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id!r} in {self.path}")
        return {
            "job_id": row[0], "source": row[1], "step": row[2],
            "created": row[3], "total": row[4], "meta": json.loads(row[5]),
        }

    def jobs(self) -> list[str]:
        with self._lock:
            return [r[0] for r in self._conn.execute(
                "SELECT job_id FROM jobs ORDER BY created"
            )]

    # -- the queue protocol ------------------------------------------------

    def lease(self, job_id: str, worker: str, *, limit: int = 1,
              lease_seconds: float = 30.0,
              now: float | None = None) -> list[tuple[int, dict, int]]:
        """Claim up to ``limit`` runnable tasks for ``worker``.

        Runnable: ``pending`` past its backoff gate, or ``leased`` with
        an **expired** lease (the at-least-once re-dispatch after a
        runner died holding it). Returns ``(idx, request_doc, attempts)``
        tuples, lowest index first — resumption is ordered, so "resume
        from the last acknowledged query" falls out of the state alone.
        """
        now = time.time() if now is None else now
        with self._lock, self._conn:
            rows = self._conn.execute(
                "SELECT idx, request, attempts, state, lease_owner FROM tasks "
                "WHERE job_id = ? "
                "AND ((state = 'pending' AND not_before <= ?) "
                "  OR (state = 'leased' AND lease_expiry <= ?)) "
                "ORDER BY idx LIMIT ?",
                (job_id, now, now, limit),
            ).fetchall()
            out = []
            for idx, request, attempts, state, owner in rows:
                self._conn.execute(
                    "UPDATE tasks SET state = 'leased', lease_owner = ?, "
                    "lease_expiry = ? WHERE job_id = ? AND idx = ?",
                    (worker, now + lease_seconds, job_id, idx),
                )
                if state == "leased":
                    lgr.warning(
                        "job %s task %d: the lease of %s expired; re-leased to %s",
                        job_id, idx, owner, worker,
                        extra={"job_id": job_id, "idx": idx,
                               "lease_owner": owner, "worker": worker},
                    )
                out.append((idx, json.loads(request), attempts))
        return out

    def complete(self, job_id: str, idx: int, worker: str, digest: str,
                 points: int, now: float | None = None) -> bool:
        """Acknowledge one task. Idempotent: returns ``True`` only once.

        A duplicate acknowledgement (the re-executed half of an
        at-least-once redelivery) bumps the completion row's
        ``duplicates`` counter and changes nothing else — the completion
        log keeps exactly one record per task, forever.
        """
        now = time.time() if now is None else now
        with self._lock, self._conn:
            state = self._conn.execute(
                "SELECT state FROM tasks WHERE job_id = ? AND idx = ?",
                (job_id, idx),
            ).fetchone()
            if state is None:
                raise KeyError(f"no task {idx} in job {job_id!r}")
            if state[0] == "done":
                self._conn.execute(
                    "UPDATE completions SET duplicates = duplicates + 1 "
                    "WHERE job_id = ? AND idx = ?", (job_id, idx),
                )
                return False
            self._conn.execute(
                "UPDATE tasks SET state = 'done', error = NULL, "
                "lease_owner = NULL, lease_expiry = NULL "
                "WHERE job_id = ? AND idx = ?", (job_id, idx),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO completions (job_id, idx, worker, "
                "completed, digest, points) VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, idx, worker, now, digest, points),
            )
        return True

    def fail(self, job_id: str, idx: int, error: str, *,
             max_attempts: int = 4, backoff: float = 0.25,
             now: float | None = None) -> str:
        """Record one failed attempt; retry with backoff or dead-letter.

        Returns the task's new state (``"pending"`` or ``"dead"``).
        """
        now = time.time() if now is None else now
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT attempts FROM tasks WHERE job_id = ? AND idx = ?",
                (job_id, idx),
            ).fetchone()
            if row is None:
                raise KeyError(f"no task {idx} in job {job_id!r}")
            attempts = row[0] + 1
            state = "dead" if attempts >= max_attempts else "pending"
            self._conn.execute(
                "UPDATE tasks SET state = ?, attempts = ?, error = ?, "
                "lease_owner = NULL, lease_expiry = NULL, not_before = ? "
                "WHERE job_id = ? AND idx = ?",
                (state, attempts, error,
                 now + backoff * (2.0 ** (attempts - 1)), job_id, idx),
            )
        return state

    def release(self, job_id: str, idx: int) -> None:
        """Return a lease unexecuted (clean runner stop, not a failure)."""
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE tasks SET state = 'pending', lease_owner = NULL, "
                "lease_expiry = NULL WHERE job_id = ? AND idx = ? "
                "AND state = 'leased'", (job_id, idx),
            )

    # -- inspection --------------------------------------------------------

    def counts(self, job_id: str) -> dict:
        """Per-state task counts plus the completion-log accounting."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM tasks WHERE job_id = ? "
                "GROUP BY state", (job_id,),
            ).fetchall()
            comp = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(duplicates), 0), "
                "COALESCE(SUM(points), 0) FROM completions WHERE job_id = ?",
                (job_id,),
            ).fetchone()
            total = self._conn.execute(
                "SELECT COALESCE(total, 0) FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        doc = {"pending": 0, "leased": 0, "done": 0, "dead": 0}
        doc.update(dict(rows))
        doc["total"] = total[0] if total else 0
        doc["completions"] = comp[0]
        doc["duplicate_acks"] = comp[1]
        doc["points"] = comp[2]
        return doc

    def outstanding(self, job_id: str) -> bool:
        """Any task still pending or leased (i.e. the sweep is not over)?"""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM tasks WHERE job_id = ? AND state IN "
                "('pending', 'leased') LIMIT 1", (job_id,),
            ).fetchone()
        return row is not None

    def dead(self, job_id: str) -> list[tuple[int, str]]:
        """The dead-letter queue: ``(idx, last error)`` per poisoned task."""
        with self._lock:
            return self._conn.execute(
                "SELECT idx, error FROM tasks WHERE job_id = ? AND "
                "state = 'dead' ORDER BY idx", (job_id,),
            ).fetchall()

    def completions(self, job_id: str) -> list[tuple[int, str, int, int]]:
        """The completion log: ``(idx, digest, points, duplicates)``."""
        with self._lock:
            return self._conn.execute(
                "SELECT idx, digest, points, duplicates FROM completions "
                "WHERE job_id = ? ORDER BY idx", (job_id,),
            ).fetchall()


class JobRunner:
    """Drains one job through a service's stateless batch path.

    ``service`` is anything with ``execute(request, step=) ->
    ServeResponse`` — the sharded router or a single-process
    :class:`~repro.serve.service.QueryService`. Several runners (in one
    process or many) may drain the same job concurrently; the lease
    protocol keeps them off each other's tasks.
    """

    def __init__(self, store: JobStore, service, job_id: str, *,
                 worker: str = "runner-0", config: JobConfig | None = None,
                 clock=time.time):
        self.store = store
        self.service = service
        self.job_id = job_id
        self.worker = worker
        self.config = config or JobConfig()
        self._clock = clock
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the runner to stop after the task in hand (leases released)."""
        self._stop.set()

    def run(self, max_tasks: int | None = None, *,
            clean_stop: bool = True) -> dict:
        """Drain runnable tasks until the job has none left.

        ``max_tasks`` bounds executed tasks (tests and crash drills);
        with ``clean_stop=False`` the runner then simply *stops* —
        leases in hand stay leased, exactly as a SIGKILL would leave
        them, and expire for the next runner to pick up. Returns the
        final :meth:`JobStore.counts` view.
        """
        cfg = self.config
        step = self.store.job(self.job_id)["step"]
        executed = 0
        while not self._stop.is_set():
            if max_tasks is not None and executed >= max_tasks:
                break
            leased = self.store.lease(
                self.job_id, self.worker, limit=cfg.batch_size,
                lease_seconds=cfg.lease_seconds, now=self._clock(),
            )
            if not leased:
                if not self.store.outstanding(self.job_id):
                    break
                # other runners hold the remaining leases, or backoff
                # gates are still in the future — wait, then re-check
                time.sleep(POLL_SECONDS)
                continue
            for idx, doc, _attempts in leased:
                if self._stop.is_set() or (
                    max_tasks is not None and executed >= max_tasks
                ):
                    if clean_stop:
                        self.store.release(self.job_id, idx)
                    continue
                executed += 1
                req = request_from_doc(doc)
                try:
                    resp = self.service.execute(req, step=step)
                except Exception as exc:  # noqa: BLE001 - recorded, retried
                    self.store.fail(
                        self.job_id, idx, f"{type(exc).__name__}: {exc}",
                        max_attempts=cfg.max_attempts, backoff=cfg.backoff,
                        now=self._clock(),
                    )
                    continue
                if resp.partial:
                    # quarantined leaves make the digest unstable; treat
                    # as a failure so the retry sees a repaired dataset
                    # or the task dead-letters with a clear reason
                    self.store.fail(
                        self.job_id, idx,
                        f"partial response ({resp.quarantined_files} "
                        "quarantined leaves)",
                        max_attempts=cfg.max_attempts, backoff=cfg.backoff,
                        now=self._clock(),
                    )
                    continue
                self.store.complete(
                    self.job_id, idx, self.worker, resp.batch.digest(),
                    len(resp), now=self._clock(),
                )
        return self.store.counts(self.job_id)


def make_sweep(bounds: Box, n: int, *, seed: int = 0,
               qualities=(0.25, 0.5, 1.0)) -> list[QueryRequest]:
    """A deterministic analysis sweep: ``n`` random boxes over ``bounds``.

    Seeded, so submitting the same sweep twice builds the identical job
    (and :meth:`JobStore.submit` then dedupes it entirely).
    """
    rng = np.random.default_rng(seed)
    lo = np.asarray(bounds.lower, dtype=np.float64)
    hi = np.asarray(bounds.upper, dtype=np.float64)
    span = hi - lo
    out = []
    for _ in range(n):
        center = lo + rng.random(3) * span
        half = (0.08 + 0.25 * rng.random(3)) * span
        box = Box(
            tuple(np.maximum(lo, center - half)),
            tuple(np.minimum(hi, center + half)),
        )
        out.append(QueryRequest(
            box=box, quality=float(rng.choice(list(qualities)))
        ))
    return out
