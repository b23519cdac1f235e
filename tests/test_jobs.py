"""Tests for the durable batch-job queue: lease/complete/fail semantics,
resume after a hard kill, dead-lettering, and the exactly-once
completion log — including the worker-crash drill where a shard process
dies mid-sweep and the job still finishes with every query answered
exactly once and byte-identical digests.
"""

import logging
import threading
import time

import numpy as np
import pytest

from repro import QueryRequest
from repro.bat import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine
from repro.serve import (
    JobConfig,
    JobRunner,
    JobStore,
    QueryService,
    ServeConfig,
    ShardedQueryService,
    make_sweep,
)
from repro.types import Box, ParticleBatch
from tests.test_pipeline import make_rank_data


def serve_config(**kw):
    kw.setdefault("capacity", 2)
    kw.setdefault("degradation", False)
    return ServeConfig(**kw)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=9, seed=21)
    out = tmp_path_factory.mktemp("jobs")
    report = TwoPhaseWriter(testing_machine(), target_size=128 * 1024).write(
        data, out_dir=out, name="jb"
    )
    return report.metadata_path


@pytest.fixture(scope="module")
def direct(written):
    with BATDataset(written) as ds:
        yield ds


@pytest.fixture(scope="module")
def service(written):
    svc = QueryService(written, serve_config())
    yield svc
    svc.close()


def sweep_for(ds, n=6, seed=3):
    return make_sweep(ds.bounds, n, seed=seed)


REQS = [QueryRequest(quality=q, box=Box((0, 0, 0), (4, 4, 4))) for q in (0.3, 0.7, 1.0)]


# ---------------------------------------------------------------------------
# store semantics (no service involved; fake clock throughout)


class TestJobStore:
    def test_submit_idempotent(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            assert store.submit("j", REQS, now=0.0) == 3
            assert store.submit("j", REQS, now=1.0) == 0  # resubmit: no-op
            assert store.job("j")["total"] == 3
            assert store.jobs() == ["j"]
            c = store.counts("j")
            assert c["pending"] == 3 and c["total"] == 3

    def test_unknown_job_and_task(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            with pytest.raises(KeyError):
                store.job("missing")
            store.submit("j", REQS, now=0.0)
            with pytest.raises(KeyError):
                store.complete("j", 99, "w", "d", 0, now=0.0)
            with pytest.raises(KeyError):
                store.fail("j", 99, "boom", now=0.0)

    def test_lease_orders_by_index_and_respects_limit(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS, now=0.0)
            got = store.lease("j", "w0", limit=2, now=1.0)
            assert [idx for idx, _, _ in got] == [0, 1]
            # only the unleased task remains claimable while leases live
            rest = store.lease("j", "w1", limit=5, now=1.0)
            assert [idx for idx, _, _ in rest] == [2]
            assert store.lease("j", "w1", limit=5, now=1.0) == []

    def test_lease_expiry_redispatches(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS, now=0.0)
            store.lease("j", "dead-runner", limit=3, lease_seconds=10.0, now=0.0)
            assert store.lease("j", "w1", limit=3, now=5.0) == []  # still held
            again = store.lease("j", "w1", limit=3, now=10.0)      # expired
            assert [idx for idx, _, _ in again] == [0, 1, 2]
            assert store.counts("j")["leased"] == 3

    def test_lease_expiry_logged_once(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro.serve.jobs")

        def events():
            return [r for r in caplog.records if r.name == "repro.serve.jobs"]

        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS, now=0.0)
            store.lease("j", "dead-runner", limit=1, lease_seconds=10.0, now=0.0)
            assert events() == []  # leasing a pending task logs nothing
            store.lease("j", "w1", limit=1, lease_seconds=10.0, now=5.0)
            assert events() == []  # task 1 was pending; task 0 still held
            store.lease("j", "w2", limit=3, now=10.0)  # task 0's lease expired
            (event,) = events()
            assert event.levelno == logging.WARNING
            assert (event.job_id, event.idx, event.lease_owner, event.worker) == (
                "j", 0, "dead-runner", "w2"
            )

    def test_complete_idempotent_exactly_once_log(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS, now=0.0)
            store.lease("j", "w0", limit=1, now=0.0)
            assert store.complete("j", 0, "w0", "digest-a", 10, now=1.0)
            # the redelivered twin acknowledges again: log unchanged
            assert not store.complete("j", 0, "w1", "digest-a", 10, now=2.0)
            assert not store.complete("j", 0, "w2", "digest-a", 10, now=3.0)
            rows = store.completions("j")
            assert rows == [(0, "digest-a", 10, 2)]
            c = store.counts("j")
            assert c["done"] == 1 and c["completions"] == 1
            assert c["duplicate_acks"] == 2

    def test_fail_backoff_then_dead_letter(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS, now=0.0)
            store.lease("j", "w0", limit=1, now=0.0)
            assert store.fail("j", 0, "boom-1", max_attempts=3, backoff=1.0,
                              now=0.0) == "pending"
            # backoff gates re-leasing: not_before = 0.0 + 1.0 * 2**0
            leased = [i for i, _, _ in store.lease("j", "w0", limit=3, now=0.5)]
            assert 0 not in leased  # tasks 1, 2 lease; task 0 is cooling off
            leased = [i for i, _, _ in store.lease("j", "w0", limit=3, now=1.5)]
            assert 0 in leased
            assert store.fail("j", 0, "boom-2", max_attempts=3, backoff=1.0,
                              now=2.0) == "pending"
            store.lease("j", "w0", limit=1, now=10.0)
            assert store.fail("j", 0, "boom-3", max_attempts=3, backoff=1.0,
                              now=11.0) == "dead"
            assert store.dead("j") == [(0, "boom-3")]
            # dead tasks never lease again
            assert 0 not in [i for i, _, _ in store.lease("j", "w0", limit=5,
                                                          now=1e9)]

    def test_release_returns_lease_cleanly(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS, now=0.0)
            store.lease("j", "w0", limit=1, lease_seconds=1e9, now=0.0)
            store.release("j", 0)
            got = store.lease("j", "w1", limit=1, now=1.0)
            assert [i for i, _, _ in got] == [0]

    def test_outstanding_tracks_open_work(self, tmp_path):
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", REQS[:1], now=0.0)
            assert store.outstanding("j")
            store.lease("j", "w0", limit=1, now=0.0)
            assert store.outstanding("j")
            store.complete("j", 0, "w0", "d", 1, now=1.0)
            assert not store.outstanding("j")

    def test_request_docs_round_trip_through_sqlite(self, tmp_path):
        from repro.serve import request_from_doc

        req = QueryRequest(
            quality=0.4, box=Box((0, 0, 0), (1, 2, 3)),
            filters=(AttributeFilter("mass", 0.1, 0.9),), columns=("mass",),
        )
        with JobStore(tmp_path / "q.db") as store:
            store.submit("j", [req], now=0.0)
            (idx, doc, attempts), = store.lease("j", "w", now=0.0)
            assert request_from_doc(doc) == req

    def test_store_survives_reopen(self, tmp_path):
        path = tmp_path / "q.db"
        with JobStore(path) as store:
            store.submit("j", REQS, now=0.0)
            store.lease("j", "w0", limit=1, now=0.0)
            store.complete("j", 0, "w0", "d0", 5, now=1.0)
        with JobStore(path) as store:  # a restarted process, same file
            c = store.counts("j")
            assert c["done"] == 1 and c["pending"] == 2
            assert store.completions("j") == [(0, "d0", 5, 0)]


class TestMakeSweep:
    def test_deterministic_and_in_bounds(self, direct):
        a = make_sweep(direct.bounds, 8, seed=7)
        b = make_sweep(direct.bounds, 8, seed=7)
        assert a == b
        assert make_sweep(direct.bounds, 8, seed=8) != a
        lo, hi = direct.bounds.lower, direct.bounds.upper
        for req in a:
            assert all(bl >= l and bh <= h for bl, bh, l, h in
                       zip(req.box.lower, req.box.upper, lo, hi))


# ---------------------------------------------------------------------------
# the runner against a live service


class TestJobRunner:
    def test_drains_sweep_with_identical_digests(self, tmp_path, service, direct):
        sweep = sweep_for(direct)
        with JobStore(tmp_path / "q.db") as store:
            store.submit("sweep", sweep)
            counts = JobRunner(store, service, "sweep").run()
            assert counts["done"] == len(sweep)
            assert counts["dead"] == 0 and counts["duplicate_acks"] == 0
            for idx, digest, points, dups in store.completions("sweep"):
                batch, _ = direct.query(sweep[idx])
                assert batch.digest() == digest
                assert points == len(batch)
                assert dups == 0

    def test_projected_task_completes(self, tmp_path, service, direct):
        """Regression: a task that projects positions away used to raise
        AttributeError out of the runner and strand its lease."""
        attr = sorted(direct.metadata.attr_dtypes)[0]
        reqs = [QueryRequest(quality=1.0, columns=(attr,)), REQS[0]]
        with JobStore(tmp_path / "q.db") as store:
            store.submit("proj", reqs)
            counts = JobRunner(store, service, "proj").run()
            assert counts["done"] == 2 and counts["leased"] == 0
            for idx, digest, points, _dups in store.completions("proj"):
                batch, _ = direct.query(reqs[idx])
                assert (batch.positions is None) == (idx == 0)
                assert batch.digest() == digest
                assert points == len(batch)

    def test_digest_is_pinned(self):
        """The hex digest is stored in the durable job log: it must not
        change for batches that carry positions."""
        batch = ParticleBatch(
            np.arange(12, dtype=np.float32).reshape(4, 3),
            {"b": np.arange(4, dtype=np.float64), "a": np.arange(4, dtype=np.int64)},
        )
        assert batch.digest() == (
            "e55a46ab1837937cddb5df028ef7e879dad6fec66bbeaf1f83f1ef5d4809ccef"
        )
        projected = ParticleBatch(None, dict(batch.attributes), count=4)
        assert projected.digest() != batch.digest()

    def test_resume_after_hard_kill(self, tmp_path, service, direct):
        """Kill the runner mid-sweep (leases left in hand), restart, resume."""
        sweep = sweep_for(direct, n=8, seed=11)
        cfg = JobConfig(lease_seconds=0.2, batch_size=2)
        with JobStore(tmp_path / "q.db") as store:
            store.submit("sweep", sweep)
            # clean_stop=False: the runner stops like a SIGKILL — tasks it
            # leased but never ran stay leased until the lease expires
            JobRunner(store, service, "sweep", worker="r0", config=cfg).run(
                max_tasks=3, clean_stop=False
            )
            mid = store.counts("sweep")
            assert mid["done"] == 3 and mid["done"] + mid["leased"] + mid["pending"] == 8
            time.sleep(0.25)  # leases expire
            counts = JobRunner(
                store, service, "sweep", worker="r1", config=cfg
            ).run()
            assert counts["done"] == 8
            assert counts["completions"] == 8  # exactly once in the log
            for idx, digest, _points, _dups in store.completions("sweep"):
                batch, _ = direct.query(sweep[idx])
                assert batch.digest() == digest

    def test_redelivery_is_idempotent(self, tmp_path, service, direct):
        """Re-executing an already-done task only bumps the dup counter."""
        sweep = sweep_for(direct, n=3)
        with JobStore(tmp_path / "q.db") as store:
            store.submit("sweep", sweep)
            JobRunner(store, service, "sweep").run()
            # simulate the redelivered twin of task 0 acknowledging late
            resp = service.execute(sweep[0])
            assert not store.complete("sweep", 0, "late", resp.batch.digest(),
                                      len(resp))
            c = store.counts("sweep")
            assert c["completions"] == 3 and c["duplicate_acks"] == 1

    def test_poisoned_task_dead_letters_and_sweep_completes(
        self, tmp_path, service, direct
    ):
        sweep = sweep_for(direct, n=3)
        poisoned = sweep + [QueryRequest(quality=1.0, box=Box((0, 0, 0), (1, 1, 1)),
                                         columns=("no_such_column",))]
        cfg = JobConfig(max_attempts=2, backoff=0.01)
        with JobStore(tmp_path / "q.db") as store:
            store.submit("sweep", poisoned)
            counts = JobRunner(store, service, "sweep", config=cfg).run()
            assert counts["done"] == 3
            assert counts["dead"] == 1
            (idx, error), = store.dead("sweep")
            assert idx == 3 and error

    def test_concurrent_runners_share_one_job(self, tmp_path, service, direct):
        sweep = sweep_for(direct, n=10, seed=13)
        cfg = JobConfig(batch_size=1)
        with JobStore(tmp_path / "q.db") as store:
            store.submit("sweep", sweep)
            runners = [
                JobRunner(store, service, "sweep", worker=f"r{i}", config=cfg)
                for i in range(3)
            ]
            threads = [threading.Thread(target=r.run) for r in runners]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            c = store.counts("sweep")
            assert c["done"] == 10 and c["completions"] == 10
            assert c["duplicate_acks"] == 0  # leases kept them disjoint


# ---------------------------------------------------------------------------
# satellite: shard-worker crash mid-job


class TestWorkerCrashMidJob:
    def test_shard_crash_resumes_exactly_once_and_byte_identical(
        self, tmp_path, written, direct
    ):
        """Kill a shard worker process mid-sweep: the router requeues the
        in-flight scatter onto a respawned worker, the job finishes with
        every task exactly once in the completion log, and every digest
        matches a direct single-process query."""
        sweep = sweep_for(direct, n=8, seed=17)
        with ShardedQueryService(written, serve_config(), n_shards=2) as svc:
            with JobStore(tmp_path / "q.db") as store:
                store.submit("sweep", sweep)
                runner = JobRunner(store, svc, "sweep", config=JobConfig(batch_size=2))
                killed = threading.Event()

                def assassin():
                    # wait until the sweep is demonstrably in flight
                    deadline = time.time() + 30.0
                    while time.time() < deadline:
                        if store.counts("sweep")["done"] >= 2:
                            break
                        time.sleep(0.01)
                    svc._shards[0].process.kill()
                    killed.set()

                t = threading.Thread(target=assassin)
                t.start()
                counts = runner.run()
                t.join(30.0)
                assert killed.is_set()
                assert counts["done"] == 8
                assert counts["dead"] == 0
                assert counts["completions"] == 8  # exactly once, post-crash
                assert sum(c.restarts for c in svc._shards) >= 1
                for idx, digest, _pts, _dups in store.completions("sweep"):
                    batch, _ = direct.query(sweep[idx])
                    assert batch.digest() == digest
