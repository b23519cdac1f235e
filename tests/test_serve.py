"""Tests for the concurrent query service (scheduler, degradation, caches).

The load-bearing properties:

- every served response is byte-identical to a direct
  :meth:`BATDataset.query` at the same effective ``(prev_quality,
  quality)`` coordinates, whatever the scheduler, the degradation
  policy, and the result cache did along the way;
- a degraded-then-refined session converges to exactly the data a
  never-degraded full-quality session receives;
- admission control bounds queue depth and rejects (never hangs) past
  the bounds.
"""

import dataclasses
import logging
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import NeighborRequest, QueryRequest
from repro.bat import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine as make_test_machine
from repro.serve import (
    AdmissionRejected,
    DegradationPolicy,
    QueryService,
    RequestScheduler,
    ResultCache,
    SchedulerClosed,
    ServeConfig,
    make_traces,
    percentile,
    run_load,
    verify_identity_samples,
)
from repro.serve import degrade, scheduler
from repro.serve.cache import ENTRY_OVERHEAD_BYTES
from repro.types import Box, ParticleBatch
from tests.test_pipeline import make_rank_data

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=9, seed=21)
    out = tmp_path_factory.mktemp("serve")
    report = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024).write(
        data, out_dir=out, name="serve"
    )
    return data, report.metadata_path


@pytest.fixture(scope="module")
def direct(written):
    """A plain dataset for reference queries, independent of the service."""
    _, meta = written
    with BATDataset(meta) as ds:
        yield ds


def canonical(batch):
    """Multiset key of a batch: rows sorted by every column."""
    cols = [batch.positions[:, i] for i in range(3)]
    cols += [batch.attributes[k] for k in sorted(batch.attributes)]
    order = np.lexsort(cols)
    return tuple(np.ascontiguousarray(c[order]).tobytes() for c in cols)


def batch_bytes(batch):
    return (batch.positions.tobytes(),) + tuple(
        batch.attributes[k].tobytes() for k in sorted(batch.attributes)
    )


# ---------------------------------------------------------------------------
# scheduler


class TestScheduler:
    def test_runs_and_returns(self):
        with RequestScheduler(capacity=2) as sched:
            tickets = [sched.submit(lambda t, i=i: i * i) for i in range(5)]
            assert [t.result(5.0) for t in tickets] == [0, 1, 4, 9, 16]
            assert sched.executed == 5

    def test_exception_propagates(self):
        with RequestScheduler(capacity=1) as sched:
            t = sched.submit(lambda t: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                t.result(5.0)

    def test_priority_order_under_contention(self):
        """Interactive tickets overtake queued bulk tickets."""
        release = threading.Event()
        order = []
        with RequestScheduler(capacity=1, max_queued=16) as sched:
            blocker = sched.submit(lambda t: release.wait(10.0))
            bulk = [
                sched.submit(lambda t, i=i: order.append(("bulk", i)), priority=1)
                for i in range(3)
            ]
            inter = [
                sched.submit(lambda t, i=i: order.append(("inter", i)), priority=0)
                for i in range(2)
            ]
            release.set()
            for t in bulk + inter + [blocker]:
                t.result(10.0)
        assert order == [("inter", 0), ("inter", 1), ("bulk", 0), ("bulk", 1), ("bulk", 2)]

    def test_fifo_within_priority(self):
        release = threading.Event()
        order = []
        with RequestScheduler(capacity=1) as sched:
            blocker = sched.submit(lambda t: release.wait(10.0))
            ts = [sched.submit(lambda t, i=i: order.append(i)) for i in range(4)]
            release.set()
            for t in ts + [blocker]:
                t.result(10.0)
        assert order == [0, 1, 2, 3]

    def test_global_queue_bound_rejects(self):
        release = threading.Event()
        started = threading.Event()

        def block(t):
            started.set()
            release.wait(10.0)

        with RequestScheduler(capacity=1, max_queued=2) as sched:
            blocker = sched.submit(block)
            assert started.wait(5.0)  # blocker off the queue, onto the worker
            sched.submit(lambda t: None)
            sched.submit(lambda t: None)
            with pytest.raises(AdmissionRejected, match="queue full"):
                sched.submit(lambda t: None)
            assert sched.rejected_queue_full == 1
            release.set()
            blocker.result(10.0)

    def test_per_session_bound_rejects(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setattr(scheduler, "MAX_SESSION_QUEUE", 2)
        with RequestScheduler(capacity=1, max_queued=64) as sched:
            blocker = sched.submit(lambda t: release.wait(10.0), session_id=7)
            sched.submit(lambda t: None, session_id=7)
            with pytest.raises(AdmissionRejected, match="session 7"):
                sched.submit(lambda t: None, session_id=7)
            # other sessions are unaffected by session 7's bound
            other = sched.submit(lambda t: None, session_id=8)
            assert sched.rejected_session_full == 1
            release.set()
            other.result(10.0)
            blocker.result(10.0)

    def test_wait_time_recorded(self):
        release = threading.Event()
        with RequestScheduler(capacity=1) as sched:
            blocker = sched.submit(lambda t: release.wait(10.0))
            queued = sched.submit(lambda t: t.wait_seconds)
            time.sleep(0.02)
            release.set()
            waited = queued.result(10.0)
            blocker.result(10.0)
        assert waited >= 0.01

    def test_drain_and_load_factor(self):
        with RequestScheduler(capacity=2) as sched:
            for _ in range(6):
                sched.submit(lambda t: time.sleep(0.001))
            assert sched.drain(10.0)
            assert sched.load_factor() == 0.0
            assert sched.queue_depth == 0

    def test_bounds_rejected(self):
        """``repro serve --capacity/--max-queued`` reach these checks."""
        with pytest.raises(ValueError, match="capacity"):
            RequestScheduler(capacity=0)
        with pytest.raises(ValueError, match="max_queued"):
            RequestScheduler(capacity=1, max_queued=-1)

    def test_close_rejects_new_work(self):
        sched = RequestScheduler(capacity=1)
        sched.close()
        with pytest.raises(SchedulerClosed):
            sched.submit(lambda t: None)

    def test_close_drains_pending(self):
        """Graceful close executes already-admitted tickets."""
        sched = RequestScheduler(capacity=1)
        done = []
        tickets = [sched.submit(lambda t, i=i: done.append(i)) for i in range(5)]
        sched.close(wait=True)
        assert sorted(done) == [0, 1, 2, 3, 4]
        assert all(t.done() for t in tickets)


class _SteppedScheduler(RequestScheduler):
    """A scheduler with no worker thread: the test thread runs each
    ticket itself, through :meth:`RequestScheduler.run_one`."""

    def _start_workers(self):
        return []


class TestSteppedScheduler:
    """``submit``, ``run_one`` and ``close`` driven one step at a time on
    the test thread, so each order below replays exactly."""

    def test_run_one_runs_the_next_ticket_and_keeps_the_books(self):
        sched = _SteppedScheduler(capacity=1)
        order = []
        bulk = sched.submit(lambda t: order.append("bulk"), session_id=1)
        inter = sched.submit(
            lambda t: order.append("inter"), session_id=2, priority=scheduler.PRIORITY_INTERACTIVE
        )
        failing = sched.submit(lambda t: 1 / 0, session_id=1)
        assert sched.stats()["queued"] == 3 and not sched.idle(1)
        assert sched.run_one() and order == ["inter"] and inter.done()
        assert sched.idle(2) and not bulk.done()
        assert sched.run_one() and order == ["inter", "bulk"]
        assert sched.run_one()  # the raising ticket holds its error
        with pytest.raises(ZeroDivisionError):
            failing.result(0)
        s = sched.stats()
        assert (s["queued"], s["in_flight"], s["admitted"], s["executed"]) == (0, 0, 3, 3)
        assert sched.idle(1)
        sched.close(wait=False)
        assert not sched.run_one()

    def test_close_without_wait_inside_a_running_ticket(self):
        """The running ticket is abandoned (its next push is refused) and
        still counts as executed; the queued ones finish with
        :class:`SchedulerClosed`; every count returns to 0."""
        sched = _SteppedScheduler(capacity=1)
        queued = []

        def closing(ticket):
            queued.extend(sched.submit(lambda t: None, session_id=5) for _ in range(2))
            sched.close(wait=False)
            return ticket.push("rows", grace=0)

        running = sched.submit(closing, session_id=5)
        assert sched.run_one()
        assert running.result(0) is False
        for t in queued:
            with pytest.raises(SchedulerClosed):
                t.result(0)
        s = sched.stats()
        assert (s["queued"], s["in_flight"], s["admitted"], s["executed"]) == (0, 0, 3, 1)
        assert sched.idle(5)
        assert not sched.run_one()
        with pytest.raises(SchedulerClosed):
            sched.submit(lambda t: None)

    def test_graceful_close_leaves_admitted_work_to_run_one(self):
        sched = _SteppedScheduler(capacity=1)
        done = []
        tickets = [sched.submit(lambda t, i=i: done.append(i)) for i in range(2)]
        sched.close(wait=True)  # no thread to join: the queue stays as it was
        with pytest.raises(SchedulerClosed):
            sched.submit(lambda t: None)
        assert sched.run_one() and sched.run_one() and not sched.run_one()
        assert done == [0, 1] and all(t.done() for t in tickets)
        assert sched.stats()["executed"] == 2


# ---------------------------------------------------------------------------
# degradation policy


def set_ramp(monkeypatch, **constants):
    """Set :mod:`repro.serve.degrade`'s ramp constants (``FULL_LOAD=4.0``,
    say) for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(degrade, name, value)


class TestDegradationPolicy:
    def test_no_load_no_ceiling(self):
        pol = DegradationPolicy()
        assert pol.observe(0.5) == 1.0
        eff, degraded = pol.apply(1.0)
        assert eff == 1.0 and not degraded

    def test_cap_ramps_with_load(self, monkeypatch):
        set_ramp(monkeypatch, ENGAGE_AT=1.0, FULL_LOAD=3.0, MIN_QUALITY=0.25)
        pol = DegradationPolicy()
        caps = [pol.observe(load) for load in (1.5, 2.0, 3.0, 5.0)]
        assert caps == sorted(caps, reverse=True)
        assert caps[-1] == pytest.approx(0.25)
        assert pol.engagements == 1  # one transition, not one per sample

    def test_hysteresis_no_flapping(self, monkeypatch):
        set_ramp(monkeypatch, ENGAGE_AT=1.0, FULL_LOAD=3.0, RELEASE_AT=0.5)
        pol = DegradationPolicy()
        pol.observe(2.0)
        assert pol.engaged
        # hovering between release and engage keeps the degraded cap
        cap_held = pol.observe(0.8)
        assert cap_held < 1.0 and pol.engaged
        assert pol.releases == 0
        # draining below the watermark restores full quality
        assert pol.observe(0.4) == 1.0
        assert not pol.engaged and pol.releases == 1

    def test_downgrade_counting(self, monkeypatch):
        set_ramp(monkeypatch, ENGAGE_AT=1.0, FULL_LOAD=2.0, MIN_QUALITY=0.5)
        pol = DegradationPolicy()
        pol.observe(2.0)
        eff, degraded = pol.apply(1.0)
        assert degraded and eff == pytest.approx(0.5)
        eff, degraded = pol.apply(0.3)  # below the cap: untouched
        assert not degraded and eff == 0.3
        assert pol.downgrades == 1

    def test_disabled_policy_never_degrades(self):
        pol = DegradationPolicy(enabled=False)
        assert pol.observe(100.0) == 1.0
        eff, degraded = pol.apply(1.0)
        assert eff == 1.0 and not degraded

    def test_config_validation(self):
        """The ramp's constants keep the invariants the policy relies on:
        a serveable floor, and hysteresis below a ramp of positive width."""
        assert 0.0 < degrade.MIN_QUALITY <= 1.0
        assert degrade.RELEASE_AT <= degrade.ENGAGE_AT < degrade.FULL_LOAD


# ---------------------------------------------------------------------------
# result cache


def window_key(quality=1.0, prev_quality=0.0, step=0, generation=0, **fields):
    """A result-cache / single-flight key as the serve core builds it."""
    window = QueryRequest(
        quality=quality, prev_quality=prev_quality, on_error="degrade", **fields
    )
    return (step, generation, window)


#: bytes of ``TestResultCache._batch()``: (3, 3) float32 positions + 3 float64
BATCH_NBYTES = 9 * 4 + 3 * 8
#: what the result cache charges for one such batch
CHARGE = BATCH_NBYTES + ENTRY_OVERHEAD_BYTES


class TestResultCache:
    def _batch(self, n=3):
        rng = np.random.default_rng(n)
        return ParticleBatch(rng.random((n, 3)), {"m": rng.random(n)})

    def test_hit_returns_same_object(self):
        cache = ResultCache(4 * CHARGE, ttl=None)
        key = window_key()
        b = self._batch()
        assert b.nbytes == BATCH_NBYTES
        cache.put(key, b)
        assert cache.get(key) is b
        assert cache.stats()["hits"] == 1
        assert cache.nbytes == CHARGE

    def test_prev_quality_in_key(self):
        k1 = window_key(0.7)
        k2 = window_key(0.7, prev_quality=0.3)
        assert k1 != k2

    def test_lru_eviction(self):
        cache = ResultCache(2 * CHARGE, ttl=None)
        ks = [window_key(q) for q in (0.1, 0.2, 0.3)]
        for k in ks:
            cache.put(k, self._batch())
        assert cache.get(ks[0]) is None  # evicted
        assert cache.get(ks[1]) is not None
        assert cache.stats()["evictions"] == 1
        assert cache.nbytes == 2 * CHARGE

    def test_get_refreshes_lru(self):
        cache = ResultCache(2 * CHARGE, ttl=None)
        a, b, c = (window_key(q) for q in (0.1, 0.2, 0.3))
        cache.put(a, self._batch())
        cache.put(b, self._batch())
        cache.get(a)  # refresh a so b is the LRU victim
        cache.put(c, self._batch())
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = ResultCache(4 * CHARGE, ttl=10.0, clock=lambda: now[0])
        key = window_key()
        cache.put(key, self._batch())
        now[0] = 9.0
        assert cache.get(key) is not None
        now[0] = 20.1
        assert cache.get(key) is None
        s = cache.stats()
        assert s["expirations"] == 1 and s["entries"] == 0 and s["bytes"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(-1)
        with pytest.raises(ValueError):
            ResultCache(ttl=0.0)

    def test_result_larger_than_the_budget_is_not_stored(self):
        """... and evicts nothing; its single-flight waiters still get it."""
        cache = ResultCache(CHARGE, ttl=None)
        small = window_key(0.1)
        cache.put(small, self._batch())
        big = self._batch(4)
        assert big.nbytes > BATCH_NBYTES
        _, flight = cache.join(window_key(0.2), lead=True)
        flight.wait()  # one waiter
        cache.put(window_key(0.2), big)
        cache.settle(flight, big)
        assert flight.value is big
        assert cache.get(window_key(0.2)) is None
        assert cache.get(small) is not None and cache.stats()["evictions"] == 0
        assert cache.uncached_bytes == big.nbytes


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0

    def test_p50_p99(self):
        vals = list(range(1, 101))
        assert percentile(vals, 50) == 50
        assert percentile(vals, 99) == 99
        assert percentile(vals, 100) == 100

    def test_nearest_rank_is_exact(self):
        """Rank ceil(p * n / 100): no half-to-even rounding bumps an odd
        integer rank up by one, and no float error in p / 100 does."""
        assert percentile([1, 2], 50) == 1.0
        assert percentile(range(1, 101), 99) == 99
        assert percentile(range(1, 11), 10) == 1
        assert percentile(range(1, 101), 7) == 7
        assert percentile(range(1, 11), 11) == 2
        assert percentile([3, 1, 2], 0) == 1


# ---------------------------------------------------------------------------
# the service


def serve_config(**kw):
    kw.setdefault("capacity", 2)
    kw.setdefault("result_ttl", None)
    kw.setdefault("degradation", False)
    return ServeConfig(**kw)


class ScriptedPolicy(DegradationPolicy):
    """Degradation driven by the test, not by observed load."""

    def observe(self, load_factor):
        return self.cap

    def ceiling(self, load_factor):
        return self.cap

    def set_cap(self, cap):
        with self._lock:
            if cap < 1.0 and not self._engaged:
                self._engaged = True
                self.engagements += 1
            elif cap >= 1.0 and self._engaged:
                self._engaged = False
                self.releases += 1
            self._cap = cap


class TestQueryService:
    def test_progressive_increments_sum_to_total(self, written):
        data, meta = written
        with QueryService(meta, serve_config()) as svc:
            sid = svc.open_session()
            total = 0
            for q in (0.2, 0.5, 0.8, 1.0):
                resp = svc.request(sid, QueryRequest(quality=q))
                assert resp.served_quality == q
                total += len(resp)
            assert total == data.total_particles
            assert svc.session(sid).delivered_quality == 1.0

    def test_responses_byte_identical_to_direct(self, written, direct):
        """Acceptance: served bytes == direct dataset bytes, same coords."""
        _, meta = written
        box = Box((0.2, 0.2, 0.0), (2.2, 2.2, 1.0))
        filt = (AttributeFilter("mass", 0.2, 0.9),)
        with QueryService(meta, serve_config()) as svc:
            sid = svc.open_session()
            for q in (0.3, 0.6, 1.0):
                resp = svc.request(sid, QueryRequest(quality=q, box=box, filters=filt))
                ref, _ = direct.query(QueryRequest(quality=resp.served_quality, prev_quality=resp.prev_quality, box=box, filters=filt))
                assert batch_bytes(resp.batch) == batch_bytes(ref)

    def test_no_redundant_data_and_view_reset(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            sid = svc.open_session()
            first = svc.request(sid, QueryRequest(quality=0.5))
            assert len(first) > 0
            again = svc.request(sid, QueryRequest(quality=0.5))
            assert len(again) == 0 and again.served_quality == 0.5
            lower = svc.request(sid, QueryRequest(quality=0.3))
            assert len(lower) == 0
            box = Box((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
            moved = svc.request(sid, QueryRequest(quality=0.4, box=box))
            assert len(moved) > 0  # progression restarted for the new view
            assert box.contains_points(moved.batch.positions).all()

    def test_result_cache_shared_across_sessions(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            a = svc.open_session()
            b = svc.open_session()
            ra = [svc.request(a, QueryRequest(quality=q)) for q in (0.4, 0.8)]
            rb = [svc.request(b, QueryRequest(quality=q)) for q in (0.4, 0.8)]
            assert not any(r.cache_hit for r in ra)
            assert all(r.cache_hit for r in rb)
            for x, y in zip(ra, rb):
                assert batch_bytes(x.batch) == batch_bytes(y.batch)
            assert svc.results.stats()["hits"] == 2

    def test_plan_and_file_caches_shared(self, written):
        _, meta = written
        box = Box((0.1, 0.1, 0.1), (1.4, 1.4, 0.9))
        with QueryService(meta, serve_config()) as svc:
            sids = [svc.open_session() for _ in range(3)]
            # distinct qualities dodge the result cache, so each session
            # reaches the planner — which must serve one shared plan
            for sid, q in zip(sids, (0.4, 0.6, 0.9)):
                svc.request(sid, QueryRequest(quality=q, box=box))
            plans = svc.snapshot()["caches"]["plans"]
            assert plans["misses"] == 1
            assert plans["hits"] >= 2

    def test_degraded_response_flagged_and_exact(self, written, direct):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            svc.degradation = ScriptedPolicy()
            sid = svc.open_session()
            svc.degradation.set_cap(0.4)
            resp = svc.request(sid, QueryRequest(quality=1.0))
            assert resp.degraded and resp.served_quality == pytest.approx(0.4)
            ref, _ = direct.query(QueryRequest(quality=resp.served_quality))
            assert batch_bytes(resp.batch) == batch_bytes(ref)
            assert svc.session(sid).downgrades == 1

    def test_degradation_never_resends_below_delivered(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            svc.degradation = ScriptedPolicy()
            sid = svc.open_session()
            svc.request(sid, QueryRequest(quality=0.6))
            svc.degradation.set_cap(0.3)  # cap below what was delivered
            resp = svc.request(sid, QueryRequest(quality=1.0))
            assert len(resp) == 0
            assert resp.served_quality == 0.6  # nothing re-sent, nothing lost

    @SETTINGS
    @given(
        qs=st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False), min_size=1, max_size=5
        ),
        caps=st.lists(
            st.floats(min_value=0.1, max_value=1.0, allow_nan=False), min_size=1, max_size=5
        ),
        use_box=st.booleans(),
    )
    def test_degraded_then_refined_converges(self, written, direct, qs, caps, use_box):
        """Tentpole property: any degradation history, then a full-quality
        refinement, yields exactly the direct full-quality data set."""
        _, meta = written
        box = Box((0.15, 0.1, 0.0), (2.4, 2.5, 1.0)) if use_box else None
        with QueryService(meta, serve_config(capacity=1)) as svc:
            svc.degradation = ScriptedPolicy()
            sid = svc.open_session()
            increments = []
            for i, q in enumerate(qs):
                svc.degradation.set_cap(caps[i % len(caps)])
                resp = svc.request(sid, QueryRequest(quality=q, box=box))
                if len(resp):
                    increments.append(resp.batch)
            svc.degradation.set_cap(1.0)  # load drained: full quality again
            final = svc.request(sid, QueryRequest(quality=1.0, box=box))
            if len(final):
                increments.append(final.batch)
            assert svc.session(sid).delivered_quality == 1.0
            combined = (
                ParticleBatch.concatenate(increments)
                if increments
                else ParticleBatch.empty()
            )
        ref, _ = direct.query(QueryRequest(quality=1.0, box=box))
        assert canonical(combined) == canonical(ref)

    def test_concurrent_sessions_all_byte_identical(self, written, direct, monkeypatch):
        """Many clients under real contention: every response must match a
        direct query at its served coordinates."""
        _, meta = written
        views = [
            (None, ()),
            (Box((0.0, 0.0, 0.0), (1.5, 3.0, 1.0)), ()),
            (Box((0.5, 0.5, 0.0), (2.5, 2.5, 1.0)), (AttributeFilter("mass", 0.1, 0.8),)),
            (None, (AttributeFilter("temp", 280.0, 320.0),)),
        ]
        records = []
        lock = threading.Lock()
        set_ramp(monkeypatch, FULL_LOAD=4.0)
        cfg = ServeConfig(capacity=2, result_ttl=None)
        with QueryService(meta, cfg) as svc:

            def client(view_index):
                box, filters = views[view_index % len(views)]
                sid = svc.open_session()
                for q in (0.3, 0.7, 1.0):
                    try:
                        resp = svc.request(sid, QueryRequest(quality=q, box=box, filters=filters))
                    except AdmissionRejected:
                        continue
                    with lock:
                        records.append(
                            (box, filters, resp.prev_quality, resp.served_quality,
                             batch_bytes(resp.batch))
                        )
                svc.close_session(sid)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert records
        for box, filters, prev_q, served_q, got in records:
            if served_q <= prev_q:
                continue  # empty increments are trivially identical
            ref, _ = direct.query(QueryRequest(quality=served_q, prev_quality=prev_q, box=box, filters=filters))
            assert got == batch_bytes(ref)

    def test_admission_rejection_recorded(self, written, caplog):
        _, meta = written
        cfg = serve_config(capacity=1, max_queued=0)
        caplog.set_level(logging.INFO, logger="repro.serve.service")
        with QueryService(meta, cfg) as svc:
            sid = svc.open_session()
            with pytest.raises(AdmissionRejected):
                svc.request(sid, QueryRequest(quality=0.5))
            snap = svc.snapshot()
            assert snap["requests"]["rejected"] == 1
            assert snap["scheduler"]["rejected_queue_full"] == 1
        [record] = [r for r in caplog.records if r.name == "repro.serve.service"]
        assert record.levelno == logging.WARNING
        assert (record.session_id, record.reason, record.queue_depth) == (
            sid, "global queue full", 0
        )

    def test_degradation_engages_and_releases_under_load(self, written, monkeypatch):
        """Blocker-gated backlog: degradation engages at >1x capacity and
        releases after the drain."""
        _, meta = written
        set_ramp(monkeypatch, ENGAGE_AT=1.0, FULL_LOAD=3.0, RELEASE_AT=0.5)
        cfg = ServeConfig(capacity=2, result_ttl=None)
        with QueryService(meta, cfg) as svc:
            release = threading.Event()
            blockers = [
                svc.scheduler.submit(lambda t: release.wait(10.0), session_id=-1 - i)
                for i in range(2)
            ]
            sids = [svc.open_session() for _ in range(4)]
            tickets = [svc.submit(sid, QueryRequest(quality=0.8)) for sid in sids]
            release.set()
            responses = [t.result(10.0) for t in tickets]
            for b in blockers:
                b.result(10.0)
            assert any(r.degraded for r in responses)
            assert svc.degradation.engagements >= 1
            # drain, then a lone request runs at load 0.5 <= release_at
            svc.scheduler.drain(10.0)
            calm = svc.open_session()
            resp = svc.request(calm, QueryRequest(quality=0.3))
            assert not resp.degraded
            assert svc.degradation.releases >= 1
            assert svc.degradation.cap == 1.0

    def test_metrics_surface_shape(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            sid = svc.open_session()
            svc.request(sid, QueryRequest(quality=0.5))
            svc.request(sid, QueryRequest(quality=1.0))
            snap = svc.snapshot()
        assert snap["requests"]["completed"] == 2
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"] > 0
        for phase in ("wait", "plan", "traverse", "gather"):
            assert phase in snap["phase_seconds"]
        assert snap["scheduler"]["capacity"] == 2
        # "collapse" is the result tier's single-flight block
        assert set(snap["caches"]) == {"results", "collapse", "plans", "files", "decoded_columns"}
        assert snap["degradation"]["downgrades"] == 0

    def test_timeseries_source_shares_file_cache(self, tmp_path):
        from repro.core.timeseries import TimeSeriesWriter

        data0 = make_rank_data(nranks=4, seed=1)
        data1 = make_rank_data(nranks=4, seed=2)
        w = TimeSeriesWriter(make_test_machine(), tmp_path, target_size=128 * 1024)
        w.write_step(0, data0)
        w.write_step(5, data1)
        with QueryService(tmp_path, serve_config()) as svc:
            assert svc.steps == [0, 5]
            a = svc.open_session(step=0)
            b = svc.open_session(step=5)
            r0 = svc.request(a, QueryRequest(quality=1.0))
            r1 = svc.request(b, QueryRequest(quality=1.0))
            assert len(r0) == data0.total_particles
            assert len(r1) == data1.total_particles
            files = svc.snapshot()["caches"]["files"]
            assert files["open"] > 0  # both steps share one handle pool
            assert svc.dataset(0).file_cache is svc.dataset(5).file_cache

    def test_unknown_step_rejected(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            with pytest.raises(KeyError):
                svc.open_session(step=3)


# ---------------------------------------------------------------------------
# result-cache hits on the submitting thread

HOT = QueryRequest(quality=0.6, box=Box((0.2, 0.2, 0.0), (2.2, 2.2, 1.0)))


def traced_stream(svc, monkeypatch, step=0):
    """Record the thread of every ``ds.stream`` call on one opened step."""
    ds = svc.dataset(step)
    threads = []
    read = ds.stream

    def stream(*args, **kwargs):
        threads.append(threading.get_ident())
        return read(*args, **kwargs)

    monkeypatch.setattr(ds, "stream", stream)
    return threads


class TestInlineHits:
    """A session's window already in the result cache is served on the
    thread that submits it; everything else keeps the scheduler."""

    def cached(self, svc, request=HOT):
        """Put ``request``'s window in the result cache through another session."""
        sid = svc.open_session()
        resp = svc.request(sid, request)
        assert not resp.cache_hit
        return resp

    def test_hit_is_served_when_the_scheduler_refuses(self, written, monkeypatch):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            want = self.cached(svc)

            def refuse(*args, **kwargs):
                raise AssertionError("a cached window was queued")

            monkeypatch.setattr(svc.scheduler, "submit", refuse)
            ticket = svc.submit(svc.open_session(), HOT)
            assert ticket.done()
            resp = ticket.result(0)
            assert resp.cache_hit and resp.span.wait_seconds == 0.0
            assert batch_bytes(resp.batch) == batch_bytes(want.batch)
            assert svc.session(ticket.session_id).delivered_quality == HOT.quality

    def test_miss_reads_on_a_worker_thread(self, written, monkeypatch):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            self.cached(svc)
            threads = traced_stream(svc, monkeypatch)
            sid = svc.open_session()
            assert svc.request(sid, HOT).cache_hit  # inline: no read at all
            assert threads == []
            miss = svc.request(sid, dataclasses.replace(HOT, quality=0.9))
            assert not miss.cache_hit and miss.prev_quality == HOT.quality
            assert len(threads) == 1 and threads[0] != threading.get_ident()

    def test_hit_never_overtakes_its_sessions_queued_request(self, written):
        _, meta = written
        with QueryService(meta, serve_config(capacity=1)) as svc:
            whole = self.cached(svc, dataclasses.replace(HOT, quality=1.0))
            release = threading.Event()
            blocker = svc.scheduler.submit(lambda t: release.wait(10.0), session_id=-2)
            sid = svc.open_session()
            first = svc.submit(sid, HOT)
            # (0, 1.0] of the view is cached, but the session's 0.6 is queued
            then = svc.submit(sid, dataclasses.replace(HOT, quality=1.0))
            assert not then.done()
            release.set()
            blocker.result(10.0)
            a, b = first.result(10.0), then.result(10.0)
            assert (a.prev_quality, a.served_quality) == (0.0, 0.6)
            assert (b.prev_quality, b.served_quality) == (0.6, 1.0)
            assert len(a) + len(b) == len(whole)

    def test_entry_evicted_after_the_look_is_served_not_read(self, written, monkeypatch):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            want = self.cached(svc)
            threads = traced_stream(svc, monkeypatch)
            peek = svc.results.peek

            def peek_then_evict(key):
                batch = peek(key)
                svc.results.clear()
                return batch

            monkeypatch.setattr(svc.results, "peek", peek_then_evict)
            before = svc.results.stats()
            ticket = svc.submit(svc.open_session(), HOT)
            assert ticket.done() and threads == []
            resp = ticket.result(0)
            assert resp.cache_hit
            assert batch_bytes(resp.batch) == batch_bytes(want.batch)
            after = svc.results.stats()
            assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])
            assert after["entries"] == 0

    def test_hit_under_a_degraded_ceiling(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            svc.degradation = ScriptedPolicy()
            svc.degradation.set_cap(0.4)
            want = self.cached(svc)  # served, and cached, at (0, 0.4]
            sid = svc.open_session()
            ticket = svc.submit(sid, HOT)
            assert ticket.done()
            resp = ticket.result(0)
            assert resp.cache_hit and resp.degraded
            assert (resp.prev_quality, resp.served_quality) == (0.0, 0.4)
            assert batch_bytes(resp.batch) == batch_bytes(want.batch)
            assert svc.degradation.downgrades == 2  # one per request
            assert svc.session(sid).downgrades == 1

    def test_a_miss_is_counted_once(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            sid = svc.open_session()
            svc.request(sid, HOT)
            svc.request(sid, dataclasses.replace(HOT, quality=0.9))
            stats = svc.results.stats()
            assert (stats["hits"], stats["misses"]) == (0, 2)
            assert svc.snapshot()["scheduler"]["inline"] == 0

    def test_closed_service_raises(self, written):
        _, meta = written
        svc = QueryService(meta, serve_config())
        self.cached(svc)
        sid = svc.open_session()
        svc.scheduler.close()  # the window is still cached and its step open
        with pytest.raises(SchedulerClosed):
            svc.submit(sid, HOT)
        svc.close()
        with pytest.raises(SchedulerClosed):
            svc.submit(sid, HOT)

    def test_loop_stays_responsive_while_a_miss_reads(self, written, monkeypatch):
        import asyncio

        from repro.serve import AsyncQueryService

        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            self.cached(svc)
            ds = svc.dataset(0)
            read = ds.stream

            def slow_stream(*args, **kwargs):
                time.sleep(0.3)
                return read(*args, **kwargs)

            monkeypatch.setattr(ds, "stream", slow_stream)

            async def main():
                asvc = AsyncQueryService(service=svc)
                loop = asyncio.get_running_loop()
                sid = asvc.open_session()
                hit = await asvc.request(sid, HOT)  # served during admission
                fired = []
                loop.call_later(0.05, lambda: fired.append(time.perf_counter()))
                miss = await asvc.request(sid, dataclasses.replace(HOT, quality=0.9))
                done = time.perf_counter()
                stream = asvc.stream(sid, dataclasses.replace(HOT, quality=1.0))
                loop.call_later(0.05, lambda: fired.append(time.perf_counter()))
                increments = [inc async for inc in stream]
                streamed = await stream.result()
                return hit, miss, done, increments, streamed, fired, time.perf_counter()

            hit, miss, done, increments, streamed, fired, end = asyncio.run(main())
        assert hit.cache_hit and not miss.cache_hit and not streamed.cache_hit
        assert increments and streamed.prev_quality == 0.9
        # each timer fired while its read was still on the worker thread
        assert len(fired) == 2 and fired[0] < done and done < fired[1] < end

    def test_streamed_hit_is_one_increment(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            want = self.cached(svc)
            handle = svc.stream(svc.open_session(), HOT)
            assert handle.done()
            (inc,) = list(handle)
            resp = handle.result(0)
            assert resp.cache_hit and resp.increments == 1
            assert batch_bytes(inc.batch) == batch_bytes(want.batch)

    def test_snapshot_counts_inline_hits(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            served = [svc.request(svc.open_session(), QueryRequest(quality=q))
                      for q in (0.3, 0.3, 0.7, 0.3, 0.7)]
            snap = svc.snapshot()
        hits = sum(r.cache_hit for r in served)
        assert hits == 3
        assert snap["scheduler"]["inline"] == hits
        assert snap["scheduler"]["inline"] + snap["scheduler"]["admitted"] == (
            snap["requests"]["completed"]
        )
        assert snap["requests"]["cache_hits"] == snap["caches"]["results"]["hits"] == hits


# ---------------------------------------------------------------------------
# load generator


# ---------------------------------------------------------------------------
# identity: the frozen request *is* the key of every tier

VIEW = Box((0.2, 0.2, 0.0), (2.2, 2.2, 1.0))
MASS = AttributeFilter("mass", 0.2, 0.9)

#: one request per family with every field it can carry set ...
BASE = {
    QueryRequest: QueryRequest(
        box=VIEW, filters=(MASS,), columns=("positions", "mass", "temp"),
        quality=0.8, prev_quality=0.2,
    ),
    NeighborRequest: NeighborRequest(
        center_box=VIEW, radius=0.25, filters=(MASS,),
        columns=("positions", "mass", "temp"),
    ),
}
#: ... and, per field, what to replace to get a second valid value of it
#: (a filter superset, a column subset and a lower rung among them: windows
#: that once joined the base's in-flight stream and now never do)
OTHER = {
    "box": dict(box=Box((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))),
    "filters": dict(filters=(MASS, AttributeFilter("temp", 280.0, 330.0))),
    "columns": dict(columns=("positions", "mass")),
    "quality": dict(quality=0.5),
    "prev_quality": dict(prev_quality=0.1),
    "center_box": dict(center_box=Box((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))),
    "points": dict(points=((1.5, 1.5, 0.5),), center_box=None),
    "k": dict(k=5, radius=None),
    "radius": dict(radius=0.2),
}

#: driven from the dataclasses: a field added to a request is a new case
#: here (and fails until OTHER holds a second value for it)
FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in BASE for f in dataclasses.fields(cls) if f.name != "on_error"
]


def changed(cls, name):
    assert name in OTHER, f"{cls.__name__}.{name}: add a second valid value to OTHER"
    other = dataclasses.replace(BASE[cls], **OTHER[name])
    assert getattr(other, name) != getattr(BASE[cls], name)
    return other


class TestRequestIdentity:
    @pytest.mark.parametrize("cls, name", FIELDS)
    def test_changed_field_misses_the_result_cache(self, written, cls, name):
        with QueryService(written[1], serve_config()) as svc:
            assert not svc.execute(BASE[cls]).cache_hit
            assert svc.execute(BASE[cls]).cache_hit
            assert not svc.execute(changed(cls, name)).cache_hit
            assert svc.results.stats()["entries"] == 2

    @pytest.mark.parametrize("cls, name", FIELDS)
    def test_changed_field_never_joins_exactly(self, cls, name):
        """... nor waits on the base request's in-flight leader: with the
        base leading, the changed window leads for itself."""
        cache = ResultCache(ttl=None)
        _, leader = cache.join((0, 0, BASE[cls]), lead=True)
        batch, flight = cache.join((0, 0, changed(cls, name)), lead=True)
        assert batch is None and flight is not None and flight is not leader
        assert cache.flight_stats()["collapsed_hits"] == 0

    @pytest.mark.parametrize("where", [(1, 0), (0, 1)], ids=["step", "generation"])
    @pytest.mark.parametrize("cls", BASE, ids=lambda cls: cls.__name__)
    def test_another_step_or_generation_is_another_identity(self, cls, where):
        cache = ResultCache(ttl=None)
        cache.put((0, 0, BASE[cls]), ParticleBatch(np.zeros((1, 3))))
        assert cache.get((0, 0, BASE[cls])) is not None
        assert cache.get((*where, BASE[cls])) is None
        flights = ResultCache(ttl=None)
        _, leader = flights.join((0, 0, BASE[cls]), lead=True)
        batch, flight = flights.join((*where, BASE[cls]), lead=True)
        assert batch is None and flight is not None and flight is not leader

    @pytest.mark.parametrize("cls", BASE, ids=lambda cls: cls.__name__)
    def test_on_error_is_policy_not_identity(self, written, cls):
        """What to do about a bad leaf is decided by the service (it always
        degrades and reports ``partial``), so the two spellings of one
        read share an entry; a neighbor request used to be keyed raw."""
        with QueryService(written[1], serve_config()) as svc:
            first = svc.execute(dataclasses.replace(BASE[cls], on_error="raise"))
            again = svc.execute(dataclasses.replace(BASE[cls], on_error="degrade"))
            assert not first.cache_hit and again.cache_hit
            assert svc.results.stats()["entries"] == 1


class TestLoadGenerator:
    def test_traces_deterministic(self, direct):
        t1 = make_traces(6, direct.bounds, direct.attr_ranges, seed=3)
        t2 = make_traces(6, direct.bounds, direct.attr_ranges, seed=3)
        assert t1 == t2
        assert all(isinstance(r, QueryRequest) for ops in t1 for r in ops)
        assert len(t1) == 6
        kinds = {len(ops) for ops in t1}
        assert kinds  # every trace has operations

    def test_run_load_and_identity(self, written, direct):
        _, meta = written
        cfg = ServeConfig(capacity=2, degradation=True, result_ttl=None)
        with QueryService(meta, cfg) as svc:
            traces = make_traces(6, direct.bounds, direct.attr_ranges,
                                 ops_per_session=4, seed=7)
            report = run_load(svc, traces, concurrency=4, identity_sample_every=3)
            assert report.requests == 6 * 4
            assert report.elapsed_seconds > 0
            assert len(report.latencies) + report.rejected == report.requests
            checked = verify_identity_samples(direct, report.identity_samples)
            assert checked == len(report.identity_samples) > 0
            # queue depth stayed within the admission bound
            assert svc.scheduler.max_queue_depth <= svc.config.max_queued

    def test_concurrency_validation(self, written):
        _, meta = written
        with QueryService(meta, serve_config()) as svc:
            with pytest.raises(ValueError):
                run_load(svc, [], concurrency=0)
