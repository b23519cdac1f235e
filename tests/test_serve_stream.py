"""Tests for streamed serving: outbox backpressure, request collapsing,
the asyncio front end, windowed metrics, and open-loop load.

The core invariant, stressed from every angle: whatever the collapse
table, the quality ladder, backpressure shedding, and the degradation
policy did to a request, the bytes a client ends up holding are exactly
the bytes a direct synchronous query at the same effective
``(prev_quality, quality)`` coordinates returns.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryRequest, reassemble_stream
from repro.api import StreamIncrement
from repro.bat import AttributeFilter
from repro.bat.colcache import DecodedColumnCache
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine
from repro.serve import (
    AsyncQueryService,
    CollapseAbandoned,
    InflightTable,
    QueryService,
    ServeConfig,
    ServeMetrics,
    StreamOutbox,
    make_hot_traces,
    make_traces,
    run_load,
    verify_identity_samples,
)
from repro.serve.collapse import _DONE, adapt_increment, _compatible, FollowSpec, InflightEntry
from repro.serve.metrics import DEFAULT_METRICS_WINDOW, RequestSpan
from repro.serve.scheduler import RequestScheduler, SchedulerConfig
from repro.serve.streaming import DONE, EMPTY
from repro.types import Box, ParticleBatch
from tests.test_pipeline import make_rank_data

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

BOX = Box((0.5, 0.5, 0.1), (3.0, 3.0, 0.8))
FILT = (AttributeFilter("mass", 0.2, 0.8),)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=9, seed=21)
    out = tmp_path_factory.mktemp("serve_stream")
    report = TwoPhaseWriter(testing_machine(), target_size=128 * 1024).write(
        data, out_dir=out, name="ss"
    )
    return report.metadata_path


@pytest.fixture(scope="module")
def direct(written):
    with BATDataset(written) as ds:
        yield ds


def canon(batch):
    out = [None if batch.positions is None else batch.positions.tobytes()]
    for k, v in batch.attributes.items():
        out.append((k, str(v.dtype), v.tobytes()))
    return out


# ---------------------------------------------------------------------------
# stream outbox


class TestStreamOutbox:
    def test_fifo_and_done(self):
        box = StreamOutbox(4)
        for i in range(3):
            assert box.push(i, grace=None)
        box.finish()
        assert [box.pop(1.0) for _ in range(3)] == [0, 1, 2]
        assert box.pop(1.0) is DONE

    def test_bounded_push_sheds_after_grace(self):
        box = StreamOutbox(1)
        assert box.push("a", grace=0.01)
        t0 = time.perf_counter()
        assert not box.push("b", grace=0.05)  # full, consumer absent
        assert time.perf_counter() - t0 >= 0.04
        assert box.blocked_pushes == 1

    def test_consumer_unblocks_producer(self):
        box = StreamOutbox(1)
        box.push("a", grace=None)
        got = []

        def consume():
            time.sleep(0.02)
            got.append(box.pop(5.0))

        t = threading.Thread(target=consume)
        t.start()
        assert box.push("b", grace=5.0)
        t.join()
        assert got == ["a"]

    def test_abandon_fails_pushes_immediately(self):
        box = StreamOutbox(1)
        box.abandon()
        assert not box.push("x", grace=None)

    def test_error_reraised_after_drain(self):
        box = StreamOutbox(4)
        box.push("a", grace=None)
        box.finish(error=RuntimeError("boom"))
        assert box.pop(1.0) == "a"
        with pytest.raises(RuntimeError, match="boom"):
            box.pop(1.0)

    def test_try_pop_sentinels(self):
        box = StreamOutbox(2)
        assert box.try_pop() is EMPTY
        box.push("a", grace=None)
        assert box.try_pop() == "a"
        box.finish()
        assert box.try_pop() is DONE

    def test_on_event_fires_for_push_and_finish(self):
        events = []
        box = StreamOutbox(2, on_event=lambda: events.append(1))
        box.push("a", grace=None)
        box.finish()
        assert len(events) == 2


class TestTicketCallbacks:
    def test_callback_after_completion_and_immediate_when_done(self):
        fired = []
        with RequestScheduler(SchedulerConfig(capacity=1)) as sched:
            t = sched.submit(lambda t: 42)
            t.result(5.0)
            t.add_done_callback(lambda tk: fired.append(tk.result(0)))
            t2 = sched.submit(lambda t: 7)
            t2.add_done_callback(lambda tk: fired.append(tk.result(0)))
            t2.result(5.0)
        assert sorted(fired) == [7, 42]

    def test_finished_at_stamped(self):
        with RequestScheduler(SchedulerConfig(capacity=1)) as sched:
            t = sched.submit(lambda t: time.sleep(0.01))
            t.result(5.0)
        assert t.finished_at >= t.started_at >= t.enqueued_at > 0


# ---------------------------------------------------------------------------
# collapse table (unit)


def _inc(batch, quality=1.0, prev=0.0, order="keys"):
    if order == "keys":
        order = np.zeros((len(batch), 3), dtype=np.int64)
        order[:, 2] = np.arange(len(batch))
    return StreamIncrement(quality=quality, prev_quality=prev, batch=batch, order=order)


def _batch(n=8, names=("mass", "temp")):
    rng = np.random.default_rng(0)
    pos = rng.random((n, 3)).astype(np.float32)
    return ParticleBatch(pos, {nm: rng.random(n) for nm in names})


def _key(step=0, generation=0, **fields):
    """A collapse key as the serve core builds it: (step, generation, window)."""
    return (step, generation, QueryRequest(on_error="degrade", **fields))


class TestInflightTable:
    def test_leader_then_exact_follower(self):
        table = InflightTable()
        entry, spec = table.acquire(_key(), (1.0,))
        assert spec is None
        e2, spec2 = table.acquire(_key(), (1.0,))
        assert e2 is entry and spec2 is not None and spec2.is_identity
        table.release(entry)
        s = table.stats()
        assert s["leaders"] == 1 and s["collapsed_hits"] == 1 and s["entries"] == 0

    def test_released_entry_not_joinable(self):
        table = InflightTable()
        entry, _ = table.acquire(_key(), (1.0,))
        table.release(entry)
        e2, spec = table.acquire(_key(), (1.0,))
        assert e2 is not entry and spec is None

    def test_derived_filter_superset(self):
        entry = InflightEntry(_key(), (1.0,))
        spec = _compatible(entry, _key(filters=FILT))
        assert spec is not None and spec.extra_filters == FILT

    def test_derived_column_subset(self):
        entry = InflightEntry(_key(), (1.0,))
        spec = _compatible(entry, _key(columns=("mass",)))
        assert spec is not None and spec.columns == ("mass",)

    def test_derived_rung_truncation(self):
        entry = InflightEntry(_key(), (0.25, 0.5, 1.0))
        spec = _compatible(entry, _key(quality=0.5))
        assert spec is not None and spec.stop_quality == 0.5
        assert _compatible(entry, _key(quality=0.3)) is None  # not a rung

    def test_incompatible_prev_box(self):
        entry = InflightEntry(_key(), (1.0,))
        assert _compatible(entry, _key(prev_quality=0.5)) is None
        assert _compatible(entry, _key(box=BOX)) is None

    def test_different_generation_or_step_never_joins(self):
        """Row order follows the leaf set: neither an exact nor a derived
        follower may consume a stream decoded from another layout."""
        table = InflightTable()
        entry, _ = table.acquire(_key(), (0.5, 1.0))
        for other in (dict(generation=1), dict(step=1)):
            assert _compatible(entry, _key(**other)) is None
            assert _compatible(entry, _key(columns=("mass",), **other)) is None
            assert _compatible(entry, _key(filters=FILT, **other)) is None
            assert _compatible(entry, _key(quality=0.5, **other)) is None
            e2, spec = table.acquire(_key(**other), (0.5, 1.0))
            assert e2 is not entry and spec is None
        assert table.stats()["leaders"] == 3

    def test_narrow_leader_cannot_serve_wider_follower(self):
        entry = InflightEntry(_key(columns=("mass",)), (1.0,))
        assert _compatible(entry, _key()) is None
        assert _compatible(entry, _key(columns=("mass", "temp"))) is None
        # extra filter on a column the leader did not materialize
        tfilt = (AttributeFilter("temp", 0.1, 0.9),)
        assert _compatible(entry, _key(columns=("mass",), filters=tfilt)) is None
        # ... but a filter over a column the leader does carry is fine
        assert _compatible(entry, _key(columns=("mass",), filters=FILT)) is not None

    def test_follower_consumes_published_stream(self):
        table = InflightTable()
        entry, _ = table.acquire(_key(), (0.5, 1.0))
        b = _batch()
        got = []

        def follower():
            i = 0
            while True:
                inc = entry.fetch(i, timeout=5.0)
                if inc is _DONE:
                    return
                got.append(inc)
                i += 1

        t = threading.Thread(target=follower)
        t.start()
        entry.publish(_inc(b, quality=0.5))
        entry.publish(_inc(b, quality=1.0, prev=0.5))
        entry.finish()
        t.join(5.0)
        assert [g.quality for g in got] == [0.5, 1.0]

    def test_partial_publish_abandons_followers(self):
        entry = InflightEntry(_key(), (1.0,))
        entry.publish(
            StreamIncrement(
                quality=1.0, prev_quality=0.0, batch=_batch(), order=None, partial=True
            )
        )
        with pytest.raises(CollapseAbandoned):
            entry.fetch(0, timeout=0.1)

    def test_fetch_timeout_raises(self):
        entry = InflightEntry(_key(), (1.0,))
        with pytest.raises(CollapseAbandoned):
            entry.fetch(0, timeout=0.01)


class TestAdaptIncrement:
    def test_identity_shares_increment(self):
        inc = _inc(_batch())
        assert adapt_increment(inc, FollowSpec()) is inc

    def test_extra_filter_masks_rows_and_order(self):
        b = _batch(16)
        inc = _inc(b)
        lo, hi = 0.3, 0.7
        spec = FollowSpec(extra_filters=(AttributeFilter("mass", lo, hi),))
        out = adapt_increment(inc, spec)
        mask = (b.attributes["mass"] >= lo) & (b.attributes["mass"] <= hi)
        assert np.array_equal(out.batch.attributes["mass"], b.attributes["mass"][mask])
        assert np.array_equal(out.order, inc.order[mask])

    def test_column_projection_preserves_attr_order(self):
        b = _batch(8, names=("a", "b", "c"))
        out = adapt_increment(_inc(b), FollowSpec(columns=("c", "a")))
        assert list(out.batch.attributes) == ["a", "c"]  # file order kept
        assert out.batch.positions is None
        out2 = adapt_increment(_inc(b), FollowSpec(columns=("a", "positions")))
        assert out2.batch.positions is not None


# ---------------------------------------------------------------------------
# service streaming


def serve_config(**kw):
    base = dict(capacity=2, result_ttl=None)
    base.update(kw)
    return ServeConfig(**base)


class TestServiceStreaming:
    def test_stream_equals_direct_and_refines(self, written, direct):
        with QueryService(written, serve_config()) as svc:
            sid = svc.open_session()
            handle = svc.stream(sid, QueryRequest(quality=0.8))
            incs = list(handle)
            resp = handle.result(30.0)
            ref = direct.query(QueryRequest(quality=0.8))
            assert len(incs) > 1
            assert canon(resp.batch) == canon(ref.batch)
            assert canon(reassemble_stream(incs).batch) == canon(ref.batch)
            assert resp.increments == len(incs)
            assert resp.span.first_increment_seconds > 0
            # refinement streams only the (0.8, 1.0] window
            h2 = svc.stream(sid, QueryRequest(quality=1.0))
            incs2 = list(h2)
            resp2 = h2.result(30.0)
            ref2 = direct.query(QueryRequest(quality=1.0, prev_quality=0.8))
            assert canon(resp2.batch) == canon(ref2.batch)
            assert canon(reassemble_stream(incs + incs2).batch) == canon(
                direct.query(QueryRequest(quality=1.0)).batch
            )

    def test_slow_consumer_sheds_prefix_exact(self, written, direct):
        cfg = serve_config(stream_outbox=1, stream_grace=0.05)
        with QueryService(written, cfg) as svc:
            sid = svc.open_session()
            handle = svc.stream(sid, QueryRequest(quality=1.0))
            incs = []
            for inc in handle:
                incs.append(inc)
                time.sleep(0.15)  # slower than the grace period
            resp = handle.result(30.0)
            assert resp.shed
            assert resp.served_quality < 1.0
            ref = direct.query(QueryRequest(quality=resp.served_quality))
            assert canon(resp.batch) == canon(ref.batch)
            assert svc.session(sid).delivered_quality == resp.served_quality
            # the session converges: the next request covers the rest
            r2 = svc.request(sid, QueryRequest(quality=1.0), timeout=60.0)
            ref2 = direct.query(
                QueryRequest(quality=r2.served_quality, prev_quality=resp.served_quality)
            )
            assert canon(r2.batch) == canon(ref2.batch)

    def test_closed_handle_sheds(self, written):
        cfg = serve_config(stream_outbox=1, stream_grace=0.05)
        with QueryService(written, cfg) as svc:
            sid = svc.open_session()
            with svc.stream(sid, QueryRequest(quality=1.0)) as handle:
                pass  # context exit closes without consuming
            resp = handle.result(30.0)
            assert resp.shed or resp.increments > 0

    def test_streamed_cache_hit_single_increment(self, written):
        with QueryService(written, serve_config()) as svc:
            s1 = svc.open_session()
            svc.request(s1, QueryRequest(quality=0.5), timeout=60.0)
            s2 = svc.open_session()
            handle = svc.stream(s2, QueryRequest(quality=0.5))
            incs = list(handle)
            resp = handle.result(30.0)
            assert resp.cache_hit and len(incs) == 1 and incs[0].order is None

    def test_stream_missing_a_leaf_is_partial_and_never_cached(self, tmp_path):
        """The first stream finds the missing leaf and quarantines it; the
        second plans around it — and must still say it is incomplete."""
        rep = TwoPhaseWriter(testing_machine(), target_size=128 * 1024).write(
            make_rank_data(nranks=9, seed=21), out_dir=tmp_path, name="dmg"
        )
        sorted(tmp_path.glob("*.bat"))[0].unlink()
        with QueryService(rep.metadata_path, serve_config()) as svc:
            for _ in range(2):
                handle = svc.stream(svc.open_session(), QueryRequest(quality=1.0))
                list(handle)
                resp = handle.result(30.0)
                assert resp.partial and resp.quarantined_files == 1
            assert svc.results.stats()["entries"] == 0
            again = svc.request(
                svc.open_session(), QueryRequest(quality=1.0), timeout=60.0
            )
            assert again.partial and not again.cache_hit

    def test_snapshot_has_collapse_and_streaming_surfaces(self, written):
        with QueryService(written, serve_config()) as svc:
            sid = svc.open_session()
            h = svc.stream(sid, QueryRequest(quality=0.6))
            list(h)
            h.result(30.0)
            snap = svc.snapshot()
            assert {"entries", "subscribers", "leaders", "collapsed_hits",
                    "derived_hits", "fallbacks", "saved_decodes", "saved_points",
                    "saved_bytes", "hit_rate"} <= set(snap["caches"]["collapse"])
            assert snap["streaming"]["streamed"] == 1
            assert snap["streaming"]["increments"] >= 1
            assert snap["streaming"]["ttfi_ms"]["p50"] > 0
            assert snap["latency_ms"]["window"] == DEFAULT_METRICS_WINDOW


class TestServiceCollapse:
    def test_thundering_herd_collapses_byte_exact(self, written, direct):
        cfg = serve_config(capacity=4, result_cache_entries=1)
        with QueryService(written, cfg) as svc:
            sids = [svc.open_session() for _ in range(6)]
            barrier = threading.Barrier(6)
            results = {}

            def worker(i, sid):
                barrier.wait()
                flt = FILT if i >= 4 else ()
                results[i] = svc.request(
                    sid, QueryRequest(quality=1.0, filters=flt), timeout=60.0
                )

            threads = [
                threading.Thread(target=worker, args=(i, s))
                for i, s in enumerate(sids)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, resp in results.items():
                flt = FILT if i >= 4 else ()
                ref = direct.query(
                    QueryRequest(quality=resp.served_quality, filters=flt)
                )
                assert canon(resp.batch) == canon(ref.batch), f"request {i}"
            stats = svc.collapse.stats()
            assert stats["leaders"] >= 1
            assert stats["fallbacks"] == 0

    def test_collapse_disabled_never_joins(self, written):
        cfg = serve_config(capacity=4, collapse=False, result_cache_entries=1)
        with QueryService(written, cfg) as svc:
            sids = [svc.open_session() for _ in range(4)]
            tickets = [
                svc.submit(sid, QueryRequest(quality=1.0)) for sid in sids
            ]
            for t in tickets:
                t.result(60.0)
            s = svc.collapse.stats()
            assert s["leaders"] == 0 and s["collapsed_hits"] == 0

    @SETTINGS
    @given(data=st.data())
    def test_random_session_mixes_stay_byte_identical(self, written, direct, data):
        """Randomized zoom/pan/filter/column mixes, streamed and one-shot,
        with collapsing and aggressive degradation: every response equals
        the direct query at its served coordinates, and a session's
        accumulated increments reassemble to the full-quality bytes."""
        n_sessions = data.draw(st.integers(2, 4))
        cfg = serve_config(capacity=2, result_cache_entries=8)
        boxes = [None, BOX, Box((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))]
        with QueryService(written, cfg) as svc:
            plans = []
            for _ in range(n_sessions):
                ops = []
                for _ in range(data.draw(st.integers(1, 3))):
                    ops.append(
                        dict(
                            quality=data.draw(
                                st.sampled_from([0.2, 0.5, 0.8, 1.0])
                            ),
                            box=data.draw(st.sampled_from(boxes)),
                            filters=data.draw(st.sampled_from([(), FILT])),
                            columns=data.draw(
                                st.sampled_from(
                                    [None, ("mass", "positions")]
                                )
                            ),
                            streamed=data.draw(st.booleans()),
                        )
                    )
                plans.append(ops)
            observed = []
            lock = threading.Lock()

            def client(ops):
                sid = svc.open_session()
                try:
                    for op in ops:
                        req = QueryRequest(
                            quality=op["quality"], box=op["box"],
                            filters=op["filters"], columns=op["columns"],
                        )
                        if op["streamed"]:
                            h = svc.stream(sid, req)
                            incs = list(h)
                            resp = h.result(60.0)
                            with lock:
                                if incs:
                                    observed.append(
                                        (req, resp, reassemble_stream(incs).batch)
                                    )
                                else:
                                    observed.append((req, resp, None))
                        else:
                            resp = svc.request(sid, req, timeout=60.0)
                            with lock:
                                observed.append((req, resp, None))
                finally:
                    svc.close_session(sid)

            threads = [
                threading.Thread(target=client, args=(ops,)) for ops in plans
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for req, resp, reassembled in observed:
            if resp.partial:
                continue
            ref = direct.query(
                QueryRequest(
                    quality=resp.served_quality,
                    prev_quality=resp.prev_quality,
                    box=req.box,
                    filters=req.filters,
                    columns=req.columns,
                )
            )
            assert canon(resp.batch) == canon(ref.batch)
            if reassembled is not None:
                assert canon(reassembled) == canon(ref.batch)


# ---------------------------------------------------------------------------
# asyncio front end


class TestAsyncService:
    def test_async_request_matches_sync(self, written, direct):
        import asyncio

        async def main():
            async with AsyncQueryService(written, serve_config()) as asvc:
                sid = asvc.open_session()
                resp = await asvc.request(sid, QueryRequest(quality=0.7))
                return resp

        resp = asyncio.run(main())
        ref = direct.query(QueryRequest(quality=resp.served_quality))
        assert canon(resp.batch) == canon(ref.batch)

    def test_async_stream_increments_and_result(self, written, direct):
        import asyncio

        async def main():
            async with AsyncQueryService(written, serve_config()) as asvc:
                sid = asvc.open_session()
                stream = asvc.stream(sid, QueryRequest(quality=0.9))
                incs = [inc async for inc in stream]
                resp = await stream.result()
                return incs, resp

        incs, resp = asyncio.run(main())
        assert len(incs) > 1 and resp.increments == len(incs)
        ref = direct.query(QueryRequest(quality=resp.served_quality))
        assert canon(reassemble_stream(incs).batch) == canon(ref.batch)

    def test_run_load_streamed_hot_views_collapse_and_verify(self, written, direct):
        cfg = serve_config(capacity=4, max_queued=256)
        with QueryService(written, cfg) as svc:
            traces = make_hot_traces(
                12, direct.bounds, n_views=2, ops_per_session=4, seed=7
            )
            report = run_load(
                svc, traces, concurrency=12, stream=True, identity_sample_every=3
            )
            assert report.requests == 12 * 4
            increments = svc.snapshot()["streaming"]["increments"]
            assert increments > report.requests - report.rejected
            assert verify_identity_samples(direct, report.identity_samples) > 0


# ---------------------------------------------------------------------------
# metrics window


class TestMetricsWindow:
    def test_percentiles_cover_only_the_window(self):
        m = ServeMetrics(window=4)
        for i in range(10):
            span = RequestSpan(session_id=0, seq=i, requested_quality=1.0)
            span.total_seconds = float(i)
            m.record(span)
        snap = m.snapshot()
        assert snap["requests"]["completed"] == 10
        assert snap["latency_ms"]["window_count"] == 4
        # window holds 6..9 seconds
        assert snap["latency_ms"]["p50"] >= 6000.0
        assert snap["latency_ms"]["max"] == 9000.0
        # cumulative aggregates still see everything
        assert snap["latency_ms"]["max_all"] == 9000.0
        assert snap["latency_ms"]["mean_all"] == pytest.approx(4500.0)

    def test_memory_is_bounded(self):
        m = ServeMetrics(window=8)
        for i in range(1000):
            span = RequestSpan(session_id=0, seq=i, requested_quality=1.0)
            span.total_seconds = 0.001
            span.first_increment_seconds = 0.0005
            span.streamed = True
            m.record(span)
        assert len(m._latencies) == 8 and len(m._ttfi) == 8
        assert m.completed == 1000

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ServeMetrics(window=0)


# ---------------------------------------------------------------------------
# open-loop load


def check_load(report, direct, requests, stream):
    """``run_load``'s accounting holds, and its samples are non-empty,
    complete (a partial response is never sampled) and byte-verified."""
    assert report.requests == requests
    assert report.latencies
    assert len(report.latencies) + report.rejected == report.requests
    assert (len(report.ttfi) == len(report.latencies)) == stream
    assert report.identity_samples
    assert verify_identity_samples(direct, report.identity_samples) == len(
        report.identity_samples
    )


class TestOneReplayFunction:
    @pytest.mark.parametrize("stream", [False, True], ids=["oneshot", "stream"])
    @pytest.mark.parametrize("arrival", ["closed", "open"])
    def test_every_load_model_and_delivery(self, written, direct, arrival, stream):
        with QueryService(written, serve_config(max_queued=256)) as svc:
            traces = make_traces(
                6, direct.bounds, direct.attr_ranges, ops_per_session=3, seed=5
            )
            report = run_load(
                svc, traces, concurrency=3, stream=stream, arrival=arrival,
                rate_hz=400.0, identity_sample_every=2,
            )
            check_load(report, direct, 18, stream)
            assert svc.snapshot()["streaming"]["streamed"] == (18 if stream else 0)


class TestOpenLoopLoad:
    def test_open_loop_deterministic_and_verified(self, written, direct):
        from repro.serve import DegradationConfig

        for stream in (False, True):
            reports = []
            for _ in range(2):
                # degradation is load-dependent by design; determinism
                # across runs only holds with it off
                cfg = serve_config(
                    capacity=2, max_queued=256,
                    degradation=DegradationConfig(enabled=False),
                )
                with QueryService(written, cfg) as svc:
                    traces = make_traces(
                        6, direct.bounds,
                        direct.attr_ranges, ops_per_session=3, seed=3,
                    )
                    reports.append(
                        run_load(
                            svc, traces, concurrency=1, stream=stream,
                            arrival="open", rate_hz=400.0, arrival_seed=11,
                            identity_sample_every=3,
                        )
                    )
            a, b = reports
            assert a.requests == b.requests == 18
            # the schedule and the served bytes are seed-deterministic
            # even though actual timings differ run to run
            assert sorted(s[-1] for s in a.identity_samples) == sorted(
                s[-1] for s in b.identity_samples
            )
            assert verify_identity_samples(direct, a.identity_samples) > 0

    def test_bad_arrival_mode_rejected(self, written):
        with QueryService(written, serve_config()) as svc:
            with pytest.raises(ValueError, match="arrival"):
                run_load(svc, [], concurrency=1, arrival="sideways")


# ---------------------------------------------------------------------------
# decoded-column cache under contention


class TestColumnCacheStress:
    def test_counters_pure_and_budget_never_exceeded_mid_race(self):
        rng = np.random.default_rng(0)
        budget = 64 * 1024
        cache = DecodedColumnCache(budget)
        arrays = [rng.random(rng.integers(64, 1024)) for _ in range(64)]
        stop = threading.Event()
        over_budget = []
        gets = [0] * 4

        def sampler():
            while not stop.is_set():
                if cache.nbytes > budget:
                    over_budget.append(cache.nbytes)

        def hammer(tid):
            r = np.random.default_rng(tid)
            for i in range(400):
                k = int(r.integers(0, 64))
                op = int(r.integers(0, 10))
                if op < 4:
                    cache.get(f"f{k % 4}", k, 0)
                    gets[tid] += 1
                elif op < 8:
                    cache.put(f"f{k % 4}", k, 0, arrays[k])
                elif op == 8:
                    cache.peek(f"f{k % 4}", k, 0)  # never counts
                else:
                    cache.invalidate(f"f{k % 4}")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        s = threading.Thread(target=sampler)
        s.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        s.join()
        assert not over_budget, f"budget exceeded mid-race: {over_budget[:3]}"
        stats = cache.stats()
        # counter purity: every get is exactly one hit or one miss; peek
        # and invalidate moved neither counter
        assert stats["hits"] + stats["misses"] == sum(gets)
        # the bookkept byte total equals the entries actually present
        assert cache.nbytes == sum(
            arr.nbytes
            for (key, arr) in cache._entries.items()
        )
        assert cache.nbytes <= budget


# ---------------------------------------------------------------------------
# graceful shutdown under load


class TestShutdownUnderLoad:
    def test_cancel_close_bounded_with_undrained_streams(self, written):
        """close(cancel=True) must return promptly even while streams are
        in flight and nobody is consuming their outboxes: live outboxes
        are abandoned (workers shed at the next rung boundary), queued
        tickets cancel, and every consumer's next pop resolves."""
        svc = QueryService(
            written,
            serve_config(capacity=2, stream_outbox=1, stream_grace=30.0),
        )
        sids = [svc.open_session() for _ in range(4)]
        handles = [
            svc.stream(sid, QueryRequest(quality=1.0, box=BOX)) for sid in sids
        ]
        # let at least one worker start publishing into a full outbox
        time.sleep(0.05)
        t0 = time.perf_counter()
        svc.close(cancel=True)
        # far below the 30s grace: abandonment, not the grace timer
        assert time.perf_counter() - t0 < 10.0
        from repro.serve import SchedulerClosed

        for handle in handles:
            while True:  # every outbox resolves; nothing hangs
                try:
                    item = handle.outbox.try_pop()
                except SchedulerClosed:
                    break  # a cancelled ticket surfaces as the close error
                if item is DONE or item is EMPTY:
                    break
        assert not svc._live_outboxes

    def test_drain_close_completes_inflight_results(self, written):
        """Default close drains: submitted work still yields full results."""
        svc = QueryService(written, serve_config(capacity=2))
        sid = svc.open_session()
        tickets = [
            svc.submit(sid, QueryRequest(quality=q, box=BOX))
            for q in (0.3, 0.6, 1.0)
        ]
        svc.close()
        total = sum(len(t.result(0.0).batch) for t in tickets)
        assert total > 0  # the progressive windows all materialized

    def test_drain_close_finishes_stream_outboxes(self, written):
        svc = QueryService(written, serve_config(capacity=1))
        sid = svc.open_session()
        handle = svc.stream(sid, QueryRequest(quality=0.8, box=BOX))
        svc.close()
        # the stream was fully published and finished; drain to DONE
        seen = 0
        while True:
            item = handle.outbox.pop(5.0)
            if item is DONE:
                break
            seen += 1
        assert seen >= 1
        assert not svc._live_outboxes

    def test_close_idempotent_and_rejects_new_streams(self, written):
        from repro.serve import SchedulerClosed

        svc = QueryService(written, serve_config())
        sid = svc.open_session()
        svc.close()
        svc.close(cancel=True)  # second close is a no-op, not an error
        with pytest.raises(SchedulerClosed):
            svc.stream(sid, QueryRequest(quality=0.5, box=BOX))

    def test_async_aclose_cancel_under_load(self, written):
        async def main():
            svc = AsyncQueryService(written, serve_config(capacity=2, stream_outbox=1))
            streams = []
            for _ in range(3):
                sid = svc.open_session()
                streams.append(svc.stream(sid, QueryRequest(quality=1.0, box=BOX)))
            await svc.aclose(cancel=True)
            from repro.serve import SchedulerClosed

            for stream in streams:
                # consuming a cancelled stream terminates (cleanly or
                # with the close error) — it never hangs
                try:
                    async for _inc in stream:
                        pass
                except SchedulerClosed:
                    pass

        import asyncio

        asyncio.run(asyncio.wait_for(main(), timeout=60.0))


# ---------------------------------------------------------------------------
# strictly-JSON snapshots


class TestSnapshotStrictJson:
    def test_snapshot_json_dumps_strict_after_traffic(self, written):
        import json

        svc = QueryService(written, serve_config())
        try:
            sid = svc.open_session()
            for q in (0.3, 1.0):
                svc.request(sid, QueryRequest(quality=q, box=BOX, filters=FILT))
            svc.request(sid, QueryRequest(quality=1.0, box=BOX, filters=FILT))
            handle = svc.stream(sid, QueryRequest(quality=1.0))
            while handle.outbox.pop(30.0) is not DONE:
                pass
            svc.close_session(sid)
            snap = svc.snapshot()
        finally:
            svc.close()
        # allow_nan=False is the strict-JSON regression: no numpy
        # scalars, no tuple keys, no NaN/Inf anywhere in the document
        text = json.dumps(snap, allow_nan=False)
        assert json.loads(text) == snap

    def test_json_sanitize_numpy_and_tuple_keys(self):
        import json

        from repro.serve import json_sanitize

        doc = {
            ("a", 1): np.float64(0.5),
            2: np.int32(7),
            "arr": np.arange(3, dtype=np.int64),
            "nan": float("nan"),
            "inf": np.float32("inf"),
            "path": __import__("pathlib").Path("/x/y"),
            "set": {np.int64(3), np.int64(1)},
            "nested": [{"k": np.bool_(True)}],
        }
        out = json_sanitize(doc)
        text = json.dumps(out, allow_nan=False)
        back = json.loads(text)
        assert back["a/1"] == 0.5
        assert back["2"] == 7
        assert back["arr"] == [0, 1, 2]
        assert back["nan"] is None and back["inf"] is None
        assert back["path"] == "/x/y"
        assert back["set"] == [1, 3]
        assert back["nested"][0]["k"] is True
