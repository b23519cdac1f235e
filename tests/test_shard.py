"""Tests for the sharded serve tier: consistent hashing, scatter-gather
byte-identity, crash containment, and the aggregated metrics surface.

The load-bearing invariant is byte-identity: whatever the ring dealt to
whichever worker process, the bytes a client receives from the sharded
router are exactly the bytes a single-process :class:`QueryService` (and
a direct synchronous query) returns for the same request sequence —
including boxes that span shard boundaries and progressive sessions
whose windows differ from request to request.
"""

import asyncio
import json
import logging
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryRequest, reassemble_stream
from repro.bat import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.core.metadata import DatasetMetadata
from repro.machines import testing_machine
from repro.serve import (
    AsyncQueryService,
    DegradationConfig,
    HashRing,
    QueryService,
    ServeConfig,
    ShardedQueryService,
    StaleGeneration,
    assign_leaves,
    region_key,
    request_from_doc,
    request_to_doc,
)
from repro.serve.shard import _merge_replies, _ShardWorker
from repro.types import Box
from tests.test_pipeline import make_rank_data

SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

BOX = Box((0.5, 0.5, 0.1), (3.0, 3.0, 0.8))
FILT = (AttributeFilter("mass", 0.2, 0.8),)


def serve_config(**kw):
    kw.setdefault("capacity", 2)
    kw.setdefault("degradation", DegradationConfig(enabled=False))
    return ServeConfig(**kw)


def shard_events(caplog, field: str, n: int = 1, timeout: float = 5.0) -> list:
    """The ``repro.serve.shard`` records carrying ``field`` in their extra,
    once there are ``n`` of them (a worker death is logged by the router's
    receiver thread) or ``timeout`` has passed."""
    deadline = time.monotonic() + timeout
    while True:
        found = [
            r for r in caplog.records
            if r.name == "repro.serve.shard" and hasattr(r, field)
        ]
        if len(found) >= n or time.monotonic() > deadline:
            return found
        time.sleep(0.01)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=9, seed=21)
    out = tmp_path_factory.mktemp("shard")
    report = TwoPhaseWriter(testing_machine(), target_size=128 * 1024).write(
        data, out_dir=out, name="sh"
    )
    return report.metadata_path

@pytest.fixture(scope="module")
def direct(written):
    with BATDataset(written) as ds:
        yield ds


@pytest.fixture(scope="module")
def sharded(written):
    """One shared 2-shard service; spawning processes is the slow part."""
    svc = ShardedQueryService(written, serve_config(), n_shards=2)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def sharded3(written):
    svc = ShardedQueryService(written, serve_config(), n_shards=3)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def single(written):
    svc = QueryService(written, serve_config())
    yield svc
    svc.close()


def canon(batch):
    out = [None if batch.positions is None else batch.positions.tobytes()]
    for k, v in batch.attributes.items():
        out.append((k, str(v.dtype), v.tobytes()))
    return out


# ---------------------------------------------------------------------------
# consistent hashing


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [f"ds/0/({i}, 0.0, 0.0)/(1.0, 1.0, 1.0)" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_owners_in_range_and_all_used(self):
        ring = HashRing(3)
        owners = {ring.owner(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2}

    def test_roughly_balanced(self):
        ring = HashRing(4)
        counts = np.bincount(
            [ring.owner(f"leaf-{i}") for i in range(4000)], minlength=4
        )
        # consistent hashing with 64 virtual nodes: no shard starves
        assert counts.min() > 4000 / 4 * 0.5

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.owner(f"k{i}") for i in range(50)} == {0}

    def test_stability_under_shard_growth(self):
        # the consistent-hashing property: adding a shard moves only a
        # fraction of the keys, it does not reshuffle the world
        small, large = HashRing(4), HashRing(5)
        keys = [f"leaf-{i}" for i in range(2000)]
        moved = sum(small.owner(k) != large.owner(k) for k in keys)
        assert moved < len(keys) * 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)

    def test_region_key_distinguishes_dataset_step_region(self):
        unit = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        k = region_key("ds", 0, unit)
        assert k != region_key("ds2", 0, unit)
        assert k != region_key("ds", 1, unit)
        assert k != region_key("ds", 0, Box((0.0, 0.0, 0.0), (2.0, 1.0, 1.0)))


class TestAssignment:
    def test_router_and_workers_agree(self, written, sharded):
        # the worker-side assignment is the same pure function of the
        # manifest; recompute it here and compare with the router's view
        meta = DatasetMetadata.load(written)
        owners = assign_leaves(meta, Path(written).name, 0, HashRing(2))
        assert owners == sharded.owners(0)
        assert len(owners) == len(meta.leaves)
        assert set(owners) <= {0, 1}

    def test_ownership_is_pinned(self, written):
        """Ring points are ``sha1("shard-<s>:<vnode>")`` for 64 vnodes per
        shard: changing either moves leaves between workers of a deployed
        tier. These are the owners every commit since the ring existed
        has computed for this fixture."""
        meta = DatasetMetadata.load(written)
        name = Path(written).name
        assert assign_leaves(meta, name, 0, HashRing(2)) == (1, 0, 1, 1, 0)
        assert assign_leaves(meta, name, 0, HashRing(3)) == (2, 2, 1, 1, 2)

    def test_workers_report_complementary_ownership(self, sharded):
        # ownership materializes when a worker first opens the step
        sid = sharded.open_session()
        try:
            sharded.request(sid, QueryRequest(quality=1.0))
        finally:
            sharded.close_session(sid)
        snap = sharded.snapshot()
        owned = [w["owned_leaves"].get("0", 0) for w in snap["shards"]["workers"]]
        assert sum(owned) == len(sharded.owners(0))
        assert all(n > 0 for n in owned)  # 5 leaves over 2 shards: both hold some


# ---------------------------------------------------------------------------
# request wire form


class TestRequestDoc:
    @pytest.mark.parametrize(
        "req",
        [
            QueryRequest(quality=1.0),
            QueryRequest(quality=0.4, box=BOX, filters=FILT, prev_quality=0.1),
            QueryRequest(quality=0.7, columns=("mass",)),
            QueryRequest(quality=0.2, on_error="degrade"),
        ],
    )
    def test_round_trip(self, req):
        doc = request_to_doc(req)
        json.dumps(doc, allow_nan=False)  # strictly JSON (job store rows)
        assert request_from_doc(doc) == req

    def test_doc_is_plain_python(self):
        doc = request_to_doc(QueryRequest(quality=np.float64(0.5), box=BOX))
        assert type(doc["quality"]) is float
        assert all(type(v) is float for pt in doc["box"] for v in pt)


class TestNeighborRejection:
    """Neighbor lists cross shard ownership; the router refuses them."""

    REQ_KW = dict(points=((1.0, 1.0, 0.5),), k=4)

    def test_submit_rejected(self, sharded):
        from repro import NeighborRequest
        from repro.errors import InvalidRequestError

        sid = sharded.open_session()
        try:
            with pytest.raises(InvalidRequestError, match="sharded tier"):
                sharded.submit(sid, NeighborRequest(**self.REQ_KW))
        finally:
            sharded.close_session(sid)

    def test_execute_rejected(self, sharded):
        from repro import NeighborRequest
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError, match="sharded tier"):
            sharded.execute(NeighborRequest(**self.REQ_KW))


# ---------------------------------------------------------------------------
# scatter-gather byte-identity


class TestShardedIdentity:
    def test_one_shot_matches_single_process(self, sharded, single):
        reqs = [
            QueryRequest(quality=0.3, box=BOX, filters=FILT),
            QueryRequest(quality=1.0),                      # spans every shard
            QueryRequest(quality=0.5, box=BOX),
            QueryRequest(quality=1.0, box=Box((0, 0, 0), (9, 9, 9))),
        ]
        for req in reqs:
            s1, s2 = single.open_session(), sharded.open_session()
            try:
                a = single.request(s1, req)
                b = sharded.request(s2, req)
            finally:
                single.close_session(s1)
                sharded.close_session(s2)
            assert canon(a.batch) == canon(b.batch)
            assert (a.served_quality, a.prev_quality) == (
                b.served_quality, b.prev_quality
            )
            assert not b.partial

    def test_progressive_session_matches(self, sharded, single):
        s1, s2 = single.open_session(), sharded.open_session()
        try:
            for q in (0.2, 0.55, 0.55, 1.0):
                a = single.request(s1, QueryRequest(quality=q, box=BOX, filters=FILT))
                b = sharded.request(s2, QueryRequest(quality=q, box=BOX, filters=FILT))
                assert canon(a.batch) == canon(b.batch), q
                assert a.prev_quality == b.prev_quality
            # view change resets delivered quality on both sides alike
            a = single.request(s1, QueryRequest(quality=0.4))
            b = sharded.request(s2, QueryRequest(quality=0.4))
            assert canon(a.batch) == canon(b.batch)
            assert a.prev_quality == b.prev_quality == 0.0
        finally:
            single.close_session(s1)
            sharded.close_session(s2)

    def test_empty_region_schema_stable(self, sharded, single):
        req = QueryRequest(quality=1.0, box=Box((8.5, 8.5, 8.5), (8.9, 8.9, 8.9)))
        s1, s2 = single.open_session(), sharded.open_session()
        try:
            a = single.request(s1, req)
            b = sharded.request(s2, req)
        finally:
            single.close_session(s1)
            sharded.close_session(s2)
        assert len(b.batch) == 0
        assert set(a.batch.attributes) == set(b.batch.attributes)
        assert canon(a.batch) == canon(b.batch)

    @SETTINGS
    @given(
        lo=st.tuples(*[st.floats(0.0, 6.0) for _ in range(3)]),
        span=st.tuples(*[st.floats(0.3, 4.0) for _ in range(3)]),
        quality=st.sampled_from([0.25, 0.5, 0.8, 1.0]),
        use_filter=st.booleans(),
    )
    def test_random_boxes_byte_identical(
        self, sharded, direct, lo, span, quality, use_filter
    ):
        box = Box(lo, tuple(v + s for v, s in zip(lo, span)))
        req = QueryRequest(
            quality=quality, box=box, filters=FILT if use_filter else ()
        )
        expected, _ = direct.query(req)
        sid = sharded.open_session()
        try:
            got = sharded.request(sid, req)
        finally:
            sharded.close_session(sid)
        assert canon(got.batch) == canon(expected)

    @pytest.mark.parametrize("tier", ["sharded", "sharded3"])
    @SETTINGS
    @given(
        lo=st.tuples(*[st.floats(0.0, 6.0) for _ in range(3)]),
        span=st.tuples(*[st.floats(0.3, 4.0) for _ in range(3)]),
        held=st.sampled_from([0.0, 0.3, 0.6]),
        quality=st.sampled_from([0.25, 0.5, 0.8, 1.0]),
        use_filter=st.booleans(),
        columns=st.sampled_from([None, ("mass",), ("positions", "temp")]),
        ladder=st.sampled_from([None, (0.1, 0.35, 0.6, 0.9)]),
    )
    def test_random_streams_byte_identical(
        self, request, single, tier, lo, span, held, quality, use_filter,
        columns, ladder,
    ):
        """Streaming is the core's, so it holds over shards: the delivered
        increments reassemble to exactly what a single-process session
        holding the same window gets in one shot."""
        svc = request.getfixturevalue(tier)
        view = dict(
            box=Box(lo, tuple(v + s for v, s in zip(lo, span))),
            filters=FILT if use_filter else (), columns=columns,
        )
        s1, s2 = single.open_session(), svc.open_session()
        try:
            if held:  # both sessions already hold (0, held] of the view
                single.request(s1, QueryRequest(quality=held, **view))
                svc.request(s2, QueryRequest(quality=held, **view))
            want = single.request(s1, QueryRequest(quality=quality, **view))
            handle = svc.stream(
                s2, QueryRequest(quality=quality, **view), ladder=ladder
            )
            incs = list(handle)
            got = handle.result(60.0)
        finally:
            single.close_session(s1)
            svc.close_session(s2)
        assert (got.prev_quality, got.served_quality) == (
            want.prev_quality, want.served_quality
        )
        assert not got.partial and not got.shed
        assert canon(got.batch) == canon(want.batch)
        if incs:
            assert canon(reassemble_stream(incs).batch) == canon(want.batch)
        else:  # nothing above what the session held
            assert quality <= held and len(want.batch) == 0

    def test_shed_stream_caches_its_window_and_converges(self, written, direct):
        cfg = serve_config(stream_outbox=1, stream_grace=0.05)
        req = QueryRequest(quality=1.0, box=BOX)
        with ShardedQueryService(written, cfg, n_shards=2) as svc:
            sid = svc.open_session()
            handle = svc.stream(sid, req)
            resp = handle.result(30.0)  # a stalled consumer: nothing drained
            incs = list(handle)
            assert resp.shed and 0.0 < resp.served_quality < 1.0
            covered = replace(req, quality=resp.served_quality)
            assert (
                canon(reassemble_stream(incs).batch)
                == canon(resp.batch)
                == canon(direct.query(covered).batch)
            )
            # cached under the (0, served] window it actually covered
            other = svc.open_session()
            again = svc.request(other, covered)
            assert again.cache_hit and canon(again.batch) == canon(resp.batch)
            # the session refines from there to the full-quality bytes
            rest = svc.request(sid, req)
            assert (rest.prev_quality, rest.served_quality) == (
                resp.served_quality, 1.0
            )
            window = replace(req, prev_quality=resp.served_quality)
            assert canon(rest.batch) == canon(direct.query(window).batch)

    def test_concurrent_identical_views_cost_one_scatter(
        self, sharded, direct, monkeypatch
    ):
        # a box no other test uses, so the result cache cannot absorb it
        req = QueryRequest(quality=1.0, box=Box((0.2, 0.2, 0.0), (3.7, 3.7, 0.9)))
        step = sharded.dataset(0)
        scatter = step._scatter

        def held(*args):
            # park the leader in its scatter until the other session waits
            # on it at the result tier
            deadline = time.monotonic() + 30.0
            while (
                not any(f.waiters for f in list(sharded.results._inflight.values()))
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            return scatter(*args)

        monkeypatch.setattr(step, "_scatter", held)

        def counters():
            snap = sharded.snapshot(include_workers=False)
            return (
                snap["shards"]["fanout_single"] + snap["shards"]["fanout_multi"],
                snap["caches"]["collapse"]["collapsed_hits"],
            )

        before = counters()
        sids = [sharded.open_session(), sharded.open_session()]
        try:
            tickets = [sharded.submit(sid, req) for sid in sids]
            a, b = (t.result(60.0) for t in tickets)
        finally:
            for sid in sids:
                sharded.close_session(sid)
        after = counters()
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)
        assert sorted([a.collapsed, b.collapsed]) == [False, True]
        assert canon(a.batch) == canon(b.batch) == canon(direct.query(req).batch)

    def test_async_front_end_streams_over_shards(self, sharded, direct):
        req = QueryRequest(quality=0.9, box=BOX, filters=FILT)

        async def main():
            asvc = AsyncQueryService(service=sharded)
            sid = asvc.open_session()
            try:
                stream = asvc.stream(sid, req)
                incs = [inc async for inc in stream]
                resp = await stream.result()
            finally:
                asvc.close_session(sid)
            await asvc.aclose()
            return incs, resp

        incs, resp = asyncio.run(main())
        assert resp.increments == len(incs) >= 1
        assert (
            canon(reassemble_stream(incs).batch)
            == canon(resp.batch)
            == canon(direct.query(req).batch)
        )
        # aclose() of a wrapper leaves the shared service serving
        assert len(sharded.execute(QueryRequest(quality=0.1, box=BOX)).batch) > 0

    def test_worker_killed_between_rungs_respawns_byte_identical(
        self, written, direct, caplog
    ):
        caplog.set_level(logging.WARNING, logger="repro.serve.shard")
        req = QueryRequest(quality=1.0, box=BOX)
        with ShardedQueryService(
            written, serve_config(stream_outbox=1), n_shards=2
        ) as svc:
            sid = svc.open_session()
            delivered = iter(svc.stream(sid, req, ladder=(0.2, 0.4, 0.6, 0.8)))
            incs = [next(delivered)]
            # an outbox of one parks the producer at most a rung ahead of
            # the consumer: the later rungs have yet to be scattered
            pid = svc._shards[0].process.pid
            svc._shards[0].process.kill()
            svc._shards[0].process.join(5.0)
            incs.extend(delivered)
            assert [inc.quality for inc in incs] == [0.2, 0.4, 0.6, 0.8, 1.0]
            assert not any(inc.partial for inc in incs)
            assert canon(reassemble_stream(incs).batch) == canon(
                direct.query(req).batch
            )
            assert sum(c.restarts for c in svc._shards) == 1
        # one death, one respawn; the orderly close logs no death
        (death,) = shard_events(caplog, "stranded")
        assert (death.shard_id, death.pid) == (0, pid)
        (respawn,) = shard_events(caplog, "restarts")
        assert (respawn.shard_id, respawn.restarts) == (0, 1)
        assert all(r.levelno == logging.WARNING for r in (death, respawn))

    def test_cross_shard_boxes_actually_fan_out(self, sharded):
        before = sharded.fanout_multi
        sid = sharded.open_session()
        try:
            # a box no other test uses, so the result cache cannot absorb it
            sharded.request(
                sid, QueryRequest(quality=1.0, box=Box((0, 0, 0), (8.7, 8.7, 8.7)))
            )
        finally:
            sharded.close_session(sid)
        assert sharded.fanout_multi > before

    def test_three_shards_full_quality(self, written, direct):
        with ShardedQueryService(written, serve_config(), n_shards=3) as svc:
            assert set(svc.owners(0)) <= {0, 1, 2}
            sid = svc.open_session()
            try:
                got = svc.request(sid, QueryRequest(quality=1.0, box=BOX))
            finally:
                svc.close_session(sid)
            expected, _ = direct.query(QueryRequest(quality=1.0, box=BOX))
            assert canon(got.batch) == canon(expected)


# ---------------------------------------------------------------------------
# stateless batch path and the shared admission budget


class TestBatchExecute:
    def test_execute_matches_direct(self, sharded, direct):
        req = QueryRequest(quality=0.6, box=BOX, filters=FILT)
        resp = sharded.execute(req)
        expected, _ = direct.query(req)
        assert canon(resp.batch) == canon(expected)
        assert not resp.degraded  # batch path never degrades

    def test_execute_window(self, sharded, direct):
        full, _ = direct.query(QueryRequest(quality=0.8, box=BOX))
        low, _ = direct.query(QueryRequest(quality=0.3, box=BOX))
        window = sharded.execute(
            QueryRequest(quality=0.8, prev_quality=0.3, box=BOX)
        )
        assert len(window.batch) == len(full) - len(low)

    def test_batch_gate_bounded_by_share(self, written, sharded):
        from repro.serve.service import BATCH_SHARE

        # one gate, in the core's execute(): both services size it alike
        assert sharded._batch_gate._initial_value == 1  # capacity 2 * share
        with QueryService(written, serve_config(capacity=4)) as svc:
            assert svc._batch_gate._initial_value == 4 * BATCH_SHARE == 2

    def test_type_errors(self, sharded):
        with pytest.raises(TypeError):
            sharded.execute({"quality": 1.0})
        sid = sharded.open_session()
        try:
            with pytest.raises(TypeError):
                sharded.submit(sid, "not a request")
        finally:
            sharded.close_session(sid)


# ---------------------------------------------------------------------------
# metrics surface


class TestShardSnapshot:
    def test_aggregated_snapshot_strict_json(self, sharded):
        sid = sharded.open_session()
        try:
            sharded.request(sid, QueryRequest(quality=0.4, box=BOX, filters=FILT))
        finally:
            sharded.close_session(sid)
        snap = sharded.snapshot()
        json.dumps(snap, allow_nan=False)  # strict: no numpy, NaN, tuples
        shards = snap["shards"]
        assert shards["count"] == 2
        assert len(shards["workers"]) == 2
        assert shards["fanout_single"] + shards["fanout_multi"] >= 1
        for w in shards["workers"]:
            assert "requests" in w and "caches" in w
            assert w["caches"]["files"]["open"] >= 0

    def test_worker_snapshots_sum_to_scattered_requests(self, written):
        with ShardedQueryService(written, serve_config(), n_shards=2) as svc:
            sid = svc.open_session()
            try:
                for q in (0.3, 1.0):
                    svc.request(sid, QueryRequest(quality=q, box=BOX))
            finally:
                svc.close_session(sid)
            snap = svc.snapshot()
            shard_completed = sum(
                w["requests"]["completed"] for w in snap["shards"]["workers"]
            )
            # every scattered window becomes exactly one request per
            # contacted shard, which is what the fanout counter records
            assert shard_completed == svc.fanout_shards
            assert snap["requests"]["completed"] == 2


# ---------------------------------------------------------------------------
# crash containment


class TestCrashRecovery:
    def test_killed_worker_respawns_and_answers_identically(
        self, written, direct, caplog
    ):
        caplog.set_level(logging.WARNING, logger="repro.serve.shard")
        with ShardedQueryService(written, serve_config(), n_shards=2) as svc:
            req = QueryRequest(quality=1.0, box=BOX, filters=FILT)
            sid = svc.open_session()
            try:
                first = svc.request(sid, req)
                pid = svc._shards[0].process.pid
                svc._shards[0].process.kill()
                svc._shards[0].process.join(5.0)
                # view change so the second request decodes, not cache-hits
                again = svc.request(
                    sid, QueryRequest(quality=1.0, box=BOX)
                )
                expected, _ = direct.query(QueryRequest(quality=1.0, box=BOX))
            finally:
                svc.close_session(sid)
            assert canon(again.batch) == canon(expected)
            assert len(first.batch) > 0
            assert sum(c.restarts for c in svc._shards) == 1
            assert svc.snapshot()["shards"]["restarts"] == 1
        (death,) = shard_events(caplog, "stranded")
        assert (death.shard_id, death.pid, death.stranded) == (0, pid, 0)
        (respawn,) = shard_events(caplog, "restarts")
        assert (respawn.shard_id, respawn.restarts) == (0, 1)

    def test_restart_counter_in_snapshot_before_any_crash(self, sharded):
        # the module-wide fixture is shared; restarts only ever grows
        assert sharded.snapshot(include_workers=False)["shards"]["restarts"] >= 0


# ---------------------------------------------------------------------------
# loadgen duck-compatibility


class TestLoadgenCompat:
    def test_run_load_verifies_identity_against_direct(self, written, direct):
        from repro.serve import make_traces, run_load, verify_identity_samples

        with ShardedQueryService(written, serve_config(capacity=4), n_shards=2) as svc:
            traces = make_traces(
                n_sessions=6, ops_per_session=3, bounds=svc.bounds, seed=5
            )
            report = run_load(svc, traces, concurrency=3, identity_sample_every=2)
            assert report.requests == 18
            assert report.identity_samples
            verify_identity_samples(direct, report.identity_samples)

    def test_open_streamed_load_over_shards(self, sharded, direct):
        from repro.serve import make_traces, run_load
        from tests.test_serve_stream import check_load

        traces = make_traces(
            4, direct.bounds, direct.attr_ranges, ops_per_session=3, seed=6
        )
        report = run_load(
            sharded, traces, concurrency=2, stream=True, arrival="open",
            rate_hz=400.0, identity_sample_every=2,
        )
        check_load(report, direct, 12, stream=True)


# ---------------------------------------------------------------------------
# the router's leaf-run merge and the worker reply it consumes


def crafted_replies(owners, counts, keyed, with_positions, rng):
    """``(shard, payload)`` worker replies of a window that returned
    ``counts[leaf]`` rows of every leaf, and the rows' ``(leaf, treelet,
    slot)`` keys per shard, as a worker's reply lays them out."""
    replies, keys = [], {}
    for shard in sorted(set(owners)):
        leaves = [i for i, o in enumerate(owners) if o == shard and counts[i]]
        per_leaf = []
        for leaf in leaves:
            n = counts[leaf]
            tr = np.sort(rng.integers(0, 4, n))
            per_leaf.append(np.column_stack([
                np.full(n, leaf), tr, np.arange(n) + 10 * tr
            ]).astype(np.int64))
        k = np.concatenate(per_leaf) if per_leaf else np.empty((0, 3), np.int64)
        n = len(k)
        keys[shard] = k
        replies.append((shard, {
            "count": n,
            "positions": (
                rng.random((n, 3)).astype(np.float32) if with_positions else None
            ),
            "attributes": {
                "mass": rng.random(n), "id": rng.integers(0, 1 << 30, n).astype(np.int32),
            },
            "order": k if keyed else None,
            "runs": np.array(
                [[leaf, counts[leaf]] for leaf in leaves], dtype=np.int64
            ).reshape(-1, 2),
            "partial": False, "quarantined_files": 0,
        }))
    return replies, keys


class TestLeafRunMerge:
    WINDOW = QueryRequest(quality=0.5, prev_quality=0.25)

    @settings(max_examples=150, deadline=None)
    @given(
        n_shards=st.integers(1, 3),
        owned=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)),
                       min_size=1, max_size=40),
        keyed=st.booleans(),
        with_positions=st.booleans(),
        reply_order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**16),
    )
    def test_matches_lexsort_reference(
        self, n_shards, owned, keyed, with_positions, reply_order, seed
    ):
        owners = [o % n_shards for o, _ in owned]
        counts = [c for _, c in owned]
        replies, keys = crafted_replies(
            owners, counts, keyed, with_positions, np.random.default_rng(seed)
        )
        reply_order.shuffle(replies)  # gather order must not matter
        batch, order = _merge_replies(owners, self.WINDOW, replies, keyed)
        if not sum(counts):  # the router substitutes the step's empty schema
            assert batch is None
            assert order is None if not keyed else order.shape == (0, 3)
            return

        # reference: every reply laid end to end, then one lexsort by key
        payloads = [p for _, p in replies]
        ref_keys = np.concatenate([keys[s] for s, _ in replies])
        perm = np.lexsort((ref_keys[:, 2], ref_keys[:, 1], ref_keys[:, 0]))
        assert len(batch) == sum(counts)
        for name in ("mass", "id"):
            want = np.concatenate([p["attributes"][name] for p in payloads])[perm]
            assert batch.attributes[name].dtype == want.dtype
            assert batch.attributes[name].tobytes() == want.tobytes()
        if with_positions:
            want = np.concatenate([p["positions"] for p in payloads])[perm]
            assert batch.positions.tobytes() == want.tobytes()
        else:
            assert batch.positions is None
        if keyed:
            assert order.tobytes() == ref_keys[perm].tobytes()
        else:
            assert order is None

        live = [p for p in payloads if p["count"]]
        if len(live) == 1:  # a lone live reply passes whole, uncopied
            assert np.shares_memory(batch.attributes["mass"], live[0]["attributes"]["mass"])

    @pytest.mark.parametrize("runs, message", [
        ({0: [[1, 2]]}, "shard 0 replied with rows of leaf 1"),            # not its leaf
        ({0: [[0, 2]], 1: [[0, 2]]}, "shard 1 replied with rows of leaf 0"),  # twice
        ({0: [[2, 1], [0, 1]]}, "shard 0 replied with rows of leaf 0"),    # out of order
    ])
    def test_layout_disagreement_is_stale_generation(self, runs, message):
        owners = (0, 1, 0)
        replies = []
        for shard, rows in runs.items():
            n = sum(c for _, c in rows)
            replies.append((shard, {
                "count": n, "positions": np.zeros((n, 3), np.float32),
                "attributes": {}, "order": None,
                "runs": np.array(rows, dtype=np.int64),
            }))
        with pytest.raises(StaleGeneration, match=message):
            _merge_replies(owners, self.WINDOW, replies, False)

    def test_router_fails_the_request_and_caches_nothing(self, sharded, monkeypatch, caplog):
        """A reply whose runs claim a leaf the other shard owns fails the
        request with StaleGeneration, logged once; no result entry is
        written."""
        caplog.set_level(logging.WARNING, logger="repro.serve.shard")
        owners = sharded.owners(0)
        foreign = owners.index(1)
        client = sharded._shards[0]
        finish = client.finish

        def tampered(*args, **kwargs):
            payload = finish(*args, **kwargs)
            if len(payload["runs"]):
                payload["runs"][0, 0] = foreign
            return payload

        monkeypatch.setattr(client, "finish", tampered)
        # a view no other test reads, so the result cache cannot absorb it
        req = QueryRequest(quality=0.9, box=Box((0.1, 0.1, 0.1), (8.7, 8.7, 0.95)))
        entries = sharded.snapshot(include_workers=False)["caches"]["results"]["entries"]
        sid = sharded.open_session()
        try:
            with pytest.raises(StaleGeneration, match=f"leaf {foreign}"):
                sharded.request(sid, req)
        finally:
            sharded.close_session(sid)
        after = sharded.snapshot(include_workers=False)["caches"]["results"]["entries"]
        assert after == entries
        (stale,) = shard_events(caplog, "generation")
        assert (stale.shard_id, stale.step) == (0, 0)
        assert stale.generation == sharded.generation(0)


class TestWorkerReply:
    """An in-process worker's replies: one-shot windows ship rows and leaf
    runs only, stream rungs add the direct stream's keys, globalized."""

    REQ = QueryRequest(quality=0.6, box=Box((0.5, 0.5, 0.0), (6.0, 6.0, 0.9)))

    @pytest.fixture(scope="class")
    def workers(self, written):
        ws = [_ShardWorker(str(written), shard, 2, {}) for shard in range(2)]
        yield ws
        for w in ws:
            w.close()

    def replies(self, worker, written):
        doc = {
            "step": 0, "generation": DatasetMetadata.load(written).generation,
            "request": request_to_doc(self.REQ),
        }
        return (worker.execute(dict(doc, keyed=False)),
                worker.execute(dict(doc, keyed=True)))

    def test_one_shot_reply_is_rows_and_runs(self, workers, written):
        for w in workers:
            reply, _ = self.replies(w, written)
            assert reply["order"] is None
            leaves, counts = reply["runs"].T
            assert (np.diff(leaves) > 0).all()
            assert set(leaves.tolist()) <= w.dataset(0)[1]
            assert (counts > 0).all() and counts.sum() == reply["count"] > 0

    def test_one_shot_reads_build_no_order_keys(self, workers, written, direct, monkeypatch):
        """Neither a dataset query nor a worker's one-shot window reaches
        the order-key branch; a stream rung does."""
        import repro.bat.query as query_module

        def no_keys(*args):
            raise AssertionError("order keys built")

        monkeypatch.setattr(query_module._Step, "_keys", no_keys)
        assert len(direct.query(self.REQ).batch) > 0
        doc = {
            "step": 0, "generation": DatasetMetadata.load(written).generation,
            "request": request_to_doc(self.REQ),
        }
        assert sum(w.execute(dict(doc, keyed=False))["count"] for w in workers) > 0
        with pytest.raises(AssertionError, match="order keys built"):
            list(direct.stream(self.REQ))
        with pytest.raises(AssertionError, match="order keys built"):
            workers[0].execute(dict(doc, keyed=True))

    def test_rung_keys_are_the_direct_stream_keys_with_global_leaves(
        self, workers, written, direct
    ):
        plan = direct.plan(self.REQ.box, self.REQ.filters)
        lut = np.array([fp.leaf_index for fp in plan.files], dtype=np.int64)
        (want,) = direct.stream(self.REQ, ladder=(self.REQ.quality,))
        keys = want.order.copy()
        keys[:, 0] = lut[keys[:, 0]]
        rows = 0
        for w in workers:
            one_shot, rung = self.replies(w, written)
            mine = np.isin(keys[:, 0], list(w.dataset(0)[1]))
            assert rung["order"].tobytes() == keys[mine].tobytes()
            assert rung["runs"].tobytes() == one_shot["runs"].tobytes()
            for name, col in want.batch.attributes.items():
                assert rung["attributes"][name].tobytes() == col[mine].tobytes()
                assert one_shot["attributes"][name].tobytes() == col[mine].tobytes()
            rows += rung["count"]
        assert rows == len(want.batch) > 0
