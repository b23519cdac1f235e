"""Tests for the sharded serve tier: leaf placement, pipe frames,
scatter-gather byte-identity, crash containment, and the aggregated
metrics surface.

The load-bearing invariant is byte-identity: whatever leaf runs were
dealt to whichever worker process, the bytes a client receives from the sharded
router are exactly the bytes a single-process :class:`QueryService` (and
a direct synchronous query) returns for the same request sequence —
including boxes that span shard boundaries and progressive sessions
whose windows differ from request to request.
"""

import asyncio
import json
import logging
import multiprocessing
import os
import socket
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryRequest, reassemble_stream
from repro.bat import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.core.metadata import DatasetMetadata, LeafMetadata
from repro.machines import testing_machine
from repro.serve import (
    AsyncQueryService,
    QueryService,
    ServeConfig,
    ShardedQueryService,
    StaleGeneration,
    assign_leaves,
    request_from_doc,
    request_to_doc,
)
from repro.serve import streaming
from repro.serve.hashing import placement_order
from repro.serve.shard import (
    _IOV_MAX, _merge_replies, _ShardedStep, _ShardWorker, read_frame, write_frame,
)
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
    kw.setdefault("degradation", False)
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
# placement: contiguous leaf runs cut by bytes


def flat_manifest(nbytes, centers=None, tree=True):
    """A manifest of ``len(nbytes)`` unit-cube leaves (at ``centers``, by
    default along x in list order); ``tree=False`` drops the Aggregation
    Tree, as a reorganized manifest does."""
    centers = centers if centers is not None else [(i + 0.5, 0.5, 0.5) for i in range(len(nbytes))]
    leaves = [
        LeafMetadata(
            leaf_index=i, file_name=f"l{i}.bat",
            bounds=Box(tuple(c - 0.5 for c in xyz), tuple(c + 0.5 for c in xyz)),
            count=1, nbytes=int(n), aggregator=0, rank_ids=[],
        )
        for i, (n, xyz) in enumerate(zip(nbytes, centers))
    ]
    bounds = leaves[0].bounds
    for leaf in leaves[1:]:
        bounds = bounds.union(leaf.bounds)
    return DatasetMetadata(
        nranks=1, bounds=bounds, leaves=leaves, attr_ranges={},
        tree_nodes=[{"type": "leaf", "leaf_index": 0}] if tree else [],
    )


def check_runs(meta, n_shards):
    """Owners are contiguous ascending runs of the placement order, and
    every shard's byte total is within one leaf of the mean."""
    owners = assign_leaves(meta, n_shards)
    assert len(owners) == len(meta.leaves)
    assert set(owners) <= set(range(n_shards))
    along = [owners[i] for i in placement_order(meta)]
    assert along == sorted(along)  # one run per shard, shard s before s + 1
    sizes = np.array([leaf.nbytes for leaf in meta.leaves])
    totals = np.bincount(owners, weights=sizes, minlength=n_shards)
    if sizes.sum():
        assert np.abs(totals - sizes.sum() / n_shards).max() <= sizes.max()
    return owners


class TestPlacement:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_runs_of_the_written_manifest(self, written, n_shards):
        # 5 leaves: 7 shards leave some shards owning nothing
        meta = DatasetMetadata.load(written)
        assert meta.tree_nodes  # the writer's manifest keeps its tree
        owners = check_runs(meta, n_shards)
        if n_shards <= len(meta.leaves):  # leaves of similar size: none idle
            assert set(owners) == set(range(n_shards))

    @settings(max_examples=200, deadline=None)
    @given(
        nbytes=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        n_shards=st.integers(1, 8),
    )
    def test_runs_contiguous_and_byte_balanced(self, nbytes, n_shards):
        check_runs(flat_manifest(nbytes), n_shards)

    def test_deterministic(self, written):
        # a pure function of the manifest: two loads, one answer
        a, b = DatasetMetadata.load(written), DatasetMetadata.load(written)
        for n in (1, 2, 3):
            assert assign_leaves(a, n) == assign_leaves(b, n)

    def test_owners_in_range_and_all_used(self):
        owners = assign_leaves(flat_manifest([100] * 12), 3)
        assert owners == (0,) * 4 + (1,) * 4 + (2,) * 4

    def test_byte_totals_within_one_leaf_of_the_mean(self):
        # one heavy leaf: the runs are cut by bytes, not by leaf count
        owners = check_runs(flat_manifest([900, 100, 100, 100, 100, 100, 100, 100, 100]), 2)
        assert owners == (0,) + (1,) * 8

    def test_single_shard_owns_everything(self, written):
        assert set(assign_leaves(DatasetMetadata.load(written), 1)) == {0}

    def test_validation(self, written):
        with pytest.raises(ValueError):
            assign_leaves(DatasetMetadata.load(written), 0)

    def test_manifest_without_a_tree_runs_along_the_morton_order(self):
        # leaves listed out of spatial order, as a reorganization splice
        # can leave them: the runs follow the leaf centres' Morton order
        centers = [(x + 0.5, y + 0.5, 0.5) for x in range(4) for y in range(4)]
        rng = np.random.default_rng(3)
        centers = [centers[i] for i in rng.permutation(len(centers))]
        meta = flat_manifest([10] * 16, centers, tree=False)
        owners = check_runs(meta, 4)
        for shard in range(4):  # each quarter is one 2x2 quadrant
            xy = {centers[i][:2] for i, o in enumerate(owners) if o == shard}
            assert len(xy) == 4
            assert max(x for x, _ in xy) - min(x for x, _ in xy) == 1.0
            assert max(y for _, y in xy) - min(y for _, y in xy) == 1.0


def check_router_and_workers_agree(written, svc):
    """The worker-side assignment is the same pure function of the
    manifest; a worker's owned set is its run of the router's owners."""
    meta = DatasetMetadata.load(written)
    owners = assign_leaves(meta, svc.n_shards)
    assert owners == svc.owners(0)
    for shard in range(svc.n_shards):
        worker = _ShardWorker(str(written), shard, svc.n_shards, {})
        try:
            assert worker.steps.get(0).owned == {i for i, o in enumerate(owners) if o == shard}
        finally:
            worker.close()


class TestAssignment:
    def test_router_and_workers_agree(self, written, sharded):
        check_router_and_workers_agree(written, sharded)

    def test_router_and_workers_agree_three_shards(self, written, sharded3):
        check_router_and_workers_agree(written, sharded3)

    def test_ownership_is_pinned(self, written):
        """Runs of the Aggregation Tree's leaf order, cut where each leaf's
        byte midpoint falls among ``n_shards`` equal byte shares: changing
        the rule moves leaves between the workers of a deployed tier."""
        meta = DatasetMetadata.load(written)
        assert assign_leaves(meta, 2) == (0, 0, 1, 1, 1)
        assert assign_leaves(meta, 3) == (0, 1, 1, 2, 2)

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
# pipe frames


def round_trip(obj):
    """``obj`` through one frame over a real shard pipe: a writer thread,
    so a frame larger than the socket buffer cannot block the test."""
    a, b = multiprocessing.get_context("spawn").Pipe()
    try:
        writer = threading.Thread(target=write_frame, args=(a.fileno(), obj))
        writer.start()
        got = read_frame(b.fileno())
        writer.join(30.0)
        assert not writer.is_alive()
        return got
    finally:
        a.close()
        b.close()


def same_array(got, want):
    assert isinstance(got, np.ndarray)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and got.flags.aligned


ARRAYS = st.tuples(
    st.sampled_from(["u1", "i8", "f4", "f8"]),
    st.sampled_from([(0,), (0, 3), (), (1,), (17,), (9, 3), (4, 5)]),
    st.sampled_from(["C", "F", "strided"]),
    st.integers(0, 2**16),
)


def make_array(dtype, shape, layout, seed):
    rng = np.random.default_rng(seed)
    base = np.asarray(rng.random(shape) * 200).astype(dtype)
    if layout == "F":
        return np.asfortranarray(base)
    if layout == "strided" and base.ndim:
        wide = np.repeat(base, 2, axis=0)
        return wide[::2]  # non-contiguous: pickled in band
    return base


class TestFrames:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(ARRAYS, max_size=12), tag=st.text(max_size=8))
    def test_round_trip(self, specs, tag):
        arrays = [make_array(*spec) for spec in specs]
        got = round_trip(("ok", 7, {"tag": tag, "arrays": arrays, "none": None}))
        assert got[:2] == ("ok", 7)
        assert (got[2]["tag"], got[2]["none"]) == (tag, None)
        assert len(got[2]["arrays"]) == len(arrays)
        for g, w in zip(got[2]["arrays"], arrays):
            same_array(g, w)

    def test_payload_larger_than_the_socket_buffer(self):
        a, b = multiprocessing.get_context("spawn").Pipe()
        with socket.fromfd(a.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sndbuf = sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        a.close()
        b.close()
        big = np.random.default_rng(1).random(max(4 << 20, 4 * sndbuf) // 8)
        assert big.nbytes >= 4 << 20 and big.nbytes > sndbuf
        got = round_trip({"rows": big, "tail": np.arange(5, dtype=np.int64)})
        same_array(got["rows"], big)
        same_array(got["tail"], np.arange(5, dtype=np.int64))

    def test_more_buffers_than_one_call_takes(self):
        arrays = [np.full(i % 7, i, dtype=np.int64) for i in range(_IOV_MAX + 300)]
        got = round_trip(arrays)
        assert len(got) == len(arrays) > 1024
        for g, w in zip(got, arrays):
            same_array(g, w)

    def test_concurrent_senders_under_one_lock(self):
        """Replies from many worker threads share one pipe under the send
        lock: every frame arrives whole, however the threads interleave."""
        n_threads, n_frames = 8, 25
        a, b = multiprocessing.get_context("spawn").Pipe()
        lock = threading.Lock()

        def sender(t):
            for k in range(n_frames):
                rows = np.full(1000 + 37 * k, t * 1000 + k, dtype=np.int64)
                with lock:
                    write_frame(a.fileno(), ("ok", (t, k), {"rows": rows, "t": t}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sender, args=(t,)) for t in range(n_threads)]
            for th in threads:
                th.start()
            seen = set()
            for _ in range(n_threads * n_frames):
                _, (t, k), payload = read_frame(b.fileno())
                assert payload["t"] == t
                rows = payload["rows"]
                assert len(rows) == 1000 + 37 * k and (rows == t * 1000 + k).all()
                seen.add((t, k))
            for th in threads:
                th.join(30.0)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
            a.close()
            b.close()
        assert len(seen) == n_threads * n_frames

    @pytest.mark.parametrize("cut", ["header", "head", "buffers", "nothing"])
    def test_truncated_frame_is_eof(self, cut):
        obj = ("ok", 3, {"rows": np.arange(1000, dtype=np.float64)})
        r, w = os.pipe()
        try:
            write_frame(w, obj)  # 8 kB: fits the pipe buffer
            os.close(w)
            frame = os.read(r, 1 << 20)
        finally:
            os.close(r)
        keep = {"header": 9, "head": 40, "buffers": len(frame) - 100, "nothing": 0}[cut]
        r, w = os.pipe()
        try:
            os.write(w, frame[:keep])
            os.close(w)
            with pytest.raises(EOFError):
                read_frame(r)
        finally:
            os.close(r)


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

    def test_stream_keys_are_the_dataset_streams(self, sharded, direct):
        """A multi-rung box window whose plan skips leaves: the sharded
        tier's increments carry exactly the order keys ``BATDataset.stream``
        gives the same rows, ``(leaf, treelet_rank, slot)``, unmapped."""
        lo, hi = direct.bounds.lower, direct.bounds.upper
        req = QueryRequest(quality=0.7, box=Box(tuple((a + b) / 2 for a, b in zip(lo, hi)), hi))
        ladder = (0.2, 0.45, 0.7)
        leaves = [fp.leaf_index for fp in direct.plan(req.box, req.filters).files]
        assert leaves and leaves != list(range(len(leaves)))  # the plan skips leaves
        want = [inc.order for inc in direct.stream(req, ladder)]
        sid = sharded.open_session()
        try:
            handle = sharded.stream(sid, req, ladder=ladder)
            got = [inc.order for inc in handle]
            handle.result(60.0)
        finally:
            sharded.close_session(sid)
        assert len(got) == len(want) == len(ladder)
        assert set(np.concatenate(want)[:, 0].tolist()) == set(leaves)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_shed_stream_caches_its_window_and_converges(self, written, direct, monkeypatch):
        monkeypatch.setattr(streaming, "STREAM_OUTBOX", 1)
        monkeypatch.setattr(streaming, "STREAM_GRACE", 0.05)
        cfg = serve_config()
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

    def test_router_serves_a_cached_window_inline(self, sharded, direct):
        # a box no other test uses: the first request scatters, the second
        # is answered by the router's result cache on the submitting thread
        req = QueryRequest(quality=0.8, box=Box((0.3, 0.1, 0.0), (3.1, 3.6, 0.7)))

        def scatters():
            snap = sharded.snapshot(include_workers=False)
            return snap["shards"]["fanout_single"] + snap["shards"]["fanout_multi"]

        sids = [sharded.open_session(), sharded.open_session()]
        try:
            first = sharded.request(sids[0], req)
            before = scatters()
            ticket = sharded.submit(sids[1], req)
            assert ticket.done()
            again = ticket.result(0)
        finally:
            for sid in sids:
                sharded.close_session(sid)
        assert scatters() == before
        assert not first.cache_hit and again.cache_hit
        assert again.span.wait_seconds == 0.0
        assert canon(again.batch) == canon(first.batch) == canon(direct.query(req).batch)

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
        self, written, direct, caplog, monkeypatch
    ):
        caplog.set_level(logging.WARNING, logger="repro.serve.shard")
        monkeypatch.setattr(streaming, "STREAM_OUTBOX", 1)
        req = QueryRequest(quality=1.0, box=BOX)
        with ShardedQueryService(written, serve_config(), n_shards=2) as svc:
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

    def test_a_box_outside_the_data_counts_no_fanout(self, sharded):
        """A window whose plan keeps no leaf reaches no worker, so neither
        fan-out counter moves (``fanout_mean`` averages scatters only)."""
        def counters():
            shards = sharded.snapshot(include_workers=False)["shards"]
            return shards["fanout_single"], shards["fanout_multi"], sharded.fanout_shards

        before = counters()
        sid = sharded.open_session()
        try:
            resp = sharded.request(
                sid, QueryRequest(quality=1.0, box=Box((50, 50, 50), (60, 60, 60)))
            )
        finally:
            sharded.close_session(sid)
        assert len(resp.batch) == 0 and not resp.partial
        assert counters() == before

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

    def test_spawn_and_reload_log_once_and_requests_log_nothing(self, written, caplog):
        caplog.set_level(logging.INFO, logger="repro.serve.shard")

        def events():
            return [r for r in caplog.records if r.name == "repro.serve.shard"]

        with ShardedQueryService(written, serve_config(), n_shards=2) as svc:
            spawns = events()
            assert [r.levelno for r in spawns] == [logging.INFO] * 2
            assert [(r.shard_id, r.pid) for r in spawns] == [
                (c.shard_id, c.process.pid) for c in svc._shards
            ]
            sid = svc.open_session()
            try:
                svc.request(sid, QueryRequest(quality=0.7, box=BOX))
                list(svc.stream(sid, QueryRequest(quality=1.0, box=BOX)))
            finally:
                svc.close_session(sid)
            assert events() == spawns  # nothing on the request path
            generation = svc.reload_step(0)
            (reload,) = events()[2:]
            owners = svc.owners(0)
            assert reload.levelno == logging.INFO
            assert (reload.step, reload.generation, reload.owned_leaves) == (
                0, generation, [owners.count(s) for s in range(2)]
            )
        assert len(events()) == 3  # an orderly close logs no death

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


class _InProcessClient:
    """A shard client whose worker is an in-process :class:`_ShardWorker`;
    ``quarantined`` counts up by one per reply when set, as a shard
    losing one more leaf per rung would."""

    def __init__(self, worker, quarantined=False):
        self.worker = worker
        self.replies = 0
        self.quarantined = quarantined

    def _start(self, kind, doc):
        assert kind == "query"
        self.replies += 1
        reply = self.worker.execute(doc)
        if self.quarantined:
            reply["quarantined_files"] = self.replies
        return reply

    def finish(self, reply, timeout, retry=None):
        return reply


class _InProcessRouter:
    """What :class:`_ShardedStep` needs of its router, over in-process
    workers: scatters run in this process, fan-out is tallied."""

    def __init__(self, workers, quarantined=False):
        self.n_shards = len(workers)
        self._shards = [_InProcessClient(w, quarantined) for w in workers]
        self.fanouts = []

    def _count_fanout(self, n_shards):
        self.fanouts.append(n_shards)


class TestWorkerReply:
    """An in-process worker's replies: one-shot windows ship rows and leaf
    runs only, rungs of a multi-rung stream add the direct stream's keys,
    globalized."""

    REQ = QueryRequest(quality=0.6, box=Box((0.5, 0.5, 0.0), (6.0, 6.0, 0.9)))

    @pytest.fixture(scope="class")
    def workers(self, written):
        ws = [_ShardWorker(str(written), shard, 2, {}) for shard in range(2)]
        yield ws
        for w in ws:
            w.close()

    def sharded_stream(self, step, ladder):
        return list(step.stream(self.REQ, ladder, step.plan(self.REQ.box, self.REQ.filters)))

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
            assert set(leaves.tolist()) <= w.steps.get(0).owned
            assert (counts > 0).all() and counts.sum() == reply["count"] > 0

    def test_one_shot_reads_build_no_order_keys(self, workers, written, direct, monkeypatch):
        """Neither a dataset query, a one-rung stream, a sharded one-shot
        window nor a worker's unkeyed window reaches the order-key
        branch; a multi-rung stream and a keyed rung do."""
        import repro.bat.query as query_module

        def no_keys(*args):
            raise AssertionError("order keys built")

        monkeypatch.setattr(query_module._Step, "_keys", no_keys)
        want = direct.query(self.REQ).batch
        assert len(want) > 0
        (inc,) = direct.stream(self.REQ, ladder=(self.REQ.quality,))
        assert inc.order is None and canon(inc.batch) == canon(want)
        step = _ShardedStep(_InProcessRouter(workers), 0, written)
        (inc,) = self.sharded_stream(step, (self.REQ.quality,))
        assert inc.order is None and canon(inc.batch) == canon(want)
        doc = {
            "step": 0, "generation": DatasetMetadata.load(written).generation,
            "request": request_to_doc(self.REQ),
        }
        assert sum(w.execute(dict(doc, keyed=False))["count"] for w in workers) > 0
        with pytest.raises(AssertionError, match="order keys built"):
            list(direct.stream(self.REQ))
        with pytest.raises(AssertionError, match="order keys built"):
            self.sharded_stream(step, (0.3, self.REQ.quality))
        with pytest.raises(AssertionError, match="order keys built"):
            workers[0].execute(dict(doc, keyed=True))

    def test_each_rung_has_its_own_cumulative_stats(self, workers, written):
        """A delivered increment's stats never change: every rung carries
        its own ``QueryStats``, holding the count as of that rung."""
        step = _ShardedStep(_InProcessRouter(workers, quarantined=True), 0, written)
        plan = step.plan(self.REQ.box, self.REQ.filters)
        incs, at_delivery = [], []
        for inc in step.stream(self.REQ, (0.2, 0.4, self.REQ.quality), plan):
            incs.append(inc)
            at_delivery.append(inc.stats.quarantined_files)
        assert len({id(inc.stats) for inc in incs}) == len(incs) == 3
        assert [inc.stats.quarantined_files for inc in incs] == at_delivery
        assert at_delivery == sorted(set(at_delivery))  # grows rung by rung

    def test_a_window_pruned_of_every_leaf_is_no_scatter(self, workers, written):
        router = _InProcessRouter(workers)
        step = _ShardedStep(router, 0, written)
        outside = replace(self.REQ, box=Box((50.0, 50.0, 50.0), (60.0, 60.0, 60.0)))
        plan = step.plan(outside.box, outside.filters)
        assert plan.files == ()
        (inc,) = step.stream(outside, (outside.quality,), plan)
        assert len(inc.batch) == 0 and not inc.partial
        assert router.fanouts == [] and [c.replies for c in router._shards] == [0, 0]

    def test_rung_keys_are_the_direct_stream_keys_with_global_leaves(
        self, workers, written, direct
    ):
        # a keyed read of the window: its two rungs, merged by their keys
        rungs = list(direct.stream(self.REQ, ladder=(self.REQ.quality / 2, self.REQ.quality)))
        keys = np.concatenate([inc.order for inc in rungs])
        keys = keys[np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))]
        want = reassemble_stream(rungs)
        rows = 0
        for w in workers:
            one_shot, rung = self.replies(w, written)
            mine = np.isin(keys[:, 0], list(w.steps.get(0).owned))
            assert rung["order"].tobytes() == keys[mine].tobytes()
            assert rung["runs"].tobytes() == one_shot["runs"].tobytes()
            for name, col in want.batch.attributes.items():
                assert rung["attributes"][name].tobytes() == col[mine].tobytes()
                assert one_shot["attributes"][name].tobytes() == col[mine].tobytes()
            rows += rung["count"]
        assert rows == len(want.batch) > 0
