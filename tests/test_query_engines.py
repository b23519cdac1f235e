"""The frontier core vs the recursive reference, and one-shot vs streamed.

The vectorized frontier core must be indistinguishable from the recursive
reference (``tests/reference_query.query_file_recursive``) — same bytes, same
result-facing stats — for any combination of box, filters, and
(progressive) quality levels; and its two entry points must agree: a
stream over any ascending ladder reassembles to the one-shot bytes, and a
one-rung stream does exactly the one-shot work. Hypothesis drives the
combinations; the dataset-level tests add the query planner on top and
check the progressive-read contract q1 → q2 == direct q2.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bat import AttributeFilter, BATFile, build_bat
from repro.bat.builder import BATBuildConfig
from repro import QueryRequest
from repro.bat.query import QueryStats, query_file, stream_query_file
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine as make_test_machine
from repro.types import Box, ParticleBatch
from tests.reference_query import query_file_recursive
from tests.test_pipeline import make_rank_data

N = 40_000

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(11)
    pos = rng.random((N, 3)).astype(np.float32)
    pos[: N // 4] = rng.normal([0.7, 0.3, 0.5], 0.04, (N // 4, 3)).astype(np.float32)
    return ParticleBatch(pos, {"density": rng.random(N), "vel": rng.normal(0, 5, N)})


@pytest.fixture(scope="module")
def bat(batch, tmp_path_factory):
    path = tmp_path_factory.mktemp("eng") / "plain.bat"
    build_bat(batch).write(path)
    with BATFile(path) as f:
        yield f


@pytest.fixture(scope="module")
def bat_qz(batch, tmp_path_factory):
    """Quantized + encoded (v4) variant: exercises the decode path."""
    path = tmp_path_factory.mktemp("engqz") / "qz.bat"
    cfg = BATBuildConfig(codecs={"positions": "quantize16", "*": "auto"})
    build_bat(batch, cfg).write(path)
    with BATFile(path) as f:
        assert f.version == 4
        yield f


def boxes():
    coords = st.floats(0.0, 1.0, allow_nan=False, width=32)
    corner = st.tuples(coords, coords, coords)
    return st.one_of(
        st.none(),
        st.builds(
            lambda a, b: Box(tuple(map(min, a, b)), tuple(map(max, a, b))), corner, corner
        ),
    )


def filter_sets():
    lohi = st.tuples(st.floats(0.0, 1.0, width=32), st.floats(0.0, 1.0, width=32))
    density = lohi.map(lambda t: AttributeFilter("density", min(t), max(t)))
    vel = lohi.map(lambda t: AttributeFilter("vel", min(t) * 20 - 10, max(t) * 20 - 10))
    return st.lists(st.one_of(density, vel), max_size=2).map(tuple)


def quality_pairs():
    pair = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    return pair.map(lambda t: (min(t), max(t)))


def assert_same_result(r1, s1, r2, s2):
    assert r1.positions.tobytes() == r2.positions.tobytes()
    assert list(r1.attributes) == list(r2.attributes)
    for name in r1.attributes:
        assert r1.attributes[name].tobytes() == r2.attributes[name].tobytes()
    assert s1.points_returned == s2.points_returned
    assert s1.points_tested == s2.points_tested
    assert s1.treelets_visited == s2.treelets_visited


def recursive_query(ds, req):
    """``ds.query(req)`` by the recursive reference walk, file by file.

    Same plan, same file order, same per-file boxes as
    :meth:`BATDataset.query`; only the traversal differs.
    """
    attributes, with_positions = None, True
    if req.columns is not None:
        attributes = [c for c in req.columns if c != "positions"]
        with_positions = "positions" in req.columns
    plan = ds.plan(req.box, req.filters)
    stats = QueryStats(pruned_files=plan.pruned_files)
    parts = []
    for fp in plan.files:
        batch, s = query_file_recursive(
            ds.file(fp.leaf_index), quality=req.quality, prev_quality=req.prev_quality,
            box=fp.box, filters=req.filters, attributes=attributes,
            with_positions=with_positions,
        )
        stats.merge(s)
        parts.append(batch)
    if not parts:
        specs = [
            sp for sp in ds.attribute_specs()
            if attributes is None or sp.name in attributes
        ]
        return ParticleBatch.empty(specs, with_positions=with_positions), stats
    return ParticleBatch.concatenate(parts), stats


def run_both(f, **kw):
    r1, s1 = query_file_recursive(f, **kw)
    r2, s2 = query_file(f, **kw)
    assert_same_result(r1, s1, r2, s2)
    return r2, s2


class TestEngineEquality:
    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), qs=quality_pairs())
    def test_file_level_byte_identity(self, bat, box, filters, qs):
        q0, q1 = qs
        run_both(bat, quality=q1, prev_quality=q0, box=box, filters=filters)

    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), qs=quality_pairs())
    def test_quantized_compressed_byte_identity(self, bat_qz, box, filters, qs):
        q0, q1 = qs
        run_both(bat_qz, quality=q1, prev_quality=q0, box=box, filters=filters)

    def test_full_read(self, bat):
        res, stats = run_both(bat)
        assert len(res) == N
        assert stats.points_returned == N

    def test_attribute_subset(self, bat):
        res, _ = run_both(bat, attributes=["vel"], box=Box((0, 0, 0), (0.5, 1, 1)))
        assert list(res.attributes) == ["vel"]

    def test_callback_chunks_reassemble_identically(self, bat):
        box = Box((0.2, 0.1, 0.0), (0.9, 0.8, 0.7))
        out = []
        for read in (query_file, query_file_recursive):
            chunks = []
            read(
                bat, quality=0.8, box=box,
                filters=(AttributeFilter("density", 0.1, 0.7),),
                callback=lambda p, a: chunks.append((p, a)),
            )
            pos = np.concatenate([p for p, _ in chunks]) if chunks else np.empty((0, 3))
            den = np.concatenate([a["density"] for _, a in chunks]) if chunks else np.empty(0)
            out.append((pos.tobytes(), den.tobytes()))
        assert out[0] == out[1]

    def test_unknown_engine_rejected(self, bat):
        """There is no engine to choose: the reference is a function, not
        an option of the read or a field of the request."""
        with pytest.raises(TypeError, match="engine"):
            query_file(bat, engine="recursive")
        with pytest.raises(TypeError, match="engine"):
            QueryRequest(engine="recursive")


def column_sets():
    """``(attributes, with_positions)`` projections of the two-attribute file."""
    return st.sampled_from(
        [(None, True), (["vel"], True), (["density"], False), ([], True)]
    )


def ladders(q0, q1):
    """Ascending ladders from above ``q0`` ending exactly at ``q1``."""
    inner = st.lists(st.floats(q0, q1), max_size=4).map(sorted)
    return inner.map(lambda rungs: (*rungs, q1))


def reassemble(incs):
    """A file stream's increments merged by their ``(treelet_rank, slot)`` keys."""
    keys = np.concatenate([i.keys for i in incs])
    order = np.lexsort((keys[:, 2], keys[:, 1]))
    pos = None
    if incs[0].positions is not None:
        pos = np.concatenate([i.positions for i in incs])[order]
    attrs = {
        k: np.concatenate([i.attributes[k] for i in incs])[order]
        for k in incs[0].attributes
    }
    return pos, attrs


WORK_COUNTERS = (
    "points_tested", "points_returned", "nodes_visited", "treelets_visited",
    "pruned_spatial", "pruned_bitmap", "files_opened",
)


class TestOneShotEqualsStream:
    """``query_file`` and ``stream_query_file`` are one traversal."""

    @SETTINGS
    @given(
        box=boxes(), filters=filter_sets(), cols=column_sets(), data=st.data(),
        qs=quality_pairs(),
    )
    def test_any_ladder_reassembles_to_one_shot_bytes(
        self, bat, box, filters, cols, qs, data
    ):
        q0, q1 = qs
        attributes, with_positions = cols
        kw = dict(
            prev_quality=q0, box=box, filters=filters, attributes=attributes,
            with_positions=with_positions,
        )
        direct, _ = query_file(bat, quality=q1, **kw)
        ladder = data.draw(ladders(q0, q1))
        incs = list(stream_query_file(bat, ladder, **kw))
        assert [i.quality for i in incs] == list(ladder)
        pos, attrs = reassemble(incs)
        if with_positions:
            assert pos.tobytes() == direct.positions.tobytes()
        else:
            assert pos is None and direct.positions is None
        assert list(attrs) == list(direct.attributes)
        for name, arr in attrs.items():
            assert arr.dtype == direct.attributes[name].dtype
            assert arr.tobytes() == direct.attributes[name].tobytes()
        assert sum(i.count for i in incs) == len(direct)

    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), cols=column_sets(), qs=quality_pairs())
    def test_one_rung_stream_does_the_one_shot_work(self, bat, box, filters, cols, qs):
        q0, q1 = qs
        attributes, with_positions = cols
        kw = dict(
            prev_quality=q0, box=box, filters=filters, attributes=attributes,
            with_positions=with_positions,
        )
        _, dstats = query_file(bat, quality=q1, **kw)
        sstats = QueryStats()
        (inc,) = stream_query_file(bat, (q1,), stats=sstats, **kw)
        for name in WORK_COUNTERS:
            assert getattr(sstats, name) == getattr(dstats, name), name

    def test_one_rung_full_quality_stream_takes_the_whole_treelet_path(self, bat):
        """One node visit per contained treelet: no treelet is walked."""
        stats = QueryStats()
        (inc,) = stream_query_file(bat, (1.0,), stats=stats)
        assert inc.count == N
        n_shallow = bat.header.n_shallow_inner + bat.header.n_shallow_leaves
        assert stats.treelets_visited == bat.n_treelets
        assert stats.nodes_visited == n_shallow + bat.n_treelets
        # the fast path emits each treelet as one contiguous slot run
        starts = np.flatnonzero(np.diff(inc.keys[:, 1], prepend=-1))
        assert len(starts) == bat.n_treelets
        assert (inc.keys[starts, 2] == 0).all()

    def test_multi_rung_counters(self, bat):
        """Rungs split the work; they never add rows or prunes."""
        box = Box((0.2, 0.1, 0.0), (0.9, 0.8, 0.7))
        filters = (AttributeFilter("density", 0.1, 0.7),)
        _, dstats = query_file(bat, quality=0.9, box=box, filters=filters)
        stats = QueryStats()
        incs = list(
            stream_query_file(bat, (0.1, 0.4, 0.9), box=box, filters=filters, stats=stats)
        )
        assert len(incs) == 3
        for name in WORK_COUNTERS:
            assert getattr(stats, name) == getattr(dstats, name), name


class TestWholeAndWalkedTreeletsInOneFile:
    """A box around one treelet's bounds holds it (and maybe others) whole
    and cuts its neighbours: one file read emits the whole ones as views of
    their columns and walks the rest, interleaved in emission order."""

    @SETTINGS
    @given(data=st.data(), margin=st.floats(0.01, 0.2), cols=column_sets())
    def test_like_the_recursive_walk_one_shot_and_every_rung(
        self, bat, bat_qz, data, margin, cols
    ):
        attributes, with_positions = cols
        for f in (bat, bat_qz):
            leaf_box = f.leaf_box(data.draw(st.integers(0, f.n_treelets - 1)))
            box = Box(
                tuple(v - margin for v in leaf_box.lower),
                tuple(v + margin for v in leaf_box.upper),
            )
            kw = dict(box=box, attributes=attributes, with_positions=with_positions)
            want, want_stats = query_file_recursive(f, **kw)
            got, stats = query_file(f, **kw)
            assert_same_batch(want, got)
            # at full quality the depth cutoff cuts nothing: all ten fields
            assert stats == want_stats
            ladder = data.draw(ladders(0.0, 1.0))
            stream_stats, incs = QueryStats(), []
            for inc in stream_query_file(f, ladder, stats=stream_stats, **kw):
                incs.append(inc)
                direct, _ = query_file_recursive(f, quality=inc.quality, **kw)
                assert_same_batch(direct, ParticleBatch(*reassemble(incs), count=len(direct)))
            if len(ladder) == 1:
                assert stream_stats == want_stats


def assert_same_batch(want, got):
    if want.positions is None:
        assert got.positions is None
    else:
        assert got.positions.tobytes() == want.positions.tobytes()
    assert list(got.attributes) == list(want.attributes)
    for name, arr in want.attributes.items():
        assert got.attributes[name].tobytes() == arr.tobytes()
    assert len(got) == len(want)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = make_rank_data(nranks=16, seed=3)
    out = tmp_path_factory.mktemp("engds")
    writer = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024)
    report = writer.write(data, out_dir=out, name="eng")
    with BATDataset(report.metadata_path) as ds:
        yield ds


def dataset_boxes():
    xy = st.floats(0.0, 4.0, width=32)
    z = st.floats(0.0, 1.0, width=32)
    corner = st.tuples(xy, xy, z)
    return st.one_of(
        st.none(),
        st.builds(
            lambda a, b: Box(tuple(map(min, a, b)), tuple(map(max, a, b))), corner, corner
        ),
    )


def dataset_filters():
    lohi = st.tuples(st.floats(0.0, 1.0, width=32), st.floats(0.0, 1.0, width=32))
    return st.lists(
        lohi.map(lambda t: AttributeFilter("mass", min(t), max(t))), max_size=1
    ).map(tuple)


def canonical(batch):
    """Multiset key of a batch: rows sorted by every column."""
    cols = [batch.positions[:, i] for i in range(3)]
    cols += [batch.attributes[k] for k in sorted(batch.attributes)]
    order = np.lexsort(cols)
    return tuple(np.ascontiguousarray(c[order]).tobytes() for c in cols)


class TestDatasetLevel:
    @SETTINGS
    @given(box=dataset_boxes(), filters=dataset_filters(), qs=quality_pairs())
    def test_planned_query_matches_recursive(self, dataset, box, filters, qs):
        q0, q1 = qs
        req = QueryRequest(quality=q1, prev_quality=q0, box=box, filters=filters)
        b1, s1 = recursive_query(dataset, req)
        b2, s2 = dataset.query(req)
        assert_same_result(b1, s1, b2, s2)
        assert s1.pruned_files == s2.pruned_files

    @SETTINGS
    @given(box=dataset_boxes(), filters=dataset_filters(), qs=quality_pairs())
    def test_progressive_equals_direct(self, dataset, box, filters, qs):
        """Satellite: q1 then the q1→q2 increment == a direct q2 query."""
        q1, q2 = qs
        first, _ = dataset.query(QueryRequest(quality=q1, box=box, filters=filters))
        inc, _ = dataset.query(
            QueryRequest(quality=q2, prev_quality=q1, box=box, filters=filters)
        )
        direct, _ = dataset.query(QueryRequest(quality=q2, box=box, filters=filters))
        assert len(first) + len(inc) == len(direct)
        combined = ParticleBatch.concatenate([first, inc]) if len(first) + len(inc) else first
        assert canonical(combined) == canonical(direct)
