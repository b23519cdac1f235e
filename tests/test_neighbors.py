"""Tests for the neighbor-query engine (k-NN + fixed-radius).

The load-bearing property: the engine's neighbor lists are
**byte-identical** to the exhaustive reference
(``tests/reference_neighbors.brute_neighbors``) for every request shape —
same offsets, same distances, same ``(leaf, treelet, slot)`` keys —
including balls straddling several leaf files (served through ghost
strips), empty neighborhoods, and exact distance ties (broken by the
global particle order-key, never by float luck). Rows follow from keys
through the one ``materialize_rows``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import (
    NeighborRequest,
    QueryRequest,
    request_from_doc,
    request_to_doc,
)
from repro.bat import AttributeFilter, BATFile
from repro.bat.builder import BATBuildConfig
from repro.core import RankData, TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.errors import InvalidRequestError
from repro.machines import testing_machine as make_test_machine
from repro.types import Box, ParticleBatch
from repro.workloads import grid_decompose
from tests.reference_neighbors import brute_neighbors
from tests.test_pipeline import make_rank_data

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

DOMAIN = Box((0.0, 0.0, 0.0), (4.0, 4.0, 1.0))


@pytest.fixture(scope="module", params=["v3", "v4"])
def dataset(request, tmp_path_factory):
    """One multi-file dataset per on-disk format, small files → many leaves."""
    data = make_rank_data(nranks=12, seed=5, min_n=300, max_n=1200)
    out = tmp_path_factory.mktemp(f"neigh_{request.param}")
    if request.param == "v4":
        # lossy 16-bit positions, the best lossless codec everywhere else
        cfg = BATBuildConfig(codecs={"positions": "quantize16", "*": "auto"})
    else:
        cfg = BATBuildConfig()
    writer = TwoPhaseWriter(make_test_machine(), target_size=32 * 1024, bat_config=cfg)
    rep = writer.write(data, out_dir=out, name="n")
    ds = BATDataset(rep.metadata_path)
    assert ds.metadata.n_files >= 4  # the whole point is crossing files
    for path in out.glob("*.bat"):
        with BATFile(path) as f:
            assert f.version == int(request.param[1:])
    yield ds
    ds.close()


def assert_identical(a, b):
    """The byte-identity contract between two NeighborResults."""
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.keys, b.keys)
    assert a.distances.tobytes() == b.distances.tobytes()
    assert np.array_equal(a.centers, b.centers)
    if a.center_keys is None:
        assert b.center_keys is None
    else:
        assert np.array_equal(a.center_keys, b.center_keys)
    if a.batch is None or b.batch is None:
        assert (a.batch is None) == (b.batch is None)
        return
    pa, pb = a.batch.positions, b.batch.positions
    if pa is None or pb is None:
        assert (pa is None) == (pb is None)
    else:
        assert pa.tobytes() == pb.tobytes()
    assert sorted(a.batch.attributes) == sorted(b.batch.attributes)
    for name, arr in a.batch.attributes.items():
        assert arr.tobytes() == b.batch.attributes[name].tobytes()


def assert_matches_brute(ds, res, req):
    """``res`` selects what the exhaustive reference selects, bytes and all."""
    offsets, keys, d2 = brute_neighbors(ds, req, res.centers)
    assert np.array_equal(res.offsets, offsets)
    assert np.array_equal(res.keys, keys)
    assert res.distances.tobytes() == np.sqrt(d2).tobytes()


def neighbors_checked(ds, **kw):
    req = NeighborRequest(**kw)
    res = ds.neighbors(req)
    assert_matches_brute(ds, res, req)
    return res


class TestConstruction:
    """Degenerate requests die at construction, naming the field."""

    BOX = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(center_box=BOX, k=0), "k must be >= 1"),
            (dict(center_box=BOX, k=True), "k must be an integer"),
            (dict(center_box=BOX, k=1.5), "k must be an integer"),
            (dict(center_box=BOX, radius=0.0), "radius must be a finite number > 0"),
            (dict(center_box=BOX, radius=-1.0), "radius must be a finite number > 0"),
            (dict(center_box=BOX, radius=float("inf")), "radius must be"),
            (dict(center_box=BOX, radius=float("nan")), "radius must be"),
            (dict(center_box=BOX, radius="wide"), "radius must be"),
            (dict(center_box=BOX, k=2, radius=0.1), "exactly one of k and radius"),
            (dict(center_box=BOX), "exactly one of k and radius"),
            (dict(center_box=BOX, points=((0, 0, 0),), k=1),
             "exactly one of center_box and points"),
            (dict(k=1), "exactly one of center_box and points"),
            (dict(points=(), k=1), "at least one center"),
            (dict(points=((0.0, 1.0),), k=1), "triple"),
            (dict(points=((0.0, 1.0, float("nan")),), k=1), "finite"),
            (dict(center_box="box", k=1), "center_box must be a Box"),
        ],
    )
    def test_invalid(self, kw, msg):
        with pytest.raises(InvalidRequestError, match=msg):
            NeighborRequest(**kw)

    def test_engine_is_not_a_field(self):
        """There is one engine: the exhaustive one is a test reference,
        not an option of the request."""
        with pytest.raises(TypeError, match="engine"):
            NeighborRequest(center_box=self.BOX, k=1, engine="brute")

    def test_frozen_and_hashable(self):
        a = NeighborRequest(points=[[0, 1, 2]], k=3)
        b = NeighborRequest(points=((0.0, 1.0, 2.0),), k=3)
        # list input was frozen to float-triple tuples at construction
        assert a == b and hash(a) == hash(b)
        assert {a: "hit"}[b] == "hit"
        with pytest.raises(Exception):
            a.k = 5

    def test_coercion(self):
        r = NeighborRequest(center_box=self.BOX, k=np.int64(4))
        assert type(r.k) is int and r.k == 4
        r = NeighborRequest(center_box=self.BOX, radius=np.float32(0.25))
        assert type(r.radius) is float

    def test_doc_round_trip_is_plain_json(self):
        for req in (
            NeighborRequest(center_box=self.BOX, radius=0.2,
                            filters=(AttributeFilter("mass", 0.1, 0.9),),
                            columns=("mass",)),
            NeighborRequest(points=((0.5, 0.5, 0.5), (1.0, 2.0, 3.0)), k=7),
        ):
            doc = request_to_doc(req)
            json.dumps(doc)  # plain JSON types only
            assert doc["family"] == "neighbor"
            assert "engine" not in doc
            assert request_from_doc(doc) == req
            # docs stored while a request could choose its engine still parse
            for engine in ("tree", "brute"):
                assert request_from_doc({**doc, "engine": engine}) == req

    def test_family_absent_doc_is_a_query(self):
        # PR-8-era job stores persisted docs without a family tag
        doc = request_to_doc(QueryRequest(quality=0.5))
        doc.pop("family")
        back = request_from_doc(doc)
        assert isinstance(back, QueryRequest) and back.quality == 0.5

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidRequestError):
            request_from_doc({"family": "teleport"})


class TestByteIdentity:
    """Engine == exhaustive reference, bytes and all."""

    @SETTINGS
    @given(seed=st.integers(0, 2**31), radius=st.floats(0.05, 0.6))
    def test_radius_random_boxes(self, dataset, seed, radius):
        rng = np.random.default_rng(seed)
        lo = rng.uniform([0, 0, 0], [3, 3, 0.5])
        box = Box(tuple(lo), tuple(lo + rng.uniform(0.2, 1.0, 3)))
        neighbors_checked(dataset, center_box=box, radius=radius)

    @SETTINGS
    @given(seed=st.integers(0, 2**31), k=st.integers(1, 40))
    def test_knn_random_points(self, dataset, seed, k):
        rng = np.random.default_rng(seed)
        pts = tuple(map(tuple, rng.uniform([0, 0, 0], [4, 4, 1], (5, 3))))
        neighbors_checked(dataset, points=pts, k=k)

    def test_ball_straddles_many_leaves(self, dataset):
        # a fat ball at the domain center must reach several leaf files,
        # and the engine must serve the extra files as ghost strips
        tree = neighbors_checked(
            dataset, points=((2.0, 2.0, 0.5),), radius=1.0
        )
        assert tree.stats.files_opened >= 2
        assert len(tree) > 0

    def test_boundary_slab_uses_ghost_strips(self, dataset):
        # centers hug one leaf's bounds: boundary balls reach into the
        # adjacent files, which open as ghost strips, not full reads
        leaves = sorted(dataset.metadata.leaves, key=lambda l: l.count)
        mid = leaves[len(leaves) // 2].bounds
        eps = 1e-4
        slab = Box(
            tuple(v + eps for v in mid.lower),
            tuple(v - eps for v in mid.upper),
        )
        radius = 0.15
        tree = neighbors_checked(dataset, center_box=slab, radius=radius)
        assert tree.stats.ghost_files_opened >= 1
        assert tree.stats.pruned_files >= 1
        assert tree.center_keys is not None
        # fewer files than the exhaustive reference, and fewer ghost
        # points than the naive plan: every leaf the radius-expanded slab
        # touches, read in full
        halo = Box(
            tuple(v - radius for v in slab.lower),
            tuple(v + radius for v in slab.upper),
        )
        naive_points = sum(
            l.count for l in dataset.metadata.leaves if l.bounds.intersects(halo)
        )
        assert tree.stats.files_opened <= dataset.metadata.n_files
        assert 0 < tree.stats.ghost_points < naive_points

    def test_empty_neighborhood(self, dataset):
        tree = neighbors_checked(
            dataset, points=((40.0, 40.0, 40.0),), radius=0.01
        )
        assert len(tree) == 0 and np.array_equal(tree.counts, [0])

    def test_knn_from_far_outside_still_finds_k(self, dataset):
        tree = neighbors_checked(dataset, points=((40.0, 40.0, 40.0),), k=9)
        assert np.array_equal(tree.counts, [9])
        # distances ascend within the list
        assert np.all(np.diff(tree.distances) >= 0)

    def test_filters_and_columns(self, dataset):
        filt = (AttributeFilter("mass", 0.25, 0.75),)
        tree = neighbors_checked(
            dataset,
            center_box=Box((1.0, 1.0, 0.0), (3.0, 3.0, 1.0)),
            radius=0.2,
            filters=filt,
            columns=("temp",),
        )
        assert set(tree.batch.attributes) == {"temp"}
        assert tree.batch.positions is None
        # every neighbor (and every center) passed the filter: re-running
        # unfiltered must return a superset of lists
        loose = neighbors_checked(
            dataset,
            center_box=Box((1.0, 1.0, 0.0), (3.0, 3.0, 1.0)),
            radius=0.2,
        )
        assert len(loose) >= len(tree)
        assert loose.n_centers >= tree.n_centers

    def test_k_larger_than_population_returns_everything(self, dataset):
        n = dataset.total_particles
        tree = neighbors_checked(dataset, points=((2.0, 2.0, 0.5),), k=n + 50)
        assert np.array_equal(tree.counts, [n])


class TestTieBreak:
    """Exact distance ties break on the global (leaf, treelet, slot) key."""

    @pytest.fixture(scope="class")
    def dupes(self, tmp_path_factory):
        # 8 particles at the *same* float32 position, spread over ranks so
        # they land in different leaf files; plus background filler
        rng = np.random.default_rng(3)
        bounds = grid_decompose(Box((0, 0, 0), (2, 2, 1)), 4, ndims=3)
        shared = np.array([1.0, 1.0, 0.5], dtype=np.float32)
        batches = []
        for lo, hi in bounds:
            pos = (lo + rng.random((150, 3)) * (np.array(hi) - lo)).astype(
                np.float32
            )
            pos[:2] = shared  # two exact duplicates per rank
            batches.append(ParticleBatch(pos, {"mass": rng.random(len(pos))}))
        data = RankData(
            bounds=bounds,
            counts=np.array([len(b) for b in batches]),
            batches=batches,
        )
        out = tmp_path_factory.mktemp("dupes")
        rep = TwoPhaseWriter(make_test_machine(), target_size=8 * 1024).write(
            data, out_dir=out, name="d"
        )
        ds = BATDataset(rep.metadata_path)
        yield ds
        ds.close()

    def test_knn_tie_break_is_the_order_key(self, dupes):
        tree = neighbors_checked(dupes, points=((1.0, 1.0, 0.5),), k=5)
        # all five hits are the duplicated position: distance exactly 0
        assert np.all(tree.distances == 0.0)
        # and the keys ascend strictly in (leaf, treelet, slot) order
        keys = [tuple(k) for k in tree.keys]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_radius_lists_sorted_by_key_within_ties(self, dupes):
        tree = neighbors_checked(
            dupes, points=((1.0, 1.0, 0.5),), radius=0.25
        )
        d, keys = tree.distances, [tuple(k) for k in tree.keys]
        for i in range(1, len(d)):
            assert d[i] > d[i - 1] or (
                d[i] == d[i - 1] and keys[i] > keys[i - 1]
            )


def assert_same_selection(got, want):
    """Two ``(offsets, keys, d2)`` selections are byte-identical."""
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def candidate_sets(draw):
    """Candidates and centers on a lattice: duplicates and exact ties.

    Lattice coordinates are exact in binary, so lattice differences and
    ``radius = m * step`` make ``d2 == radius²`` hold exactly. ``far``
    puts everything near 1e6 with a step of ~1e-3 or ~1e-6: cell
    coordinates of 1e9 and beyond, past any product of extents.
    """
    base, step = draw(st.sampled_from([(0.0, 0.25), (1e6, 2.0**-10), (1e6, 2.0**-20)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = draw(st.integers(0, 40))
    pos = rng.integers(-3, 4, (n, 3))
    if n > 1 and draw(st.booleans()):
        pos[rng.integers(0, n, n // 2)] = pos[0]  # exact duplicate positions
    centers = rng.integers(-6, 7, (draw(st.integers(1, 6)), 3))
    if draw(st.booleans()):
        centers[0] = (500, -400, 300)  # far outside the candidates' extent
    flat = rng.choice(1000, n, replace=False)
    keys = np.stack([flat // 100, flat // 10 % 10, flat % 10], axis=1).astype(np.int64)
    return (
        base + step * centers.astype(np.float64),
        base + step * pos.astype(np.float64),
        keys,
        step * draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
        draw(st.integers(1, n + 3)),
    )


class TestSelection:
    """The batched selections equal the per-center reference, bytes and all.

    Engine ≡ brute cannot catch a selection bug (the exhaustive reference
    selects with the same kernel), so the kernel is held to the per-center
    selections of ``tests/reference_neighbors.py``.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=candidate_sets())
    @example(case=(np.zeros((2, 3)), np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), 0.5, 1))
    def test_batched_equals_per_center(self, case):
        from repro.bat import neighbors as nb
        from repro.bat.neighbors import NeighborStats
        from tests import reference_neighbors as ref

        centers, pos, keys, radius, k = case
        for new, old, arg in (
            (nb.select_radius, ref.select_radius, radius),
            (nb.select_knn, ref.select_knn, k),
        ):
            assert_same_selection(
                new(centers, pos, keys, arg, NeighborStats()),
                old(centers, pos, keys, arg, NeighborStats()),
            )

    def test_extreme_coordinate_radius_ratio(self):
        # cell coordinates near 1e15 (coordinates ~1e9, radius 2^-20),
        # where the division rounds by ~0.1 cell: each center still finds
        # its one partner at exactly the radius
        import warnings

        from repro.bat import neighbors as nb
        from repro.bat.neighbors import NeighborStats
        from tests import reference_neighbors as ref

        rng = np.random.default_rng(11)
        ulp = 2.0**-23  # float64 spacing at 1e9
        n = 3000
        centers = 1e9 + (32 * np.arange(n) + rng.integers(0, 8, n))[:, None] * ulp
        centers = centers * np.ones(3)
        radius = 8 * ulp
        pos = centers.copy()
        pos[:, 0] += radius  # exact: 1e9 + (m + 8) ulp is representable
        keys = np.stack([np.zeros(n), np.zeros(n), np.arange(n)], axis=1).astype(np.int64)
        offsets, got, d2 = nb.select_radius(centers, pos, keys, radius, NeighborStats())
        assert np.array_equal(offsets, np.arange(n + 1))
        assert np.array_equal(got, keys)
        assert np.all(d2 == radius * radius)
        # cell coordinates past int64 (±1e300 at radius 1): still exact,
        # and no cast overflows
        centers = np.array([[1e300, -1e300, 0.0], [-1e300, 5.0, 1e300], [1.0, 2.0, 3.0]])
        pos = np.concatenate([centers, centers + 0.5, -centers])
        keys = np.stack([np.arange(9), np.zeros(9), np.zeros(9)], axis=1).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nb.select_radius(centers, pos, keys, 1.0, NeighborStats())
        with np.errstate(over="ignore"):  # the flat reference squares 2e300
            want = ref.select_radius(centers, pos, keys, 1.0, NeighborStats())
        assert_same_selection(got, want)
        assert np.array_equal(got[0], [0, 2, 4, 6])


class TestGridPath:
    """Radius selection runs on a grid only; it equals the per-center
    reference's flat path and its gridded one on a real candidate set."""

    def test_grid_and_flat_paths_agree(self, dataset, monkeypatch):
        import repro.bat.neighbors as nb
        from tests import reference_neighbors as ref

        req = NeighborRequest(
            center_box=Box((0.5, 0.5, 0.0), (3.5, 3.5, 1.0)), radius=0.3
        )
        grid = dataset.neighbors(req)
        monkeypatch.setattr(nb, "select_radius", ref.select_radius)
        for threshold in (1 << 62, 0):  # the reference's flat, then gridded path
            monkeypatch.setattr(ref, "_GRID_THRESHOLD", threshold)
            assert_identical(grid, dataset.neighbors(req))
        assert grid.stats.pairs_tested < grid.n_centers * grid.stats.points_tested


class TestKnnReference:
    """The batched k-NN engine equals the best-first walk it replaced.

    It opens no file the walk would not: after every file each bound is
    the exact k-th distance over the files so far, never looser than the
    walk's.
    """

    def run_both(self, ds, monkeypatch, **kw):
        import repro.core.dataset as core_ds
        from tests import reference_neighbors as ref

        req = NeighborRequest(**kw)
        new = ds.neighbors(req)
        with monkeypatch.context() as m:
            m.setattr(core_ds, "knn_neighbors", ref.knn_neighbors)
            old = ds.neighbors(req)
        assert_identical(new, old)
        assert new.stats.files_opened <= old.stats.files_opened
        assert new.stats.pruned_files >= old.stats.pruned_files
        return new, old

    @SETTINGS
    @given(seed=st.integers(0, 2**31), k=st.integers(1, 60), n=st.integers(1, 12))
    def test_random_points(self, dataset, monkeypatch, seed, k, n):
        rng = np.random.default_rng(seed)
        pts = tuple(map(tuple, rng.uniform([-0.5, -0.5, -0.2], [4.5, 4.5, 1.2], (n, 3))))
        self.run_both(dataset, monkeypatch, points=pts, k=k)

    def test_filtered(self, dataset, monkeypatch):
        self.run_both(
            dataset, monkeypatch,
            points=((1.0, 1.0, 0.5), (3.2, 0.4, 0.1), (2.0, 2.0, 0.5)), k=25,
            filters=(AttributeFilter("mass", 0.25, 0.75),), columns=("mass",),
        )

    def test_k_equals_the_first_file(self, dataset, monkeypatch):
        # the nearest file is gathered whole (every bound is still inf):
        # k equal to its particle count fills the running best exactly
        leaf = max(dataset.metadata.leaves, key=lambda l: l.count)
        mid = tuple((a + b) / 2 for a, b in zip(leaf.bounds.lower, leaf.bounds.upper))
        self.run_both(dataset, monkeypatch, points=(mid,), k=leaf.count)

    def test_k_past_the_population(self, dataset, monkeypatch):
        new, _ = self.run_both(
            dataset, monkeypatch, points=((2.0, 2.0, 0.5),),
            k=dataset.total_particles + 5,
        )
        assert np.array_equal(new.counts, [dataset.total_particles])


class TestServeIntegration:
    """NeighborRequest through QueryService: caches and parity."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.serve import QueryService, ServeConfig

        data = make_rank_data(nranks=9, seed=21)
        out = tmp_path_factory.mktemp("nserve")
        rep = TwoPhaseWriter(make_test_machine(), target_size=64 * 1024).write(
            data, out_dir=out, name="s"
        )
        svc = QueryService(
            rep.metadata_path,
            ServeConfig(
                capacity=2,
                result_ttl=None,
                degradation=False,
            ),
        )
        ds = BATDataset(rep.metadata_path)
        yield svc, ds
        svc.close()
        ds.close()

    REQ = NeighborRequest(
        center_box=Box((1.0, 1.0, 0.0), (2.5, 2.5, 1.0)), radius=0.3
    )

    def test_submit_matches_direct(self, served):
        svc, ds = served
        sid = svc.open_session()
        resp = svc.submit(sid, self.REQ).result(timeout=60)
        assert resp.neighbors is not None
        assert_identical(resp.neighbors, ds.neighbors(self.REQ))
        assert len(resp) == len(resp.neighbors)

    def test_result_cache_hit_on_repeat(self, served):
        svc, ds = served
        req = NeighborRequest(points=((1.5, 1.5, 0.5),), k=12)
        first = svc.execute(req)
        key = (0, svc.generation(0), replace(req, on_error="degrade"))
        assert svc.results.get(key) is not None
        again = svc.execute(req)
        assert again.cache_hit
        assert_identical(first.neighbors, again.neighbors)
        assert_identical(first.neighbors, ds.neighbors(req))

    def test_execute_batch_path(self, served):
        svc, ds = served
        resp = svc.execute(self.REQ)
        assert resp.served_quality == 1.0
        assert_identical(resp.neighbors, ds.neighbors(self.REQ))


class TestLease:
    """A neighbor query holds every file it reads for the whole request:
    a handle cache smaller than the query's files changes no byte."""

    def test_capacity_one_cache(self, dataset):
        from repro.bat.filecache import BATFileCache

        filt = (AttributeFilter("mass", 0.25, 0.75),)
        reqs = [
            NeighborRequest(points=((2.0, 2.0, 0.5), (0.5, 3.5, 0.2)), k=40),
            NeighborRequest(center_box=Box((1.0, 1.0, 0.0), (3.0, 3.0, 1.0)), radius=0.3),
            NeighborRequest(
                center_box=Box((0.5, 0.5, 0.0), (3.5, 3.5, 1.0)), radius=0.2,
                filters=filt, columns=("temp",),
            ),
        ]
        cache = BATFileCache(1)
        with BATDataset(dataset.metadata_path, file_cache=cache) as small:
            for req in reqs:
                want = dataset.neighbors(req)
                assert want.stats.files_opened >= 2  # more files than the cache holds
                assert_identical(small.neighbors(req), want)
        cache.close()

    def test_leases_exactly_the_files_it_opens(self, dataset):
        """A file is leased when the request opens it, never up front: the
        leased paths are the opened ones, each once."""
        from contextlib import contextmanager

        from repro.bat.filecache import BATFileCache

        leased, opened = [], []

        class Recording(BATFileCache):
            @contextmanager
            def lease(self, paths=()):
                leased.extend(paths)
                with super().lease(paths) as pin:
                    yield lambda path: (leased.append(path), pin(path))

            def get(self, path):
                opened.append(path)
                return super().get(path)

        reqs = {
            "knn": NeighborRequest(points=((2.0, 2.0, 0.5), (0.5, 3.5, 0.2)), k=40),
            "radius": NeighborRequest(points=((2.0, 2.0, 0.5),), radius=0.3),
            "center_box": NeighborRequest(
                center_box=Box((1.0, 1.0, 0.0), (3.0, 3.0, 1.0)), k=8
            ),
        }
        cache = Recording()
        with BATDataset(dataset.metadata_path, file_cache=cache) as ds:
            for name, req in reqs.items():
                leased.clear()
                opened.clear()
                res = ds.neighbors(req)
                assert_identical(res, dataset.neighbors(req))
                assert len(leased) == len(set(leased)) == res.stats.files_opened, name
                assert set(leased) == set(opened), name
        cache.close()


class TestDegradedNeighbors:
    """A damaged treelet degrades a neighbor query as it does a read: the
    leaf is quarantined and the request is answered from the others."""

    @pytest.fixture()
    def damaged(self, tmp_path):
        from repro.bat.builder import BATBuildConfig as Config

        data = make_rank_data(nranks=8, seed=33)
        writer = TwoPhaseWriter(
            make_test_machine(), target_size=32 * 1024, bat_config=Config(codecs="auto")
        )
        rep = writer.write(data, out_dir=tmp_path, name="dg")
        path = tmp_path / "dg.00000.bat"
        with BATFile(path) as f:
            box = f.leaf_box(0)
            off = int(f.shallow_leaves[0]["treelet_offset"])
            nbytes = int(f.shallow_leaves[0]["treelet_nbytes"])
        raw = bytearray(path.read_bytes())
        raw[off + nbytes // 2] ^= 0xFF  # the middle byte of leaf 0's treelet 0
        path.write_bytes(bytes(raw))
        centre = tuple((a + b) / 2 for a, b in zip(box.lower, box.upper))
        return rep.metadata_path, {
            "knn": NeighborRequest(points=(centre,), k=4, on_error="degrade"),
            "radius": NeighborRequest(center_box=box, radius=0.01, on_error="degrade"),
        }

    @pytest.mark.parametrize("mode", ["knn", "radius"])
    def test_degraded_equals_the_request_issued_again(self, damaged, mode, caplog):
        import logging

        from repro.errors import IntegrityError

        meta, reqs = damaged
        req = reqs[mode]
        with caplog.at_level(logging.INFO, logger="repro"):
            with BATDataset(meta) as ds:
                with pytest.raises(IntegrityError, match="leaf 0.*dg.meta.json"):
                    ds.neighbors(replace(req, on_error="raise"))
                assert ds.quarantined() == {}
                got = ds.neighbors(req)
                assert list(ds.quarantined()) == [0]
                again = ds.neighbors(req)
                assert_identical(got, again)
                # decoded_bytes counts decode work, which the repeat finds cached
                assert replace(got.stats, decoded_bytes=0) == replace(again.stats, decoded_bytes=0)
                assert got.stats.quarantined_files == 1
                assert_matches_brute(ds, got, req)
                ds.clear_quarantine()
        events = [r for r in caplog.records if r.name == "repro.core.dataset"]
        assert [r.levelname for r in events] == ["WARNING", "INFO"]
        assert events[0].leaf_index == 0 and events[0].path.endswith("dg.00000.bat")
        assert "checksum" in events[0].reason
        # a cold dataset that knows the quarantine up front does the same work
        with BATDataset(meta) as fresh:
            fresh.quarantine_leaf(0, "damaged")
            cold = fresh.neighbors(req)
        assert_identical(got, cold)
        assert got.stats == cold.stats

    @pytest.mark.parametrize("mode", ["knn", "radius"])
    def test_served_response_is_partial_and_not_cached(self, damaged, mode):
        from repro.serve import QueryService, ServeConfig

        meta, reqs = damaged
        req = replace(reqs[mode], on_error="raise")  # the service degrades anyway
        with QueryService(meta, ServeConfig(capacity=1)) as svc:
            resp = svc.execute(req)
            assert resp.partial and resp.quarantined_files == 1
            key = (0, svc.generation(0), replace(req, on_error="degrade"))
            assert svc.results.get(key) is None
            again = svc.execute(req)
            assert again.partial and not again.cache_hit
            assert_identical(resp.neighbors, again.neighbors)


class TestOneStepGather:
    """A gather over several files is one step: its rows, keys and counters
    equal the per-file loop it replaced (``tests/reference_neighbors.py``)
    run over the same files, concatenated — and so do the rows the
    one-step materialization fetches."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**31),
        mode=st.sampled_from(["halo", "box", "points"]),
        filtered=st.booleans(),
    )
    def test_equals_the_per_file_loop(self, dataset, seed, mode, filtered):
        from repro.bat import neighbors as nb
        from repro.bat.neighbors import PRUNE_SLACK, NeighborStats
        from repro.types import boxes_meet
        from tests import reference_neighbors as ref

        rng = np.random.default_rng(seed)
        n_files = dataset.metadata.n_files
        chosen = sorted(rng.choice(n_files, int(rng.integers(0, n_files + 1)), replace=False))
        parts = [(dataset.file(int(i)), int(i)) for i in chosen]
        # regions partly off the data, and files they miss: about one
        # draw in three gathers nothing, one in three spans several files
        lo = rng.uniform([-0.5, -0.5, -0.2], [3.8, 3.8, 0.9])
        hi = lo + rng.uniform(0.05, 2.0, 3)
        box = None
        if mode == "halo":
            r2 = float(rng.uniform(0.0, 0.6)) ** 2 * (1.0 + PRUNE_SLACK)

            def keep(nlo, nhi):
                return nb._boxes_box_d2(nlo, nhi, lo, hi) <= r2
        elif mode == "box":
            box = Box(tuple(lo), tuple(hi))

            def keep(nlo, nhi):
                return boxes_meet(nlo, nhi, lo, hi)
        else:
            pts = rng.uniform(lo, hi, (int(rng.integers(1, 6)), 3))
            lim = rng.uniform(0.0, 0.6, len(pts)) ** 2

            def keep(nlo, nhi):
                return nb._within_any(nlo, nhi, pts, lim)

        a, b = sorted(rng.uniform(0, 1, 2))
        filters = (AttributeFilter("mass", a, b),) if filtered else ()
        got_stats, want_stats = NeighborStats(), NeighborStats()
        got = nb._gather_pruned(parts, keep, filters, got_stats, box)
        want = ref.gather_pruned(parts, keep, filters, want_stats, box)
        assert_same_selection(got, want)
        assert got_stats == want_stats

        # the rows of some of those keys, in any order, repeats included
        keys = got[1][rng.integers(0, len(got[1]), int(rng.integers(0, 2 * len(got[1]) + 1)))]
        specs = dataset.attribute_specs()
        columns = [None, ["mass"], []][int(rng.integers(0, 3))]
        with_positions = bool(rng.integers(0, 2)) or columns is None
        assert (
            nb.materialize_rows(dataset.file, keys, specs, columns, with_positions).digest()
            == ref.materialize_rows(dataset.file, keys, specs, columns, with_positions).digest()
        )
