"""Tests for spatial, attribute, and progressive queries on BAT files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryRequest
from repro.bat import AttributeFilter, BATFile, build_bat
from repro.bat.query import quality_to_depth, query_file
from repro.types import Box, ParticleBatch

N = 60_000


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    pos = rng.random((N, 3)).astype(np.float32)
    # clustered blob to exercise nonuniform treelets
    pos[: N // 4] = rng.normal([0.8, 0.2, 0.5], 0.03, (N // 4, 3)).astype(np.float32)
    attrs = {
        "density": rng.random(N),
        "vel": rng.normal(0.0, 10.0, N),
    }
    return pos, attrs


@pytest.fixture(scope="module")
def bat(data, tmp_path_factory):
    pos, attrs = data
    built = build_bat(ParticleBatch(pos, attrs))
    path = tmp_path_factory.mktemp("batq") / "q.bat"
    built.write(path)
    f = BATFile(path)
    yield f
    f.close()


class TestQualityToDepth:
    def test_endpoints(self):
        assert quality_to_depth(0.0, 5) == 0.0
        assert quality_to_depth(1.0, 5) == 6.0

    def test_monotone(self):
        qs = np.linspace(0, 1, 50)
        es = [quality_to_depth(q, 7) for q in qs]
        assert all(b >= a for a, b in zip(es, es[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quality_to_depth(-0.1, 5)
        with pytest.raises(ValueError):
            quality_to_depth(1.1, 5)

    def test_log_shape_front_loaded(self):
        """Half quality should reach most of the depth range (log remap)."""
        assert quality_to_depth(0.5, 7) > 0.5 * 8


class TestFullQuery:
    def test_returns_everything(self, bat):
        res, stats = query_file(bat)
        assert len(res) == N
        assert stats.points_returned == N

    def test_zero_quality_returns_nothing(self, bat):
        res, _ = query_file(bat, quality=0.0)
        assert len(res) == 0

    def test_prev_quality_validation(self, bat):
        with pytest.raises(ValueError):
            query_file(bat, quality=0.3, prev_quality=0.5)


class TestSpatialQuery:
    def test_exact_counts(self, bat, data):
        pos, _ = data
        for box in (
            Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
            Box((0.75, 0.15, 0.4), (0.85, 0.25, 0.6)),  # inside the cluster
            Box((0.99, 0.99, 0.99), (1.0, 1.0, 1.0)),
        ):
            res, _ = query_file(bat, box=box)
            assert len(res) == box.contains_points(pos).sum()

    def test_all_results_inside_box(self, bat):
        box = Box((0.1, 0.2, 0.3), (0.6, 0.7, 0.8))
        res, _ = query_file(bat, box=box)
        assert box.contains_points(res.positions).all()

    def test_disjoint_box_empty(self, bat):
        res, stats = query_file(bat, box=Box((5, 5, 5), (6, 6, 6)))
        assert len(res) == 0
        assert stats.points_tested == 0

    def test_pruning_effective(self, bat):
        box = Box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
        _, stats = query_file(bat, box=box)
        assert stats.points_tested < N // 4

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 0.9), st.floats(0, 0.9), st.floats(0, 0.9), st.floats(0.01, 0.5))
    def test_random_boxes_exact(self, bat, data, x, y, z, w):
        pos, _ = data
        box = Box((x, y, z), (x + w, y + w, z + w))
        res, _ = query_file(bat, box=box)
        assert len(res) == box.contains_points(pos).sum()


class TestAttributeQuery:
    def test_exact_single_filter(self, bat, data):
        _, attrs = data
        res, _ = query_file(bat, filters=[AttributeFilter("density", 0.25, 0.5)])
        expected = ((attrs["density"] >= 0.25) & (attrs["density"] <= 0.5)).sum()
        assert len(res) == expected

    def test_no_false_positives_in_result(self, bat):
        res, _ = query_file(bat, filters=[AttributeFilter("vel", -5.0, 5.0)])
        assert (res.attributes["vel"] >= -5.0).all()
        assert (res.attributes["vel"] <= 5.0).all()

    def test_conjunction(self, bat, data):
        pos, attrs = data
        box = Box((0.0, 0.0, 0.0), (0.5, 1.0, 1.0))
        fs = [AttributeFilter("density", 0.0, 0.3), AttributeFilter("vel", 0.0, 50.0)]
        res, _ = query_file(bat, box=box, filters=fs)
        m = (
            box.contains_points(pos)
            & (attrs["density"] <= 0.3)
            & (attrs["vel"] >= 0.0)
        )
        assert len(res) == m.sum()

    def test_empty_range_prunes_everything(self, bat):
        res, stats = query_file(bat, filters=[AttributeFilter("vel", 1e6, 2e6)])
        assert len(res) == 0
        assert stats.points_tested == 0  # pruned at the file level

    def test_unknown_attribute(self, bat):
        with pytest.raises(KeyError):
            query_file(bat, filters=[AttributeFilter("missing", 0, 1)])

    def test_inverted_filter_rejected(self):
        with pytest.raises(ValueError):
            AttributeFilter("x", 2.0, 1.0)

    def test_bitmap_pruning_effective_when_spatially_correlated(self, tmp_path):
        """Bitmaps prune well when attributes are spatially coherent — the
        paper's stated assumption (§VII); an uncorrelated attribute would
        see nearly every leaf bitmap match."""
        rng = np.random.default_rng(3)
        pos = rng.random((40_000, 3)).astype(np.float32)
        built = build_bat(ParticleBatch(pos, {"xval": pos[:, 0].astype(np.float64)}))
        p = tmp_path / "corr.bat"
        built.write(p)
        with BATFile(p) as f:
            res, stats = query_file(f, filters=[AttributeFilter("xval", 0.0, 0.05)])
            assert len(res) == (pos[:, 0] <= np.float64(0.05)).sum()
            assert stats.points_tested < len(pos) // 4
            assert stats.pruned_bitmap > 0


class TestProgressiveQuery:
    def test_increments_partition_data(self, bat):
        prev, total = 0.0, 0
        for q in np.linspace(0.1, 1.0, 10):
            res, _ = query_file(bat, quality=float(q), prev_quality=float(prev))
            total += len(res)
            prev = float(q)
        assert total == N

    def test_increasing_quality_monotone(self, bat):
        counts = [len(query_file(bat, quality=q)[0]) for q in (0.2, 0.4, 0.8, 1.0)]
        assert counts == sorted(counts)
        assert counts[-1] == N

    def test_progressive_equals_direct(self, bat):
        """quality 0→0.3 plus 0.3→0.7 equals a direct 0→0.7 read."""
        a, _ = query_file(bat, quality=0.3)
        b, _ = query_file(bat, quality=0.7, prev_quality=0.3)
        direct, _ = query_file(bat, quality=0.7)
        combined = np.concatenate([a.positions, b.positions])
        assert len(combined) == len(direct)
        np.testing.assert_allclose(
            np.sort(np.lexsort(combined.T)), np.sort(np.lexsort(direct.positions.T))
        )

    def test_progressive_with_filters(self, bat, data):
        _, attrs = data
        f = AttributeFilter("density", 0.5, 1.0)
        prev, total = 0.0, 0
        for q in (0.25, 0.5, 0.75, 1.0):
            res, _ = query_file(bat, quality=q, prev_quality=prev, filters=[f])
            assert (res.attributes["density"] >= 0.5).all()
            total += len(res)
            prev = q
        assert total == (attrs["density"] >= 0.5).sum()

    def test_coarse_read_is_small_and_spread(self, bat):
        res, _ = query_file(bat, quality=0.05)
        assert 0 < len(res) < N // 10
        ext = res.positions.max(axis=0) - res.positions.min(axis=0)
        assert (ext > 0.5).all()  # coarse LOD covers the domain


class TestAttributeSubsetReads:
    def test_subset_returned(self, bat):
        res, _ = query_file(bat, attributes=["density"])
        assert set(res.attributes) == {"density"}
        assert len(res) == N

    def test_empty_subset(self, bat):
        res, _ = query_file(bat, attributes=[])
        assert res.attributes == {}
        assert len(res) == N

    def test_unknown_attribute_rejected(self, bat):
        with pytest.raises(KeyError):
            query_file(bat, attributes=["nope"])

    def test_filter_attr_not_returned_unless_requested(self, bat, data):
        _, attrs = data
        res, _ = query_file(
            bat,
            filters=[AttributeFilter("vel", 0.0, 100.0)],
            attributes=["density"],
        )
        assert set(res.attributes) == {"density"}
        assert len(res) == (attrs["vel"] >= 0.0).sum()

    def test_subset_with_box_and_quality(self, bat, data):
        pos, _ = data
        box = Box((0.1, 0.1, 0.1), (0.9, 0.9, 0.9))
        res, _ = query_file(bat, quality=0.5, box=box, attributes=["vel"])
        assert set(res.attributes) == {"vel"}
        assert box.contains_points(res.positions).all()

    def test_empty_result_keeps_subset_specs(self, bat):
        res, _ = query_file(
            bat, box=Box((99, 99, 99), (100, 100, 100)), attributes=["vel"]
        )
        assert len(res) == 0
        assert set(res.attributes) == {"vel"}

    def test_dataset_level_subset(self, tmp_path):
        from repro.core import TwoPhaseWriter
        from repro.core.dataset import BATDataset
        from repro.machines import testing_machine
        from tests.test_pipeline import make_rank_data

        rd = make_rank_data(nranks=4, seed=101)
        rep = TwoPhaseWriter(testing_machine(), target_size=256 * 1024).write(
            rd, out_dir=tmp_path, name="sub"
        )
        with BATDataset(rep.metadata_path) as ds:
            res, _ = ds.query(QueryRequest(columns=("mass", "positions")))
            assert set(res.attributes) == {"mass"}
            assert len(res) == rd.total_particles
