"""Tests for streaming analysis queries (histograms, region stats)."""

import numpy as np
import pytest

from repro.analysis import RegionStats, attribute_histogram, attribute_summary, region_stats
from repro.bat import AttributeFilter, build_bat
from repro.types import Box, ParticleBatch

N = 30_000


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    rng = np.random.default_rng(33)
    pos = rng.random((N, 3)).astype(np.float32)
    attrs = {
        "temp": rng.normal(300.0, 25.0, N),
        "rho": rng.random(N),
    }
    built = build_bat(ParticleBatch(pos, attrs))
    return built.open(), pos, attrs


class TestRegionStatsAccumulator:
    def test_single_batch_matches_numpy(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(5, 2, 1000)
        s = RegionStats()
        s.update(vals)
        assert s.count == 1000
        assert s.mean == pytest.approx(vals.mean())
        assert s.std == pytest.approx(vals.std(), rel=1e-6)
        assert s.min == vals.min() and s.max == vals.max()

    def test_chunked_equals_whole(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(0, 3, 5000)
        whole = RegionStats()
        whole.update(vals)
        chunked = RegionStats()
        for part in np.array_split(vals, 13):
            chunked.update(part)
        assert chunked.count == whole.count
        assert chunked.mean == pytest.approx(whole.mean)
        assert chunked.std == pytest.approx(whole.std, rel=1e-9)

    def test_empty_update_noop(self):
        s = RegionStats()
        s.update(np.array([]))
        assert s.count == 0
        assert s.variance == 0.0


class TestAttributeHistogram:
    def test_full_histogram_matches_numpy(self, source):
        f, _, attrs = source
        counts, edges = attribute_histogram(f, "temp", bins=50)
        ref, ref_edges = np.histogram(attrs["temp"], bins=edges)
        np.testing.assert_array_equal(counts, ref)
        assert counts.sum() <= N  # numpy drops out-of-range values identically

    def test_boxed_histogram(self, source):
        f, pos, attrs = source
        box = Box((0.0, 0.0, 0.0), (0.5, 1.0, 1.0))
        counts, edges = attribute_histogram(f, "rho", bins=10, box=box)
        mask = box.contains_points(pos)
        ref, _ = np.histogram(attrs["rho"][mask], bins=edges)
        np.testing.assert_array_equal(counts, ref)

    def test_filtered_histogram(self, source):
        f, _, attrs = source
        filt = AttributeFilter("temp", 300.0, 1e9)
        counts, edges = attribute_histogram(f, "rho", bins=8, filters=[filt])
        ref, _ = np.histogram(attrs["rho"][attrs["temp"] >= 300.0], bins=edges)
        np.testing.assert_array_equal(counts, ref)

    def test_explicit_range(self, source):
        f, _, _ = source
        counts, edges = attribute_histogram(f, "rho", bins=4, value_range=(0.0, 1.0))
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert counts.sum() == N

    def test_lod_histogram_approximates(self, source):
        f, _, attrs = source
        full, edges = attribute_histogram(f, "temp", bins=16)
        coarse, _ = attribute_histogram(f, "temp", bins=16, value_range=(edges[0], edges[-1]), quality=0.3)
        # the LOD histogram has the same shape: normalized L1 distance small
        pf = full / full.sum()
        pc = coarse / max(coarse.sum(), 1)
        assert np.abs(pf - pc).sum() < 0.15

    def test_validation(self, source):
        f, _, _ = source
        with pytest.raises(ValueError):
            attribute_histogram(f, "temp", bins=0)
        with pytest.raises(KeyError):
            attribute_histogram(f, "nope")


class TestRegionStatsQuery:
    def test_matches_direct_computation(self, source):
        f, pos, attrs = source
        box = Box((0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
        stats = region_stats(f, ["temp", "rho"], box=box)
        mask = box.contains_points(pos)
        for name in ("temp", "rho"):
            ref = attrs[name][mask]
            assert stats[name].count == mask.sum()
            assert stats[name].mean == pytest.approx(ref.mean())
            assert stats[name].min == pytest.approx(ref.min())
            assert stats[name].max == pytest.approx(ref.max())
            assert stats[name].std == pytest.approx(ref.std(), rel=1e-6)

    def test_unknown_attr_validated_before_scan(self, source):
        f, _, _ = source
        with pytest.raises(KeyError):
            region_stats(f, ["temp", "missing"])

    def test_summary_covers_all_attrs(self, source):
        f, _, attrs = source
        summary = attribute_summary(f)
        assert set(summary) == set(attrs)
        assert all(s.count == N for s in summary.values())


class TestDatasetSource:
    def test_works_on_datasets(self, tmp_path):
        from repro.core import TwoPhaseWriter
        from repro.core.dataset import BATDataset
        from repro.machines import testing_machine
        from tests.test_pipeline import make_rank_data

        data = make_rank_data(nranks=8, seed=44)
        rep = TwoPhaseWriter(testing_machine(), target_size=128 * 1024).write(
            data, out_dir=tmp_path, name="an"
        )
        alltemp = np.concatenate([b.attributes["temp"] for b in data.batches])
        with BATDataset(rep.metadata_path) as ds:
            counts, edges = attribute_histogram(ds, "temp", bins=20)
            ref, _ = np.histogram(alltemp, bins=edges)
            np.testing.assert_array_equal(counts, ref)
            stats = region_stats(ds, ["temp"])
            assert stats["temp"].count == len(alltemp)
            assert stats["temp"].mean == pytest.approx(alltemp.mean())


class TestCubicSplineKernel:
    def test_normalized_over_support(self):
        from repro.analysis import cubic_spline_kernel

        h = 0.3
        r = np.linspace(0.0, h, 20_001)
        w = cubic_spline_kernel(r, h)
        integral = np.trapezoid(4.0 * np.pi * r**2 * w, r)
        assert integral == pytest.approx(1.0, rel=1e-4)

    def test_compact_support_and_monotone(self):
        from repro.analysis import cubic_spline_kernel

        h = 0.5
        r = np.linspace(0.0, 2 * h, 1001)
        w = cubic_spline_kernel(r, h)
        assert np.all(w[r >= h] == 0.0)
        inside = w[r < h]
        assert np.all(np.diff(inside) <= 1e-12)
        assert w[0] == pytest.approx(8.0 / (np.pi * h**3))

    def test_rejects_bad_h(self):
        from repro.analysis import cubic_spline_kernel

        for h in (0.0, -1.0):
            with pytest.raises(ValueError):
                cubic_spline_kernel(np.array([0.1]), h)


class TestSegmentSums:
    def test_matches_loop_with_empty_segments(self):
        from repro.analysis import _segment_sums

        rng = np.random.default_rng(7)
        values = rng.normal(size=30)
        offsets = np.array([0, 0, 4, 4, 4, 11, 30])
        got = _segment_sums(values, offsets)
        ref = np.array([
            values[a:b].sum() for a, b in zip(offsets[:-1], offsets[1:])
        ])
        np.testing.assert_allclose(got, ref)
        assert got[0] == 0.0 and got[2] == 0.0


class TestNeighborAnalyses:
    @pytest.fixture(scope="class")
    def clustered(self, tmp_path_factory):
        from repro.core import RankData, TwoPhaseWriter
        from repro.core.dataset import BATDataset
        from repro.machines import testing_machine
        from repro.workloads import grid_decompose

        rng = np.random.default_rng(13)
        centers = rng.uniform(0.2, 0.8, size=(6, 3))
        pos = np.concatenate([
            rng.normal(c, 0.03, size=(300, 3)) for c in centers
        ]).clip(0.0, 1.0).astype(np.float32)
        rho = rng.random(len(pos))
        bounds = grid_decompose(Box((0, 0, 0), (1, 1, 1)), 4, ndims=3)
        batches = []
        for lo, hi in bounds:
            inside = np.all((pos >= lo) & (pos < hi), axis=1)
            batches.append(ParticleBatch(pos[inside], {"rho": rho[inside]}))
        data = RankData(
            bounds=bounds,
            counts=np.array([len(b) for b in batches]),
            batches=batches,
        )
        out = tmp_path_factory.mktemp("fof")
        rep = TwoPhaseWriter(testing_machine(), target_size=16 * 1024).write(
            data, out_dir=out, name="cl"
        )
        ds = BATDataset(rep.metadata_path)
        yield ds
        ds.close()

    def test_sph_smooth_engines_agree(self, clustered):
        from repro import NeighborRequest
        from repro.analysis import sph_smooth
        from tests.test_neighbors import assert_matches_brute

        a = sph_smooth(clustered, "rho", h=0.06)
        req = NeighborRequest(
            center_box=clustered.metadata.bounds, radius=0.06, columns=("rho",)
        )
        assert_matches_brute(clustered, a.result, req)
        # every stored center is its own neighbor: no empty lists, and
        # the smoothed field is a convex combination of rho values
        assert a.counts.min() >= 1
        finite = np.isfinite(a.values)
        assert finite.all()
        assert a.values.min() >= 0.0 and a.values.max() <= 1.0

    def test_sph_constant_field_is_reproduced(self, clustered):
        from repro.analysis import sph_smooth

        # Shepard normalization makes a constant field exactly constant
        field = sph_smooth(clustered, "rho", h=0.05)
        w_sum_one = sph_smooth(clustered, "rho", h=0.05)
        np.testing.assert_array_equal(field.values, w_sum_one.values)

    def test_fof_engines_agree_and_labels_partition(self, clustered):
        from repro import NeighborRequest
        from repro.analysis import fof_groups
        from tests.test_neighbors import assert_matches_brute

        a = fof_groups(clustered, 0.02)
        # labels are a function of the centers' keys and the lists
        req = NeighborRequest(
            center_box=clustered.metadata.bounds, radius=0.02, columns=()
        )
        assert_matches_brute(clustered, a.result, req)
        # labels are a compact partition: 0..n_groups-1, sizes sum to N
        assert a.labels.min() == 0 and a.labels.max() == a.n_groups - 1
        assert a.sizes.sum() == len(a.centers)
        got = a.members(0)
        assert np.all(a.labels[got] == 0)

    def test_fof_linking_length_monotone(self, clustered):
        from repro.analysis import fof_groups

        tight = fof_groups(clustered, 0.01)
        loose = fof_groups(clustered, 0.08)
        assert loose.n_groups <= tight.n_groups
