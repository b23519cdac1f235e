"""Tests for the binning schemes (equi-width and equi-depth)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning import (
    BINNING_EQUIDEPTH,
    BINNING_EQUIWIDTH,
    EquiDepthBinning,
    EquiWidthBinning,
    make_binning,
)
from repro.bitmaps import (
    BITMAP_BITS,
    FULL_BITMAP,
    bitmap_of_values,
    query_bitmap,
    remap_bitmaps,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestEquiWidth:
    def test_matches_free_functions(self):
        rng = np.random.default_rng(0)
        vals = rng.random(500) * 10
        b = EquiWidthBinning(0.0, 10.0)
        assert b.bitmap(vals) == bitmap_of_values(vals, 0.0, 10.0)
        assert b.query(2.0, 3.0) == query_bitmap(2.0, 3.0, 0.0, 10.0)

    def test_edges_linear(self):
        e = EquiWidthBinning(0.0, 32.0).edges()
        np.testing.assert_allclose(e, np.arange(33.0))

    def test_group_bitmaps(self):
        vals = np.array([0.1, 0.9, 0.5])
        gids = np.array([0, 0, 1])
        out = EquiWidthBinning(0.0, 1.0).group_bitmaps(vals, gids, 2)
        assert out[0] == bitmap_of_values(vals[:2], 0.0, 1.0)
        assert out[1] == bitmap_of_values(vals[2:], 0.0, 1.0)

    def test_equality(self):
        assert EquiWidthBinning(0, 1) == EquiWidthBinning(0, 1)
        assert EquiWidthBinning(0, 1) != EquiWidthBinning(0, 2)


class TestEquiDepth:
    def _skewed(self, n=20_000, seed=1):
        return np.exp(np.random.default_rng(seed).normal(0, 2, n))

    def test_fit_requires_values(self):
        with pytest.raises(ValueError):
            EquiDepthBinning.fit(np.array([]))

    def test_edge_validation(self):
        with pytest.raises(ValueError, match="33 edges"):
            EquiDepthBinning(np.arange(10.0))
        bad = np.arange(33.0)
        bad[5] = -1
        with pytest.raises(ValueError, match="non-decreasing"):
            EquiDepthBinning(bad)

    def test_bins_roughly_equal_population(self):
        vals = self._skewed()
        b = EquiDepthBinning.fit(vals)
        counts = np.bincount(b.bins(vals), minlength=BITMAP_BITS)
        # every bin holds within 3x of the ideal share
        ideal = len(vals) / BITMAP_BITS
        assert counts.min() > ideal / 3
        assert counts.max() < ideal * 3

    def test_equiwidth_wastes_bits_on_skew(self):
        """The motivation: equi-width bins collapse for log-normal data."""
        vals = self._skewed()
        ew = EquiWidthBinning(float(vals.min()), float(vals.max()))
        ew_counts = np.bincount(ew.bins(vals), minlength=BITMAP_BITS)
        ed = EquiDepthBinning.fit(vals)
        ed_counts = np.bincount(ed.bins(vals), minlength=BITMAP_BITS)
        assert (ew_counts > 0).sum() < (ed_counts > 0).sum()

    def test_no_false_negatives(self):
        """Bitmap of a value set must overlap any query containing one."""
        vals = self._skewed(2000)
        b = EquiDepthBinning.fit(vals)
        bm = b.bitmap(vals)
        for q in (0.01, 1.0, 50.0):
            nearest = vals[np.argmin(np.abs(vals - q))]
            qbm = b.query(nearest, nearest)
            assert int(bm) & int(qbm)

    def test_query_exact_semantics(self):
        vals = self._skewed(5000)
        b = EquiDepthBinning.fit(vals)
        lo, hi = np.quantile(vals, [0.4, 0.6])
        q = int(b.query(lo, hi))
        # every value in [lo, hi] must land in a set query bin
        inside = vals[(vals >= lo) & (vals <= hi)]
        bins = b.bins(inside)
        assert all((q >> b_) & 1 for b_ in np.unique(bins))

    def test_query_disjoint(self):
        b = EquiDepthBinning.fit(self._skewed(1000))
        assert b.query(b.hi + 1, b.hi + 2) == 0
        assert b.query(5, 4) == 0

    def test_query_full(self):
        b = EquiDepthBinning.fit(self._skewed(1000))
        assert b.query(b.lo - 1, b.hi + 1) == FULL_BITMAP

    def test_remap_to_equiwidth_conservative(self):
        vals = self._skewed(3000)
        b = EquiDepthBinning.fit(vals)
        bm = b.bitmap(vals)
        glo, ghi = float(vals.min()), float(vals.max()) * 2
        remapped = remap_bitmaps(bm, *b.bin_intervals(), glo, ghi)
        direct = bitmap_of_values(vals, glo, ghi)
        assert int(remapped) & int(direct) == int(direct)

    def test_group_bitmaps_match_per_group(self):
        vals = self._skewed(1000)
        b = EquiDepthBinning.fit(vals)
        gids = np.arange(1000) % 5
        grouped = b.group_bitmaps(vals, gids, 5)
        for g in range(5):
            assert grouped[g] == b.bitmap(vals[gids == g])

    @given(st.lists(finite, min_size=33, max_size=200))
    @settings(max_examples=30)
    def test_bins_always_in_range(self, vals):
        vals = np.array(vals)
        b = EquiDepthBinning.fit(vals)
        bins = b.bins(vals)
        assert (bins >= 0).all() and (bins < BITMAP_BITS).all()


class TestGroupBitmaps:
    """Both schemes fill their per-node bitmaps through the one grouped
    kernel (``bitmaps.or_bins_by_group``); each must equal its own per-group
    ``bitmap`` loop whatever the order of the group ids."""

    @staticmethod
    def _binnings(vals):
        return [
            EquiWidthBinning(float(np.nanmin(vals)), float(np.nanmax(vals))),
            EquiDepthBinning.fit(vals[~np.isnan(vals)]),
        ]

    def test_unsorted_ids_that_skip_groups(self):
        rng = np.random.default_rng(3)
        vals = np.exp(rng.normal(0, 2, 4000))
        gids = rng.choice(np.array([0, 3, 4, 17, 63, 64, 99]), 4000)
        for b in self._binnings(vals):
            grouped = b.group_bitmaps(vals, gids, 101)
            assert grouped.dtype == np.uint32 and grouped.shape == (101,)
            for g in range(101):
                assert grouped[g] == b.bitmap(vals[gids == g]), (type(b).__name__, g)

    def test_no_groups_and_no_values(self):
        for b in self._binnings(np.arange(40.0)):
            none = b.group_bitmaps(np.array([]), np.array([], dtype=np.int64), 0)
            assert none.shape == (0,) and none.dtype == np.uint32
            assert (b.group_bitmaps(np.array([]), np.array([], dtype=np.int64), 3) == 0).all()

    def test_nan_lands_where_the_scheme_bins_it(self):
        vals = np.concatenate([np.arange(100.0), [np.nan, np.nan]])
        gids = np.concatenate([np.arange(100) % 4, [1, 5]])
        with np.errstate(invalid="ignore"):
            for b in self._binnings(vals):
                grouped = b.group_bitmaps(vals, gids, 6)
                for g in range(6):
                    assert grouped[g] == b.bitmap(vals[gids == g])
                # a group holding only NaN sets exactly the NaN bin
                assert grouped[5] == np.uint32(1) << int(b.bins(np.array([np.nan]))[0])
            assert EquiWidthBinning(0.0, 99.0).bins(np.array([np.nan]))[0] == 0


class TestMakeBinning:
    def test_roundtrip_equiwidth(self):
        b = make_binning(BINNING_EQUIWIDTH, 1.0, 5.0)
        assert b == EquiWidthBinning(1.0, 5.0)

    def test_roundtrip_equidepth(self):
        src = EquiDepthBinning.fit(np.random.default_rng(0).random(100))
        b = make_binning(BINNING_EQUIDEPTH, src.lo, src.hi, src.edges())
        assert b == src

    def test_equidepth_requires_edges(self):
        with pytest.raises(ValueError, match="edge table"):
            make_binning(BINNING_EQUIDEPTH, 0.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            make_binning(99, 0.0, 1.0)
