"""Tests for 32-bit binned bitmap indexing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitmaps import (
    BITMAP_BITS,
    FULL_BITMAP,
    BitmapDictionary,
    bitmap_bins,
    bitmap_of_values,
    bitmaps_by_group,
    or_bins_by_group,
    bin_intervals,
    query_bitmap,
    remap_bitmaps,
    value_bins,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestValueBins:
    def test_endpoints(self):
        bins = value_bins(np.array([0.0, 1.0]), 0.0, 1.0)
        assert bins[0] == 0
        assert bins[1] == BITMAP_BITS - 1

    def test_out_of_range_clamps(self):
        bins = value_bins(np.array([-5.0, 5.0]), 0.0, 1.0)
        assert bins[0] == 0
        assert bins[1] == BITMAP_BITS - 1

    def test_degenerate_range(self):
        bins = value_bins(np.array([1.0, 2.0, 3.0]), 2.0, 2.0)
        assert (bins == 0).all()

    def test_uniform_coverage(self):
        vals = np.linspace(0, 1, 3200)
        bins = value_bins(vals, 0.0, 1.0)
        assert set(bins) == set(range(BITMAP_BITS))


class TestBitmapOfValues:
    def test_empty(self):
        assert bitmap_of_values(np.array([]), 0, 1) == 0

    def test_single_value(self):
        bm = bitmap_of_values(np.array([0.5]), 0.0, 1.0)
        assert bin(int(bm)).count("1") == 1
        assert bitmap_bins(bm) == [16]

    def test_full_span(self):
        vals = np.linspace(0, 1, 1000)
        assert bitmap_of_values(vals, 0.0, 1.0) == FULL_BITMAP


class TestBitmapsByGroup:
    def test_matches_per_group_computation(self):
        rng = np.random.default_rng(0)
        vals = rng.random(500)
        gids = rng.integers(0, 7, 500)
        grouped = bitmaps_by_group(vals, gids, 7, 0.0, 1.0)
        for g in range(7):
            expected = bitmap_of_values(vals[gids == g], 0.0, 1.0)
            assert grouped[g] == expected

    def test_empty_group_zero(self):
        vals = np.array([0.5])
        grouped = bitmaps_by_group(vals, np.array([2]), 4, 0.0, 1.0)
        assert grouped[0] == 0 and grouped[1] == 0 and grouped[3] == 0
        assert grouped[2] != 0

    def test_no_values(self):
        assert (bitmaps_by_group(np.array([]), np.array([], dtype=int), 3, 0, 1) == 0).all()

    def test_no_groups(self):
        out = bitmaps_by_group(np.array([]), np.array([], dtype=int), 0, 0.0, 1.0)
        assert out.shape == (0,) and out.dtype == np.uint32

    def test_kernel_takes_ids_in_any_order_and_skipping_groups(self):
        bins = np.array([31, 0, 4, 31, 4, 17])
        gids = np.array([9, 2, 9, 2, 9, 0])  # unsorted; groups 1, 3-8 and 10 stay empty
        out = or_bins_by_group(bins, gids, 11)
        assert out.dtype == np.uint32 and out.shape == (11,)
        expected = np.zeros(11, dtype=np.uint32)
        expected[[0, 2, 9]] = [1 << 17, (1 << 31) | 1, (1 << 31) | (1 << 4)]
        np.testing.assert_array_equal(out, expected)

    def test_nan_lands_in_bin_zero(self):
        with np.errstate(invalid="ignore"):
            out = bitmaps_by_group(np.array([np.nan, 0.99]), np.array([1, 0]), 2, 0.0, 1.0)
            assert out[1] == bitmap_of_values(np.array([np.nan]), 0.0, 1.0) == 1
        assert out[0] == np.uint32(1) << 31

    @given(
        st.lists(st.tuples(finite, st.integers(0, 39)), max_size=300),
        st.sampled_from([(0.0, 1.0), (-1e6, 1e6), (3.0, 3.0)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_group_loop(self, rows, value_range):
        lo, hi = value_range
        vals = np.array([v for v, _ in rows], dtype=np.float64)
        gids = np.array([g for _, g in rows], dtype=np.int64)
        grouped = bitmaps_by_group(vals, gids, 40, lo, hi)
        for g in range(40):
            assert grouped[g] == bitmap_of_values(vals[gids == g], lo, hi)


class TestQueryBitmap:
    def test_inverted_query_empty(self):
        assert query_bitmap(2.0, 1.0, 0.0, 10.0) == 0

    def test_disjoint_query_empty(self):
        assert query_bitmap(20.0, 30.0, 0.0, 10.0) == 0

    def test_full_overlap(self):
        assert query_bitmap(-1.0, 11.0, 0.0, 10.0) == FULL_BITMAP

    def test_degenerate_range_full(self):
        assert query_bitmap(0.0, 0.5, 1.0, 1.0) == FULL_BITMAP

    def test_no_false_negatives_exhaustive(self):
        """Any value inside the query must hit a set query-bitmap bit."""
        lo, hi = 0.0, 10.0
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = sorted(rng.uniform(lo - 2, hi + 2, 2))
            q = query_bitmap(a, b, lo, hi)
            vals = rng.uniform(max(a, lo), min(b, hi), 100) if a <= hi and b >= lo else []
            for v in np.atleast_1d(vals):
                vb = bitmap_of_values(np.array([v]), lo, hi)
                assert int(q) & int(vb), f"value {v} in [{a},{b}] missed"

    @given(finite, finite, finite, finite)
    # a subnormal value range: its bin scale 32 / span overflows to inf
    @example(0.0, 0.0, 0.0, 2.2250738585e-313)
    def test_query_and_value_consistency(self, a, b, v, w):
        lo, hi = sorted((v, w))
        qlo, qhi = sorted((a, b))
        q = query_bitmap(qlo, qhi, lo, hi)
        # any in-range value inside the query interval must overlap q
        mid = (max(qlo, lo) + min(qhi, hi)) / 2
        if qlo <= mid <= qhi and lo <= mid <= hi:
            vb = bitmap_of_values(np.array([mid]), lo, hi)
            assert int(q) & int(vb)

    def test_bound_equal_to_a_value_on_a_bin_edge(self):
        """Regression: the mask is derived with the arithmetic that binned
        the values. ``(v - lo) * (32 / span)`` put 263.25 in bin 7 of
        [251, 300] while ``(q - lo) * 32 / span`` started the mask of
        [263.25, 289.5] at bin 8, dropping every row equal to the bound."""
        lo, hi = 251.0, 300.0
        assert value_bins(np.array([263.25]), lo, hi)[0] == 7
        assert bitmap_bins(query_bitmap(263.25, 289.5, lo, hi))[0] == 7
        grid = np.arange(lo, hi + 0.125, 0.25)
        bins = value_bins(grid, lo, hi)
        for v, b in zip(grid, bins):
            assert int(query_bitmap(v, hi, lo, hi)) >> int(b) & 1, v
            assert int(query_bitmap(lo, v, lo, hi)) >> int(b) & 1, v

    @given(finite, finite, finite, st.booleans(), st.booleans())
    def test_no_false_negative_with_a_value_as_bound(self, a, b, v, open_lo, open_hi):
        """Any stored value inside [qlo, qhi] hits the mask — also when it
        *is* a bound, and when the other bound is infinite or out of range."""
        lo, hi = sorted((a, b))
        v = min(max(v, lo), hi)
        vb = int(bitmap_of_values(np.array([v]), lo, hi))
        qlo = -np.inf if open_lo else v
        qhi = np.inf if open_hi else v
        assert int(query_bitmap(qlo, qhi, lo, hi)) & vb
        assert int(query_bitmap(lo - 1.0, v, lo, hi)) & vb
        assert int(query_bitmap(v, hi + 1.0, lo, hi)) & vb


def remap_bitmap(bitmap, lo, hi, glo, ghi):
    """One bitmap built over equi-width ``[lo, hi]``, on ``[glo, ghi]``."""
    return remap_bitmaps(bitmap, *bin_intervals(lo, hi), glo, ghi)


class TestRemapBitmap:
    def test_zero_stays_zero(self):
        assert remap_bitmap(0, 0, 1, 0, 10) == 0

    def test_identity_remap_covers(self):
        bm = bitmap_of_values(np.array([0.3, 0.7]), 0.0, 1.0)
        remapped = remap_bitmap(bm, 0.0, 1.0, 0.0, 1.0)
        assert int(remapped) & int(bm) == int(bm)

    def test_local_to_global_no_false_negatives(self):
        """Values indexed against a local range must still match globally."""
        rng = np.random.default_rng(2)
        glo, ghi = 0.0, 100.0
        llo, lhi = 30.0, 40.0
        vals = rng.uniform(llo, lhi, 200)
        local = bitmap_of_values(vals, llo, lhi)
        remapped = remap_bitmap(local, llo, lhi, glo, ghi)
        global_direct = bitmap_of_values(vals, glo, ghi)
        assert int(remapped) & int(global_direct) == int(global_direct)

    def test_degenerate_local_range(self):
        bm = bitmap_of_values(np.array([5.0]), 5.0, 5.0)
        remapped = remap_bitmap(bm, 5.0, 5.0, 0.0, 10.0)
        direct = bitmap_of_values(np.array([5.0]), 0.0, 10.0)
        assert int(remapped) & int(direct)


class TestBitmapDictionary:
    def test_dedup(self):
        d = BitmapDictionary()
        assert d.add(0b1010) == 0
        assert d.add(0b1111) == 1
        assert d.add(0b1010) == 0
        assert len(d) == 2
        assert d[1] == 0b1111

    def test_add_many_roundtrip(self):
        d = BitmapDictionary()
        bitmaps = np.array([3, 7, 3, 9, 7], dtype=np.uint32)
        ids = d.add_many(bitmaps)
        assert ids.dtype == np.uint16
        recovered = np.array([d[i] for i in ids], dtype=np.uint32)
        np.testing.assert_array_equal(recovered, bitmaps)

    def test_array_roundtrip(self):
        d = BitmapDictionary()
        d.add(1)
        d.add(2)
        d2 = BitmapDictionary.from_array(d.as_array())
        assert len(d2) == 2
        assert d2[0] == 1 and d2[1] == 2

    def test_overflow(self):
        d = BitmapDictionary()
        d._bitmaps = list(range(BitmapDictionary.MAX_ENTRIES))
        d._ids = {v: v for v in d._bitmaps}
        with pytest.raises(OverflowError):
            d.add(BitmapDictionary.MAX_ENTRIES + 7)

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=200))
    def test_ids_recover_bitmaps(self, bms):
        d = BitmapDictionary()
        ids = [d.add(b) for b in bms]
        assert all(d[i] == b for i, b in zip(ids, bms))
        assert len(d) == len(set(bms))
