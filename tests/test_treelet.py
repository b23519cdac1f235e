"""Tests for median-split treelets with LOD sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.treelet import build_treelet, treelet_node_bitmaps
from repro.bitmaps import bitmap_of_values


def make_points(n, seed=0):
    return np.random.default_rng(seed).random((n, 3)).astype(np.float32)


class TestBuildTreelet:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_treelet(np.empty((0, 3)))

    def test_bad_params(self):
        pts = make_points(10)
        with pytest.raises(ValueError):
            build_treelet(pts, lod_per_node=0)
        with pytest.raises(ValueError):
            build_treelet(pts, max_leaf_points=0)

    def test_single_point(self):
        t = build_treelet(make_points(1))
        assert t.n_nodes == 1
        assert t.is_leaf(0)
        assert t.n_points == 1

    def test_small_input_single_leaf(self):
        t = build_treelet(make_points(100), max_leaf_points=128)
        assert t.n_nodes == 1
        t.validate()

    def test_structure_valid(self):
        t = build_treelet(make_points(5000), lod_per_node=8, max_leaf_points=64)
        t.validate()
        assert t.max_depth > 2

    def test_order_is_permutation(self):
        t = build_treelet(make_points(1000), max_leaf_points=32)
        assert sorted(t.order.tolist()) == list(range(1000))

    def test_inner_nodes_store_lod_count(self):
        t = build_treelet(make_points(5000), lod_per_node=8, max_leaf_points=64)
        inner = t.axis >= 0
        assert inner.any()
        assert (t.count[inner] == 8).all()

    def test_leaf_sizes_bounded(self):
        t = build_treelet(make_points(5000), lod_per_node=8, max_leaf_points=64)
        leaves = t.axis < 0
        assert (t.count[leaves] <= 64).all()

    def test_split_separates_children(self):
        pts = make_points(4000)
        t = build_treelet(pts, lod_per_node=4, max_leaf_points=32)
        for i in range(t.n_nodes):
            if t.is_leaf(i):
                continue
            ax, split = int(t.axis[i]), float(t.split[i])
            l, r = int(t.left[i]), int(t.right[i])
            # all particles in the left subtree slice lie at or left of split
            lsl = slice(int(t.begin[l]), int(t.subtree_end[l]))
            rsl = slice(int(t.begin[r]), int(t.subtree_end[r]))
            left_pts = pts[t.order[lsl]]
            right_pts = pts[t.order[rsl]]
            assert (left_pts[:, ax] <= split + 1e-6).all()
            assert (right_pts[:, ax] >= split - 1e-6).all()

    def test_depth_increments(self):
        t = build_treelet(make_points(2000), max_leaf_points=16)
        for i in range(t.n_nodes):
            if not t.is_leaf(i):
                assert t.depth[int(t.left[i])] == t.depth[i] + 1
                assert t.depth[int(t.right[i])] == t.depth[i] + 1

    def test_lod_points_spatially_representative(self):
        """Root LOD sample bounds should cover most of the full extent."""
        rng = np.random.default_rng(5)
        pts = rng.random((10000, 3)).astype(np.float32)
        # morton-sort as the builder pipeline would
        from repro.morton import encode_positions
        from repro.types import Box

        order = np.argsort(encode_positions(pts, Box.of_points(pts)))
        t = build_treelet(pts[order], lod_per_node=64, max_leaf_points=128)
        root_lod = pts[order][t.order[: int(t.count[0])]]
        ext = root_lod.max(axis=0) - root_lod.min(axis=0)
        assert (ext > 0.5).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 800), st.integers(1, 16), st.integers(1, 100))
    def test_always_valid(self, n, lod, max_leaf):
        t = build_treelet(make_points(n, seed=n), lod_per_node=lod, max_leaf_points=max_leaf)
        t.validate()
        assert t.n_points == n


class TestTreeletBitmaps:
    def _tree_and_values(self, n=3000):
        rng = np.random.default_rng(2)
        pts = rng.random((n, 3)).astype(np.float32)
        t = build_treelet(pts, lod_per_node=8, max_leaf_points=64)
        vals = rng.random(n)
        vals_no = vals[t.order]
        return t, vals_no

    def test_root_covers_all_values(self):
        t, vals = self._tree_and_values()
        bms = treelet_node_bitmaps(t, vals, 0.0, 1.0)
        assert bms[0] == bitmap_of_values(vals, 0.0, 1.0)

    def test_inner_is_superset_of_children(self):
        t, vals = self._tree_and_values()
        bms = treelet_node_bitmaps(t, vals, 0.0, 1.0)
        for i in range(t.n_nodes):
            if not t.is_leaf(i):
                for c in (int(t.left[i]), int(t.right[i])):
                    assert int(bms[i]) & int(bms[c]) == int(bms[c])

    def test_node_bitmap_covers_subtree_values(self):
        t, vals = self._tree_and_values()
        bms = treelet_node_bitmaps(t, vals, 0.0, 1.0)
        for i in range(0, t.n_nodes, 7):
            sub = vals[int(t.begin[i]) : int(t.subtree_end[i])]
            direct = bitmap_of_values(sub, 0.0, 1.0)
            assert int(bms[i]) & int(direct) == int(direct)

    def test_constant_attribute_single_bin(self):
        t, _ = self._tree_and_values(500)
        vals = np.full(500, 3.5)
        bms = treelet_node_bitmaps(t, vals, 0.0, 10.0)
        assert all(bin(int(b)).count("1") == 1 for b in bms)
