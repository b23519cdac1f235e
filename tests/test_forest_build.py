"""The level-synchronous forest build equals the recursive reference.

``tests/reference_treelet.py`` is the node-at-a-time recursive builder the
forest build replaced. Files must not depend on how nodes are batched, so
every node record and every particle slot has to match it exactly. The
comparison runs both builders in this process — literal file hashes would
pin ``np.argpartition``'s choice among equal-rank permutations, which
belongs to the numpy build and the CPU, not to this repository.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat import BATBuildConfig, build_bat
from repro.bat.build import shallow_tree_leaves
from repro.bat.treelet import build_forest, build_treelet
from repro.morton import encode_positions
from repro.types import ParticleBatch
from tests.reference_treelet import build_treelet_recursive

NODE_FIELDS = ("axis", "split", "left", "right", "begin", "count", "subtree_end", "depth")


def cloud(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3)).astype(np.float32)
    if kind == "duplicated":  # few distinct points: medians tie constantly
        pts = pts[rng.integers(0, max(n // 20, 1), n)]
    elif kind == "flat":  # one axis has zero extent
        pts[:, seed % 3] = 0.5
    elif kind == "collinear":  # three equal extents: argmax must keep the first
        pts[:, 1] = pts[:, 2] = pts[:, 0]
    elif kind == "constant":
        pts[:] = 0.25
    return pts


def assert_forest_equals_reference(positions, starts, lod, max_leaf):
    forest, node_starts = build_forest(positions, starts, lod, max_leaf)
    refs = [
        build_treelet_recursive(positions[a:b], lod, max_leaf)
        for a, b in zip(starts[:-1], starts[1:])
    ]
    for name in NODE_FIELDS:
        want = np.concatenate([getattr(r, name) for r in refs])
        got = getattr(forest, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    # reference orders are local to their treelet; the forest's index the input
    want = np.concatenate([r.order + a for r, a in zip(refs, starts)])
    assert forest.order.dtype == want.dtype
    np.testing.assert_array_equal(forest.order, want)
    np.testing.assert_array_equal(
        node_starts, np.concatenate([[0], np.cumsum([r.n_nodes for r in refs])])
    )


class TestForestEqualsRecursiveReference:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["random", "duplicated", "flat", "collinear", "constant"]),
        n=st.one_of(st.integers(1, 40), st.integers(1, 6000)),
        n_treelets=st.integers(1, 9),
        lod=st.sampled_from([1, 4, 8, 64]),
        max_leaf=st.sampled_from([1, 16, 128]),
        seed=st.integers(0, 2**16),
    )
    def test_property(self, kind, n, n_treelets, lod, max_leaf, seed):
        positions = cloud(kind, n, seed)
        rng = np.random.default_rng(seed)
        cuts = rng.choice(np.arange(1, n), min(n_treelets, n) - 1, replace=False)
        starts = np.concatenate([[0], np.sort(cuts), [n]]).astype(np.int64)
        assert_forest_equals_reference(positions, starts, lod, max_leaf)

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 137])
    def test_small_inputs(self, n):
        positions = cloud("random", n, n)
        assert_forest_equals_reference(positions, np.array([0, n]), 1, 1)
        assert_forest_equals_reference(positions, np.array([0, n]), 4, 2)

    def test_one_point_treelets_between_large_ones(self):
        positions = cloud("random", 3002, 1)
        starts = np.array([0, 1, 1500, 1501, 3001, 3002])
        assert_forest_equals_reference(positions, starts, 8, 128)
        assert_forest_equals_reference(positions, starts, 1, 1)

    def test_treelets_of_very_different_depth(self):
        positions = cloud("duplicated", 5100, 2)
        assert_forest_equals_reference(positions, np.array([0, 5000, 5030, 5100]), 4, 16)

    def test_build_treelet_is_a_forest_of_one(self):
        positions = cloud("random", 2500, 3)
        one, ref = build_treelet(positions, 8, 64), build_treelet_recursive(positions, 8, 64)
        for name in NODE_FIELDS + ("order",):
            np.testing.assert_array_equal(getattr(one, name), getattr(ref, name), err_msg=name)
        one.validate()

    def test_bad_treelet_starts(self):
        positions = cloud("random", 10, 0)
        with pytest.raises(ValueError, match="zero particles"):
            build_forest(positions, np.array([0, 4, 4, 10]))
        for starts in ([0, 4], [1, 10], [0]):
            with pytest.raises(ValueError, match="treelet_starts"):
                build_forest(positions, np.array(starts))


class TestBuiltFilesHoldTheReferenceTreelets:
    """Through ``build_bat``: every treelet of a v2, v3 and v4 image of one
    batch is the reference treelet of that shallow leaf, record for record
    and particle for particle."""

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(7)
        n = 30_000
        # two clusters and a sparse background: shallow leaves of very
        # different sizes, so treelets of very different depths
        pos = np.concatenate(
            [
                rng.normal(0.3, 0.02, (n // 2, 3)),
                rng.normal(0.7, 0.1, (n // 3, 3)),
                rng.random((n - n // 2 - n // 3, 3)),
            ]
        ).astype(np.float32)
        return ParticleBatch(pos, {"rho": rng.random(n), "id": np.arange(n, dtype=np.float64)})

    @pytest.mark.parametrize(
        "config",
        [
            BATBuildConfig(checksums=False, subprefix_bits=6, lod_per_node=4, max_leaf_points=32),
            BATBuildConfig(subprefix_bits=6),
            BATBuildConfig(codecs="auto", subprefix_bits=6, lod_per_node=4, max_leaf_points=32),
        ],
        ids=["v2", "v3", "v4-auto"],
    )
    def test_every_treelet_view(self, batch, config):
        codes = encode_positions(batch.positions, batch.bounds)
        sort_order = np.argsort(codes, kind="stable")
        subprefix_bits = config.resolve_subprefix_bits(len(batch))
        _, starts = shallow_tree_leaves(codes[sort_order], subprefix_bits)
        with build_bat(batch, config).open() as bat:
            assert bat.n_treelets == len(starts) - 1 > 8
            for leaf in range(bat.n_treelets):
                rows = sort_order[starts[leaf] : starts[leaf + 1]]
                ref = build_treelet_recursive(
                    batch.positions[rows], config.lod_per_node, config.max_leaf_points
                )
                view = bat.treelet(leaf)
                for name in NODE_FIELDS:
                    np.testing.assert_array_equal(
                        view.nodes[name], getattr(ref, name), err_msg=f"leaf {leaf} {name}"
                    )
                np.testing.assert_array_equal(view.positions, batch.positions[rows[ref.order]])
                np.testing.assert_array_equal(
                    view.attributes["id"], batch.attributes["id"][rows[ref.order]]
                )
                assert view.max_depth == ref.max_depth
