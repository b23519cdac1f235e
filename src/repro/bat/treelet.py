"""Median-split treelets with LOD sampling (paper §III-C2).

A treelet is built over the particles of one shallow-tree leaf. Every inner
node sets aside a fixed number of *LOD particles*, chosen by stratified
sampling from its (Morton-sorted, hence spatially stratified) input, and
passes the rest to its children — no particle is duplicated and none is
invented, so the layout costs no extra memory for multiresolution.

Particles are emitted in *node order*: depth-first pre-order, each node's
own particles (LOD set for inner nodes, everything for leaves) first, then
the left subtree, then the right. Two consequences the file format relies
on:

- a node's own particles are the contiguous slice ``[begin, begin+count)``;
- a node's entire *subtree* is the contiguous slice ``[begin, subtree_end)``,
  so coarse-to-fine reads are sequential I/O.

The build unit is the *forest* — every treelet of one file — not the
treelet: :func:`build_forest` advances all of them one depth per iteration
over flat per-level arrays (leaf test, LOD mask, extents, split axis and
child segments are each one numpy call for the whole depth), then numbers
the nodes with one bottom-up subtree-size pass and one top-down pass. The
treelets stay independent, as in the paper; batching them only removes the
interpreter work a node-at-a-time recursion spends per node. The median
partition itself is still one ``argpartition`` call per node, on exactly
the array a recursive build would pass, because which permutation it
returns is a property of that call — so the batched build writes the same
bytes (``tests/reference_treelet.py`` is the recursive build, kept as the
executable spec).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ..bitmaps import bitmaps_by_group
from .format import node_fault

__all__ = [
    "Treelet",
    "build_forest",
    "build_treelet",
    "treelet_node_bitmaps",
    "propagate_bitmaps_bottom_up",
]


@dataclass
class Treelet:
    """Array-of-struct treelet produced by :func:`build_treelet`.

    All arrays have one entry per node. ``axis == -1`` marks a leaf.
    ``order`` maps node-order slots back to the caller's particle indices:
    particle ``order[k]`` occupies slot ``k``.

    :func:`build_forest` returns the same record for a whole file: every
    treelet's nodes (and slots) back to back, ids still treelet-local.
    """

    axis: np.ndarray  # int8, -1 for leaves
    split: np.ndarray  # float32, split plane position (inner only)
    left: np.ndarray  # int32 node index, -1 for leaves
    right: np.ndarray  # int32 node index, -1 for leaves
    begin: np.ndarray  # uint32, first own-particle slot
    count: np.ndarray  # uint32, number of own particles
    subtree_end: np.ndarray  # uint32, end slot of the whole subtree
    depth: np.ndarray  # uint16
    order: np.ndarray  # int64 permutation of the input particle indices

    @property
    def n_nodes(self) -> int:
        return len(self.axis)

    @property
    def n_points(self) -> int:
        return len(self.order)

    @property
    def max_depth(self) -> int:
        return int(self.depth.max()) if self.n_nodes else 0

    def is_leaf(self, node: int) -> bool:
        return self.axis[node] < 0

    def validate(self) -> None:
        """Raise on the first broken structural invariant (vectorized)."""
        fault = node_fault(
            self.axis, self.left, self.right, self.begin, self.count,
            self.subtree_end, self.n_points,
        )
        if fault is not None:
            raise ValueError(fault)
        if (
            self.order.min(initial=0) < 0
            or self.order.max(initial=-1) >= self.n_points
            or len(np.unique(self.order)) != self.n_points
        ):
            raise ValueError("order is not a permutation")


#: one depth of a forest under construction, every treelet's nodes at that
#: depth side by side: treelet id, subtree points, inner?, own particles
#: (node after node), and per inner node its split axis and position
_Level = namedtuple("_Level", "tid m inner own axis split")


def build_forest(
    sorted_positions: np.ndarray,
    treelet_starts: np.ndarray,
    lod_per_node: int = 8,
    max_leaf_points: int = 128,
) -> tuple[Treelet, np.ndarray]:
    """Build every treelet of a file, one pass per depth over all of them.

    Treelet ``t`` covers rows ``[treelet_starts[t], treelet_starts[t + 1])``
    of the Morton-sorted ``(n, 3)`` positions. Returns ``(forest,
    node_starts)``: the treelets' node arrays back to back (treelet ``t``
    owns nodes ``[node_starts[t], node_starts[t + 1])``), node ids and slots
    still local to their treelet — what the file stores — and ``order``
    indexing ``sorted_positions``, treelets back to back as well.

    A node with at most ``max_leaf_points`` particles (or too few to both
    sample LOD and split) becomes a leaf.
    """
    positions = np.asarray(sorted_positions, dtype=np.float32).reshape(-1, 3)
    starts = np.asarray(treelet_starts, dtype=np.int64)
    if lod_per_node < 1:
        raise ValueError("lod_per_node must be >= 1")
    if max_leaf_points < 1:
        raise ValueError("max_leaf_points must be >= 1")
    if len(starts) < 2 or starts[0] != 0 or starts[-1] != len(positions):
        raise ValueError("treelet_starts must run from 0 to the number of positions")
    if (np.diff(starts) < 1).any():
        raise ValueError("cannot build a treelet over zero particles")
    n, k = len(positions), lod_per_node
    strata = np.arange(k, dtype=np.int64)
    # one contiguous row per coordinate: gathers and segment reductions
    # along a row vectorize, along the rows of an (n, 3) array they do not
    coord_rows = np.ascontiguousarray(positions.T)
    coord_flat = coord_rows.ravel()

    # Sweep down, one iteration per depth. `idx` holds the particles of
    # this depth's nodes, node after node (`seg` bounds them), each node's
    # in the order its parent's partition left them.
    idx = np.arange(n, dtype=np.int64)
    seg, tid = starts, np.arange(len(starts) - 1)
    levels: list[_Level] = []
    while True:
        m = np.diff(seg)
        # Leaf when small enough, or when splitting would leave a child
        # empty after the LOD sample is set aside.
        inner = (m > max_leaf_points) & (m - k >= 2)
        if not inner.any():
            levels.append(_Level(tid, m, inner, idx, None, None))
            break
        # A leaf keeps all its particles; an inner node keeps a stratified
        # LOD sample of its (sorted) input, the midpoints of k strata, and
        # splits the rest at the median of their widest axis.
        m_in = m[inner, None]
        own = np.repeat(~inner, m)
        own[((strata * m_in + m_in // 2) // k + seg[:-1][inner, None]).ravel()] = True
        rest = idx[~own]
        r = m_in[:, 0] - k
        lo, mid = np.cumsum(r) - r, r // 2
        pts = coord_rows.take(rest, axis=1)
        extents = np.maximum.reduceat(pts, lo, axis=1) - np.minimum.reduceat(pts, lo, axis=1)
        axis = extents.argmax(axis=0)
        coords = coord_flat[np.repeat(axis * n, r) + rest]
        # The one per-node call. Which of the permutations with the right
        # median argpartition returns depends on the exact array it is
        # handed, so each node hands it what a node-at-a-time build would:
        # its own coordinates, in their current order. That keeps particle
        # slots, and so file bytes, independent of how nodes are batched.
        part = np.repeat(lo, r) + np.concatenate(
            [
                coords[a:b].argpartition(h)
                for a, b, h in zip(lo.tolist(), (lo + r).tolist(), mid.tolist())
            ]
        )
        levels.append(_Level(tid, m, inner, idx[own], axis, coords[part[lo + mid]]))
        idx, tid = rest[part], np.repeat(tid[inner], 2)
        seg = np.append(np.column_stack([lo, lo + mid]).ravel(), len(idx))

    # Bottom-up: nodes per subtree. A depth's inner nodes own the next
    # depth's nodes pairwise, in order.
    sizes = [np.ones(len(level.tid), dtype=np.int64) for level in levels]
    for d in range(len(levels) - 2, -1, -1):
        sizes[d][levels[d].inner] += sizes[d + 1][0::2] + sizes[d + 1][1::2]
    node_starts = np.concatenate([[0], np.cumsum(sizes[0])])

    # Top-down: pre-order ids and node-order slots, both local to the
    # treelet. The left child follows its parent (and the parent's own
    # particles), the right child follows the left subtree, which holds
    # the lower half of what the parent passed down.
    total = int(node_starts[-1])
    forest = Treelet(
        axis=np.full(total, -1, dtype=np.int8),
        split=np.zeros(total, dtype=np.float32),
        left=np.full(total, -1, dtype=np.int32),
        right=np.full(total, -1, dtype=np.int32),
        begin=np.empty(total, dtype=np.uint32),
        count=np.empty(total, dtype=np.uint32),
        subtree_end=np.empty(total, dtype=np.uint32),
        depth=np.empty(total, dtype=np.uint16),
        order=np.empty(n, dtype=np.int64),
    )
    nid = begin = np.zeros(len(starts) - 1, dtype=np.int64)
    for d, (tid, m, inner, own, axis, split) in enumerate(levels):
        node = node_starts[tid] + nid
        count = np.where(inner, k, m)
        forest.begin[node], forest.count[node] = begin, count
        forest.subtree_end[node], forest.depth[node] = begin + m, d
        # `own` lists this depth's own particles node after node; each
        # node's run moves to its slots of the file, as one shift per run
        shift = starts[tid] + begin - (np.cumsum(count) - count)
        forest.order[np.repeat(shift, count) + np.arange(len(own))] = own
        if axis is not None:
            parent = node[inner]
            left = nid[inner] + 1
            right = left + sizes[d + 1][0::2]
            forest.axis[parent], forest.split[parent] = axis, split
            forest.left[parent], forest.right[parent] = left, right
            left_begin = (begin + k)[inner]
            nid = np.column_stack([left, right]).ravel()
            begin = np.column_stack([left_begin, left_begin + (m[inner] - k) // 2]).ravel()
    return forest, node_starts


def build_treelet(
    positions: np.ndarray, lod_per_node: int = 8, max_leaf_points: int = 128
) -> Treelet:
    """Build one median-split k-d treelet over ``(n, 3)`` positions: a
    forest of one. ``positions`` should arrive Morton-sorted (as they do
    from the shallow build) so the stratified LOD sample is spatially
    representative.
    """
    positions = np.asarray(positions, dtype=np.float32).reshape(-1, 3)
    return build_forest(positions, [0, len(positions)], lod_per_node, max_leaf_points)[0]


def propagate_bitmaps_bottom_up(
    axis: np.ndarray,
    depth: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    bitmaps: np.ndarray,
) -> np.ndarray:
    """OR children's bitmaps into their parents, in place, level by level.

    Replaces the per-node Python reverse sweep with one vectorized gather
    per tree level: children sit exactly one level below their parent, so
    processing inner nodes deepest-first means every child is final when
    its parent reads it. Each inner node appears once per level, so plain
    fancy indexing suffices (no unbuffered ``ufunc.at``).

    Works unchanged on a single treelet or a whole *forest* of treelets
    stacked into one node array (with ``left``/``right`` rebased to global
    node ids), and on 1-D ``(n_nodes,)`` or 2-D ``(n_nodes, n_attrs)``
    bitmap arrays.
    """
    axis = np.asarray(axis)
    inner = np.nonzero(axis >= 0)[0]
    if len(inner) == 0:
        return bitmaps
    depth = np.asarray(depth)
    left = np.asarray(left)
    right = np.asarray(right)
    idepth = depth[inner]
    for d in np.unique(idepth)[::-1]:
        sel = inner[idepth == d]
        bitmaps[sel] |= bitmaps[left[sel]] | bitmaps[right[sel]]
    return bitmaps


def treelet_node_bitmaps(
    treelet: Treelet,
    values_node_order: np.ndarray,
    lo: float | None = None,
    hi: float | None = None,
    binning=None,
) -> np.ndarray:
    """Per-node bitmaps for one attribute (§III-C2).

    ``values_node_order`` is the attribute in node order. Leaf bitmaps cover
    the leaf's particles; inner bitmaps are the OR of their children plus
    their own LOD particles — computed bottom-up with one vectorized pass
    per tree level.

    Pass either an explicit ``binning`` scheme or the equi-width ``(lo, hi)``
    range (the paper's default).
    """
    n_nodes = treelet.n_nodes
    # node-order emission makes own-slot slices contiguous, ascending, and
    # tiling, so the slot->node map is a single repeat
    owner = np.repeat(np.arange(n_nodes, dtype=np.int64), treelet.count.astype(np.int64))
    if binning is not None:
        bitmaps = binning.group_bitmaps(values_node_order, owner, n_nodes)
    else:
        if lo is None or hi is None:
            raise ValueError("provide a binning or an explicit (lo, hi) range")
        bitmaps = bitmaps_by_group(values_node_order, owner, n_nodes, lo, hi)
    return propagate_bitmaps_bottom_up(
        treelet.axis, treelet.depth, treelet.left, treelet.right, bitmaps
    )
