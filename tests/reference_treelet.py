"""The recursive treelet builder: executable spec for ``bat.treelet.build_forest``.

This is the node-at-a-time build the level-synchronous forest replaced,
kept unchanged as the reference the tests compare against — the role the
recursive walk of ``reference_query.py`` plays for reads. It runs in the
same process as the code under test, so both see the same
``np.argpartition`` (whose choice among equal-rank permutations belongs to
the numpy build and the CPU).
"""

from __future__ import annotations

import numpy as np

from repro.bat.treelet import Treelet


def _stratified_sample(n: int, k: int) -> np.ndarray:
    """k stratum midpoints out of n slots (indices, ascending)."""
    return (np.arange(k, dtype=np.int64) * n + n // 2) // k


def build_treelet_recursive(
    positions: np.ndarray, lod_per_node: int = 8, max_leaf_points: int = 128
) -> Treelet:
    """Build a median-split k-d treelet over ``(n, 3)`` positions."""
    positions = np.asarray(positions, dtype=np.float32).reshape(-1, 3)
    n = len(positions)

    axis_l: list[int] = []
    split_l: list[float] = []
    left_l: list[int] = []
    right_l: list[int] = []
    begin_l: list[int] = []
    count_l: list[int] = []
    end_l: list[int] = []
    depth_l: list[int] = []
    order = np.empty(n, dtype=np.int64)

    cursor = 0

    def emit(idx: np.ndarray, depth: int) -> int:
        nonlocal cursor
        node = len(axis_l)
        m = len(idx)
        # Leaf when small enough, or when splitting would leave a child
        # empty after the LOD sample is set aside.
        if m <= max_leaf_points or m - lod_per_node < 2:
            axis_l.append(-1)
            split_l.append(0.0)
            left_l.append(-1)
            right_l.append(-1)
            begin_l.append(cursor)
            count_l.append(m)
            end_l.append(cursor + m)
            depth_l.append(depth)
            order[cursor : cursor + m] = idx
            cursor += m
            return node

        # Inner node: stratified LOD sample from the (sorted) input.
        sel = _stratified_sample(m, lod_per_node)
        mask = np.zeros(m, dtype=bool)
        mask[sel] = True
        lod_idx = idx[mask]
        rest = idx[~mask]

        pts = positions[rest]
        extents = pts.max(axis=0) - pts.min(axis=0)
        ax = int(np.argmax(extents))
        coords = pts[:, ax]
        mid = len(rest) // 2
        part = np.argpartition(coords, mid)
        split_pos = float(coords[part[mid]])
        left_idx = rest[part[:mid]]
        right_idx = rest[part[mid:]]

        axis_l.append(ax)
        split_l.append(split_pos)
        left_l.append(-1)  # patched below
        right_l.append(-1)
        begin_l.append(cursor)
        count_l.append(len(lod_idx))
        end_l.append(-1)  # patched below
        depth_l.append(depth)
        order[cursor : cursor + len(lod_idx)] = lod_idx
        cursor += len(lod_idx)

        left_id = emit(left_idx, depth + 1)
        right_id = emit(right_idx, depth + 1)
        left_l[node] = left_id
        right_l[node] = right_id
        end_l[node] = end_l[right_id]
        return node

    emit(np.arange(n, dtype=np.int64), 0)

    return Treelet(
        axis=np.array(axis_l, dtype=np.int8),
        split=np.array(split_l, dtype=np.float32),
        left=np.array(left_l, dtype=np.int32),
        right=np.array(right_l, dtype=np.int32),
        begin=np.array(begin_l, dtype=np.uint32),
        count=np.array(count_l, dtype=np.uint32),
        subtree_end=np.array(end_l, dtype=np.uint32),
        depth=np.array(depth_l, dtype=np.uint16),
        order=order,
    )
