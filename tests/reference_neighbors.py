"""The per-center neighbor selections, kept as the reference.

These are the selections :mod:`repro.bat.neighbors` ran before it went
array-wide: :func:`select_radius` and :func:`select_knn` loop over the
centers one at a time (``select_radius`` with its dict-keyed grid past
``_GRID_THRESHOLD`` pairs), and :func:`knn_neighbors` is the best-first
k-NN walk — one heap per center and file over shallow and treelet nodes,
with one running :class:`_BestK` set per center. Nothing in ``src/``
calls them. The tests pin the batched selections and the batched k-NN
engine to them byte for byte, which the tree ≡ brute tests alone cannot
do: both engines share the batched selection kernel.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.bat.neighbors import (
    PRUNE_SLACK,
    NeighborStats,
    _empty_selection,
    dist2,
)

__all__ = ["select_radius", "select_knn", "knn_neighbors"]


def _filter_mask(tv, slots, filters) -> np.ndarray | None:
    """Exact value mask over ``slots`` for the request's filters."""
    mask = None
    for f in filters:
        vals = tv.attributes[f.name][slots]
        fm = (vals >= f.lo) & (vals <= f.hi)
        mask = fm if mask is None else mask & fm
    return mask


def _boxes_point_d2(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Min squared distance from ``(n, 3)`` boxes to one point."""
    g = np.maximum(lo - c, 0.0) + np.maximum(c - hi, 0.0)
    return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2]


def _point_box_d2(lo, hi, c) -> float:
    """Scalar min squared distance from one box to one point."""
    d2 = 0.0
    for i in range(3):
        g = float(lo[i]) - float(c[i])
        if g < 0.0:
            g = float(c[i]) - float(hi[i])
        if g < 0.0:
            g = 0.0
        d2 += g * g
    return d2


#: pair-count product past which select_radius hashes candidates into a
#: uniform grid instead of testing every (center, candidate) pair
_GRID_THRESHOLD = 1 << 22


def _radius_grid(cand_pos: np.ndarray, cell: float):
    """Hash candidates into a uniform grid: ``{cell_coords: index array}``.

    ``cell`` is slightly larger than the query radius, so every true
    neighbor of a center lies in the 27 cells around the center's own —
    the per-center candidate subset is an exact superset, and the
    selection the caller computes over it is unchanged (same ``dist2``
    values, same tie-break order).
    """
    cells = np.floor(cand_pos / cell).astype(np.int64)
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sc = cells[order]
    change = np.flatnonzero(np.any(sc[1:] != sc[:-1], axis=1)) + 1
    starts = np.concatenate([[0], change, [len(sc)]])
    return {
        tuple(sc[a]): order[a:b]
        for a, b in zip(starts[:-1], starts[1:])
    }


def select_radius(centers, cand_pos, cand_keys, radius, stats: NeighborStats):
    """Per-center CSR selection of candidates within ``radius``.

    Returns ``(offsets, keys, d2)`` with each center's rows ordered by
    ``(d2, leaf, treelet, slot)`` — the deterministic tie-break. The
    keep test ``d2 <= radius**2`` is exact (no slack): both engines run
    this same selection, so rounding at the boundary is common to both.
    """
    r2 = np.float64(radius) * np.float64(radius)
    offsets = np.zeros(len(centers) + 1, dtype=np.int64)
    key_parts: list[np.ndarray] = []
    d2_parts: list[np.ndarray] = []
    grid = cell = None
    if len(cand_pos) and len(centers) * len(cand_pos) > _GRID_THRESHOLD:
        # margin over the radius so float rounding in the cell division
        # can never push a boundary neighbor out of the 27-cell stencil
        cell = float(radius) * (1.0 + 1e-6)
        grid = _radius_grid(cand_pos, cell)
    for i, c in enumerate(centers):
        n = 0
        if len(cand_pos):
            if grid is None:
                idx = None
                pos, keys = cand_pos, cand_keys
            else:
                cx, cy, cz = np.floor(
                    np.asarray(c, dtype=np.float64) / cell
                ).astype(np.int64)
                parts = []
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            hit = grid.get((cx + dx, cy + dy, cz + dz))
                            if hit is not None:
                                parts.append(hit)
                if not parts:
                    offsets[i + 1] = offsets[i]
                    continue
                idx = np.concatenate(parts)
                pos, keys = cand_pos[idx], cand_keys[idx]
            stats.pairs_tested += len(pos)
            d2 = dist2(pos, c)
            hit = np.flatnonzero(d2 <= r2)
            if hit.size:
                hd2 = d2[hit]
                hk = keys[hit]
                order = np.lexsort((hk[:, 2], hk[:, 1], hk[:, 0], hd2))
                key_parts.append(hk[order])
                d2_parts.append(hd2[order])
                n = hit.size
        offsets[i + 1] = offsets[i] + n
    if not key_parts:
        return _empty_selection(len(centers))
    return (
        offsets,
        np.concatenate(key_parts, axis=0),
        np.concatenate(d2_parts),
    )


def select_knn(centers, cand_pos, cand_keys, k, stats: NeighborStats):
    """Per-center CSR selection of the ``k`` nearest candidates."""
    offsets = np.zeros(len(centers) + 1, dtype=np.int64)
    key_parts: list[np.ndarray] = []
    d2_parts: list[np.ndarray] = []
    for i, c in enumerate(centers):
        n = 0
        if len(cand_pos):
            stats.pairs_tested += len(cand_pos)
            d2 = dist2(cand_pos, c)
            order = np.lexsort(
                (cand_keys[:, 2], cand_keys[:, 1], cand_keys[:, 0], d2)
            )[:k]
            key_parts.append(cand_keys[order])
            d2_parts.append(d2[order])
            n = len(order)
        offsets[i + 1] = offsets[i] + n
    if not key_parts:
        return _empty_selection(len(centers))
    return (
        offsets,
        np.concatenate(key_parts, axis=0),
        np.concatenate(d2_parts),
    )


class _BestK:
    """One center's running k-best set, ordered by (d2, key)."""

    __slots__ = ("k", "d2", "keys")

    def __init__(self, k: int):
        self.k = k
        self.d2 = np.empty(0, dtype=np.float64)
        self.keys = np.empty((0, 3), dtype=np.int64)

    def bound(self) -> float:
        """Current k-th squared distance (inf while under-filled)."""
        if len(self.d2) < self.k:
            return np.inf
        return float(self.d2[self.k - 1])

    def add(self, d2: np.ndarray, keys: np.ndarray) -> None:
        b = self.bound()
        if np.isfinite(b):
            # non-strict: an equal-distance candidate with a smaller key
            # must still be able to displace the current k-th entry
            sel = d2 <= b
            d2, keys = d2[sel], keys[sel]
        if not len(d2):
            return
        d2 = np.concatenate([self.d2, d2])
        keys = np.concatenate([self.keys, keys], axis=0)
        order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0], d2))[: self.k]
        self.d2 = d2[order]
        self.keys = keys[order]


def _knn_file(bat, leaf_index, centers, need, best, filters, stats):
    """Best-first descent of one file for each center in ``need``."""
    vrank = bat.shallow_leaf_visit_rank()
    table = bat.shallow_table()
    s_lo, s_hi = table["lo"], table["hi"]
    s_leaf = table["leaf"].tolist()
    s_kids = np.stack([table["left"], table["right"]], axis=1).tolist()
    tvs: dict[int, object] = {}
    pos64: dict[int, np.ndarray] = {}
    fmask: dict[int, np.ndarray | None] = {}

    def treelet(leaf: int):
        tv = tvs.get(leaf)
        if tv is None:
            tv = tvs[leaf] = bat.treelet(leaf)
            stats.treelets_visited += 1
        return tv

    for ci in need:
        c = centers[ci]
        b = best[ci]
        seq = itertools.count()
        # shallow entries carry a shallow-table row, treelet entries a node
        heap: list[tuple] = [(_point_box_d2(s_lo[0], s_hi[0], c), next(seq), "s", 0)]
        while heap:
            entry = heapq.heappop(heap)
            if entry[0] > b.bound() * (1.0 + PRUNE_SLACK):
                break  # min-heap: every remaining node is at least this far
            stats.nodes_visited += 1
            kind = entry[2]
            if kind == "s":
                row = entry[3]
                leaf = s_leaf[row]
                if leaf >= 0:
                    treelet(leaf)
                    heapq.heappush(
                        heap, (entry[0], next(seq), "t", leaf, 0, s_lo[row], s_hi[row])
                    )
                else:
                    for child in s_kids[row]:
                        heapq.heappush(
                            heap,
                            (
                                _point_box_d2(s_lo[child], s_hi[child], c),
                                next(seq), "s", child,
                            ),
                        )
                continue
            leaf, node_id, lo, hi = entry[3], entry[4], entry[5], entry[6]
            tv = treelet(leaf)
            rec = tv.nodes[node_id]
            begin = int(rec["begin"])
            count = int(rec["count"])
            if count:
                p = pos64.get(leaf)
                if p is None:
                    p = pos64[leaf] = tv.positions.astype(np.float64)
                    if filters:
                        fmask[leaf] = _filter_mask(
                            tv, np.arange(len(p), dtype=np.int64), filters
                        )
                    else:
                        fmask[leaf] = None
                stats.points_tested += count
                stats.pairs_tested += count
                seg = p[begin:begin + count]
                d2 = dist2(seg, c)
                slots = np.arange(begin, begin + count, dtype=np.int64)
                fm = fmask[leaf]
                if fm is not None:
                    sel = fm[begin:begin + count]
                    d2, slots = d2[sel], slots[sel]
                if len(d2):
                    keys = np.empty((len(slots), 3), dtype=np.int64)
                    keys[:, 0] = leaf_index
                    keys[:, 1] = vrank[leaf]
                    keys[:, 2] = slots
                    b.add(d2, keys)
            if rec["axis"] >= 0:
                ax = int(rec["axis"])
                sp = float(rec["split"])
                lhi = hi.copy()
                lhi[ax] = sp
                rlo = lo.copy()
                rlo[ax] = sp
                for cid, clo, chi in (
                    (int(rec["left"]), lo, lhi),
                    (int(rec["right"]), rlo, hi),
                ):
                    heapq.heappush(
                        heap,
                        (
                            _point_box_d2(clo, chi, c),
                            next(seq), "t", leaf, cid, clo, chi,
                        ),
                    )


def knn_neighbors(files, open_file, centers, k, filters, stats):
    """Tree engine, k-NN mode: best-first over files, then within files.

    Files are visited in ascending min-distance order; a file is opened
    only while some center's k-th bound still reaches into its bounds —
    everything else is skipped unopened (counted in ``pruned_files``).
    """
    n_centers = len(centers)
    if not files or n_centers == 0:
        stats.pruned_files += len(files)
        return _empty_selection(n_centers)
    lo = np.array([fp.bounds.lower for fp in files], dtype=np.float64)
    hi = np.array([fp.bounds.upper for fp in files], dtype=np.float64)
    # (F, C) min squared distance from each file's bounds to each center
    fd2 = np.stack([_boxes_point_d2(lo, hi, c) for c in centers], axis=1)
    order = np.argsort(fd2.min(axis=1), kind="stable")
    best = [_BestK(k) for _ in range(n_centers)]
    for fi in order:
        col = fd2[int(fi)]
        need = [
            ci for ci in range(n_centers)
            if col[ci] <= best[ci].bound() * (1.0 + PRUNE_SLACK)
        ]
        if not need:
            stats.pruned_files += 1
            continue
        fp = files[int(fi)]
        bat = open_file(fp)
        if bat is None:
            continue
        _knn_file(bat, fp.leaf_index, centers, need, best, filters, stats)
    offsets = np.zeros(n_centers + 1, dtype=np.int64)
    for i, b in enumerate(best):
        offsets[i + 1] = offsets[i] + len(b.d2)
    if offsets[-1] == 0:
        return _empty_selection(n_centers)
    return (
        offsets,
        np.concatenate([b.keys for b in best], axis=0),
        np.concatenate([b.d2 for b in best]),
    )
