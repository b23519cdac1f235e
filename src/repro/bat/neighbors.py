"""Neighbor-list queries on BAT data: k-NN and fixed-radius.

Both query modes are answered from the treelet k-d hierarchy the files
already carry (Cavelan et al., arXiv 1910.02639): every treelet node's
bounding box bounds its own slot range, so a node whose box lies farther
from the query centers than the search radius (or the current k-th
neighbor bound) is pruned with its whole subtree, and only the surviving
nodes' particle ranges are gathered and distance-tested.

Two engines implement the same semantics:

- ``"tree"`` (default) — best-first/pruned traversal. Fixed-radius
  queries gather one candidate set per file (nodes within ``radius`` of
  the query region, measured box-to-box so the halo has round corners);
  k-NN runs a per-center best-first descent over files, shallow nodes,
  and treelet nodes, skipping every file whose bounds lie beyond the
  center's current k-th distance.
- ``"brute"`` — the exhaustive reference: opens every file, tests every
  particle. Kept byte-identical as the correctness oracle.

Determinism contract: per-center neighbor lists are ordered by
``(distance², leaf, treelet, slot)`` where ``(leaf, treelet, slot)`` is
the particle's global order-key (leaf-file index, treelet visit rank,
node-order slot — the same key scheme the streaming read path uses).
Distances are computed in one shared helper (:func:`dist2`, float64,
fixed operation order), keys are unique per particle, so the sort is a
total order and both engines — and any shard layout — produce the
same selection. The box-level pruning bounds carry a tiny
relative slack so a float rounding at the prune boundary can only admit
an extra node (harmless), never drop a true neighbor.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from ..types import ParticleBatch
from .file import BATFile
from .query import _check, _Forest, _gather, _segments, _shallow_survivors

__all__ = [
    "NeighborStats",
    "dist2",
    "radius_neighbors",
    "knn_neighbors",
    "brute_neighbors",
    "box_members",
    "materialize_rows",
]

#: relative slack on squared-distance prune bounds: float rounding at the
#: boundary may only keep an extra node, never drop a true neighbor
PRUNE_SLACK = 1e-9


@dataclass
class NeighborStats:
    """Work counters for one neighbor query; merged across files."""

    #: resolved query centers
    centers: int = 0
    treelets_visited: int = 0
    nodes_visited: int = 0
    #: candidate rows gathered out of surviving nodes
    points_tested: int = 0
    #: center × candidate distance evaluations
    pairs_tested: int = 0
    #: neighbor rows returned (sum of all per-center list lengths)
    points_returned: int = 0
    #: files skipped without opening them (planner halo prune + the k-NN
    #: engine's dynamic best-first skips)
    pruned_files: int = 0
    files_opened: int = 0
    #: files opened only for their ghost strip (they overlap the halo
    #: expansion but not the query region itself)
    ghost_files_opened: int = 0
    #: candidate particles exchanged out of ghost files — the ghost
    #: region traffic; never a full neighbor-file read
    ghost_points: int = 0
    quarantined_files: int = 0
    decoded_bytes: int = 0

    def merge(self, other: "NeighborStats") -> None:
        self.centers += other.centers
        self.treelets_visited += other.treelets_visited
        self.nodes_visited += other.nodes_visited
        self.points_tested += other.points_tested
        self.pairs_tested += other.pairs_tested
        self.points_returned += other.points_returned
        self.pruned_files += other.pruned_files
        self.files_opened += other.files_opened
        self.ghost_files_opened += other.ghost_files_opened
        self.ghost_points += other.ghost_points
        self.quarantined_files += other.quarantined_files
        self.decoded_bytes += other.decoded_bytes


# -- shared geometry kernels --------------------------------------------------


def dist2(positions: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances from ``(n, 3)`` float64 positions to one center.

    The one arithmetic path every engine shares: identical inputs give
    bit-identical outputs, which is what makes the tree engines'
    selections byte-comparable to the brute-force oracle.
    """
    d = positions - center
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def _boxes_point_d2(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Min squared distance from ``(n, 3)`` boxes to one point."""
    g = np.maximum(lo - c, 0.0) + np.maximum(c - hi, 0.0)
    return g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2]


def _boxes_box_d2(
    lo: np.ndarray, hi: np.ndarray, rlo: np.ndarray, rhi: np.ndarray
) -> np.ndarray:
    """Min squared distance from ``(n, 3)`` boxes to one region box.

    Lower-bounds the distance from any point of each box to any point of
    the region; comparing it against ``radius²`` is exactly the overlap
    test with the region's Euclidean (round-cornered) halo expansion.
    """
    g = np.maximum(rlo - hi, 0.0) + np.maximum(lo - rhi, 0.0)
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


# -- pruned candidate gathering ----------------------------------------------


def _filter_mask(tv, slots, filters) -> np.ndarray | None:
    """Exact value mask over ``slots`` for the request's filters."""
    mask = None
    for f in filters:
        vals = tv.attributes[f.name][slots]
        fm = (vals >= f.lo) & (vals <= f.hi)
        mask = fm if mask is None else mask & fm
    return mask


def _no_candidates():
    return np.empty((0, 3), dtype=np.float64), np.empty((0, 3), dtype=np.int64)


def _gather_pruned(bat: BATFile, leaf_index: int, keep_fn, filters, stats, box=None):
    """Candidate ``(positions64, keys)`` of the nodes passing ``keep_fn``.

    The read core's prune at full quality, one file at a time: one pass of
    ``keep_fn(lo, hi)`` over the shallow table, one over the surviving
    treelets' walk tables as one forest. Every surviving node contributes
    its whole own range, in pre-order and therefore ascending; the ranges
    are gathered and value-checked once per file. ``box``, when given,
    keeps only the candidates inside it.
    """
    table = bat.shallow_table()
    alive, visited = _shallow_survivors(table, keep_fn(table["lo"], table["hi"]))
    stats.nodes_visited += int(np.count_nonzero(visited))
    leaves = table["leaf"][alive & (table["leaf"] >= 0)]
    stats.treelets_visited += len(leaves)
    ids = leaves.tolist()
    tvs = [bat.treelet(leaf) for leaf in ids]
    if not tvs:
        return _no_candidates()
    forest = _Forest(bat.walk_tables(ids), np.arange(len(tvs)), False)
    alive, visited = forest.survivors(keep_fn(forest.lo, forest.hi))
    stats.nodes_visited += int(np.count_nonzero(visited))
    beg = forest.begin[alive]
    n_points = np.array([tv.n_points for tv in tvs], dtype=np.int64)
    seg = _segments(beg, beg + forest.count[alive], forest.tid[alive], n_points)
    if seg is None:
        return _no_candidates()
    index, ranks, bounds, runs = seg
    stats.points_tested += len(index)
    seg_leaves = [ids[r] for r in ranks.tolist()]
    pos, _, kept = _check(bat, seg_leaves, index, bounds, runs, box, filters, False)
    if kept is not None:
        if not kept.size:
            return _no_candidates()
        index, bounds, runs = index[kept], np.searchsorted(kept, bounds), None
        pos = None if pos is None else pos.take(kept, axis=0)
    if pos is None:
        pos = _gather(bat, seg_leaves, None, index, bounds, runs)
    keys = np.empty((len(index), 3), dtype=np.int64)
    keys[:, 0] = leaf_index
    keys[:, 1] = np.repeat(bat.shallow_leaf_visit_rank()[leaves[ranks]], np.diff(bounds))
    keys[:, 2] = index
    return pos.astype(np.float64), keys


def _gather_all(bat: BATFile, leaf_index: int, filters, stats):
    """Every particle of one file, filtered, in (visit rank, slot) order."""
    vrank = bat.shallow_leaf_visit_rank()
    pos_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    for leaf in np.argsort(vrank):
        leaf = int(leaf)
        stats.treelets_visited += 1
        tv = bat.treelet(leaf)
        n = tv.n_points
        if not n:
            continue
        stats.points_tested += n
        slots = np.arange(n, dtype=np.int64)
        mask = _filter_mask(tv, slots, filters)
        if mask is not None:
            slots = slots[mask]
            if not slots.size:
                continue
        keys = np.empty((len(slots), 3), dtype=np.int64)
        keys[:, 0] = leaf_index
        keys[:, 1] = vrank[leaf]
        keys[:, 2] = slots
        pos_parts.append(tv.positions[slots].astype(np.float64))
        key_parts.append(keys)
    if not pos_parts:
        return _no_candidates()
    return np.concatenate(pos_parts, axis=0), np.concatenate(key_parts, axis=0)


def box_members(bat: BATFile, leaf_index: int, box, filters, stats):
    """Stored particles inside ``box`` (exact), in canonical key order.

    Resolves a ``center_box`` into query centers: ``(positions64,
    keys)`` ascending in ``(treelet visit rank, slot)`` — concatenating
    files in leaf order yields the dataset-wide canonical center order.
    """
    blo = np.asarray(box.lower, dtype=np.float64)
    bhi = np.asarray(box.upper, dtype=np.float64)

    def overlaps(lo, hi):
        return np.all((lo <= bhi) & (hi >= blo) & (lo <= hi), axis=1)

    return _gather_pruned(bat, leaf_index, overlaps, filters, stats, box=box)


# -- per-center selection (shared by tree and brute engines) ------------------


def _empty_selection(n_centers: int):
    return (
        np.zeros(n_centers + 1, dtype=np.int64),
        np.empty((0, 3), dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


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


# -- engines ------------------------------------------------------------------


def radius_neighbors(files, open_file, centers, radius, region, filters, stats):
    """Tree engine, fixed-radius mode.

    ``files`` are the planner's :class:`NeighborFilePlan` entries (the
    halo survivors); ``open_file(fp)`` returns a handle or ``None`` for
    a quarantined file. Per file, only the nodes within ``radius`` of
    the query region are gathered — ghost files contribute exactly their
    ghost-strip particles, never a full read.
    """
    rlo = np.asarray(region.lower, dtype=np.float64)
    rhi = np.asarray(region.upper, dtype=np.float64)
    r2 = float(radius) * float(radius)
    r2s = r2 * (1.0 + PRUNE_SLACK)

    def near(lo, hi):
        return _boxes_box_d2(lo, hi, rlo, rhi) <= r2s

    pos_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    for fp in files:
        bat = open_file(fp)
        if bat is None:
            continue
        pos, keys = _gather_pruned(bat, fp.leaf_index, near, filters, stats)
        if fp.action == "ghost":
            stats.ghost_points += len(pos)
        if len(pos):
            pos_parts.append(pos)
            key_parts.append(keys)
    if not pos_parts:
        cand_pos = np.empty((0, 3), dtype=np.float64)
        cand_keys = np.empty((0, 3), dtype=np.int64)
    else:
        cand_pos = np.concatenate(pos_parts, axis=0)
        cand_keys = np.concatenate(key_parts, axis=0)
    return select_radius(centers, cand_pos, cand_keys, radius, stats)


def brute_neighbors(files, open_file, centers, k, radius, filters, stats):
    """The exhaustive reference: every file opened, every particle tested."""
    pos_parts: list[np.ndarray] = []
    key_parts: list[np.ndarray] = []
    for fp in files:
        bat = open_file(fp)
        if bat is None:
            continue
        pos, keys = _gather_all(bat, fp.leaf_index, filters, stats)
        if len(pos):
            pos_parts.append(pos)
            key_parts.append(keys)
    if not pos_parts:
        cand_pos = np.empty((0, 3), dtype=np.float64)
        cand_keys = np.empty((0, 3), dtype=np.int64)
    else:
        cand_pos = np.concatenate(pos_parts, axis=0)
        cand_keys = np.concatenate(key_parts, axis=0)
    if radius is not None:
        return select_radius(centers, cand_pos, cand_keys, radius, stats)
    return select_knn(centers, cand_pos, cand_keys, k, stats)


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


# -- shared row materialization ----------------------------------------------


def materialize_rows(open_treelet, keys, specs, attributes, with_positions):
    """Fetch the selected rows into one :class:`ParticleBatch`.

    ``keys`` is the ``(N, 3)`` selection in final output order;
    ``open_treelet(leaf_index, treelet_rank)`` resolves a key prefix to
    its :class:`~repro.bat.file.TreeletView`. Rows are fetched grouped
    per (file, treelet) for locality, then scattered back into key
    order — both engines materialize through this one path, so equal
    selections produce byte-identical batches.
    """
    sel_specs = [
        sp for sp in specs if attributes is None or sp.name in attributes
    ]
    n = len(keys)
    if n == 0:
        return ParticleBatch.empty(sel_specs, with_positions=with_positions)
    pos = np.empty((n, 3), dtype=np.float32) if with_positions else None
    attrs = {
        sp.name: np.empty(n, dtype=sp.dtype) for sp in sel_specs
    }
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sk = keys[order]
    change = np.flatnonzero(
        (sk[1:, 0] != sk[:-1, 0]) | (sk[1:, 1] != sk[:-1, 1])
    ) + 1
    bounds = np.concatenate([[0], change, [n]])
    for a, b in zip(bounds[:-1], bounds[1:]):
        tv = open_treelet(int(sk[a, 0]), int(sk[a, 1]))
        rows = order[a:b]
        slots = sk[a:b, 2]
        if pos is not None:
            pos[rows] = tv.positions[slots]
        for name, out in attrs.items():
            out[rows] = tv.attributes[name][slots]
    return ParticleBatch(pos, attrs, count=n)
