"""The neighbor references: the exhaustive engine and the per-center selections.

:func:`brute_neighbors` is the exhaustive engine: every non-quarantined
leaf opened, every particle tested, through none of the pruned gather's
machinery. The tests pin :meth:`repro.core.dataset.BATDataset.neighbors`
to it byte for byte. It selects with the package's batched kernels, so
it cannot catch a selection bug; for that, the rest of this module keeps
the selections :mod:`repro.bat.neighbors` ran before it went array-wide:
:func:`select_radius` and :func:`select_knn` loop over the centers one at
a time (``select_radius`` with its dict-keyed grid past
``_GRID_THRESHOLD`` pairs), and :func:`knn_neighbors` is the best-first
k-NN walk — one heap per center and file over shallow and treelet nodes,
with one running :class:`_BestK` set per center. :func:`gather_pruned`
and :func:`materialize_rows` are the per-file loops the engine ran before
it read a request's files as one step: one pruned gather, or one
gather per column, per file. Nothing in ``src/`` calls any of them.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.bat import neighbors as batched
from repro.bat.neighbors import (
    PRUNE_SLACK,
    NeighborStats,
    _empty_selection,
    dist2,
)
from repro.bat.file import fetch_retained
from repro.bat.query import POSITIONS, _check, _Forest, _gather, _segments, _survivors
from repro.types import ParticleBatch

__all__ = [
    "brute_neighbors",
    "select_radius",
    "select_knn",
    "knn_neighbors",
    "gather_pruned",
    "materialize_rows",
]


def _no_candidates():
    return np.empty((0, 3), dtype=np.float64), np.empty((0, 3), dtype=np.int64)


def _candidates(parts) -> tuple[np.ndarray, np.ndarray]:
    """One ``(positions64, keys)`` candidate set from ``(positions64, keys)`` parts."""
    if not parts:
        return _no_candidates()
    return tuple(np.concatenate(c, axis=0) for c in zip(*parts))


def _shallow_survivors(table: np.ndarray, keep: np.ndarray):
    """``_survivors`` of one file's shallow table."""
    loose = None if table["nests"][0] else np.ones(len(table), dtype=bool)
    return _survivors(keep, table["parent"], table["depth"], 0, loose)


def _file_fetch(bat, leaves):
    """The ``_gather`` fetch of segments over treelets ``leaves`` of one file."""
    return lambda segs, slot: fetch_retained([bat.request([leaves[i] for i in segs], slot)])[0]


def gather_pruned_file(bat, leaf_index: int, keep_fn, filters, stats, box=None):
    """One file's candidate ``(positions64, keys)`` of the nodes passing
    ``keep_fn``: its shallow table, then its surviving treelets' walk
    tables as one forest, gathered and value-checked once."""
    table = bat.shallow_table()
    alive, visited = _shallow_survivors(table, keep_fn(table["lo"], table["hi"]))
    stats.nodes_visited += int(np.count_nonzero(visited))
    leaves = table["leaf"][alive & (table["leaf"] >= 0)]
    stats.treelets_visited += len(leaves)
    ids = leaves.tolist()
    tvs = [bat.treelet(leaf) for leaf in ids]
    if not tvs:
        return _no_candidates()
    forest = _Forest(bat.walk_tables(ids), np.arange(len(tvs)), ("lo", "hi", "begin", "count"))
    alive, visited = forest.survivors(keep_fn(forest.lo, forest.hi))
    stats.nodes_visited += int(np.count_nonzero(visited))
    beg = forest.begin[alive]
    n_points = np.array([tv.n_points for tv in tvs], dtype=np.int64)
    seg = _segments(beg, beg + forest.count[alive], forest.tid[alive], n_points)
    if seg is None:
        return _no_candidates()
    index, ranks, bounds, runs = seg
    stats.points_tested += len(index)
    fetch = _file_fetch(bat, [ids[r] for r in ranks.tolist()])
    pos = None if box is None else _gather(fetch, POSITIONS, index, bounds, runs)
    _, kept = _check(
        lambda name: _gather(fetch, bat.attr_slots[name], index, bounds, runs),
        pos, None if box is None else box.contains_points, filters,
    )
    if kept is not None:
        if not kept.size:
            return _no_candidates()
        index, bounds, runs = index[kept], np.searchsorted(kept, bounds), None
        pos = None if pos is None else pos.take(kept, axis=0)
    if pos is None:
        pos = _gather(fetch, POSITIONS, index, bounds, runs)
    keys = np.empty((len(index), 3), dtype=np.int64)
    keys[:, 0] = leaf_index
    keys[:, 1] = np.repeat(bat.shallow_leaf_visit_rank()[leaves[ranks]], np.diff(bounds))
    keys[:, 2] = index
    return pos.astype(np.float64), keys


def gather_pruned(parts, keep_fn, filters, stats, box=None):
    """``(positions64, keys)`` of the ``(BATFile, leaf_index)`` ``parts``:
    one :func:`gather_pruned_file` per part, concatenated."""
    got = [gather_pruned_file(bat, i, keep_fn, filters, stats, box) for bat, i in parts]
    return _candidates([g for g in got if len(g[0])])


def materialize_rows(open_file, keys, specs, attributes, with_positions):
    """The selected rows as one batch: per file, one gather per column,
    scattered back into key order."""
    sel_specs = [sp for sp in specs if attributes is None or sp.name in attributes]
    n = len(keys)
    if n == 0:
        return ParticleBatch.empty(sel_specs, with_positions=with_positions)
    pos = np.empty((n, 3), dtype=np.float32) if with_positions else None
    attrs = {sp.name: np.empty(n, dtype=sp.dtype) for sp in sel_specs}
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sk = keys[order]
    new_file = np.flatnonzero(sk[1:, 0] != sk[:-1, 0]) + 1
    for a, b in zip([0, *new_file.tolist()], [*new_file.tolist(), n]):
        bat = open_file(int(sk[a, 0]))
        ranks = sk[a:b, 1]
        cut = np.flatnonzero(ranks[1:] != ranks[:-1]) + 1
        bounds = np.concatenate([[0], cut, [b - a]])
        table_leaf = bat.shallow_table()["leaf"]
        leaves = table_leaf[table_leaf >= 0][ranks[bounds[:-1]]].tolist()
        index, rows = sk[a:b, 2], order[a:b]
        fetch = _file_fetch(bat, leaves)
        if pos is not None:
            pos[rows] = _gather(fetch, POSITIONS, index, bounds)
        for name, out in attrs.items():
            out[rows] = _gather(fetch, bat.attr_slots[name], index, bounds)
    return ParticleBatch(pos, attrs, count=n)


def _filter_mask(tv, slots, filters) -> np.ndarray | None:
    """Exact value mask over ``slots`` for the request's filters."""
    mask = None
    for f in filters:
        vals = tv.attributes[f.name][slots]
        fm = (vals >= f.lo) & (vals <= f.hi)
        mask = fm if mask is None else mask & fm
    return mask


def _gather_all(bat, leaf_index: int, filters) -> list[tuple]:
    """Every particle of one file, filtered: ``(positions64, keys)`` per
    treelet, in (visit rank, slot) order — one treelet at a time."""
    vrank = bat.shallow_leaf_visit_rank()
    parts = []
    for leaf in np.argsort(vrank).tolist():
        tv = bat.treelet(leaf)
        slots = np.arange(tv.n_points, dtype=np.int64)
        mask = _filter_mask(tv, slots, filters)
        if mask is not None:
            slots = slots[mask]
        if len(slots):
            keys = np.empty((len(slots), 3), dtype=np.int64)
            keys[:, 0], keys[:, 1], keys[:, 2] = leaf_index, vrank[leaf], slots
            parts.append((tv.positions[slots].astype(np.float64), keys))
    return parts


def brute_neighbors(ds, request, centers):
    """``request``'s ``(offsets, keys, d2)`` around ``centers``, exhaustively.

    The candidates are every particle of every leaf of ``ds`` not
    quarantined, in key order; the selection is the package's
    (``select_radius`` / ``select_knn``), with the request's ``radius``
    or ``k``.
    """
    excluded = ds._exclude()
    parts = []
    for leaf in ds.metadata.leaves:
        if leaf.leaf_index not in excluded:
            parts += _gather_all(ds.file(leaf.leaf_index), leaf.leaf_index, request.filters)
    cand_pos, cand_keys = _candidates(parts)
    stats = NeighborStats()
    if request.radius is not None:
        return batched.select_radius(centers, cand_pos, cand_keys, request.radius, stats)
    return batched.select_knn(centers, cand_pos, cand_keys, request.k, stats)


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
    keep test ``d2 <= radius**2`` is exact (no slack), as in the batched
    selection.
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
    """k-NN mode: best-first over files, then within files.

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
