"""Neighbor-list queries on BAT data: k-NN and fixed-radius.

Both query modes are answered from the treelet k-d hierarchy the files
already carry (Cavelan et al., arXiv 1910.02639): every treelet node's
bounding box bounds its own slot range, so a node whose box lies farther
from the query centers than the search radius (or the current k-th
neighbor bound) is pruned with its whole subtree, and only the surviving
nodes' particle ranges are gathered and distance-tested. Like the read
core, every step is an array pass over a whole node set or candidate
set; no step loops over nodes or centers in Python.

One engine per mode:

- Fixed-radius queries gather one candidate set over all the halo's
  files as one step (nodes within ``radius`` of the query region,
  measured box-to-box so the halo has round corners) and select every
  center's neighbors in one grid-stencil pass (:func:`radius_neighbors`,
  :func:`select_radius`).
- k-NN visits files in ascending distance from the centers, skips every
  file whose bounds lie beyond each center's current k-th distance, and
  in an opened file gathers, for all centers that still need it at once,
  the nodes within their bounds; one distance block and one partition
  then tighten the bounds before the next file (:func:`knn_neighbors`).
  Tightening file by file is the algorithm, so each gather is one file.

Every gather is one step over its files (:func:`_gather_pruned`): one
forest of shallow trees, one of treelets, one index and one fetch per
column across the files, as the read core does (:mod:`repro.bat.query`).
A file that turns out corrupt or missing raises
:class:`~repro.bat.query._PartFailed` naming its leaf; the dataset layer
quarantines it, or raises, and reruns the request.

The exhaustive engine that opens every file and tests every particle is
the tests' reference (``tests/reference_neighbors.py``), not a mode of
the package; the tests pin this module's lists to it byte for byte.

Determinism contract: per-center neighbor lists are ordered by
``(distance², leaf, treelet, slot)`` where ``(leaf, treelet, slot)`` is
the particle's global order-key (leaf-file index, treelet visit rank,
node-order slot — the same key scheme the streaming read path uses).
Distances are :func:`dist2`'s one expression (float64, fixed operation
order) broadcast over centers, keys are unique per particle, so the sort
is a total order and the engine, the exhaustive reference and any shard
layout produce the same selection. The box-level pruning bounds carry a
tiny relative slack so a float rounding at the prune boundary can only
admit an extra node (harmless), never drop a true neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IntegrityError
from ..types import ParticleBatch, boxes_meet
from .file import WALK_TABLE_SLOT
from .query import (
    LEAF_ERRORS, POSITIONS, _check, _fetcher, _Forest, _gather, _PartFailed, _segments,
)

__all__ = [
    "NeighborStats",
    "dist2",
    "radius_neighbors",
    "knn_neighbors",
    "box_members",
    "materialize_rows",
]

#: relative slack on squared-distance prune bounds: float rounding at the
#: boundary may only keep an extra node, never drop a true neighbor
PRUNE_SLACK = 1e-9

#: most (center, candidate) pairs one distance block holds: every block
#: of centers × candidates or nodes is cut to stay under it
_PAIR_BUDGET = 1 << 22


@dataclass
class NeighborStats:
    """Work counters for one neighbor query, summed over its files."""

    #: resolved query centers
    centers: int = 0
    treelets_visited: int = 0
    #: shallow-table and walk-table rows visited (a row whose parent
    #: passed), per file of each pruned gather: the ``center_box`` files,
    #: the radius files, each opened k-NN file (one test for all the
    #: centers still needing it)
    nodes_visited: int = 0
    #: candidate rows gathered out of surviving nodes, before filters,
    #: per file of each pruned gather
    points_tested: int = 0
    #: center × candidate distance evaluations: per opened k-NN file, the
    #: centers still needing it × its filtered candidates; per radius
    #: query, each center's candidates in its 27 grid cells
    pairs_tested: int = 0
    #: neighbor rows returned (sum of all per-center list lengths)
    points_returned: int = 0
    #: files skipped without opening them (planner halo prune + the k-NN
    #: engine's skips: a file whose bounds lie beyond every center's
    #: current k-th distance when its turn comes)
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


# -- shared geometry kernels --------------------------------------------------


def _sq(d: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis, in the one fixed order.

    Never ``einsum``, ``@`` or ``.sum(axis=-1)``: they may add in another
    order, and byte identity with the reference rests on this one.
    """
    return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]


def dist2(positions: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances from ``(n, 3)`` float64 positions to one center.

    The one arithmetic path every selection shares — they evaluate this
    expression broadcast over their (center, candidate) pairs: identical
    inputs give bit-identical outputs, which is what makes the engine's
    selections byte-comparable to the exhaustive reference.
    """
    return _sq(positions - center)


def _boxes_points_d2(lo: np.ndarray, hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``(n, m)`` min squared distances from ``(n, 3)`` boxes to ``(m, 3)`` points."""
    lo, hi = lo[:, None, :], hi[:, None, :]
    return _sq(np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0))


def _boxes_box_d2(
    lo: np.ndarray, hi: np.ndarray, rlo: np.ndarray, rhi: np.ndarray
) -> np.ndarray:
    """Min squared distance from ``(n, 3)`` boxes to one region box.

    Lower-bounds the distance from any point of each box to any point of
    the region; comparing it against ``radius²`` is exactly the overlap
    test with the region's Euclidean (round-cornered) halo expansion.
    """
    return _sq(np.maximum(rlo - hi, 0.0) + np.maximum(lo - rhi, 0.0))


# -- pruned candidate gathering ----------------------------------------------


def _no_candidates():
    return np.empty((0, 3), dtype=np.float64), np.empty((0, 3), dtype=np.int64)


def _leaf_call(leaf_index: int, fn, *args):
    """``fn(*args)`` on leaf ``leaf_index``'s handle, a failing file raised
    as :class:`~repro.bat.query._PartFailed` naming the leaf."""
    try:
        return fn(*args)
    except LEAF_ERRORS as exc:
        raise _PartFailed(leaf_index, exc) from None


def _gather_pruned(parts, keep_fn, filters, stats, box=None):
    """Candidate ``(positions64, keys)`` of the nodes passing ``keep_fn``,
    over the ``(BATFile, leaf_index)`` ``parts`` as one step.

    The read core's prune at full quality: one pass of ``keep_fn(lo, hi)``
    over the parts' shallow tables as one forest, one over all surviving
    treelets' walk tables as one forest. Every surviving node contributes
    its whole own range, in pre-order and therefore ascending; the ranges
    become one index (:func:`~repro.bat.query._segments`), and the rows are
    value-checked and gathered once, each column through one fetch across
    the files. ``box``, when given, keeps only the candidates inside it.

    The rows come part by part, in part order (``keys[:, 0]`` is each
    row's leaf index); rows and counters are those of gathering the parts
    one at a time. A file that turns out corrupt or missing raises
    :class:`~repro.bat.query._PartFailed` with its leaf index as ``part``.
    """
    if not parts:
        return _no_candidates()
    tables = [_leaf_call(i, bat.shallow_table) for bat, i in parts]
    s = _Forest(tables, range(len(parts)), ("lo", "hi", "leaf"))
    alive, visited = s.survivors(keep_fn(s.lo, s.hi))
    stats.nodes_visited += int(np.count_nonzero(visited))
    rows = np.flatnonzero(alive & (s.leaf >= 0))
    stats.treelets_visited += len(rows)
    if not rows.size:
        return _no_candidates()
    # per surviving treelet, in emission order: its file's leaf index, its
    # visit rank there (what its keys start with) and its point count
    leaves = s.leaf[rows].tolist()
    bats, ids, info = {}, [], []
    for p, leaf in zip(s.tid[rows].tolist(), leaves):
        bat, i = parts[p]
        bats[i] = bat
        ids.append(i)
        n = _leaf_call(i, bat.treelet, leaf).n_points
        info.append((i, bat.shallow_leaf_visit_rank()[leaf], n))
    info = np.array(info, dtype=np.int64)
    tables = _fetcher(bats, ids, leaves)(range(len(ids)), WALK_TABLE_SLOT)
    forest = _Forest(tables, range(len(ids)), ("lo", "hi", "begin", "count"))
    alive, visited = forest.survivors(keep_fn(forest.lo, forest.hi))
    stats.nodes_visited += int(np.count_nonzero(visited))
    beg, tid = forest.begin[alive], forest.tid[alive]
    end = beg + forest.count[alive]
    n_points = info[:, 2]
    try:
        seg = _segments(beg, end, tid, n_points)
    except IntegrityError as exc:
        bad = (end > beg) & (end > n_points[tid])
        raise _PartFailed(ids[int(tid[np.argmax(bad)])], exc) from None
    if seg is None:
        return _no_candidates()
    index, ranks, bounds, runs = seg
    stats.points_tested += len(index)
    rl = ranks.tolist()
    fetch = _fetcher(bats, [ids[r] for r in rl], [leaves[r] for r in rl])
    slots = bats[ids[0]].attr_slots
    pos = None if box is None else _gather(fetch, POSITIONS, index, bounds, runs)
    _, kept = _check(
        lambda name: _gather(fetch, slots[name], index, bounds, runs),
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
    keys[:, :2] = np.repeat(info[ranks, :2], np.diff(bounds), axis=0)
    keys[:, 2] = index
    return pos.astype(np.float64), keys


def box_members(parts, box, filters, stats):
    """Stored particles inside ``box`` (exact), in canonical key order.

    Resolves a ``center_box`` into query centers: ``(positions64, keys)``
    of the ``(BATFile, leaf_index)`` ``parts`` as one gather — with the
    parts in leaf order, the dataset-wide canonical center order
    ``(leaf, treelet visit rank, slot)``.
    """
    blo = np.asarray(box.lower, dtype=np.float64)
    bhi = np.asarray(box.upper, dtype=np.float64)

    def overlaps(lo, hi):
        return boxes_meet(lo, hi, blo, bhi)

    return _gather_pruned(parts, overlaps, filters, stats, box=box)


# -- selection ----------------------------------------------------------------


def _empty_selection(n_centers: int):
    return (
        np.zeros(n_centers + 1, dtype=np.int64),
        np.empty((0, 3), dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _select(n_centers: int, parts, k: int | None = None):
    """CSR ``(offsets, keys, d2)`` from tested pairs: ``(center, d2, key)``
    array triples.

    One lexsort orders every center's rows by ``(d2, leaf, treelet,
    slot)`` — the deterministic tie-break; with ``k``, only each center's
    first ``k`` rows are kept.
    """
    if not parts:
        return _empty_selection(n_centers)
    ci, d2, keys = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0], d2, ci))
    counts = np.bincount(ci, minlength=n_centers)
    if k is not None and len(order):
        first = np.cumsum(counts) - counts
        order = order[np.arange(len(order)) - np.repeat(first, counts) < k]
        counts = np.minimum(counts, k)
    offsets = np.zeros(n_centers + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, keys[order], d2[order]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(s, s + c)`` of every ``(start, count)``."""
    skip = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(len(skip), dtype=np.int64) + skip


#: the 27 cell offsets of a radius stencil
_STENCIL = np.indices((3, 3, 3)).reshape(3, -1).T - 1
#: largest grid cell coordinate magnitude (see :func:`select_radius`)
_CELL_LIMIT = 2.0**52


def select_radius(centers, cand_pos, cand_keys, radius, stats: NeighborStats):
    """CSR selection of every center's candidates within ``radius``.

    Returns ``(offsets, keys, d2)`` with each center's rows ordered by
    ``(d2, leaf, treelet, slot)`` — the deterministic tie-break. The
    keep test ``d2 <= radius**2`` is exact (no slack): the exhaustive
    reference runs this same selection, so rounding at the boundary is
    common to both.

    One pass for all centers: the candidates are sorted by grid cell, a
    cell slightly wider than ``radius``, so every true neighbor lies in
    the 27 cells around its center's; one ``searchsorted`` finds every
    (center, stencil cell) range, and the pairs are expanded and
    distance-tested in blocks of at most ``_PAIR_BUDGET``.
    """
    n_centers, n = len(centers), len(cand_pos)
    if not n_centers or not n:
        return _empty_selection(n_centers)
    r2 = np.float64(radius) * np.float64(radius)
    # margin over the radius so float rounding in the distance test can
    # never admit a pair whose cells lie two apart
    cell = float(radius) * (1.0 + 1e-6)
    # cell coordinates clipped to ±2^52, where float64 still holds every
    # integer: the clip is monotone, so a neighbor stays within one cell
    # of its center, and no cast or stencil offset can overflow int64
    pc, cc = (
        np.clip(np.floor(x / cell), -_CELL_LIMIT, _CELL_LIMIT).astype(np.int64)
        for x in (cand_pos, centers)
    )
    cells = np.concatenate([pc, (cc[:, None, :] + _STENCIL).reshape(-1, 3)])
    # rank the cells by one lexsort over candidates and stencil cells
    # together: equal cells get equal ranks, never a product of extents
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sc = cells[order]
    step = np.zeros(len(sc), dtype=np.int64)
    # a cell change, column by column (~4x faster than any() over (n, 3) rows)
    step[1:] = (sc[1:, 0] != sc[:-1, 0]) | (sc[1:, 1] != sc[:-1, 1]) | (sc[1:, 2] != sc[:-1, 2])
    rank = np.empty(len(sc), dtype=np.int64)
    rank[order] = np.cumsum(step)
    by_cell = order[order < n]  # candidates in cell order (lexsort is stable)
    cand_rank = rank[by_cell]
    q = rank[n:]
    lo = np.searchsorted(cand_rank, q, "left")
    cnt = np.searchsorted(cand_rank, q, "right") - lo
    per_center = cnt.reshape(n_centers, 27).sum(axis=1)
    ends = np.cumsum(per_center)
    stats.pairs_tested += int(ends[-1])
    parts = []
    a = 0
    while a < n_centers:
        base = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + _PAIR_BUDGET, "right")))
        rows = slice(27 * a, 27 * b)
        idx = by_cell[_ranges(lo[rows], cnt[rows])]
        if len(idx):
            ci = np.repeat(np.arange(a, b), per_center[a:b])
            d2 = _sq(cand_pos[idx] - centers[ci])
            hit = d2 <= r2
            parts.append((ci[hit], d2[hit], cand_keys[idx[hit]]))
        a = b
    return _select(n_centers, parts)


def select_knn(centers, cand_pos, cand_keys, k, stats: NeighborStats):
    """CSR selection of every center's ``k`` nearest candidates.

    Center blocks of at most ``_PAIR_BUDGET`` pairs: one distance block,
    one partition for each center's k-th distance, every pair within it
    (ties included) to the shared lexsort.
    """
    n_centers, n = len(centers), len(cand_pos)
    if not n_centers or not n:
        return _empty_selection(n_centers)
    stats.pairs_tested += n_centers * n
    parts = []
    step, kth = max(1, _PAIR_BUDGET // n), min(k, n) - 1
    for a in range(0, n_centers, step):
        d2 = _sq(cand_pos - centers[a:a + step, None])
        # each center's k-th distance (its farthest, with fewer than k)
        ci, j = np.nonzero(d2 <= np.partition(d2, kth, axis=1)[:, kth:kth + 1])
        parts.append((ci + a, d2[ci, j], cand_keys[j]))
    return _select(n_centers, parts, k)


# -- engines ------------------------------------------------------------------


def radius_neighbors(files, open_file, centers, radius, region, filters, stats):
    """Fixed-radius mode.

    ``files`` are the planner's :class:`NeighborFilePlan` entries (the
    halo survivors); ``open_file(fp)`` returns a file's handle. All of
    them are one pruned gather of the nodes within ``radius`` of the
    query region — ghost files contribute exactly their ghost-strip
    particles, never a full read.
    """
    rlo = np.asarray(region.lower, dtype=np.float64)
    rhi = np.asarray(region.upper, dtype=np.float64)
    r2 = float(radius) * float(radius)
    r2s = r2 * (1.0 + PRUNE_SLACK)

    def near(lo, hi):
        return _boxes_box_d2(lo, hi, rlo, rhi) <= r2s

    parts = [(open_file(fp), fp.leaf_index) for fp in files]
    cand_pos, cand_keys = _gather_pruned(parts, near, filters, stats)
    ghost = [fp.leaf_index for fp in files if fp.action == "ghost"]
    if ghost:
        stats.ghost_points += int(np.count_nonzero(np.isin(cand_keys[:, 0], ghost)))
    return select_radius(centers, cand_pos, cand_keys, radius, stats)


def _within_any(lo, hi, pts, lim) -> np.ndarray:
    """Mask of the ``(n, 3)`` boxes within squared distance ``lim[j]`` of
    some point ``pts[j]``; point blocks of at most ``_PAIR_BUDGET`` pairs."""
    keep = np.zeros(len(lo), dtype=bool)
    step = max(1, _PAIR_BUDGET // max(len(lo), 1))
    for a in range(0, len(pts), step):
        keep |= (_boxes_points_d2(lo, hi, pts[a:a + step]) <= lim[a:a + step]).any(axis=1)
    return keep


def knn_neighbors(files, open_file, centers, k, filters, stats):
    """k-NN mode: files in distance order, each one batch.

    Files are visited in ascending min distance to any center; a file is
    opened only while some center's k-th bound still reaches into its
    bounds — everything else is skipped unopened (counted in
    ``pruned_files``). An opened file is one pruned gather for all the
    centers that still need it (a node survives if it lies within any of
    their bounds), one distance block and one partition into the running
    ``(centers, k)`` best distances, so after every file each bound is the
    exact k-th distance over the files so far. The pairs within the bounds
    are kept; one lexsort at the end takes each center's first ``k``.
    """
    n_centers = len(centers)
    if not files or n_centers == 0:
        stats.pruned_files += len(files)
        return _empty_selection(n_centers)
    lo = np.array([fp.bounds.lower for fp in files], dtype=np.float64)
    hi = np.array([fp.bounds.upper for fp in files], dtype=np.float64)
    # (F, C) min squared distance from each file's bounds to each center
    fd2 = _boxes_points_d2(lo, hi, centers)
    # each center's best squared distances so far: (C, k) once k
    # candidates were seen, narrower (and every bound inf) before
    best = np.empty((n_centers, 0), dtype=np.float64)
    bound = np.full(n_centers, np.inf)
    parts = []
    order = np.argsort(fd2.min(axis=1), kind="stable")
    while len(order):
        lim = bound * (1.0 + PRUNE_SLACK)
        # bounds only tighten: the files up to the next one some center
        # reaches are skipped now, exactly as they would be one by one
        reach = fd2[order] <= lim
        live = np.flatnonzero(reach.any(axis=1))
        stats.pruned_files += int(live[0]) if len(live) else len(order)
        if not len(live):
            break
        need = np.flatnonzero(reach[live[0]])
        fp = files[int(order[live[0]])]
        order = order[live[0] + 1:]
        c_need, lim_need = centers[need], lim[need]
        pos, keys = _gather_pruned(
            [(open_file(fp), fp.leaf_index)],
            lambda nlo, nhi: _within_any(nlo, nhi, c_need, lim_need), filters, stats,
        )
        stats.pairs_tested += len(need) * len(pos)
        step = max(1, _PAIR_BUDGET // len(need))
        for a in range(0, len(pos), step):
            d2 = _sq(pos[a:a + step] - c_need[:, None])
            merged = np.concatenate([best[need], d2], axis=1)
            if merged.shape[1] >= k:  # column k - 1 becomes the k-th smallest
                merged = np.partition(merged, k - 1, axis=1)[:, :k]
            if merged.shape[1] == best.shape[1]:
                best[need] = merged
            else:  # under-filled: every bound is inf, every center needs the file
                best = merged
            if best.shape[1] == k:
                bound = best[:, k - 1]
            ci, j = np.nonzero(d2 <= bound[need][:, None])
            parts.append((need[ci], d2[ci, j], keys[a + j]))
    return _select(n_centers, parts, k)


# -- shared row materialization ----------------------------------------------


def materialize_rows(open_file, keys, specs, attributes, with_positions):
    """Fetch the selected rows into one :class:`ParticleBatch`.

    ``keys`` is the ``(N, 3)`` selection in final output order;
    ``open_file(leaf_index)`` returns the leaf's :class:`BATFile`. The rows
    are sorted by key into one segment per treelet, across files; each
    column is gathered once through one fetch (one column-cache round-trip
    for all the files) and scattered back into key order once — the one
    row path, so equal selections produce byte-identical batches. A file
    that fails raises :class:`~repro.bat.query._PartFailed` naming its
    leaf.
    """
    sel_specs = [
        sp for sp in specs if attributes is None or sp.name in attributes
    ]
    n = len(keys)
    if n == 0:
        return ParticleBatch.empty(sel_specs, with_positions=with_positions)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sk = keys[order]
    # one segment per (leaf, treelet visit rank)
    cut = np.flatnonzero((sk[1:, 0] != sk[:-1, 0]) | (sk[1:, 1] != sk[:-1, 1])) + 1
    bounds = np.concatenate([[0], cut, [n]])
    seg_leaf, seg_rank = sk[bounds[:-1], 0], sk[bounds[:-1], 1]
    new_file = np.flatnonzero(seg_leaf[1:] != seg_leaf[:-1]) + 1
    bats, leaves = {}, np.empty(len(seg_leaf), dtype=np.int64)
    for a, b in zip([0, *new_file.tolist()], [*new_file.tolist(), len(seg_leaf)]):
        i = int(seg_leaf[a])
        bat = bats[i] = open_file(i)
        table_leaf = _leaf_call(i, bat.shallow_table)["leaf"]
        # shallow leaf ids in visit order: the inverse of the visit rank
        leaves[a:b] = table_leaf[table_leaf >= 0][seg_rank[a:b]]
    fetch = _fetcher(bats, seg_leaf.tolist(), leaves.tolist())
    slots = bat.attr_slots
    index = sk[:, 2]
    pos = None
    if with_positions:
        pos = np.empty((n, 3), dtype=np.float32)
        pos[order] = _gather(fetch, POSITIONS, index, bounds)
    attrs = {}
    for sp in sel_specs:
        attrs[sp.name] = np.empty(n, dtype=sp.dtype)
        attrs[sp.name][order] = _gather(fetch, slots[sp.name], index, bounds)
    return ParticleBatch(pos, attrs, count=n)
