"""Visualization reads on a BAT file (paper §V).

Queries take a quality window, an optional bounding box, and a set of
attribute filters. Spatial pruning uses the k-d hierarchy (exact);
attribute pruning uses the binned bitmaps (conservative — a final
false-positive check is applied to every returned particle). The read is
one traversal parameterised by ``(prev_quality, quality]``: a one-shot
read is the window ``(0, q]``, a progressive refinement passes the
quality already held, and a streamed read is a ladder of consecutive
windows over one kept traversal.

Quality ∈ [0, 1] maps to a maximum treelet depth through a log remap:
the number of LOD particles doubles per level, so the remap
``e(q) = log2(1 + q·(2^(D+1) − 1))`` makes perceived quality progress
smoothly. A node at depth *d* is processed fully when ``d < floor(e)`` and
fractionally (a prefix of its particles) when ``d == floor(e)``.

**One core.** The shallow tree is walked level by level
(:func:`_survivor_leaves`); every surviving treelet then gets a
:class:`_TreeletWalk`. A treelet's nodes are not walked: its *walk table*
(:attr:`~repro.bat.file.TreeletView.walk_table` — one row per node in
pre-order with the node's box, depth, slot range, parent and resolved
bitmaps, built once per treelet and held with the decoded columns) is
tested against the query in one numpy pass (:func:`_node_tests`), and a
node counts as visited when its parent passed (:func:`_table_survivors`;
a treelet whose boxes or bitmaps do not nest has the result pushed down
level by level instead). Pruning does not depend on quality, so the
masks are computed on a walk's first window and kept. The depth cutoff
lives in the window: it selects the kept rows with ``floor(e_lo) <= depth
<= floor(e_hi)`` and counts visited nodes only down to ``floor(e_hi)``,
below which no node can contribute — the counters are those of a
top-down walk that stops there. A window's slot ranges come out in
pre-order and are gathered and checked once per treelet (:func:`_gather`,
the only gather), and a whole treelet asked for at full quality skips
the table altogether (:func:`_full_speed`). The two entry points differ
only in what they do with the rows:

- :func:`query_file` asks for one window and concatenates (or hands each
  treelet's rows to a callback); the walks are dropped as it goes.
- :func:`stream_query_file` keeps the walks across the rungs of a quality
  ladder and attaches per-row order keys ``(treelet_rank, slot)`` so the
  increments can be merged back into the one-shot order.

**One reference.** :func:`query_file_recursive` is the original per-node
stack walk. Nothing in the read path calls it: the property tests pin the
core's output to it byte for byte, and the reorganizer re-reads its
rebuilt files through it before publishing. Both return identical batches
and identical ``points_tested`` / ``points_returned`` /
``treelets_visited`` counters; ``nodes_visited`` and the per-subtree prune
counters can be lower for the core because of its depth cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..bitmaps import query_bitmap
from ..errors import InvalidRequestError
from ..types import Box, ParticleBatch
from .file import BATFile
from .format import LEAF_FLAG

__all__ = [
    "AttributeFilter",
    "QueryStats",
    "quality_to_depth",
    "quality_for_depth",
    "default_quality_ladder",
    "query_file",
    "query_file_recursive",
    "FileIncrement",
    "stream_query_file",
]

@dataclass(frozen=True)
class AttributeFilter:
    """Keep particles with ``lo <= value(name) <= hi``."""

    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise InvalidRequestError(f"filter on {self.name!r} has hi < lo")


@dataclass
class QueryStats:
    """Work counters for one query; summed across files by dataset reads."""

    treelets_visited: int = 0
    nodes_visited: int = 0
    points_tested: int = 0
    points_returned: int = 0
    pruned_spatial: int = 0
    pruned_bitmap: int = 0
    #: leaf files the query planner skipped without opening them
    pruned_files: int = 0
    #: leaf files actually opened and traversed
    files_opened: int = 0
    #: leaf files skipped because they were corrupt or missing (degraded
    #: reads): both files quarantined during this query and files a prior
    #: query quarantined that the plan excluded up front
    quarantined_files: int = 0
    #: v4 column bytes materialized for this query (0 for v2/v3 files and
    #: for decoded-column-cache hits — it measures real decode work); set
    #: by the dataset layer from the handle's counter delta
    decoded_bytes: int = 0

    def merge(self, other: "QueryStats") -> None:
        self.treelets_visited += other.treelets_visited
        self.nodes_visited += other.nodes_visited
        self.points_tested += other.points_tested
        self.points_returned += other.points_returned
        self.pruned_spatial += other.pruned_spatial
        self.pruned_bitmap += other.pruned_bitmap
        self.pruned_files += other.pruned_files
        self.files_opened += other.files_opened
        self.quarantined_files += other.quarantined_files
        self.decoded_bytes += other.decoded_bytes


def quality_to_depth(quality: float, max_depth: int) -> float:
    """Log-remapped effective depth ``e`` ∈ [0, max_depth+1] (see module doc)."""
    if not 0.0 <= quality <= 1.0:
        raise InvalidRequestError("quality must be in [0, 1]")
    levels = max_depth + 1
    if quality == 0.0:
        return 0.0
    e = math.log2(1.0 + quality * (2.0**levels - 1.0))
    return min(e, float(levels))


def quality_for_depth(e: float, max_depth: int) -> float:
    """Inverse of :func:`quality_to_depth`: the quality whose effective
    depth is exactly ``e`` on a tree with ``max_depth`` treelet levels."""
    levels = max_depth + 1
    if e <= 0.0:
        return 0.0
    e = min(e, float(levels))
    return (2.0**e - 1.0) / (2.0**levels - 1.0)


def default_quality_ladder(
    quality: float, prev_quality: float = 0.0, levels: int = 8
) -> tuple[float, ...]:
    """Quality rungs for a streamed progressive read.

    Returns an ascending ladder ending exactly at ``quality``: one rung
    per frontier depth level of a nominal ``levels``-level tree, so each
    streamed increment roughly doubles the number of delivered particles
    (particle counts double per treelet depth). The ladder is a pure
    increment schedule — any ascending ladder ending at ``quality``
    reassembles to the same bytes — so ``levels`` needs only to be in the
    ballpark of the data's real treelet depth for the increments to line
    up with the frontier.
    """
    if not 0.0 <= prev_quality <= quality <= 1.0:
        raise InvalidRequestError("need 0 <= prev_quality <= quality <= 1")
    denom = 2.0**levels - 1.0
    rungs = [
        q
        for e in range(1, levels)
        if prev_quality < (q := (2.0**e - 1.0) / denom) < quality
    ]
    rungs.append(quality)
    return tuple(rungs)


def _depth_fraction(depth: int, e: float) -> float:
    """Fraction of a depth-``depth`` node's own particles covered at ``e``."""
    fl = math.floor(e)
    if depth < fl:
        return 1.0
    if depth == fl:
        return e - fl
    return 0.0


@dataclass
class _QueryContext:
    box: Box | None
    filters: tuple[AttributeFilter, ...]
    qbitmaps: dict[str, int]
    e_prev: float
    e_new: float
    stats: QueryStats = field(default_factory=QueryStats)
    chunks_pos: list[np.ndarray] = field(default_factory=list)
    chunks_attr: dict[str, list[np.ndarray]] = field(default_factory=dict)
    callback: object = None
    #: names to materialize in the result; None = all
    attributes: tuple[str, ...] | None = None
    #: False = column-projected read: positions are neither returned nor
    #: decoded (unless a box test still needs them)
    with_positions: bool = True
    #: False when the root already proves the read empty (a filter no
    #: stored value can match, a box off the file's bounds, quality 0)
    live: bool = True
    #: the box as ``(lower, upper)`` float64 arrays, for array-wise tests
    qbounds: tuple[np.ndarray, np.ndarray] | None = None
    #: per filter ``(attribute index, query bitmap)``, for array-wise tests
    bitmap_tests: tuple[tuple[int, np.uint32], ...] = ()

    def select_attrs(self, attrs) -> dict:
        # key-based so unselected lazy (v4) columns never decode
        if self.attributes is None:
            return {k: attrs[k] for k in attrs}
        return {k: attrs[k] for k in attrs if k in self.attributes}

    def emit(
        self,
        positions: np.ndarray | None,
        attrs: dict[str, np.ndarray],
        count: int | None = None,
    ) -> None:
        n = int(count) if positions is None else len(positions)
        if n == 0:
            return
        self.stats.points_returned += n
        if self.callback is not None:
            self.callback(positions, attrs)
            return
        if positions is not None:
            self.chunks_pos.append(np.asarray(positions))
        for name, arr in attrs.items():
            self.chunks_attr.setdefault(name, []).append(np.asarray(arr))


def _prepare(
    bat: BATFile,
    quality: float,
    prev_quality: float,
    box: Box | None,
    filters,
    attributes,
    with_positions: bool,
    callback=None,
    stats: QueryStats | None = None,
) -> _QueryContext:
    """Validate one file read and derive what every traversal needs.

    The request prologue of all three entry points: unknown attribute
    names raise ``KeyError`` here, each filter becomes a query bitmap
    against the attribute's binning, and the quality window becomes
    effective depths. ``stats`` may be a caller-owned counter object to
    accumulate into.
    """
    if prev_quality > quality:
        raise InvalidRequestError("prev_quality must be <= quality")
    if attributes is not None:
        for name in attributes:
            bat.attr_index(name)  # raises KeyError for unknown names
    filters = tuple(filters)
    qbitmaps: dict[str, int] = {}
    for f in filters:
        bat.attr_index(f.name)  # raises KeyError for unknown attributes
        binning = bat.binnings.get(f.name)
        if binning is not None:
            qbitmaps[f.name] = int(binning.query(f.lo, f.hi))
        else:
            lo, hi = bat.attr_ranges[f.name]
            qbitmaps[f.name] = int(query_bitmap(f.lo, f.hi, lo, hi))
    e_new = quality_to_depth(quality, bat.max_treelet_depth)
    ctx = _QueryContext(
        box=box,
        filters=filters,
        qbitmaps=qbitmaps,
        e_prev=quality_to_depth(prev_quality, bat.max_treelet_depth),
        e_new=e_new,
        callback=callback,
        attributes=tuple(attributes) if attributes is not None else None,
        with_positions=bool(with_positions),
        live=not (
            e_new == 0.0
            or any(q == 0 for q in qbitmaps.values())
            or (box is not None and not bat.bounds.intersects(box))
        ),
        qbounds=(
            (np.asarray(box.lower), np.asarray(box.upper)) if box is not None else None
        ),
        bitmap_tests=tuple(
            (bat.attr_index(f.name), np.uint32(qbitmaps[f.name])) for f in filters
        ),
    )
    if stats is not None:
        ctx.stats = stats
    ctx.stats.files_opened += 1
    return ctx


def _result(bat: BATFile, ctx: _QueryContext) -> tuple[ParticleBatch | None, QueryStats]:
    """The ``(batch, stats)`` a one-shot read returns from what ``ctx`` collected."""
    if ctx.callback is not None:
        return None, ctx.stats
    if ctx.stats.points_returned == 0:
        specs = bat.attribute_specs()
        if ctx.attributes is not None:
            specs = [sp for sp in specs if sp.name in ctx.attributes]
        return ParticleBatch.empty(specs, with_positions=ctx.with_positions), ctx.stats
    attrs = {name: np.concatenate(parts) for name, parts in ctx.chunks_attr.items()}
    if not ctx.with_positions:
        return ParticleBatch(None, attrs, count=ctx.stats.points_returned), ctx.stats
    positions = np.concatenate(ctx.chunks_pos, axis=0)
    return ParticleBatch(positions, attrs), ctx.stats


def query_file(
    bat: BATFile,
    quality: float = 1.0,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    callback=None,
    attributes: list[str] | None = None,
    with_positions: bool = True,
) -> tuple[ParticleBatch | None, QueryStats]:
    """Run one (progressive) visualization read against a BAT file.

    Returns ``(batch, stats)``; ``batch`` is ``None`` when a ``callback`` is
    given (the paper's API invokes a user callback for each point; here the
    callback receives one chunk of arrays per treelet, for vectorization).

    ``attributes`` restricts which attribute arrays are materialized in the
    result — the array-per-attribute storage model means unrequested
    attributes are never touched (filter attributes are still read for the
    false-positive check but only returned if requested).

    ``with_positions=False`` projects positions away too: the result batch
    carries ``positions=None`` plus a row count, and on column-encoded
    (v4) files the position block is only decoded where a box test still
    needs it. Callbacks then receive ``None`` as their positions argument.
    """
    ctx = _prepare(
        bat, quality, prev_quality, box, filters, attributes, with_positions, callback
    )
    if ctx.live:
        window = _window_rows(bat, ctx, _walks(bat, ctx), ctx.e_prev, ctx.e_new)
        for _rank, (pos, attrs, count, _sel, _mask) in window:
            ctx.emit(pos, attrs, count)
    return _result(bat, ctx)


def query_file_recursive(
    bat: BATFile,
    quality: float = 1.0,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    callback=None,
    attributes: list[str] | None = None,
    with_positions: bool = True,
) -> tuple[ParticleBatch | None, QueryStats]:
    """:func:`query_file` by the per-node stack walk — the reference.

    Same arguments, same bytes, one emitted chunk per node. Kept for the
    tests that pin the frontier core to it and for the reorganizer's
    pre-publish verification; no read path uses it.
    """
    ctx = _prepare(
        bat, quality, prev_quality, box, filters, attributes, with_positions, callback
    )
    if ctx.live:
        _traverse_shallow(bat, ctx)
    return _result(bat, ctx)


# -- recursive walk (reference implementation) -------------------------------


def _bitmaps_prune(bat: BATFile, bitmap_ids, ctx: _QueryContext) -> bool:
    """True when the node's bitmaps prove no filter can match below it."""
    for f in ctx.filters:
        a = bat.attr_index(f.name)
        node_bm = bat.bitmap(int(bitmap_ids[a]))
        if node_bm & ctx.qbitmaps[f.name] == 0:
            return True
    return False


def _traverse_shallow(bat: BATFile, ctx: _QueryContext) -> None:
    root, root_is_leaf = bat.root()
    stack = [(root, root_is_leaf)]
    while stack:
        idx, is_leaf = stack.pop()
        ctx.stats.nodes_visited += 1
        rec = bat.shallow_leaves[idx] if is_leaf else bat.shallow_inner[idx]
        nb = rec["bbox"]
        node_box = Box(tuple(map(float, nb[:3])), tuple(map(float, nb[3:])))
        if ctx.box is not None and not node_box.intersects(ctx.box):
            ctx.stats.pruned_spatial += 1
            continue
        if ctx.filters and _bitmaps_prune(bat, rec["bitmap_ids"], ctx):
            ctx.stats.pruned_bitmap += 1
            continue
        if is_leaf:
            ctx.stats.treelets_visited += 1
            _traverse_treelet(bat, idx, node_box, ctx)
        else:
            stack.extend(bat.children(idx))


def _full_speed(
    bat: BATFile, leaf: int, tv, ctx: _QueryContext, e_lo: float, e_hi: float
) -> bool:
    """Whole treelet requested at full quality: one contiguous emit."""
    return (
        not ctx.filters
        and e_lo == 0.0
        and e_hi >= tv.max_depth + 1
        and (ctx.box is None or ctx.box.contains_box(bat.leaf_box(leaf)))
    )


def _emit_full_treelet(tv, ctx: _QueryContext) -> None:
    """Emit a whole treelet (full-speed plan) decoding only what's needed.

    No box test runs here, so under column projection the node records and
    the position block are never touched — a one-column read decodes just
    that column.
    """
    ctx.stats.nodes_visited += 1
    attrs = ctx.select_attrs(tv.attributes)
    if ctx.with_positions:
        ctx.emit(tv.positions, attrs)
    else:
        ctx.emit(None, attrs, count=tv.n_points)


def _traverse_treelet(bat: BATFile, leaf: int, leaf_box: Box, ctx: _QueryContext) -> None:
    tv = bat.treelet(leaf)
    if _full_speed(bat, leaf, tv, ctx, ctx.e_prev, ctx.e_new):
        _emit_full_treelet(tv, ctx)
        return

    nodes = tv.nodes
    stack: list[tuple[int, Box]] = [(0, leaf_box)]
    while stack:
        node_id, node_box = stack.pop()
        ctx.stats.nodes_visited += 1
        rec = nodes[node_id]
        if ctx.box is not None and not node_box.intersects(ctx.box):
            ctx.stats.pruned_spatial += 1
            continue
        if ctx.filters and _bitmaps_prune(bat, rec["bitmap_ids"], ctx):
            ctx.stats.pruned_bitmap += 1
            continue

        depth = int(rec["depth"])
        f0 = _depth_fraction(depth, ctx.e_prev)
        f1 = _depth_fraction(depth, ctx.e_new)
        begin = int(rec["begin"])
        count = int(rec["count"])
        # Rounded (not floored) so small nodes still contribute at low
        # quality; monotone in f, hits `count` exactly at f == 1.
        lo_slot = begin + int(f0 * count + 0.5)
        hi_slot = begin + int(f1 * count + 0.5)
        if hi_slot > lo_slot:
            _emit_points(tv, lo_slot, hi_slot, ctx)

        if rec["axis"] >= 0:
            ax = int(rec["axis"])
            pos = float(rec["split"])
            left_box, right_box = node_box.split(ax, pos)
            stack.append((int(rec["right"]), right_box))
            stack.append((int(rec["left"]), left_box))


def _emit_points(tv, lo_slot: int, hi_slot: int, ctx: _QueryContext) -> None:
    n_sel = hi_slot - lo_slot
    ctx.stats.points_tested += n_sel
    # positions decode only when returned or needed for the box test
    pos = None
    if ctx.with_positions or ctx.box is not None:
        pos = tv.positions[lo_slot:hi_slot]
    mask = None
    if ctx.box is not None:
        mask = ctx.box.contains_points(pos)
    for f in ctx.filters:
        vals = tv.attributes[f.name][lo_slot:hi_slot]
        fmask = (vals >= f.lo) & (vals <= f.hi)
        mask = fmask if mask is None else (mask & fmask)
    if not ctx.with_positions:
        pos = None
    # selection is by key so lazily decoded (v4) columns outside the
    # requested set are never materialized
    names = [n for n in tv.attributes if ctx.attributes is None or n in ctx.attributes]
    if mask is None:
        ctx.emit(pos, {n: tv.attributes[n][lo_slot:hi_slot] for n in names}, count=n_sel)
    elif mask.any():
        ctx.emit(
            pos[mask] if pos is not None else None,
            {n: tv.attributes[n][lo_slot:hi_slot][mask] for n in names},
            count=int(mask.sum()),
        )


# -- flat core (vectorized) ----------------------------------------------------


def _node_tests(ctx: _QueryContext, lo: np.ndarray, hi: np.ndarray, bitmaps):
    """Test a batch of nodes against the query: ``(inside, keep)``.

    ``lo``/``hi`` are the nodes' ``(n, 3)`` box corners, ``bitmaps`` their
    ``(n, n_attrs)`` resolved bitmaps (unused without filters). ``inside``
    marks the boxes that meet the query box (``None`` without one),
    ``keep`` those that also pass every filter's bitmap.
    """
    if ctx.qbounds is not None:
        qlo, qhi = ctx.qbounds
        inside = keep = np.all((lo <= qhi) & (hi >= qlo) & (lo <= hi), axis=1)
    else:
        inside, keep = None, np.ones(len(lo), dtype=bool)
    for a, qbitmap in ctx.bitmap_tests:
        keep = keep & ((bitmaps[:, a] & qbitmap) != 0)
    return inside, keep


def _count_prunes(stats: QueryStats, n: int, n_inside: int, n_kept: int) -> None:
    """Count the pruned among ``n`` visited nodes in the recursive walk's
    order of checks: spatially first, by bitmap only if the box passed."""
    stats.pruned_spatial += n - n_inside
    stats.pruned_bitmap += n_inside - n_kept


def _survivor_leaves(bat: BATFile, keep_fn, stats) -> np.ndarray:
    """Shallow leaves passing ``keep_fn(lo, hi, bitmap_ids)``, in visit order.

    Level-by-level walk of the shallow tree, one numpy pass per depth.
    Children sit exactly one level below their parents, so each frontier
    holds all surviving nodes of one depth. Surviving leaves are collected
    and re-ordered by the stack-DFS visit rank — pruning removes subtrees
    but never reorders the rest, so traversing the returned leaves in
    order matches the recursive walk's emission order exactly. Every node
    tested counts in ``stats.nodes_visited``.
    """

    def keep_of(recs):
        stats.nodes_visited += len(recs)
        bb = recs["bbox"].astype(np.float64)
        return keep_fn(bb[:, :3], bb[:, 3:], recs["bitmap_ids"])

    empty = np.empty(0, dtype=np.int64)
    root, root_is_leaf = bat.root()
    inner = empty if root_is_leaf else np.array([root], dtype=np.int64)
    leaves = np.array([root], dtype=np.int64) if root_is_leaf else empty
    found: list[np.ndarray] = []
    while inner.size or leaves.size:
        if leaves.size:
            keep = keep_of(bat.shallow_leaves[leaves])
            if keep.any():
                found.append(leaves[keep])
        if inner.size:
            recs = bat.shallow_inner[inner]
            srecs = recs[keep_of(recs)]
            raw = np.concatenate([srecs["left"], srecs["right"]]).astype(np.uint32)
            is_leaf = (raw & LEAF_FLAG) != 0
            child = (raw & ~LEAF_FLAG).astype(np.int64)
            inner, leaves = child[~is_leaf], child[is_leaf]
        else:
            inner = leaves = empty
    if not found:
        return empty
    hits = np.concatenate(found)
    rank = bat.shallow_leaf_visit_rank()
    return hits[np.argsort(rank[hits])]


def _table_survivors(table: np.ndarray, keep: np.ndarray):
    """``(alive, visited)`` of a walk table, from each row's own test result.

    A top-down walk visits a node when every ancestor passed and keeps it
    when it passes too. Where boxes and bitmaps nest (``table["nests"]``,
    every file the builder writes) a failing parent implies failing
    children, so ``keep`` already is that set; otherwise it is pushed down
    the table one level at a time.
    """
    parent = table["parent"]
    if not table["nests"][0]:
        keep = keep.copy()
        depth = table["depth"]
        for d in range(1, int(depth.max()) + 1):
            rows = np.flatnonzero(depth == d)
            keep[rows] &= keep[parent[rows]]
    visited = keep[parent]
    visited[0] = True
    return keep, visited


class _TreeletWalk:
    """One treelet's pruned read, advanced one quality window at a time.

    Pruning does not depend on quality, so the first window tests the
    whole walk table at once and later windows reuse the masks. What a
    window still decides is depth: it counts the visited nodes of the
    depths no earlier window reached (the recursive walk's counters under
    the depth cutoff — no node below ``floor(e_hi)`` is ever counted), and
    emits the kept nodes of the depths it covers, with the same monotone
    slot-range rounding as the recursive walk — consecutive windows chain
    with no gap and no overlap.
    """

    __slots__ = ("tv", "_leaf", "_alive", "_visited", "_inside", "_reached", "_spent")

    def __init__(self, bat: BATFile, leaf: int) -> None:
        self.tv = bat.treelet(leaf)
        self._leaf = leaf
        #: kept / visited / box-passing rows of the walk table (first window)
        self._alive = self._visited = self._inside = None
        #: deepest depth whose visited nodes are counted already
        self._reached = -1
        #: the treelet was emitted whole: no later window adds anything
        self._spent = False

    def rows(self, bat: BATFile, ctx: _QueryContext, e_lo: float, e_hi: float):
        """Rows this treelet adds between effective depths ``e_lo → e_hi``.

        Returns :func:`_gather`'s tuple, or ``None`` when the window adds
        nothing here.
        """
        if self._spent:
            return None
        tv = self.tv
        if _full_speed(bat, self._leaf, tv, ctx, e_lo, e_hi):
            # No box test runs here, so under column projection the node
            # records and the position block are never touched — a
            # one-column read decodes just that column.
            self._spent = True
            ctx.stats.nodes_visited += 1
            pos = tv.positions if ctx.with_positions else None
            n = tv.n_points
            return pos, ctx.select_attrs(tv.attributes), n, slice(0, n), None
        table = tv.walk_table
        depth = table["depth"]
        if self._alive is None:
            self._inside, keep = _node_tests(ctx, table["lo"], table["hi"], table["bitmaps"])
            self._alive, self._visited = _table_survivors(table, keep)
        fl_lo, fl_hi = math.floor(e_lo), math.floor(e_hi)
        upto = depth <= fl_hi
        if fl_hi > self._reached:
            new = upto & (depth > self._reached)
            seen = self._visited & new
            n = int(np.count_nonzero(seen))
            ctx.stats.nodes_visited += n
            _count_prunes(
                ctx.stats,
                n,
                n if self._inside is None else int(np.count_nonzero(seen & self._inside)),
                int(np.count_nonzero(self._alive & new)),
            )
            self._reached = fl_hi
        sel = np.flatnonzero(self._alive & upto & (depth >= fl_lo))
        if not sel.size:
            return None
        d = depth[sel]
        beg = table["begin"][sel]
        cnt = table["count"][sel]
        # Same rounding as the recursive walk: truncation of f*count + 0.5
        # (values are non-negative), f = clip(e - depth, 0, 1).
        lo_slot = beg + (np.clip(e_lo - d, 0.0, 1.0) * cnt + 0.5).astype(np.int64)
        hi_slot = beg + (np.clip(e_hi - d, 0.0, 1.0) * cnt + 0.5).astype(np.int64)
        nz = hi_slot > lo_slot
        if not nz.all():
            lo_slot, hi_slot = lo_slot[nz], hi_slot[nz]
            if not lo_slot.size:
                return None
        # Rows are node ids, assigned in pre-order: exactly the recursive
        # walk's emission order (and ascending slot order, by construction
        # of the node-order particle layout).
        return _gather(tv, lo_slot, hi_slot, ctx)


def _concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenate ``[lo[i], hi[i])`` ranges into one index array, no loop."""
    lens = hi - lo
    nz = lens > 0
    if not nz.all():
        lo, hi, lens = lo[nz], hi[nz], lens[nz]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = lo[0]
    ends = np.cumsum(lens)[:-1]
    steps[ends] = lo[1:] - hi[:-1] + 1
    return np.cumsum(steps)


def _gather(tv, lo_slot: np.ndarray, hi_slot: np.ndarray, ctx: _QueryContext):
    """Gather the surviving slot ranges of one treelet and check every row.

    A single contiguous run (the common case for full-quality reads of a
    whole subtree) stays a zero-copy slice of the mapped file; fragmented
    ranges gather through one fancy-index pass. Returns ``(positions |
    None, attrs, count, sel, mask)`` — ``sel`` the slots tested (a slice
    or an index array), ``mask`` which of them passed (``None`` = all) —
    or ``None`` when no row passes.
    """
    if (lo_slot[1:] == hi_slot[:-1]).all():
        sel: slice | np.ndarray = slice(int(lo_slot[0]), int(hi_slot[-1]))
        n_sel = sel.stop - sel.start
    else:
        sel = _concat_ranges(lo_slot, hi_slot)
        n_sel = len(sel)
    ctx.stats.points_tested += n_sel
    # positions decode only when returned or needed for the box test
    pos = None
    if ctx.with_positions or ctx.box is not None:
        pos = tv.positions[sel]
    mask = None
    if ctx.box is not None:
        mask = ctx.box.contains_points(pos)
    # each column is fetched and gathered once: a filter column that is
    # also returned reuses the values its filter tested
    cols: dict[str, np.ndarray] = {}
    for f in ctx.filters:
        vals = cols.get(f.name)
        if vals is None:
            vals = cols[f.name] = tv.attributes[f.name][sel]
        fmask = (vals >= f.lo) & (vals <= f.hi)
        mask = fmask if mask is None else (mask & fmask)
    if not ctx.with_positions:
        pos = None
    count = n_sel if mask is None else int(mask.sum())
    if count == 0:
        return None
    # selection is by key so lazily decoded (v4) columns outside the
    # requested set are never materialized
    attrs = {}
    for n in tv.attributes:
        if ctx.attributes is None or n in ctx.attributes:
            vals = cols[n] if n in cols else tv.attributes[n][sel]
            attrs[n] = vals if mask is None else vals[mask]
    if pos is not None and mask is not None:
        pos = pos[mask]
    return pos, attrs, count, sel, mask


def _concat(parts: list[np.ndarray], dtype, shape=(0,)) -> np.ndarray:
    """``np.concatenate`` that turns no parts into a typed empty array."""
    return np.concatenate(parts) if parts else np.empty(shape, dtype=dtype)


def _walks(bat: BATFile, ctx: _QueryContext):
    """One :class:`_TreeletWalk` per surviving treelet, in emission order."""

    def keep_fn(lo, hi, bitmap_ids):
        bitmaps = bat.bitmaps_many(bitmap_ids) if ctx.bitmap_tests else None
        inside, keep = _node_tests(ctx, lo, hi, bitmaps)
        n = len(keep)
        _count_prunes(
            ctx.stats,
            n,
            n if inside is None else int(np.count_nonzero(inside)),
            int(np.count_nonzero(keep)),
        )
        return keep

    for leaf in _survivor_leaves(bat, keep_fn, ctx.stats):
        ctx.stats.treelets_visited += 1
        yield _TreeletWalk(bat, int(leaf))


def _window_rows(bat: BATFile, ctx: _QueryContext, walks, e_lo: float, e_hi: float):
    """``(treelet rank, rows)`` of every walk with rows in ``e_lo → e_hi``."""
    for rank, walk in enumerate(walks):
        rows = walk.rows(bat, ctx, e_lo, e_hi)
        if rows is not None:
            yield rank, rows


# -- streamed reads -------------------------------------------------------------


@dataclass
class FileIncrement:
    """Rows one quality rung of a streamed file read adds.

    ``treelet_rank`` and ``slots`` are per-row order keys: stably sorting
    the concatenation of a file's increments by ``(treelet_rank, slot)``
    reproduces the direct synchronous emission order byte for byte —
    treelets emit in visit-rank order, and within a treelet node ids are
    assigned pre-order, which is ascending slot order by construction of
    the node-order particle layout.
    """

    quality: float
    prev_quality: float
    positions: np.ndarray | None
    attributes: dict[str, np.ndarray]
    count: int
    treelet_rank: np.ndarray
    slots: np.ndarray


def stream_query_file(
    bat: BATFile,
    ladder,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    attributes: list[str] | None = None,
    with_positions: bool = True,
    stats: QueryStats | None = None,
):
    """Stream one file's (progressive) read as per-rung increments.

    ``ladder`` is a non-descending sequence of qualities starting above
    ``prev_quality`` and ending at the target quality (see
    :func:`default_quality_ladder`). Exactly one :class:`FileIncrement` is
    yielded per rung — possibly empty. Each rung is one window of the
    traversal :func:`query_file` runs once, over walks kept from rung to
    rung, so two invariants hold:

    - *Reassembly*: the concatenation of all increments, stably sorted by
      ``(treelet_rank, slot)``, is byte-identical to
      ``query_file(bat, ladder[-1], prev_quality, ...)``.
    - *Truncation*: stopping after rung *k* leaves exactly the rows of a
      direct query at quality ``ladder[k]`` — rung ranges chain with no
      overlap and no gap, so a shed or abandoned stream is a valid
      lower-quality result, refinable later from ``prev_quality =
      ladder[k]``.

    ``stats`` may pass a caller-owned :class:`QueryStats` to accumulate
    into (the dataset layer shares one across a stream's files); work
    counters advance as rungs are consumed. A one-rung ladder does exactly
    a direct query's work. After the final rung of a longer one,
    ``points_returned`` and the prune counters equal the direct query's;
    ``points_tested``/``nodes_visited`` can be higher where the direct
    query takes the whole-treelet fast path a rung-split read cannot.
    """
    ladder = tuple(float(q) for q in ladder)
    if not ladder:
        raise InvalidRequestError("ladder must have at least one rung")
    lo = prev_quality
    for q in ladder:
        if not lo <= q <= 1.0:
            raise InvalidRequestError(
                "ladder must be non-descending within [prev_quality, 1]"
            )
        lo = q
    ctx = _prepare(
        bat, ladder[-1], prev_quality, box, filters, attributes, with_positions,
        stats=stats,
    )
    walks = list(_walks(bat, ctx)) if ctx.live else []
    specs = bat.attribute_specs()
    if attributes is not None:
        specs = [sp for sp in specs if sp.name in attributes]
    prev = prev_quality
    for q in ladder:
        pos_parts: list[np.ndarray] = []
        slot_parts: list[np.ndarray] = []
        rank_parts: list[np.ndarray] = []
        attr_parts: dict[str, list[np.ndarray]] = {sp.name: [] for sp in specs}
        total = 0
        window = _window_rows(
            bat, ctx, walks,
            quality_to_depth(prev, bat.max_treelet_depth),
            quality_to_depth(q, bat.max_treelet_depth),
        )
        for rank, (pos, attrs, count, sel, mask) in window:
            total += count
            if pos is not None:
                pos_parts.append(pos)
            for name, arr in attrs.items():
                attr_parts[name].append(arr)
            # the order keys: the node-order slot of every returned row
            slots = (
                np.arange(sel.start, sel.stop, dtype=np.int64)
                if isinstance(sel, slice) else sel
            )
            slot_parts.append(slots if mask is None else slots[mask])
            rank_parts.append(np.full(count, rank, dtype=np.int64))
        ctx.stats.points_returned += total
        yield FileIncrement(
            quality=q,
            prev_quality=prev,
            positions=_concat(pos_parts, np.float32, (0, 3)) if with_positions else None,
            attributes={
                sp.name: _concat(attr_parts[sp.name], sp.dtype) for sp in specs
            },
            count=total,
            treelet_rank=_concat(rank_parts, np.int64),
            slots=_concat(slot_parts, np.int64),
        )
        prev = q
