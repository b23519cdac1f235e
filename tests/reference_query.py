"""The recursive read walk: executable spec for ``repro.bat.query.query_file``
— and the per-file stream loop, the spec for ``BATDataset.stream``.

This is the original per-node stack walk, kept as the reference the read
tests compare against — the role ``reference_treelet.py`` plays for the
treelet builder. Nothing in ``src/`` calls it. Its request prologue
(``_prepare``) is its own copy of what the core derives per file — query
bitmaps under the file's binnings, effective depths, the ``live`` flag —
and so is the walk itself: which nodes are visited, pruned, windowed and
emitted, one file at a time.

Both return identical batches and identical ``points_tested`` /
``points_returned`` / ``treelets_visited`` counters; ``nodes_visited`` and
the per-subtree prune counters can be lower for the core because of its
depth cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api import StreamIncrement
from repro.bat.file import BATFile
from repro.bat.query import (
    LEAF_ERRORS,
    AttributeFilter,
    QueryStats,
    quality_to_depth,
    stream_query_file,
)
from repro.bitmaps import query_bitmap
from repro.core.dataset import _split_columns, empty_batch
from repro.errors import InvalidRequestError
from repro.types import Box, ParticleBatch

__all__ = ["query_file_recursive", "stream_per_file"]


@dataclass
class _QueryContext:
    """One file's side of a read: its request, derived for its own binnings
    and tree depth, and its counters."""

    bat: BATFile
    box: Box | None
    filters: tuple[AttributeFilter, ...]
    e_prev: float
    e_new: float
    attributes: tuple[str, ...] | None
    with_positions: bool
    #: False when the root already proves the read empty
    live: bool
    #: per filter ``(attribute index, query bitmap)``
    bitmap_tests: tuple[tuple[int, int], ...]
    stats: QueryStats = field(default_factory=QueryStats)
    out: object = None


def _prepare(bat, quality, prev_quality, box, filters, attributes, with_positions):
    """Validate one file read and derive what the walk needs."""
    if prev_quality > quality:
        raise InvalidRequestError("prev_quality must be <= quality")
    for name in attributes or ():
        bat.attr_index(name)  # raises KeyError for unknown names
    filters = tuple(filters)
    # each filter's query bitmap under the file's binning of its attribute
    qbitmaps = []
    for f in filters:
        binning = bat.binnings.get(f.name)
        if binning is not None:
            qbitmaps.append(int(binning.query(f.lo, f.hi)))
        else:
            lo, hi = bat.attr_ranges[f.name]
            qbitmaps.append(int(query_bitmap(f.lo, f.hi, lo, hi)))
    tests = tuple((bat.attr_index(f.name), q) for f, q in zip(filters, qbitmaps))
    e_new = quality_to_depth(quality, bat.max_treelet_depth)
    ctx = _QueryContext(
        bat=bat, box=box, filters=filters,
        e_prev=quality_to_depth(prev_quality, bat.max_treelet_depth), e_new=e_new,
        attributes=tuple(attributes) if attributes is not None else None,
        with_positions=bool(with_positions),
        live=not (
            e_new == 0.0
            or any(q == 0 for _, q in tests)
            or (box is not None and not bat.bounds.intersects(box))
        ),
        bitmap_tests=tests,
    )
    ctx.stats.files_opened += 1
    return ctx


def query_file_recursive(
    bat: BATFile,
    quality: float = 1.0,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    attributes: list[str] | None = None,
    with_positions: bool = True,
) -> tuple[ParticleBatch, QueryStats]:
    """:func:`~repro.bat.query.query_file` by the per-node stack walk.

    Same arguments, same bytes, one emitted chunk per node.
    """
    ctx = _prepare(bat, quality, prev_quality, box, filters, attributes, with_positions)
    ctx.out = _Out(ctx.stats)
    if ctx.live:
        _traverse_shallow(bat, ctx)
    if ctx.stats.points_returned == 0:
        specs = bat.attribute_specs()
        if ctx.attributes is not None:
            specs = [sp for sp in specs if sp.name in ctx.attributes]
        return ParticleBatch.empty(specs, with_positions=ctx.with_positions), ctx.stats
    return concat_chunks(ctx.out.chunks, ctx.with_positions, ctx.stats.points_returned), ctx.stats


def concat_chunks(chunks, with_positions: bool, count: int) -> ParticleBatch:
    """One batch from a non-empty list of ``(positions, attrs)`` chunks
    (``count`` rows: what sizes a batch with neither positions nor
    attributes)."""
    attrs = {name: np.concatenate([a[name] for _, a in chunks]) for name in chunks[0][1]}
    positions = np.concatenate([p for p, _ in chunks]) if with_positions else None
    return ParticleBatch(positions, attrs, count=count)


class _Out:
    """Where the walk's rows go: ``(positions, attrs)`` chunks."""

    def __init__(self, stats: QueryStats):
        self.stats = stats
        self.chunks = []

    def emit(self, positions, attrs, count=None) -> None:
        n = int(count) if positions is None else len(positions)
        if n == 0:
            return
        self.stats.points_returned += n
        self.chunks.append((positions, attrs))


def _depth_fraction(depth: int, e: float) -> float:
    """Fraction of a depth-``depth`` node's own particles covered at ``e``."""
    fl = math.floor(e)
    if depth < fl:
        return 1.0
    if depth == fl:
        return e - fl
    return 0.0


def _bitmaps_prune(bat: BATFile, bitmap_ids, ctx) -> bool:
    """True when the node's bitmaps prove no filter can match below it."""
    for a, qbitmap in ctx.bitmap_tests:
        if bat.bitmap(int(bitmap_ids[a])) & int(qbitmap) == 0:
            return True
    return False


def _traverse_shallow(bat: BATFile, ctx) -> None:
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


def _full_speed(bat: BATFile, leaf: int, tv, ctx, e_lo: float, e_hi: float) -> bool:
    """Whole treelet requested at full quality: one contiguous emit."""
    return (
        not ctx.filters
        and e_lo == 0.0
        and e_hi >= tv.max_depth + 1
        and (ctx.box is None or ctx.box.contains_box(bat.leaf_box(leaf)))
    )


def _emit_full_treelet(tv, ctx) -> None:
    """Emit a whole treelet (full-speed plan) decoding only what's needed.

    No box test runs here, so under column projection the node records and
    the position block are never touched — a one-column read decodes just
    that column.
    """
    ctx.stats.nodes_visited += 1
    # key-based so unselected lazy (v4) columns never decode
    attrs = {
        k: tv.attributes[k] for k in tv.attributes
        if ctx.attributes is None or k in ctx.attributes
    }
    if ctx.with_positions:
        ctx.out.emit(tv.positions, attrs)
    else:
        ctx.out.emit(None, attrs, count=tv.n_points)


def _traverse_treelet(bat: BATFile, leaf: int, leaf_box: Box, ctx) -> None:
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


def _emit_points(tv, lo_slot: int, hi_slot: int, ctx) -> None:
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
        ctx.out.emit(pos, {n: tv.attributes[n][lo_slot:hi_slot] for n in names}, count=n_sel)
    elif mask.any():
        ctx.out.emit(
            pos[mask] if pos is not None else None,
            {n: tv.attributes[n][lo_slot:hi_slot][mask] for n in names},
            count=int(mask.sum()),
        )


# -- the per-file stream --------------------------------------------------------


def stream_per_file(ds, req, ladder, plan):
    """``ds.stream(req, ladder, plan)`` as one ``stream_query_file``
    generator per planned file, stitched rung by rung.

    The dataset's stream loop before a stream became one step, kept as
    the reference the stepped stream is held to (its ``decoded_bytes``
    stay 0: this loop never set them) — changed to read a file
    increment's keys from its one ``keys`` array, to key a file's rows by
    its leaf index, and to count each file on its own, so a rung's
    counters sum the files still in the stream (a dropped file counts
    only as quarantined). ``ladder`` must already be checked.
    """
    attributes, with_positions = _split_columns(req.columns)
    quarantined = plan.excluded_files
    # per-leaf telemetry gathered over the stream's whole life: the
    # handle and its decode counter at stream start, points delivered
    leaf_handles: dict[int, tuple] = {}
    leaf_points: dict[int, int] = {}
    with ds._cache.lease(
        [ds._leaf_paths[fp.leaf_index] for fp in plan.files]
    ):
        # [(leaf_index, per-file increment generator, its counters)]
        gens = []
        for fp in plan.files:
            try:
                f = ds.file(fp.leaf_index)
                leaf_handles[fp.leaf_index] = (f, f.decoded_bytes)
            except LEAF_ERRORS as exc:
                ds._leaf_failed(fp.leaf_index, exc, req.on_error)
                quarantined += 1
                continue
            stats = QueryStats()
            gens.append(
                (
                    fp.leaf_index,
                    stream_query_file(
                        f,
                        ladder,
                        prev_quality=req.prev_quality,
                        box=fp.box,
                        filters=req.filters,
                        attributes=attributes,
                        with_positions=with_positions,
                        stats=stats,
                    ),
                    stats,
                )
            )
        try:
            yield from _stream_ladder(
                ds, req, ladder, gens, plan, quarantined, leaf_points
            )
        finally:
            # record what the stream actually touched, even when the
            # consumer closed it early at a rung boundary (shedding)
            if ds.telemetry is not None:
                ds.telemetry.view(
                    req.box, req.filters, ds._materialized_columns(req)
                )
                for leaf_index, (f, decoded_before) in leaf_handles.items():
                    ds.telemetry.leaf(
                        leaf_index,
                        points=leaf_points.get(leaf_index, 0),
                        decoded_bytes=max(f.decoded_bytes - decoded_before, 0),
                    )


def _stream_ladder(ds, req, ladder, gens, plan, quarantined, leaf_points):
    prev = req.prev_quality
    for q in ladder:
        parts: list[ParticleBatch] = []
        orders: list[np.ndarray] = []
        dead: list[int] = []
        for slot, (leaf_index, gen, _) in enumerate(gens):
            try:
                inc = next(gen)
            except LEAF_ERRORS as exc:
                ds._leaf_failed(leaf_index, exc, req.on_error)
                quarantined += 1
                dead.append(slot)
                continue
            if inc.count:
                leaf_points[leaf_index] = (
                    leaf_points.get(leaf_index, 0) + inc.count
                )
                parts.append(
                    ParticleBatch(
                        inc.positions, inc.attributes, count=inc.count
                    )
                )
                okeys = np.empty((inc.count, 3), dtype=np.int64)
                okeys[:, 0] = leaf_index
                okeys[:, 1] = inc.keys[:, 1]
                okeys[:, 2] = inc.keys[:, 2]
                orders.append(okeys)
        for slot in reversed(dead):
            gens.pop(slot)[1].close()
        if parts:
            batch = (
                ParticleBatch.concatenate(parts) if len(parts) > 1 else parts[0]
            )
            order = (
                np.concatenate(orders, axis=0) if len(orders) > 1 else orders[0]
            )
        else:
            batch = empty_batch(ds, req.columns)
            order = np.empty((0, 3), dtype=np.int64)
        stats = QueryStats(pruned_files=plan.pruned_files, quarantined_files=quarantined)
        for *_, file_stats in gens:
            stats.merge(file_stats)
        yield StreamIncrement(
            quality=q,
            prev_quality=prev,
            batch=batch,
            order=order,
            stats=stats,
            partial=quarantined > 0,
        )
        prev = q
