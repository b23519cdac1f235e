"""The recursive read walk: executable spec for ``repro.bat.query.query_file``.

This is the original per-node stack walk, kept as the reference the read
tests compare against — the role ``reference_treelet.py`` plays for the
treelet builder. Nothing in ``src/`` calls it. It shares the request
prologue and the result assembly with the core (``_prepare`` /
``_result``), so both validate and count the same way; the walk itself —
which nodes are visited, pruned, windowed and emitted — is its own.

Both return identical batches and identical ``points_tested`` /
``points_returned`` / ``treelets_visited`` counters; ``nodes_visited`` and
the per-subtree prune counters can be lower for the core because of its
depth cutoff.
"""

from __future__ import annotations

import math

from repro.bat.file import BATFile
from repro.bat.query import AttributeFilter, QueryStats, _prepare, _result
from repro.types import Box, ParticleBatch

__all__ = ["query_file_recursive"]


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
    """:func:`~repro.bat.query.query_file` by the per-node stack walk.

    Same arguments, same bytes, one emitted chunk per node.
    """
    ctx = _prepare(
        bat, quality, prev_quality, box, filters, attributes, with_positions, callback
    )
    if ctx.live:
        _traverse_shallow(bat, ctx)
    return _result(bat, ctx)


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
        ctx.emit(tv.positions, attrs)
    else:
        ctx.emit(None, attrs, count=tv.n_points)


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
        ctx.emit(pos, {n: tv.attributes[n][lo_slot:hi_slot] for n in names}, count=n_sel)
    elif mask.any():
        ctx.emit(
            pos[mask] if pos is not None else None,
            {n: tv.attributes[n][lo_slot:hi_slot][mask] for n in names},
            count=int(mask.sum()),
        )
