"""The scalar bitmap remap: executable spec for ``bitmaps.remap_bitmaps``.

Rank 0 re-expresses every leaf's root bitmaps on the global attribute
ranges (§III-D). This is the per-bitmap, per-set-bin loop it used to run —
one ``query_bitmap`` call per set bin — kept unchanged as the reference the
vectorized pass is compared against, the role ``reference_treelet`` plays
for the forest build. Manifests are byte-identical only if the two agree on
every bit, including wherever their shared rounding is questionable.

Each rebuilt bin interval is widened outward by ``REMAP_WIDENING`` times
the largest edge magnitude of its range before it is covered, exactly as
``remap_bitmaps`` widens it (its docstring derives the bound): a value on
or next to a global bin edge must never be pruned.
"""

from __future__ import annotations

import numpy as np

from repro.bitmaps import BITMAP_BITS, REMAP_WIDENING, bitmap_bins, query_bitmap


def _widened_cover(bitmap: int, intervals, glo: float, ghi: float) -> np.uint32:
    """OR of the global bins each set bit's widened interval overlaps."""
    magnitude = max(max(abs(a), abs(b)) for a, b in intervals)
    pad = REMAP_WIDENING * magnitude
    out = np.uint32(0)
    for b in bitmap_bins(bitmap):
        blo, bhi = intervals[b]
        out |= query_bitmap(blo - pad, bhi + pad, glo, ghi)
    return np.uint32(out)


def remap_bitmap_scalar(bitmap: int, lo: float, hi: float, glo: float, ghi: float) -> np.uint32:
    """Re-express a bitmap built against equi-width ``[lo, hi]`` relative to ``[glo, ghi]``.

    Each set local bin's value interval, widened, is conservatively
    covered by the global bins it overlaps.
    """
    bitmap = int(bitmap)
    if bitmap == 0:
        return np.uint32(0)
    span = hi - lo
    # a degenerate range holds only `lo`: every bin collapses onto it
    width = 0.0 if span <= 0 else span / BITMAP_BITS
    intervals = []
    for b in range(BITMAP_BITS):
        blo = lo + b * width
        intervals.append((blo, blo + width))
    return _widened_cover(bitmap, intervals, glo, ghi)


def remap_equidepth_scalar(bitmap: int, edges: np.ndarray, glo: float, ghi: float) -> np.uint32:
    """Cover each set quantile bin ``[edges[b], edges[b + 1]]``, widened, with global bins."""
    bitmap = int(bitmap)
    if bitmap == 0:
        return np.uint32(0)
    intervals = [(float(edges[b]), float(edges[b + 1])) for b in range(BITMAP_BITS)]
    return _widened_cover(bitmap, intervals, glo, ghi)
