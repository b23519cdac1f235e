"""The scalar bitmap remap: executable spec for ``bitmaps.remap_bitmaps``.

Rank 0 re-expresses every leaf's root bitmaps on the global attribute
ranges (§III-D). This is the per-bitmap, per-set-bin loop it used to run —
one ``query_bitmap`` call per set bin — kept unchanged as the reference the
vectorized pass is compared against, the role ``reference_treelet`` plays
for the forest build. Manifests are byte-identical only if the two agree on
every bit, including wherever their shared rounding is questionable.
"""

from __future__ import annotations

import numpy as np

from repro.bitmaps import BITMAP_BITS, bitmap_bins, query_bitmap


def remap_bitmap_scalar(bitmap: int, lo: float, hi: float, glo: float, ghi: float) -> np.uint32:
    """Re-express a bitmap built against equi-width ``[lo, hi]`` relative to ``[glo, ghi]``.

    Each set local bin's value interval is conservatively covered by the
    global bins it overlaps.
    """
    bitmap = int(bitmap)
    if bitmap == 0:
        return np.uint32(0)
    span = hi - lo
    if span <= 0:
        # All local values equal `lo`; they land in a single global bin.
        return query_bitmap(lo, lo, glo, ghi)
    out = np.uint32(0)
    width = span / BITMAP_BITS
    for b in bitmap_bins(bitmap):
        blo = lo + b * width
        bhi = blo + width
        out |= query_bitmap(blo, bhi, glo, ghi)
    return np.uint32(out)


def remap_equidepth_scalar(bitmap: int, edges: np.ndarray, glo: float, ghi: float) -> np.uint32:
    """Cover each set quantile bin ``[edges[b], edges[b + 1]]`` with global bins."""
    bitmap = int(bitmap)
    if bitmap == 0:
        return np.uint32(0)
    out = np.uint32(0)
    for b in bitmap_bins(bitmap):
        out |= query_bitmap(edges[b], edges[b + 1], glo, ghi)
    return np.uint32(out)
