"""Fixed-size (32-bit) binned bitmap indices for attribute filtering.

Each bitmap summarizes one attribute over a set of particles: bit *i* is set
iff some particle's value falls in bin *i* of 32 equal-width bins spanning a
reference value range. Following the paper, bitmaps are fixed at 32 bits so
they occupy predictable storage and can be deduplicated through a dictionary
addressed by 16-bit IDs (§III-C2/C3).

Bitmaps combine with bitwise OR (union of children) and test for overlap
with bitwise AND (query pruning). Because binning is conservative, a zero
AND proves the subtree holds no matching value (no false negatives); a
nonzero AND still requires a per-particle false-positive check (§V-A).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BITMAP_BITS",
    "FULL_BITMAP",
    "value_bins",
    "bitmap_of_values",
    "or_bins_by_group",
    "bitmaps_by_group",
    "query_bitmap",
    "remap_bitmap",
    "bitmap_bins",
    "BitmapDictionary",
]

BITMAP_BITS = 32
FULL_BITMAP = np.uint32(0xFFFFFFFF)


def value_bins(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Bin index in ``[0, 32)`` for each value relative to ``[lo, hi]``.

    Values outside the range clamp to the boundary bins; a degenerate range
    maps everything to bin 0.
    """
    values = np.asarray(values, dtype=np.float64)
    span = hi - lo
    if span <= 0:
        return np.zeros(values.shape, dtype=np.int64)
    bins = ((values - lo) * (BITMAP_BITS / span)).astype(np.int64)
    np.clip(bins, 0, BITMAP_BITS - 1, out=bins)
    return bins


def bitmap_of_values(values: np.ndarray, lo: float, hi: float) -> np.uint32:
    """Bitmap covering every value in the array."""
    values = np.asarray(values)
    if values.size == 0:
        return np.uint32(0)
    bins = value_bins(values, lo, hi)
    bits = np.bitwise_or.reduce(np.uint32(1) << bins.astype(np.uint32))
    return np.uint32(bits)


def or_bins_by_group(bins: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group bitmaps from per-value bin indices, in one pass.

    ``group_ids`` assigns each value to a group in ``[0, n_groups)``, in any
    order; the result is a uint32 array of length ``n_groups`` (zero for
    empty groups). This is the hot path of BAT construction — one call
    covers every node of a file — so it neither loops over groups nor
    sorts: membership goes into a ``(group, bin)`` presence table by one
    assignment, and each row packs into its 32 bits.
    """
    present = np.zeros((n_groups, BITMAP_BITS), dtype=bool)
    present[group_ids, bins] = True
    return np.packbits(present, axis=1, bitorder="little").view("<u4").ravel()


def bitmaps_by_group(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int, lo: float, hi: float
) -> np.ndarray:
    """Per-group equi-width bitmaps relative to ``[lo, hi]``."""
    return or_bins_by_group(value_bins(values, lo, hi), group_ids, n_groups)


def query_bitmap(qlo: float, qhi: float, lo: float, hi: float) -> np.uint32:
    """Bitmap matching any value in ``[qlo, qhi]`` relative to ``[lo, hi]``.

    Sets every bin overlapping the query interval. A query disjoint from the
    reference range returns 0 (nothing can match); a degenerate reference
    range returns the full bitmap (no pruning possible).
    """
    if qhi < qlo:
        return np.uint32(0)
    span = hi - lo
    if span <= 0:
        return FULL_BITMAP
    if qhi < lo or qlo > hi:
        return np.uint32(0)
    # The bounds go through the same function that binned the stored values
    # (clamped into the range first, so ±inf never reaches the int cast):
    # value_bins is monotone, so every value in [qlo, qhi] lands in
    # [first, last] even when a bound sits exactly on a bin edge.
    first, last = value_bins(np.array([max(qlo, lo), min(qhi, hi)]), lo, hi)
    count = int(last - first) + 1
    if count >= BITMAP_BITS:
        return FULL_BITMAP
    return np.uint32(((1 << count) - 1) << int(first))


def bitmap_bins(bitmap: int) -> list[int]:
    """Indices of set bits, ascending."""
    return [i for i in range(BITMAP_BITS) if (int(bitmap) >> i) & 1]


def remap_bitmap(bitmap: int, lo: float, hi: float, glo: float, ghi: float) -> np.uint32:
    """Re-express a bitmap built against ``[lo, hi]`` relative to ``[glo, ghi]``.

    Used when rank 0 merges aggregator-local bitmaps into the global-range
    Aggregation Tree metadata (§III-D). Each set local bin's value interval
    is conservatively covered by the global bins it overlaps.
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


class BitmapDictionary:
    """Deduplicates uint32 bitmaps behind 16-bit IDs (§III-C3).

    The compacted BAT file stores one dictionary per file and replaces every
    node bitmap with an index into it. 16-bit IDs cap the dictionary at 65536
    entries; :meth:`add` raises if a file somehow exceeds that (the paper
    found 65k "more than sufficient in practice", and our tests confirm
    typical files use a few hundred).
    """

    MAX_ENTRIES = 1 << 16

    def __init__(self) -> None:
        self._ids: dict[int, int] = {}
        self._bitmaps: list[int] = []

    def add(self, bitmap: int) -> int:
        """Intern a bitmap, returning its 16-bit ID."""
        key = int(bitmap)
        found = self._ids.get(key)
        if found is not None:
            return found
        if len(self._bitmaps) >= self.MAX_ENTRIES:
            raise OverflowError("bitmap dictionary exceeded 65536 unique entries")
        idx = len(self._bitmaps)
        self._ids[key] = idx
        self._bitmaps.append(key)
        return idx

    def add_many(self, bitmaps: np.ndarray) -> np.ndarray:
        """Intern an array of bitmaps, returning uint16 IDs.

        Equivalent to calling :meth:`add` element by element (IDs are
        assigned in first-occurrence order, so files stay byte-identical),
        but dedups through one vectorized ``np.unique`` pass so only the
        handful of distinct bitmaps touch the Python dict.
        """
        flat = np.asarray(bitmaps).ravel()
        if flat.size == 0:
            return np.empty(0, dtype=np.uint16)
        vals, first, inv = np.unique(flat, return_index=True, return_inverse=True)
        ids = np.empty(len(vals), dtype=np.uint16)
        for j in np.argsort(first, kind="stable"):
            ids[j] = self.add(int(vals[j]))
        return ids[inv]

    def __len__(self) -> int:
        return len(self._bitmaps)

    def __getitem__(self, idx: int) -> int:
        return self._bitmaps[idx]

    def as_array(self) -> np.ndarray:
        return np.array(self._bitmaps, dtype=np.uint32)

    @staticmethod
    def from_array(arr: np.ndarray) -> "BitmapDictionary":
        d = BitmapDictionary()
        for v in np.asarray(arr, dtype=np.uint32):
            d.add(int(v))
        return d
