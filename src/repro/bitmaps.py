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
    "query_bitmaps",
    "bin_intervals",
    "remap_bitmaps",
    "REMAP_WIDENING",
    "bitmap_bins",
    "BitmapDictionary",
]

BITMAP_BITS = 32
FULL_BITMAP = np.uint32(0xFFFFFFFF)
_MIN_SPAN = BITMAP_BITS / np.finfo(np.float64).max  #: narrowest span with a finite bin scale


def value_bins(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Bin index in ``[0, 32)`` for each value relative to ``[lo, hi]``.

    Values outside the range clamp to the boundary bins; a degenerate range
    maps everything to bin 0, and so does one too narrow for a finite bin
    scale (a subnormal span: ``0 * inf`` would cast NaN to int).
    """
    values = np.asarray(values, dtype=np.float64)
    span = hi - lo
    if not span > _MIN_SPAN:
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


#: bin numbers 0..31, as shifts and as multipliers of a bin width
_BINS = np.arange(BITMAP_BITS, dtype=np.uint32)


def query_bitmaps(qlo, qhi, lo, hi) -> np.ndarray:
    """:func:`query_bitmap` elementwise over broadcast arrays (uint32).

    The same float64 expressions in the same order, so every element
    equals the scalar call on the same four numbers.
    """
    qlo, qhi, lo, hi = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.float64) for a in (qlo, qhi, lo, hi))
    )
    span = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # value_bins of the clamped bounds; lanes overruled below may hold
        # garbage from a zero span
        scale = BITMAP_BITS / span
        first = ((np.maximum(qlo, lo) - lo) * scale).astype(np.int64)
        last = ((np.minimum(qhi, hi) - lo) * scale).astype(np.int64)
    np.clip(first, 0, BITMAP_BITS - 1, out=first)
    np.clip(last, 0, BITMAP_BITS - 1, out=last)
    # bits first..last: a uint64 difference of powers, so all 32 fit
    one = np.uint64(1)
    bits = (one << (last + 1).astype(np.uint64)) - (one << first.astype(np.uint64))
    bits = np.where(span <= 0, np.uint64(FULL_BITMAP), bits)
    bits[(span > 0) & ((qhi < lo) | (qlo > hi))] = 0
    bits[qhi < qlo] = 0
    return bits.astype(np.uint32)


def bin_intervals(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """``(blo, bhi)``: the value interval of each of the 32 equi-width bins
    of ``[lo, hi]``, as ``blo = lo + b * width``, ``bhi = blo + width``.

    Vectorized over array ``lo`` / ``hi`` (a trailing axis of 32 is
    added). A degenerate range holds only ``lo``, so every bin collapses
    onto it.
    """
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    span = np.asarray(hi, dtype=np.float64)[..., None] - lo
    width = np.where(span <= 0, 0.0, span / BITMAP_BITS)
    blo = lo + _BINS * width
    return blo, blo + width


#: outward widening of a rebuilt bin interval, per unit of its range's
#: magnitude: the rounding bound derived in :func:`remap_bitmaps`
REMAP_WIDENING = 8 * float(np.finfo(np.float64).eps)


def remap_bitmaps(bitmaps, blo, bhi, glo, ghi) -> np.ndarray:
    """Re-express local bitmaps against global equi-width ranges, in one pass.

    Bit ``b`` of ``bitmaps[...]`` stands for the local value interval
    ``[blo[..., b], bhi[..., b]]`` (:func:`bin_intervals`, or an
    equi-depth binning's edges); the result covers every set bit's
    interval with the bins of ``[glo, ghi]`` it overlaps — conservative,
    so a value the local bitmap admits is never pruned globally. Rank 0
    merges every aggregator's root bitmaps this way (§III-D), and equals
    the scalar loop kept in ``tests/reference_metadata.py`` bit for bit.

    **Why each interval is widened.** :func:`value_bins` puts ``v`` in
    bin ``b`` of ``[lo, hi]`` when ``b ≤ fl(fl(v - lo)·fl(32 / s)) < b + 1``
    with ``s = fl(hi - lo)``: three roundings, so (``u = eps / 2``,
    ``w = s / 32``) ``v`` lies within ``3u·(b + 1)·w ≤ 3u·s`` of the exact
    interval ``[lo + b·w, lo + (b + 1)·w]``; the clamped top bin also
    holds ``hi``, which ``lo + s`` misses by up to ``u·|hi - lo|``. The
    rebuilt ends ``fl(lo + fl(b·w))`` and ``fl(blo + w)`` are within
    ``u·s + 2u·M`` of the exact ones, ``M`` being the largest edge
    magnitude of the range. With ``s ≤ 2M``, a value of bin ``b`` lies at
    most ``10u·M`` outside ``[blo, bhi]``. Both ends move out by
    ``8·eps·M = 16u·M`` (:data:`REMAP_WIDENING`), ``15u·M`` after the
    widening's own rounding, so the widened interval holds every value
    the bit admits; its ends are binned by :func:`value_bins` itself,
    which is monotone, so each such value's global bin is covered. The
    cover can only grow: a leaf may gain the global bin next to an edge
    its range ends on. (Equi-depth bins are exact comparisons against
    their edges and would need no widening; one rule serves both.)
    """
    bitmaps = np.asarray(bitmaps, dtype=np.uint32)[..., None]
    set_bits = ((bitmaps >> _BINS) & 1) == 1
    blo = np.asarray(blo, dtype=np.float64)
    bhi = np.asarray(bhi, dtype=np.float64)
    pad = REMAP_WIDENING * np.maximum(np.abs(blo), np.abs(bhi)).max(axis=-1, keepdims=True)
    cover = query_bitmaps(
        blo - pad, bhi + pad, np.asarray(glo, dtype=np.float64)[..., None],
        np.asarray(ghi, dtype=np.float64)[..., None],
    )
    return np.bitwise_or.reduce(np.where(set_bits, cover, np.uint32(0)), axis=-1)


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
