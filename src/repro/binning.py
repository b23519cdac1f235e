"""Attribute binning schemes behind the 32-bit bitmap indices.

The paper uses equi-width bins over the aggregator-local value range and
names "more advanced binning schemes [Wu et al., 'Breaking the Curse of
Cardinality on Bitmap Indexes']" as the fix for attributes whose
distribution defeats equi-width bins (§VII). This module provides both:

- :class:`EquiWidthBinning` — 32 equal-width bins over ``[lo, hi]`` (the
  paper's default);
- :class:`EquiDepthBinning` — 32 equal-*population* bins at the value
  quantiles, so heavily skewed attributes still spread across all bits.

Both expose the same operations (bin assignment, bitmap construction,
query-bitmap computation, each bin's value interval for remapping to a
global equi-width reference), so the BAT builder, the query traversal and
rank 0's manifest are scheme-agnostic.
"""

from __future__ import annotations

import numpy as np

from .bitmaps import (
    BITMAP_BITS,
    FULL_BITMAP,
    bin_intervals,
    bitmap_of_values,
    bitmaps_by_group,
    or_bins_by_group,
    query_bitmap,
    value_bins,
)

__all__ = [
    "EquiWidthBinning",
    "EquiDepthBinning",
    "make_binning",
    "BINNING_EQUIWIDTH",
    "BINNING_EQUIDEPTH",
]

#: on-disk codes for the binning kind (BAT attribute table)
BINNING_EQUIWIDTH = 0
BINNING_EQUIDEPTH = 1


class EquiWidthBinning:
    """32 equal-width bins over ``[lo, hi]`` (paper §III-C2)."""

    kind = BINNING_EQUIWIDTH

    def __init__(self, lo: float, hi: float):
        self.lo = float(lo)
        self.hi = float(hi)

    def bins(self, values: np.ndarray) -> np.ndarray:
        return value_bins(values, self.lo, self.hi)

    def bitmap(self, values: np.ndarray) -> np.uint32:
        return bitmap_of_values(values, self.lo, self.hi)

    def group_bitmaps(self, values, group_ids, n_groups) -> np.ndarray:
        return bitmaps_by_group(values, group_ids, n_groups, self.lo, self.hi)

    def query(self, qlo: float, qhi: float) -> np.uint32:
        return query_bitmap(qlo, qhi, self.lo, self.hi)

    def bin_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each bin's value interval, for remapping to a global range."""
        return bin_intervals(self.lo, self.hi)

    def edges(self) -> np.ndarray:
        """The 33 bin boundaries (derived, for symmetric serialization)."""
        return np.linspace(self.lo, self.hi, BITMAP_BITS + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EquiWidthBinning)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EquiWidthBinning({self.lo}, {self.hi})"


class EquiDepthBinning:
    """32 equal-population bins at the value quantiles.

    Bin *i* covers ``[edges[i], edges[i+1]]``; edges are the empirical
    quantiles of the indexed values, so every bit carries information even
    for extremely skewed distributions (the failure mode of equi-width
    bins the paper's §VII flags).
    """

    kind = BINNING_EQUIDEPTH

    def __init__(self, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.float64)
        if edges.shape != (BITMAP_BITS + 1,):
            raise ValueError(f"need {BITMAP_BITS + 1} edges, got {edges.shape}")
        if (np.diff(edges) < 0).any():
            raise ValueError("edges must be non-decreasing")
        self._edges = edges
        self.lo = float(edges[0])
        self.hi = float(edges[-1])

    @staticmethod
    def fit(values: np.ndarray) -> "EquiDepthBinning":
        """Fit the bin edges to the empirical quantiles of ``values``."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot fit equi-depth bins to no values")
        qs = np.linspace(0.0, 1.0, BITMAP_BITS + 1)
        return EquiDepthBinning(np.quantile(values, qs))

    def edges(self) -> np.ndarray:
        return self._edges

    def bins(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        # interior edges partition the line; clamp outliers to end bins
        idx = np.searchsorted(self._edges[1:-1], values, side="right")
        return np.clip(idx, 0, BITMAP_BITS - 1)

    def bitmap(self, values: np.ndarray) -> np.uint32:
        values = np.asarray(values)
        if values.size == 0:
            return np.uint32(0)
        bins = self.bins(values)
        return np.uint32(np.bitwise_or.reduce(np.uint32(1) << bins.astype(np.uint32)))

    def group_bitmaps(self, values, group_ids, n_groups) -> np.ndarray:
        return or_bins_by_group(self.bins(values), group_ids, n_groups)

    def query(self, qlo: float, qhi: float) -> np.uint32:
        if qhi < qlo or qhi < self.lo or qlo > self.hi:
            return np.uint32(0)
        first = int(self.bins(np.array([qlo]))[0])
        last = int(self.bins(np.array([qhi]))[0])
        count = last - first + 1
        if count >= BITMAP_BITS:
            return FULL_BITMAP
        return np.uint32(((1 << count) - 1) << first)

    def bin_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each quantile bin's value interval, for remapping to a global range."""
        return self._edges[:-1], self._edges[1:]

    def __eq__(self, other) -> bool:
        return isinstance(other, EquiDepthBinning) and np.array_equal(
            self._edges, other._edges
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EquiDepthBinning([{self.lo}..{self.hi}])"


def make_binning(kind: int, lo: float, hi: float, edges: np.ndarray | None = None):
    """Reconstruct a binning from its on-disk representation."""
    if kind == BINNING_EQUIWIDTH:
        return EquiWidthBinning(lo, hi)
    if kind == BINNING_EQUIDEPTH:
        if edges is None:
            raise ValueError("equi-depth binning requires its edge table")
        return EquiDepthBinning(edges)
    raise ValueError(f"unknown binning kind {kind}")
