"""Analysis queries over BAT data: histograms and region statistics.

The paper positions the layout for "spatial or attribute subset queries"
driving analysis as well as visualization (§I, §V-A). These helpers run
common analysis reductions *through the query callback path*, so
they stream over matching particles chunk-by-chunk without materializing
the full result — the access pattern an analysis tool sitting on top of
the library would use.

All functions accept either a :class:`~repro.core.dataset.BATDataset`
(whole timestep) or a single :class:`~repro.bat.BATFile`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .api import NeighborRequest, NeighborResult, QueryRequest
from .bat.file import BATFile
from .bat.query import query_file
from .types import Box

__all__ = [
    "RegionStats",
    "attribute_histogram",
    "region_stats",
    "attribute_summary",
    "SmoothedField",
    "FoFGroups",
    "cubic_spline_kernel",
    "sph_smooth",
    "fof_groups",
]


def _run_query(source, callback, box, filters, quality):
    if isinstance(source, BATFile):
        query_file(source, quality=quality, box=box, filters=filters, callback=callback)
    else:
        req = QueryRequest(quality=quality, box=box, filters=tuple(filters))
        source.query(req, callback=callback)


def _attr_range(source, attr: str) -> tuple[float, float]:
    ranges = source.attr_ranges
    if attr not in ranges:
        raise KeyError(f"no attribute {attr!r}")
    return ranges[attr]


def attribute_histogram(
    source,
    attr: str,
    bins: int = 64,
    value_range: tuple[float, float] | None = None,
    box: Box | None = None,
    filters=(),
    quality: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of one attribute over the (filtered) query result.

    Returns ``(counts, edges)`` as :func:`numpy.histogram` would, but
    computed streaming — each emitted chunk is binned and discarded.
    ``quality < 1`` histograms the LOD subset, the cheap approximate-first
    pattern progressive analysis uses.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = value_range if value_range is not None else _attr_range(source, attr)
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)

    def accumulate(positions, attrs):
        h, _ = np.histogram(attrs[attr], bins=edges)
        counts[:] += h

    _run_query(source, accumulate, box, tuple(filters), quality)
    return counts, edges


@dataclass
class RegionStats:
    """Streaming count/mean/min/max/std for one attribute."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0  # sum of squared deviations (Welford/Chan)
    min: float = float("inf")
    max: float = float("-inf")

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        n_b = values.size
        mean_b = float(values.mean())
        m2_b = float(((values - mean_b) ** 2).sum())
        if self.count == 0:
            self.count, self.mean, self.m2 = n_b, mean_b, m2_b
        else:
            # Chan et al. parallel-variance merge
            n = self.count + n_b
            delta = mean_b - self.mean
            self.m2 += m2_b + delta * delta * self.count * n_b / n
            self.mean += delta * n_b / n
            self.count = n
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


def region_stats(
    source,
    attrs: list[str],
    box: Box | None = None,
    filters=(),
    quality: float = 1.0,
) -> dict[str, RegionStats]:
    """Count/mean/std/min/max per attribute over a spatial region."""
    for a in attrs:
        _attr_range(source, a)  # validate names up front
    stats = {a: RegionStats() for a in attrs}

    def accumulate(positions, chunk_attrs):
        for a in attrs:
            stats[a].update(chunk_attrs[a])

    _run_query(source, accumulate, box, tuple(filters), quality)
    return stats


def attribute_summary(source, box: Box | None = None, quality: float = 1.0) -> dict:
    """Stats for every attribute in the file/dataset at once."""
    if isinstance(source, BATFile):
        names = list(source.attr_names)
    else:
        names = list(source.attr_ranges.keys())
    return region_stats(source, names, box=box, quality=quality)


# -- neighbor-list analyses ----------------------------------------------------
#
# These ride on :meth:`~repro.core.dataset.BATDataset.neighbors` (and so on
# the planner's ghost-region exchange): the kernel sum at a center near a
# leaf-file boundary sees the neighbor file's ghost strip, never a full
# neighbor-file read. Both take a :class:`~repro.core.dataset.BATDataset`.


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-center sums of a flat neighbor-list array (empty lists -> 0)."""
    c = np.concatenate([[0.0], np.cumsum(values, dtype=np.float64)])
    return c[offsets[1:]] - c[offsets[:-1]]


def cubic_spline_kernel(r, h: float) -> np.ndarray:
    """The M4 cubic-spline SPH kernel ``W(r, h)`` with compact support ``h``.

    3-D normalization ``sigma = 8 / (pi h^3)``; ``W`` vanishes at
    ``r >= h``, so a fixed-radius neighbor list at ``radius=h`` covers
    the kernel support exactly.
    """
    if not h > 0:
        raise ValueError("smoothing length h must be positive")
    q = np.asarray(r, dtype=np.float64) / float(h)
    sigma = 8.0 / (np.pi * float(h) ** 3)
    w = np.where(
        q < 0.5,
        1.0 - 6.0 * q * q + 6.0 * q * q * q,
        2.0 * np.clip(1.0 - q, 0.0, None) ** 3,
    )
    return sigma * w


@dataclass
class SmoothedField:
    """One SPH-interpolated attribute field: ``values[i]`` at ``centers[i]``."""

    attr: str
    h: float
    centers: np.ndarray
    #: Shepard-normalized kernel average; NaN where a center has no
    #: neighbors inside ``h``
    values: np.ndarray
    #: neighbor-list length per center
    counts: np.ndarray
    #: the underlying neighbor query (stats, lists, rows)
    result: NeighborResult

    def __len__(self) -> int:
        return len(self.values)


def sph_smooth(
    dataset,
    attr: str,
    h: float,
    center_box: Box | None = None,
    points=None,
    filters=(),
) -> SmoothedField:
    """SPH kernel interpolation of one attribute over fixed-radius lists.

    Evaluates the Shepard-normalized cubic-spline estimate

    ``A(x_i) = sum_j W(|x_i - x_j|, h) A_j / sum_j W(|x_i - x_j|, h)``

    at every particle inside ``center_box`` (or at explicit ``points``),
    with the neighbor sums ranging over *all* particles within ``h`` —
    including ghost particles from boundary-overlapping leaf files, so
    values near file seams are exact. With neither ``center_box`` nor
    ``points`` the whole dataset is smoothed.
    """
    if center_box is None and points is None:
        center_box = dataset.metadata.bounds
    request = NeighborRequest(
        center_box=center_box,
        points=points,
        radius=float(h),
        filters=tuple(filters),
        columns=(attr,),
    )
    res = dataset.neighbors(request)
    w = cubic_spline_kernel(res.distances, h)
    vals = np.asarray(res.batch.attributes[attr], dtype=np.float64)
    num = _segment_sums(w * vals, res.offsets)
    den = _segment_sums(w, res.offsets)
    values = np.full(res.n_centers, np.nan)
    nz = den > 0
    values[nz] = num[nz] / den[nz]
    return SmoothedField(
        attr=attr, h=float(h), centers=res.centers, values=values,
        counts=res.counts, result=res,
    )


@dataclass
class FoFGroups:
    """Friends-of-friends partition of the centers of one neighbor query."""

    centers: np.ndarray
    #: group id per center, compacted to ``0..n_groups-1`` and numbered
    #: in first-appearance (canonical center) order
    labels: np.ndarray
    #: member count per group, same indexing as ``labels``
    sizes: np.ndarray
    #: the underlying fixed-radius query at the linking length
    result: NeighborResult

    @property
    def n_groups(self) -> int:
        return len(self.sizes)

    def members(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.labels == group)


def fof_groups(
    dataset,
    linking_length: float,
    center_box: Box | None = None,
    filters=(),
) -> FoFGroups:
    """Friends-of-friends halo finding over the particles in a region.

    Two particles belong to the same group when a chain of pairwise
    links, each shorter than ``linking_length``, connects them. Links are
    discovered with one fixed-radius neighbor query whose centers are the
    particles of ``center_box`` (default: the whole domain); neighbor
    rows resolve back to center indices through the result's order keys,
    so linking is exact across leaf-file boundaries. Neighbors outside
    the center set (ghosts beyond the region, or filtered out) never
    merge groups — membership is confined to the centers.
    """
    if center_box is None:
        center_box = dataset.metadata.bounds
    request = NeighborRequest(
        center_box=center_box,
        radius=float(linking_length),
        filters=tuple(filters),
        columns=(),
    )
    res = dataset.neighbors(request)
    n = res.n_centers
    index_of = {tuple(k): i for i, k in enumerate(res.center_keys)}

    parent = np.arange(n, dtype=np.int64)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    offsets = res.offsets
    keys = res.keys
    for i in range(n):
        for j in range(offsets[i], offsets[i + 1]):
            other = index_of.get(tuple(keys[j]))
            if other is None or other == i:
                continue
            ri, rj = find(i), find(other)
            if ri != rj:
                # merge toward the smaller canonical index so labels are
                # deterministic whatever the pair order
                if rj < ri:
                    ri, rj = rj, ri
                parent[rj] = ri
    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    uniq, labels = np.unique(roots, return_inverse=True)
    sizes = np.bincount(labels, minlength=len(uniq))
    return FoFGroups(
        centers=res.centers, labels=labels, sizes=sizes, result=res,
    )
