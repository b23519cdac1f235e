"""Metadata-driven query planning (paper §V).

The top-level metadata holds everything needed to decide which leaf files
a query must touch *before any file is opened*: the Aggregation Tree leaf
bounds for spatial pruning and the per-leaf root bitmaps (remapped to the
global attribute ranges) for attribute pruning. :func:`plan_query` runs
both tests vectorized over every leaf at once and produces one
:class:`FilePlan` per surviving file — including a per-file residual box
(``None`` when the query box fully contains the leaf, so the traversal
can skip every per-node and per-point box test).

Plans depend only on ``(box, filters)`` — not on quality — so repeated
interactions with the same view (progressive refinement, time scrubbing)
reuse a memoized plan from :class:`PlanCache`, the planning analogue of
the file-handle :class:`~repro.bat.filecache.BATFileCache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..bitmaps import query_bitmap
from ..types import Box
from .metadata import DatasetMetadata

__all__ = [
    "FilePlan",
    "QueryPlan",
    "plan_query",
    "NeighborFilePlan",
    "NeighborQueryPlan",
    "plan_neighbor_query",
    "PlanCache",
    "leaves_for_boxes",
]

#: relative slack on squared-distance prune bounds (see repro.bat.neighbors)
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class FilePlan:
    """One leaf file a query must visit."""

    leaf_index: int
    file_name: str
    #: ``"full"`` — no per-node tests needed inside this file;
    #: ``"filtered"`` — traverse with the residual box and/or filters
    action: str
    #: residual query box for this file (``None`` when the query box
    #: contains the whole leaf, making per-node spatial tests a no-op)
    box: Box | None


@dataclass(frozen=True)
class QueryPlan:
    """The per-file execution plan for one ``(box, filters)`` query shape."""

    box: Box | None
    filters: tuple
    #: total leaf files in the data set
    n_files: int
    files: tuple[FilePlan, ...]
    pruned_spatial_files: int
    pruned_bitmap_files: int
    #: relevant files dropped because they are quarantined (corrupt or
    #: missing) — a plan with ``excluded_files > 0`` yields partial results
    excluded_files: int = 0

    @property
    def pruned_files(self) -> int:
        """Files the planner proved irrelevant without opening them."""
        return self.pruned_spatial_files + self.pruned_bitmap_files


def plan_query(
    metadata: DatasetMetadata, box: Box | None = None, filters=(),
    exclude=frozenset(),
) -> QueryPlan:
    """Intersect a query shape with the top-level metadata, vectorized.

    Spatial pruning is exact (leaf bounds are exact); bitmap pruning is
    conservative (bin-level), matching the in-file traversal's contract —
    a planned file can still return zero particles, but a skipped file can
    never contain a match. Unknown filter attributes raise ``KeyError``,
    like the in-file query path.

    ``exclude`` holds leaf indices quarantined by the read side (corrupt
    or missing files); relevant-but-excluded files are dropped from the
    plan and counted in :attr:`QueryPlan.excluded_files`, which is how
    degraded reads advertise that their result is partial.
    """
    filters = tuple(filters)
    exclude = frozenset(exclude)
    n = metadata.n_files
    lo, hi = metadata.leaf_bounds_arrays()
    keep = np.ones(n, dtype=bool)
    contained = np.zeros(n, dtype=bool)

    if box is not None and n:
        qlo = np.asarray(box.lower, dtype=np.float64)
        qhi = np.asarray(box.upper, dtype=np.float64)
        if np.any(qlo > qhi):  # empty query box intersects nothing
            keep[:] = False
        else:
            keep = np.all((lo <= qhi) & (hi >= qlo) & (lo <= hi), axis=1)
            contained = keep & np.all((qlo <= lo) & (qhi >= hi), axis=1)
    elif box is None:
        contained[:] = True
    pruned_spatial = int(n - keep.sum())

    pruned_bitmap = 0
    if filters and n:
        ok = np.ones(n, dtype=bool)
        for f in filters:
            glo, ghi = metadata.attr_ranges[f.name]
            q = np.uint32(query_bitmap(f.lo, f.hi, glo, ghi))
            ok &= (metadata.leaf_bitmaps_array(f.name) & q) != 0
        pruned_bitmap = int((keep & ~ok).sum())
        keep &= ok

    excluded = 0
    files = []
    for idx in np.flatnonzero(keep):
        leaf = metadata.leaves[int(idx)]
        if leaf.leaf_index in exclude:
            excluded += 1
            continue
        file_box = None if contained[idx] else box
        action = "full" if file_box is None and not filters else "filtered"
        files.append(
            FilePlan(
                leaf_index=leaf.leaf_index,
                file_name=leaf.file_name,
                action=action,
                box=file_box,
            )
        )
    return QueryPlan(
        box=box,
        filters=filters,
        n_files=n,
        files=tuple(files),
        pruned_spatial_files=pruned_spatial,
        pruned_bitmap_files=pruned_bitmap,
        excluded_files=excluded,
    )


@dataclass(frozen=True)
class NeighborFilePlan:
    """One leaf file a neighbor query may need to open."""

    leaf_index: int
    file_name: str
    #: ``"full"`` — the file overlaps the query region itself (its own
    #: particles can be centers' immediate surroundings);
    #: ``"ghost"`` — it overlaps only the halo expansion: the query opens
    #: it purely to exchange the ghost particles inside the strip
    action: str
    #: the file's leaf bounds (the k-NN engine's distance ordering key)
    bounds: Box
    #: leaf bounds ∩ halo-expanded region — the ghost strip a ``"ghost"``
    #: file contributes (``None`` for k-NN plans, whose reach is dynamic)
    strip: Box | None
    #: min squared distance from the query region to the leaf bounds
    min_d2: float


@dataclass(frozen=True)
class NeighborQueryPlan:
    """Per-file skip/full/ghost plan for one neighbor query shape.

    Skipped files simply do not appear in ``files``; the counters record
    why. ``radius=None`` marks a k-NN plan: no file can be excluded by
    halo geometry up front (the search radius is data-dependent), so
    every non-pruned file is listed in ascending ``min_d2`` order and the
    engine prunes dynamically against its running k-th-neighbor bounds.
    """

    region: Box
    radius: float | None
    filters: tuple
    n_files: int
    files: tuple[NeighborFilePlan, ...]
    #: files whose bounds lie beyond the halo expansion
    pruned_spatial_files: int
    #: files whose root bitmaps prove no filtered particle exists inside
    pruned_bitmap_files: int
    excluded_files: int = 0

    @property
    def pruned_files(self) -> int:
        return self.pruned_spatial_files + self.pruned_bitmap_files


def plan_neighbor_query(
    metadata: DatasetMetadata, region: Box, radius: float | None = None,
    filters=(), exclude=frozenset(),
) -> NeighborQueryPlan:
    """Halo-expand a neighbor query region and classify every leaf file.

    The halo is the Euclidean expansion of ``region`` by ``radius``:
    a file is kept when the box-to-box distance between its bounds and
    the region is within ``radius`` (exactly the round-cornered Minkowski
    sum, tighter than an axis-aligned ±radius box). Kept files split into
    ``"full"`` (they intersect the region itself) and ``"ghost"`` (halo
    only — opened just for the ghost strip recorded in
    :attr:`NeighborFilePlan.strip`). Bitmap pruning mirrors
    :func:`plan_query`: a file whose root bitmaps rule out every filter
    match can contribute neither centers nor neighbors.
    """
    filters = tuple(filters)
    exclude = frozenset(exclude)
    n = metadata.n_files
    lo, hi = metadata.leaf_bounds_arrays()
    rlo = np.asarray(region.lower, dtype=np.float64)
    rhi = np.asarray(region.upper, dtype=np.float64)

    if n:
        g = np.maximum(rlo - hi, 0.0) + np.maximum(lo - rhi, 0.0)
        d2 = g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2]
    else:
        d2 = np.empty(0, dtype=np.float64)
    if radius is not None:
        keep = d2 <= (radius * radius) * (1.0 + _PRUNE_SLACK)
    else:
        keep = np.ones(n, dtype=bool)
    pruned_spatial = int(n - keep.sum())

    pruned_bitmap = 0
    if filters and n:
        ok = np.ones(n, dtype=bool)
        for f in filters:
            glo, ghi = metadata.attr_ranges[f.name]
            q = np.uint32(query_bitmap(f.lo, f.hi, glo, ghi))
            ok &= (metadata.leaf_bitmaps_array(f.name) & q) != 0
        pruned_bitmap = int((keep & ~ok).sum())
        keep &= ok

    excluded = 0
    files = []
    for idx in np.flatnonzero(keep):
        leaf = metadata.leaves[int(idx)]
        if leaf.leaf_index in exclude:
            excluded += 1
            continue
        bounds = Box(tuple(lo[idx].tolist()), tuple(hi[idx].tolist()))
        action = "full" if d2[idx] == 0.0 else "ghost"
        strip = None
        if action == "ghost" and radius is not None:
            slo = np.maximum(lo[idx], rlo - radius)
            shi = np.minimum(hi[idx], rhi + radius)
            strip = Box(tuple(slo.tolist()), tuple(shi.tolist()))
        files.append(
            NeighborFilePlan(
                leaf_index=leaf.leaf_index,
                file_name=leaf.file_name,
                action=action,
                bounds=bounds,
                strip=strip,
                min_d2=float(d2[idx]),
            )
        )
    if radius is None:
        # nearest-first visiting order for the k-NN engine; leaf index
        # breaks distance ties so the order is deterministic
        files.sort(key=lambda fp: (fp.min_d2, fp.leaf_index))
    return NeighborQueryPlan(
        region=region,
        radius=radius,
        filters=filters,
        n_files=n,
        files=tuple(files),
        pruned_spatial_files=pruned_spatial,
        pruned_bitmap_files=pruned_bitmap,
        excluded_files=excluded,
    )


class PlanCache:
    """Small LRU memo of query plans, keyed by
    ``(generation, box, filters, exclude)``.

    Quality is deliberately absent from the key: plans are
    quality-independent, so a progressive refinement sequence hits the
    same entry at every step. The quarantine set *is* part of the key —
    quarantining a corrupt leaf changes which files a plan may touch, so
    pre-quarantine plans must not be served afterwards. The manifest's
    layout generation is part of the key for the same reason: an online
    reorganization republish changes the leaf set itself, and a plan
    built against the pre-reorg layout names files that may no longer
    exist (or no longer cover the box the same way). All key
    components are frozen/hashable. Thread-safe: the serve layer plans
    concurrent sessions' queries against one shared cache per timestep
    (two threads racing on the same cold key may both build the plan —
    plans are immutable and identical, so last-write-wins is harmless,
    and the hit/miss counters stay exact for the metrics surface).
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def _memo(self, key: tuple, build):
        """The plan stored under ``key``, building it (unlocked) on a miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.misses += 1
        plan = build()
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
        return plan

    def get_or_build(
        self, metadata: DatasetMetadata, box: Box | None, filters,
        exclude=frozenset(),
    ) -> QueryPlan:
        filters, exclude = tuple(filters), frozenset(exclude)
        return self._memo(
            (metadata.generation, box, filters, exclude),
            lambda: plan_query(metadata, box, filters, exclude=exclude),
        )

    def get_or_build_neighbor(
        self, metadata: DatasetMetadata, region: Box, radius: float | None,
        filters, exclude=frozenset(),
    ) -> NeighborQueryPlan:
        """Memoized :func:`plan_neighbor_query` (shares this cache's LRU).

        The ``"neighbor"`` tag keeps the key space disjoint from box
        plans; generation and quarantine set key it for the same reasons
        as :meth:`get_or_build`.
        """
        filters, exclude = tuple(filters), frozenset(exclude)
        return self._memo(
            (metadata.generation, "neighbor", region, radius, filters, exclude),
            lambda: plan_neighbor_query(
                metadata, region, radius, filters, exclude=exclude
            ),
        )

    def stats(self) -> dict:
        """Counter snapshot for the serve metrics surface."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._plans),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()


def leaves_for_boxes(
    metadata: DatasetMetadata, bounds: np.ndarray, chunk: int | None = None
) -> list[np.ndarray]:
    """Leaf files overlapping each of ``bounds`` (R, 2, 3) query boxes.

    The restart-read path asks this question for every reading rank at
    once; evaluating the (ranks × leaves) overlap matrix in bounded chunks
    keeps the temporary below ~8 MB regardless of scale. Returns one array
    of leaf list positions per rank, in ascending order.
    """
    rb = np.asarray(bounds, dtype=np.float64)
    nranks = len(rb)
    leaf_lo, leaf_hi = metadata.leaf_bounds_arrays()
    n_files = len(leaf_lo)
    if chunk is None:
        chunk = max(1, min(nranks, (8 << 20) // max(n_files, 1)))
    out: list[np.ndarray] = []
    for start in range(0, nranks, chunk):
        blk = rb[start : start + chunk]
        hit = np.all(
            (blk[:, 0, None, :] <= leaf_hi[None, :, :])
            & (blk[:, 1, None, :] >= leaf_lo[None, :, :]),
            axis=2,
        )
        for row in hit:
            out.append(np.flatnonzero(row))
    return out
