"""Whole-dataset visualization reads (paper §V).

A :class:`BATDataset` opens a written timestep through its top-level
metadata and serves spatial, attribute, and progressive multiresolution
queries across all leaf files as if the data set were a single file. Leaf
files are opened lazily and memory-mapped; before any file is opened, the
query planner (:mod:`repro.core.planner`) intersects the query box with
the Aggregation Tree leaf bounds and tests attribute filters against the
per-leaf root bitmaps, so pruned files are never touched — not even to be
faulted into the file-handle cache.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path

import numpy as np

from ..api import (
    NeighborRequest,
    NeighborResult,
    QueryRequest,
    QueryResult,
    StreamIncrement,
)
from ..bat.file import BATFile
from ..bat.filecache import BATFileCache
from ..bat.neighbors import (
    NeighborStats,
    box_members,
    knn_neighbors,
    materialize_rows,
    radius_neighbors,
)
from ..bat.query import (
    LEAF_ERRORS,
    QueryStats,
    StepPart,
    _PartFailed,
    check_ladder,
    default_quality_ladder,
    query_file,  # noqa: F401 - the benchmark's span table patches this name
    stream_query_file,
)
from ..errors import IntegrityError, InvalidRequestError, LeafUnavailableError
from ..types import Box, ParticleBatch
from .metadata import DatasetMetadata
from .planner import NeighborQueryPlan, PlanCache, QueryPlan

__all__ = ["BATDataset", "empty_batch"]

lgr = logging.getLogger("repro.core.dataset")


def _split_columns(columns) -> tuple[list[str] | None, bool]:
    """``(attributes, with_positions)`` of a request's ``columns``.

    ``columns`` may name the pseudo-column "positions"; anything else is
    an attribute. Omitting it from an explicit selection projects
    positions away entirely (the batch carries a count instead).
    """
    if columns is None:
        return None, True
    return [c for c in columns if c != "positions"], "positions" in columns


def empty_batch(ds, columns) -> ParticleBatch:
    """The schema-stable empty result of one step for a column selection
    (``ds``: anything with :meth:`BATDataset.attribute_specs`)."""
    attributes, with_positions = _split_columns(columns)
    specs = ds.attribute_specs()
    if attributes is not None:
        specs = [sp for sp in specs if sp.name in attributes]
    return ParticleBatch.empty(specs, with_positions=with_positions)


class BATDataset:
    """Read-side facade over one written timestep.

    ``file_cache`` bounds how many leaf files stay open between queries
    and may be shared with other datasets (e.g. across the steps of a
    time series). A read is one reader reading the planned leaf files,
    in order, as one step through that cache; docs/PERFORMANCE.md has
    the measurements behind not fanning it out.
    """

    def __init__(
        self,
        metadata_path,
        file_cache: BATFileCache | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.metadata_path = Path(metadata_path)
        self.metadata = DatasetMetadata.load(self.metadata_path)
        if self.metadata.layout != "bat":
            raise ValueError(
                f"dataset uses the {self.metadata.layout!r} layout; BATDataset "
                "only reads 'bat' files (see repro.layouts for the reader)"
            )
        self.directory = self.metadata_path.parent
        #: each leaf's path, resolved once: an open dataset's manifest never
        #: changes (the handle cache still checks the file on every lookup)
        self._leaf_paths = [
            str(self.directory / leaf.file_name) for leaf in self.metadata.leaves
        ]
        self._cache = file_cache if file_cache is not None else BATFileCache()
        self._owns_cache = file_cache is None
        # the serve layer injects a plan cache it also reads stats from;
        # note plans are keyed by (box, filters, exclude) only, so a shared
        # cache must never span datasets with different metadata
        self._plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._owns_plan_cache = plan_cache is None
        # leaf_index -> reason for every leaf proven corrupt or missing;
        # quarantined leaves are excluded from all subsequent plans
        self._quarantine_lock = threading.Lock()
        self._quarantined: dict[int, str] = {}
        #: optional access-telemetry sink attached by the serve layer (a
        #: :meth:`repro.serve.metrics.AccessTelemetry.bind` handle): gets
        #: one ``view(box, filters, columns)`` per executed query and one
        #: ``leaf(leaf_index, points, decoded_bytes)`` per file the query
        #: actually opened — the reorganizer's evidence of what is hot
        self.telemetry = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._owns_plan_cache:
            self._plan_cache.clear()
        if self._owns_cache:
            self._cache.close()
        else:
            # shared cache: only drop this dataset's entries
            for path in self._leaf_paths:
                self._cache.drop(path)

    def __enter__(self) -> "BATDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structure -------------------------------------------------------------

    @property
    def bounds(self) -> Box:
        return self.metadata.bounds

    @property
    def file_cache(self) -> BATFileCache:
        """The (possibly shared) LRU of open leaf-file handles."""
        return self._cache

    @property
    def plan_cache(self) -> PlanCache:
        """The (possibly shared) memo of query plans."""
        return self._plan_cache

    @property
    def n_files(self) -> int:
        return self.metadata.n_files

    @property
    def total_particles(self) -> int:
        return self.metadata.total_particles

    @property
    def attr_ranges(self) -> dict[str, tuple[float, float]]:
        """Global per-attribute value ranges."""
        return self.metadata.attr_ranges

    def file(self, leaf_index: int) -> BATFile:
        """Open the BAT file of one leaf through the LRU handle cache."""
        return self._cache.get(self._leaf_paths[leaf_index])

    def attribute_specs(self) -> list:
        """Attribute specs without faulting new files into the cache.

        Prefers the manifest's ``attr_dtypes``; older manifests fall back
        to an already-cached handle, then to a transient (uncached) open
        of the first leaf — a planner-skipped file must never enter the
        LRU cache as a side effect of an empty result.
        """
        specs = self.metadata.attribute_specs()
        if specs is not None:
            return specs
        if not self.metadata.leaves:
            return []
        for path in self._leaf_paths:
            cached = self._cache.peek(path)
            if cached is not None:
                return cached.attribute_specs()
        with BATFile(self._leaf_paths[0]) as f:
            return f.attribute_specs()

    # -- quarantine ------------------------------------------------------------

    def quarantine_leaf(self, leaf_index: int, reason: str) -> None:
        """Exclude one leaf file from all future plans (corrupt/missing).

        Also drops any cached handle so a repaired file is re-opened and
        re-verified after :meth:`clear_quarantine`.
        """
        with self._quarantine_lock:
            self._quarantined[leaf_index] = reason
        path = self._leaf_paths[leaf_index]
        self._cache.drop(path)
        lgr.warning(
            "quarantined leaf %d (%s): %s", leaf_index, path, reason,
            extra={"leaf_index": leaf_index, "path": path, "reason": reason},
        )

    def quarantined(self) -> dict[int, str]:
        """Snapshot of quarantined leaves: ``{leaf_index: reason}``."""
        with self._quarantine_lock:
            return dict(self._quarantined)

    def clear_quarantine(self) -> None:
        """Forget all quarantined leaves (e.g. after repairing files)."""
        with self._quarantine_lock:
            leaves = sorted(self._quarantined)
            self._quarantined.clear()
        lgr.info(
            "cleared the quarantine of %d leaves of %s", len(leaves), self.metadata_path.name,
            extra={"leaves": leaves, "dataset": str(self.metadata_path)},
        )

    def _exclude(self) -> frozenset:
        with self._quarantine_lock:
            return frozenset(self._quarantined)

    # -- queries ----------------------------------------------------------------

    def plan(self, box: Box | None = None, filters=()) -> QueryPlan:
        """The (memoized) per-file plan for one query shape.

        Quarantined leaves are excluded; the plan's ``excluded_files``
        counts relevant files the query will not see.
        """
        return self._plan(None, self._plan_cache.get_or_build, box=box, filters=filters)

    def _plan(self, plan, build, **shape):
        """The memoized plan for ``shape`` — or the caller's ``plan`` (e.g.
        a streaming session's), checked to have been built for it."""
        if plan is None:
            return build(self.metadata, exclude=self._exclude(), **shape)
        if any(getattr(plan, name) != value for name, value in shape.items()):
            raise InvalidRequestError(
                f"plan was built for a different {'/'.join(shape)} shape"
            )
        return plan

    def _materialized_columns(self, req: QueryRequest) -> list[str]:
        """The column names ``req`` materializes — for access telemetry."""
        if req.columns is not None:
            return list(req.columns)
        return ["positions", *self.metadata.attr_dtypes]

    def query(
        self, request: QueryRequest | None = None, *, plan: QueryPlan | None = None
    ) -> QueryResult:
        """Run one (progressive) query across the whole data set.

        Takes a :class:`~repro.api.QueryRequest` (or nothing, for a
        full-quality read of everything) and returns a
        :class:`~repro.api.QueryResult`::

            result = ds.query(QueryRequest(quality=0.3, box=box))
            batch, stats = result  # iterates as (batch, stats)

        ``plan`` may pass a precomputed :class:`QueryPlan` (e.g. a
        streaming session's; it must match the request's box/filters).

        The one-rung :meth:`stream` of the request's window, without order
        keys: the planner prunes which leaf files get touched at all, and
        the kept files, leased from the shared handle cache in plan (=
        leaf index) order, are read as one step, so results and stats
        equal those of reading them one at a time, in that order.

        ``request.on_error`` decides what a corrupt or missing leaf file
        does: ``"raise"`` surfaces a clear
        :class:`~repro.errors.LeafUnavailableError` /
        :class:`~repro.errors.IntegrityError` naming the leaf and
        dataset; ``"degrade"`` quarantines the leaf and returns the
        partial result from the surviving files, with
        ``stats.quarantined_files`` counting what the query did not see
        (see :meth:`stream` for the order). Only corruption and absence
        degrade — user errors (bad quality, unknown filter attribute)
        always raise.
        """
        req = request if request is not None else QueryRequest()
        if not isinstance(req, QueryRequest):
            raise InvalidRequestError("query() takes a repro.QueryRequest")
        plan = self._plan(
            plan, self._plan_cache.get_or_build, box=req.box, filters=req.filters
        )
        ((inc, _),) = self._stream_rungs(req, (req.quality,), plan, keyed=False)
        return QueryResult(batch=inc.batch, stats=inc.stats)

    def stream(self, request=None, ladder=None, plan=None):
        """Stream one query as per-rung :class:`~repro.api.StreamIncrement`s.

        The streaming execution mode of :meth:`query`: instead of one
        gathered batch, returns a generator yielding one increment per
        quality rung of ``ladder`` (default:
        :func:`~repro.bat.query.default_quality_ladder` between the
        request's ``prev_quality`` and ``quality``) as the traversal
        materializes it. The planned files are one step, kept across
        rungs (one ``stream_query_file`` call) — pruning runs once, each
        rung only touches the depth window it adds — and the file handles
        are leased from the file cache for the stream's lifetime.

        Increments carry order keys only when the ladder has more than
        one rung: a one-rung stream's increment is pre-ordered
        (``order=None``), the direct read of its window.

        Invariants (property-tested):

        - reassembling all increments
          (:func:`~repro.api.reassemble_stream`) is byte-identical to
          ``self.query(request)``;
        - truncating after any rung leaves exactly the direct result at
          that rung's quality, refinable later via ``prev_quality``.

        Under ``on_error="degrade"`` a leaf failing mid-stream is
        quarantined and dropped from the remaining rungs; increments
        from then on are flagged ``partial`` (rows the dead leaf already
        delivered stay in earlier increments, so a partial stream — like
        a partial one-shot result — is not byte-comparable and must not
        be cached). A plan that already excludes quarantined leaves
        flags every increment ``partial`` from the first rung, as
        :meth:`query` reports it. A leaf that fails to open is handled
        (quarantined, or raised naming it) before any rung runs, in plan
        order; a leaf that fails mid-step after the rung it fails at, in
        plan order.

        ``inc.stats`` are the stream's cumulative counters as of that
        rung, summed over the leaves still in it: a dropped leaf counts
        only in ``quarantined_files``. A one-rung stream's equal the
        direct query's; a longer ladder's can end higher in
        ``points_tested``, ``nodes_visited`` and ``decoded_bytes`` (see
        :func:`~repro.bat.query.stream_query_file`).
        """
        req = request if request is not None else QueryRequest()
        if not isinstance(req, QueryRequest):
            raise InvalidRequestError("stream() takes a repro.QueryRequest")
        if ladder is None:
            ladder = default_quality_ladder(req.quality, req.prev_quality)
        ladder = check_ladder(ladder, req.prev_quality)
        if ladder[-1] != req.quality:
            raise InvalidRequestError("ladder must end exactly at request.quality")
        plan = self._plan(
            plan, self._plan_cache.get_or_build, box=req.box, filters=req.filters
        )
        # only a consumer merging rungs needs their order keys
        keyed = len(ladder) > 1
        return (inc for inc, _ in self._stream_rungs(req, ladder, plan, keyed))

    def neighbors(
        self, request: NeighborRequest, plan: NeighborQueryPlan | None = None
    ) -> NeighborResult:
        """Run one k-NN or fixed-radius neighbor-list query.

        Centers come from ``request.points`` or from the stored
        particles inside ``request.center_box`` (canonical file/treelet
        /slot order, also returned as ``result.center_keys``). The
        planner's ghost-region layer decides which leaf files to open:
        files beyond the halo expansion of the query region are skipped
        unopened, boundary files are opened only for the ghost strip the
        query balls reach into, and the k-NN engine additionally skips
        files dynamically once every center's k-th-neighbor bound falls
        short of their bounds. Per-center lists are ordered by
        ``(distance, leaf, treelet, slot)`` — deterministic across shard
        layouts, and byte-identical to the exhaustive reference the tests
        hold it to.

        Each file is leased from the handle cache when the request first
        opens it, until the request ends, so only the files it reads are
        pinned. The center box's files are one gather, the radius engine's
        files another, and the selected rows are materialized as one
        more, each column gathered once across the files.

        ``request.on_error`` matches :meth:`query`: ``"raise"`` surfaces
        a corrupt or missing leaf as the error naming leaf and dataset;
        ``"degrade"`` quarantines it and runs the request again on plans
        that exclude it, so the partial result and its stats are those of
        the same request issued afterwards (``stats.quarantined_files``
        counts what was lost).
        """
        if not isinstance(request, NeighborRequest):
            raise InvalidRequestError("neighbors() takes a repro.NeighborRequest")
        attributes, with_positions = _split_columns(request.columns)
        specs = self.attribute_specs()
        known = {sp.name for sp in specs}
        for name in [f.name for f in request.filters] + (attributes or []):
            if name not in known:
                raise KeyError(f"no attribute {name!r} in {self.metadata_path.name!r}")
        while True:
            try:
                return self._neighbors(request, plan, specs, attributes, with_positions)
            except _PartFailed as fail:
                self._leaf_failed(fail.part, fail.error, request.on_error)
                plan = None  # the next plan excludes the leaf

    def _neighbors(self, request, plan, specs, attributes, with_positions) -> NeighborResult:
        """One attempt at :meth:`neighbors`; a failing leaf raises
        :class:`~repro.bat.query._PartFailed` naming it."""
        stats = NeighborStats()
        region = request.region
        cplan = None
        if request.points is None:
            cplan = self.plan(request.center_box, request.filters)
        plan = self._plan(
            plan, self._plan_cache.get_or_build_neighbor,
            region=region, radius=request.radius, filters=request.filters,
        )
        stats.pruned_files += plan.pruned_files
        stats.quarantined_files += plan.excluded_files
        opened: dict[int, tuple[BATFile, int]] = {}

        def open_leaf(leaf_index: int, action: str | None = None) -> BATFile:
            ent = opened.get(leaf_index)
            if ent is not None:
                return ent[0]
            # pinned before the lookup: the handle cannot be evicted between
            pin(self._leaf_paths[leaf_index])
            try:
                f = self.file(leaf_index)
            except LEAF_ERRORS as exc:
                raise _PartFailed(leaf_index, exc) from None
            opened[leaf_index] = (f, f.decoded_bytes)
            stats.files_opened += 1
            if action == "ghost":
                stats.ghost_files_opened += 1
            return f

        with self._cache.lease() as pin:  # grown by open_leaf
            # -- resolve centers --------------------------------------------
            center_keys = None
            if cplan is None:
                centers = np.asarray(request.points, dtype=np.float64).reshape(-1, 3)
            else:
                centers, center_keys = box_members(
                    [(open_leaf(fp.leaf_index), fp.leaf_index) for fp in cplan.files],
                    request.center_box, request.filters, stats,
                )
            stats.centers = len(centers)

            # -- engine ---------------------------------------------------------
            if len(centers) == 0:
                offsets = np.zeros(1, dtype=np.int64)
                keys = np.empty((0, 3), dtype=np.int64)
                d2 = np.empty(0, dtype=np.float64)
            elif request.radius is not None:
                offsets, keys, d2 = radius_neighbors(
                    plan.files, lambda fp: open_leaf(fp.leaf_index, fp.action), centers,
                    request.radius, region, request.filters, stats,
                )
            else:
                offsets, keys, d2 = knn_neighbors(
                    plan.files, lambda fp: open_leaf(fp.leaf_index, fp.action), centers,
                    request.k, request.filters, stats,
                )
            stats.points_returned = int(offsets[-1])

            # -- materialize the selected rows -----------------------------
            batch = materialize_rows(open_leaf, keys, specs, attributes, with_positions)

        # -- telemetry + decode accounting ---------------------------------
        decoded = {i: max(f.decoded_bytes - before, 0) for i, (f, before) in opened.items()}
        stats.decoded_bytes = sum(decoded.values())
        if self.telemetry is not None:
            leaf_rows: dict[int, int] = {}
            if len(keys):
                uniq, cnt = np.unique(keys[:, 0], return_counts=True)
                leaf_rows = dict(zip(uniq.tolist(), cnt.tolist()))
            self.telemetry.view(
                region, request.filters, self._materialized_columns(request)
            )
            for leaf_index, nbytes in decoded.items():
                self.telemetry.leaf(
                    leaf_index, points=leaf_rows.get(leaf_index, 0), decoded_bytes=nbytes
                )
        return NeighborResult(
            centers=centers,
            offsets=offsets,
            batch=batch,
            distances=np.sqrt(d2),
            keys=keys,
            center_keys=center_keys,
            stats=stats,
        )

    def _stream_rungs(self, req, ladder, plan, keyed: bool):
        """The one read behind :meth:`query` and :meth:`stream`: yields
        ``(increment, rows)`` per rung of the checked ``ladder``, ``rows``
        the increment's row count per file of ``plan`` (int64, plan
        order): every plan file is one part of the step, one that fails
        to open a dropped one. Order keys ``(leaf, treelet_rank, slot)``
        are built only when ``keyed``; an unkeyed increment's ``order``
        is ``None``."""
        attributes, with_positions = _split_columns(req.columns)
        quarantined = plan.excluded_files
        parts = [StepPart(None, fp.box, fp.leaf_index) for fp in plan.files]
        with self._cache.lease([self._leaf_paths[p.leaf] for p in parts]):
            for p in parts:
                try:
                    p.bat = self.file(p.leaf)
                except LEAF_ERRORS as exc:
                    self._leaf_failed(p.leaf, exc, req.on_error)
                    quarantined += 1
                    p.error = exc
            # each handle's decode counter before the read; the parts dropped so far
            before = [0 if p.bat is None else p.bat.decoded_bytes for p in parts]
            dropped = [p.error is not None for p in parts]
            points = np.zeros(len(parts), dtype=np.int64)  # delivered, per part
            try:
                for inc in stream_query_file(
                    parts, ladder, prev_quality=req.prev_quality, filters=req.filters,
                    attributes=attributes, with_positions=with_positions, keyed=keyed,
                ):
                    points += inc.rows
                    # a dropped leaf counts only as quarantined; "raise"
                    # names the first in plan order
                    stats = QueryStats(pruned_files=plan.pruned_files)
                    for i, p in enumerate(parts):
                        if p.error is None:
                            p.stats.decoded_bytes = p.bat.decoded_bytes - before[i]
                            stats.merge(p.stats)
                        elif not dropped[i]:
                            dropped[i] = True
                            quarantined += 1
                            self._leaf_failed(p.leaf, p.error, req.on_error)
                    stats.quarantined_files = quarantined
                    batch = (
                        ParticleBatch(inc.positions, inc.attributes, count=inc.count)
                        if inc.count else empty_batch(self, req.columns)
                    )
                    yield StreamIncrement(
                        quality=inc.quality, prev_quality=inc.prev_quality, batch=batch,
                        order=inc.keys, stats=stats, partial=quarantined > 0,
                    ), inc.rows
            finally:
                # record what the read actually touched, even when the
                # consumer closed it early at a rung boundary (shedding)
                if self.telemetry is not None:
                    self.telemetry.view(
                        req.box, req.filters, self._materialized_columns(req)
                    )
                    for p, b, n in zip(parts, before, points.tolist()):
                        if p.bat is not None:
                            self.telemetry.leaf(
                                p.leaf, points=n,
                                decoded_bytes=max(p.bat.decoded_bytes - b, 0),
                            )

    def _leaf_failed(self, leaf_index: int, exc: Exception, on_error: str) -> None:
        """One leaf file turned out corrupt or missing mid-query.

        ``"degrade"`` quarantines it (future plans exclude it up front);
        ``"raise"`` surfaces a clear error naming the leaf and dataset.
        """
        if on_error == "degrade":
            self.quarantine_leaf(leaf_index, str(exc))
            return
        leaf = self.metadata.leaves[leaf_index]
        path = self._leaf_paths[leaf_index]
        context = (
            f"leaf file {leaf.file_name!r} (leaf {leaf_index}) of dataset "
            f"{self.metadata_path.name!r}"
        )
        if isinstance(exc, FileNotFoundError):
            raise LeafUnavailableError(
                f"{context} is missing: {exc}", leaf_index=leaf_index, path=path,
            )
        raise IntegrityError(f"{context} is corrupt: {exc}", path=path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BATDataset({str(self.metadata_path)!r}, files={self.n_files}, "
            f"particles={self.total_particles})"
        )
