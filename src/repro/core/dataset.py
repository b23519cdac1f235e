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
    QueryStats,
    concat_chunks,
    default_quality_ladder,
    query_file,
    stream_query_file,
)
from ..errors import IntegrityError, InvalidRequestError, LeafUnavailableError
from ..types import Box, ParticleBatch
from .metadata import DatasetMetadata
from .planner import NeighborQueryPlan, PlanCache, QueryPlan

__all__ = ["BATDataset", "empty_batch"]

#: what a corrupt or missing leaf file raises, at open or mid-traversal
_LEAF_ERRORS = (FileNotFoundError, IntegrityError)


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
    time series). A read is one reader walking the planned leaf files in
    order through that cache; docs/PERFORMANCE.md has the measurements
    behind not fanning it out.
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
            for leaf in self.metadata.leaves:
                self._cache.drop(self.directory / leaf.file_name)

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
        leaf = self.metadata.leaves[leaf_index]
        return self._cache.get(self.directory / leaf.file_name)

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
        for leaf in self.metadata.leaves:
            cached = self._cache.peek(self.directory / leaf.file_name)
            if cached is not None:
                return cached.attribute_specs()
        first = self.metadata.leaves[0]
        with BATFile(self.directory / first.file_name) as f:
            return f.attribute_specs()

    # -- quarantine ------------------------------------------------------------

    def quarantine_leaf(self, leaf_index: int, reason: str) -> None:
        """Exclude one leaf file from all future plans (corrupt/missing).

        Also drops any cached handle so a repaired file is re-opened and
        re-verified after :meth:`clear_quarantine`.
        """
        leaf = self.metadata.leaves[leaf_index]
        with self._quarantine_lock:
            self._quarantined[leaf_index] = reason
        self._cache.drop(self.directory / leaf.file_name)

    def quarantined(self) -> dict[int, str]:
        """Snapshot of quarantined leaves: ``{leaf_index: reason}``."""
        with self._quarantine_lock:
            return dict(self._quarantined)

    def clear_quarantine(self) -> None:
        """Forget all quarantined leaves (e.g. after repairing files)."""
        with self._quarantine_lock:
            self._quarantined.clear()

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
        self,
        request: QueryRequest | None = None,
        *,
        plan: QueryPlan | None = None,
        callback=None,
    ) -> QueryResult:
        """Run one (progressive) query across the whole data set.

        Takes a :class:`~repro.api.QueryRequest` (or nothing, for a
        full-quality read of everything) and returns a
        :class:`~repro.api.QueryResult`::

            result = ds.query(QueryRequest(quality=0.3, box=box))
            batch, stats = result  # iterates as (batch, stats)

        ``plan`` may pass a precomputed :class:`QueryPlan` (e.g. a
        streaming session's; it must match the request's box/filters);
        ``callback`` streams chunks instead of materializing a batch
        (``result.batch`` is then ``None``).

        Same semantics as :func:`repro.bat.query.query_file`, with the
        planner pruning which leaf files get touched at all. The kept
        files are read in plan (= leaf index) order through the shared
        handle cache, so results, stats and callback chunks follow file
        order. Every file's row chunks are collected and the batch is
        concatenated once, across files: a chunk may be a view of a mapped
        file whose handle the cache closes before the read ends, which
        :meth:`~repro.bat.file.BATFile.close` tolerates — the mapping
        lives as long as the view.

        ``request.on_error`` decides what a corrupt or missing leaf file
        does: ``"raise"`` surfaces a clear
        :class:`~repro.errors.LeafUnavailableError` /
        :class:`~repro.errors.IntegrityError` naming the leaf and
        dataset; ``"degrade"`` quarantines the leaf and returns the
        partial result from the surviving files, with
        ``stats.quarantined_files`` counting what the query did not see.
        Only corruption and absence degrade — user errors (bad quality,
        unknown filter attribute) always raise.
        """
        req = request if request is not None else QueryRequest()
        if not isinstance(req, QueryRequest):
            raise InvalidRequestError("query() takes a repro.QueryRequest")
        attributes, with_positions = _split_columns(req.columns)
        plan = self._plan(
            plan, self._plan_cache.get_or_build, box=req.box, filters=req.filters
        )
        stats = QueryStats(
            pruned_files=plan.pruned_files, quarantined_files=plan.excluded_files
        )
        leaf_stats: list[tuple[int, QueryStats]] = []
        chunks: list[tuple] = []
        sink = callback if callback is not None else (lambda p, a: chunks.append((p, a)))
        for fp in plan.files:
            mark = len(chunks)
            try:
                f = self.file(fp.leaf_index)
                decoded_before = f.decoded_bytes
                _, s = query_file(
                    f,
                    quality=req.quality,
                    prev_quality=req.prev_quality,
                    box=fp.box,
                    filters=req.filters,
                    callback=sink,
                    attributes=attributes,
                    with_positions=with_positions,
                )
            except _LEAF_ERRORS as exc:
                del chunks[mark:]  # a failed file contributes no rows
                self._leaf_failed(fp.leaf_index, exc, req.on_error, stats)
                continue
            s.decoded_bytes = f.decoded_bytes - decoded_before
            stats.merge(s)
            leaf_stats.append((fp.leaf_index, s))
        if self.telemetry is not None:
            self.telemetry.view(req.box, req.filters, self._materialized_columns(req))
            for i, s in leaf_stats:
                self.telemetry.leaf(
                    i, points=s.points_returned, decoded_bytes=s.decoded_bytes
                )
        if callback is not None:
            return QueryResult(batch=None, stats=stats)
        if not chunks:
            return QueryResult(batch=empty_batch(self, req.columns), stats=stats)
        batch = concat_chunks(chunks, with_positions, stats.points_returned)
        return QueryResult(batch=batch, stats=stats)

    def stream(self, request=None, ladder=None, plan=None):
        """Stream one query as per-rung :class:`~repro.api.StreamIncrement`s.

        The streaming execution mode of :meth:`query`: instead of one
        gathered batch, returns a generator yielding one increment per
        quality rung of ``ladder`` (default:
        :func:`~repro.bat.query.default_quality_ladder` between the
        request's ``prev_quality`` and ``quality``) as the traversal
        materializes it. Each file's per-treelet walks are kept across
        rungs — pruning runs once, each rung only touches the depth
        window it adds — and the file handles are leased from the file
        cache for the stream's lifetime.

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
        :meth:`query` reports it. Streams execute serially across files:
        the serve tier's parallelism is across sessions, not within one
        stream.
        """
        req = request if request is not None else QueryRequest()
        if not isinstance(req, QueryRequest):
            raise InvalidRequestError("stream() takes a repro.QueryRequest")
        if ladder is None:
            ladder = default_quality_ladder(req.quality, req.prev_quality)
        ladder = tuple(float(q) for q in ladder)
        if not ladder or ladder[-1] != req.quality:
            raise InvalidRequestError("ladder must end exactly at request.quality")
        lo = req.prev_quality
        for q in ladder:
            if not lo <= q <= 1.0:
                raise InvalidRequestError(
                    "ladder must be non-descending within [prev_quality, 1]"
                )
            lo = q
        plan = self._plan(
            plan, self._plan_cache.get_or_build, box=req.box, filters=req.filters
        )
        return self._stream_rungs(req, ladder, plan)

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

        ``request.on_error`` matches :meth:`query`: ``"degrade"``
        quarantines corrupt/missing leaves and returns the partial
        result (``stats.quarantined_files`` counts what was lost).
        """
        if not isinstance(request, NeighborRequest):
            raise InvalidRequestError("neighbors() takes a repro.NeighborRequest")
        stats = NeighborStats()
        attributes, with_positions = _split_columns(request.columns)
        specs = self.attribute_specs()
        known = {sp.name for sp in specs}
        for f in request.filters:
            if f.name not in known:
                raise KeyError(
                    f"no attribute {f.name!r} in {self.metadata_path.name!r}"
                )
        if attributes is not None:
            for name in attributes:
                if name not in known:
                    raise KeyError(
                        f"no attribute {name!r} in {self.metadata_path.name!r}"
                    )

        opened: dict[int, tuple[BATFile, int]] = {}
        failed: set[int] = set()

        def open_leaf(leaf_index: int, action: str | None = None):
            ent = opened.get(leaf_index)
            if ent is not None:
                return ent[0]
            if leaf_index in failed:
                return None
            try:
                f = self.file(leaf_index)
            except _LEAF_ERRORS as exc:
                self._leaf_failed(leaf_index, exc, request.on_error, stats)
                failed.add(leaf_index)
                return None
            opened[leaf_index] = (f, f.decoded_bytes)
            stats.files_opened += 1
            if action == "ghost":
                stats.ghost_files_opened += 1
            return f

        def open_plan_file(fp):
            return open_leaf(fp.leaf_index, fp.action)

        # -- resolve centers ------------------------------------------------
        center_keys = None
        if request.points is not None:
            centers = np.asarray(request.points, dtype=np.float64).reshape(-1, 3)
        else:
            cplan = self.plan(request.center_box, request.filters)
            pos_parts, key_parts = [], []
            for fp in cplan.files:
                f = open_leaf(fp.leaf_index)
                if f is None:
                    continue
                pos, keys = box_members(
                    f, fp.leaf_index, request.center_box, request.filters, stats
                )
                if len(pos):
                    pos_parts.append(pos)
                    key_parts.append(keys)
            if pos_parts:
                centers = np.concatenate(pos_parts, axis=0)
                center_keys = np.concatenate(key_parts, axis=0)
            else:
                centers = np.empty((0, 3), dtype=np.float64)
                center_keys = np.empty((0, 3), dtype=np.int64)
        stats.centers = len(centers)

        # -- plan + engine --------------------------------------------------
        region = request.region
        plan = self._plan(
            plan, self._plan_cache.get_or_build_neighbor,
            region=region, radius=request.radius, filters=request.filters,
        )
        stats.pruned_files += plan.pruned_files
        stats.quarantined_files += plan.excluded_files

        if len(centers) == 0:
            offsets = np.zeros(1, dtype=np.int64)
            keys = np.empty((0, 3), dtype=np.int64)
            d2 = np.empty(0, dtype=np.float64)
        elif request.radius is not None:
            offsets, keys, d2 = radius_neighbors(
                plan.files, open_plan_file, centers, request.radius,
                region, request.filters, stats,
            )
        else:
            offsets, keys, d2 = knn_neighbors(
                plan.files, open_plan_file, centers, request.k,
                request.filters, stats,
            )
        stats.points_returned = int(offsets[-1])

        # -- materialize the selected rows ---------------------------------
        batch = materialize_rows(open_leaf, keys, specs, attributes, with_positions)

        # -- telemetry + decode accounting ---------------------------------
        leaf_rows: dict[int, int] = {}
        if len(keys):
            uniq, cnt = np.unique(keys[:, 0], return_counts=True)
            leaf_rows = dict(zip(uniq.tolist(), cnt.tolist()))
        for leaf_index, (f, before) in opened.items():
            stats.decoded_bytes += max(f.decoded_bytes - before, 0)
        if self.telemetry is not None:
            self.telemetry.view(
                region, request.filters, self._materialized_columns(request)
            )
            for leaf_index, (f, before) in opened.items():
                self.telemetry.leaf(
                    leaf_index,
                    points=leaf_rows.get(leaf_index, 0),
                    decoded_bytes=max(f.decoded_bytes - before, 0),
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

    def _stream_rungs(self, req, ladder, plan):
        attributes, with_positions = _split_columns(req.columns)
        stats = QueryStats()
        stats.pruned_files += plan.pruned_files
        stats.quarantined_files += plan.excluded_files
        partial = plan.excluded_files > 0
        # per-leaf telemetry gathered over the stream's whole life: the
        # handle and its decode counter at stream start, points delivered
        leaf_handles: dict[int, tuple] = {}
        leaf_points: dict[int, int] = {}
        with self._cache.lease(
            [self.directory / fp.file_name for fp in plan.files]
        ):
            gens = []  # [(file_rank, leaf_index, per-file increment generator)]
            for file_rank, fp in enumerate(plan.files):
                try:
                    f = self.file(fp.leaf_index)
                    leaf_handles[fp.leaf_index] = (f, f.decoded_bytes)
                except _LEAF_ERRORS as exc:
                    self._leaf_failed(fp.leaf_index, exc, req.on_error, stats)
                    partial = True
                    continue
                gens.append(
                    (
                        file_rank,
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
                    )
                )
            try:
                yield from self._stream_ladder(
                    req, ladder, gens, stats, partial, leaf_points
                )
            finally:
                # record what the stream actually touched, even when the
                # consumer closed it early at a rung boundary (shedding)
                if self.telemetry is not None:
                    self.telemetry.view(
                        req.box, req.filters, self._materialized_columns(req)
                    )
                    for leaf_index, (f, decoded_before) in leaf_handles.items():
                        self.telemetry.leaf(
                            leaf_index,
                            points=leaf_points.get(leaf_index, 0),
                            decoded_bytes=max(f.decoded_bytes - decoded_before, 0),
                        )

    def _stream_ladder(self, req, ladder, gens, stats, partial, leaf_points):
        prev = req.prev_quality
        for q in ladder:
            parts: list[ParticleBatch] = []
            orders: list[np.ndarray] = []
            dead: list[int] = []
            for slot, (file_rank, leaf_index, gen) in enumerate(gens):
                try:
                    inc = next(gen)
                except _LEAF_ERRORS as exc:
                    self._leaf_failed(leaf_index, exc, req.on_error, stats)
                    partial = True
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
                    okeys[:, 0] = file_rank
                    okeys[:, 1] = inc.treelet_rank
                    okeys[:, 2] = inc.slots
                    orders.append(okeys)
            for slot in reversed(dead):
                gens.pop(slot)[2].close()
            if parts:
                batch = (
                    ParticleBatch.concatenate(parts) if len(parts) > 1 else parts[0]
                )
                order = (
                    np.concatenate(orders, axis=0) if len(orders) > 1 else orders[0]
                )
            else:
                batch = empty_batch(self, req.columns)
                order = np.empty((0, 3), dtype=np.int64)
            yield StreamIncrement(
                quality=q,
                prev_quality=prev,
                batch=batch,
                order=order,
                stats=stats,
                partial=partial,
            )
            prev = q

    def _leaf_failed(self, leaf_index: int, exc: Exception, on_error: str, stats) -> None:
        """One leaf file turned out corrupt or missing mid-query.

        ``"degrade"`` quarantines it (future plans exclude it up front)
        and counts it in ``stats.quarantined_files``; ``"raise"``
        surfaces a clear error naming the leaf and dataset.
        """
        if on_error == "degrade":
            self.quarantine_leaf(leaf_index, str(exc))
            stats.quarantined_files += 1
            return
        leaf = self.metadata.leaves[leaf_index]
        path = str(self.directory / leaf.file_name)
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
