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
from functools import partial
from pathlib import Path
from types import SimpleNamespace

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
    brute_neighbors,
    knn_neighbors,
    materialize_rows,
    radius_neighbors,
)
from ..bat.query import (
    QueryStats,
    default_quality_ladder,
    query_file,
    stream_query_file,
)
from ..errors import IntegrityError, InvalidRequestError, LeafUnavailableError
from ..parallel import get_executor
from ..types import Box, ParticleBatch
from .metadata import DatasetMetadata
from .planner import NeighborQueryPlan, PlanCache, QueryPlan

__all__ = ["BATDataset"]


def _query_leaf(directory: str, kwargs: dict, item):
    """Run one file's query in an executor worker.

    ``item`` is ``(leaf_index, file_name, box)`` — the box comes from the
    file's plan entry (``None`` when the query box contains the whole
    leaf). Workers open their own handle (mmaps don't cross process
    boundaries and per-task handles keep threads independent); the serial
    path uses the dataset's LRU cache instead.

    Returns ``(leaf_index, batch, stats, error)`` where ``error`` is
    ``None`` on success or a picklable ``(kind, message)`` pair (``kind``
    in ``"missing"``/``"corrupt"``) — exceptions with keyword-only
    constructors don't round-trip through process pools, and the dataset
    decides whether to quarantine or raise, not the worker.
    """
    leaf_index, file_name, box = item
    try:
        f = BATFile(Path(directory) / file_name)
    except FileNotFoundError as exc:
        return leaf_index, None, None, ("missing", str(exc))
    except IntegrityError as exc:
        return leaf_index, None, None, ("corrupt", str(exc))
    try:
        batch, stats = query_file(f, box=box, **kwargs)
        # the per-task handle opened at 0, so its counter is this query's
        stats.decoded_bytes = f.decoded_bytes
    except IntegrityError as exc:
        return leaf_index, None, None, ("corrupt", str(exc))
    finally:
        f.close()
    return leaf_index, batch, stats, None


class BATDataset:
    """Read-side facade over one written timestep.

    ``executor`` selects the execution layer for multi-file queries (a
    spec string like ``"process:4"``, an :class:`~repro.parallel.Executor`
    instance, or ``None`` for the serial default); ``file_cache`` bounds
    how many leaf files stay open between queries and may be shared with
    other datasets (e.g. across the steps of a time series).
    """

    def __init__(
        self,
        metadata_path,
        executor=None,
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
        self.executor = get_executor(executor)
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
        return self._plan_cache.get_or_build(
            self.metadata, box, tuple(filters), exclude=self._exclude()
        )

    def _candidate_leaves(self, box, filters) -> list[int]:
        """Leaf indices the planner keeps (kept for compatibility/tests)."""
        return [fp.leaf_index for fp in self.plan(box, tuple(filters)).files]

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
        planner pruning which leaf files get touched at all. Candidate
        files fan out across the dataset's executor (callback queries
        stay serial so the callback observes file order); results and
        stats are merged in file order, so every executor returns
        identical output.

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
        on_error = req.on_error
        box = req.box
        filters = req.filters
        # ``columns`` may name the pseudo-column "positions"; anything else
        # is an attribute. Omitting it from an explicit selection projects
        # positions away entirely (the batch carries a count instead).
        attributes = None
        with_positions = True
        if req.columns is not None:
            attributes = [c for c in req.columns if c != "positions"]
            with_positions = "positions" in req.columns
        if plan is None:
            plan = self.plan(box, filters)
        elif plan.box != box or plan.filters != filters:
            raise InvalidRequestError(
                "plan was built for a different box/filters shape"
            )
        kwargs = dict(
            quality=req.quality,
            prev_quality=req.prev_quality,
            filters=filters,
            attributes=attributes,
            with_positions=with_positions,
        )
        newly_failed = 0
        indexed_stats: list[tuple[int, QueryStats]] = []
        parts = []
        if callback is None and self.executor.kind != "serial" and len(plan.files) > 1:
            if self.executor.kind == "thread":
                # threads share the dataset's LRU handle cache (it is
                # thread-safe): no per-task reopen, no re-running the
                # whole-file section CRCs a fresh BATFile pays on open
                task_fn = partial(self._query_leaf_shared, kwargs)
            else:
                # processes can't share mmaps; workers open their own handle
                task_fn = partial(_query_leaf, str(self.directory), kwargs)
            tasks = self.executor.map(
                task_fn,
                [(fp.leaf_index, fp.file_name, fp.box) for fp in plan.files],
            )
            for i, res, s, err in sorted(tasks, key=lambda t: t[0]):
                if err is not None:
                    self._leaf_failed(i, err[0], err[1], on_error)
                    newly_failed += 1
                    continue
                indexed_stats.append((i, s))
                if res is not None and len(res):
                    parts.append(res)
        else:
            for fp in plan.files:
                try:
                    f = self.file(fp.leaf_index)
                    decoded_before = f.decoded_bytes
                    res, s = query_file(f, box=fp.box, callback=callback, **kwargs)
                except FileNotFoundError as exc:
                    self._leaf_failed(fp.leaf_index, "missing", str(exc), on_error)
                    newly_failed += 1
                    continue
                except IntegrityError as exc:
                    self._leaf_failed(fp.leaf_index, "corrupt", str(exc), on_error)
                    newly_failed += 1
                    continue
                s.decoded_bytes = f.decoded_bytes - decoded_before
                indexed_stats.append((fp.leaf_index, s))
                if res is not None and len(res):
                    parts.append(res)
        stats = QueryStats.merge_ordered(indexed_stats)
        stats.pruned_files += plan.pruned_files
        stats.quarantined_files += plan.excluded_files + newly_failed
        if self.telemetry is not None:
            self.telemetry.view(box, filters, self._materialized_columns(req))
            for i, s in indexed_stats:
                self.telemetry.leaf(
                    i, points=s.points_returned, decoded_bytes=s.decoded_bytes
                )
        if callback is not None:
            return QueryResult(batch=None, stats=stats)
        if not parts:
            specs = self.attribute_specs()
            if attributes is not None:
                specs = [sp for sp in specs if sp.name in attributes]
            return QueryResult(
                batch=ParticleBatch.empty(specs, with_positions=with_positions),
                stats=stats,
            )
        return QueryResult(batch=ParticleBatch.concatenate(parts), stats=stats)

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
        be cached). Streams execute serially across files: the serve
        tier's parallelism is across sessions, not within one stream.
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
        attributes = None
        with_positions = True
        if req.columns is not None:
            attributes = [c for c in req.columns if c != "positions"]
            with_positions = "positions" in req.columns
        if plan is None:
            plan = self.plan(req.box, req.filters)
        elif plan.box != req.box or plan.filters != req.filters:
            raise InvalidRequestError(
                "plan was built for a different box/filters shape"
            )
        return self._stream_rungs(req, ladder, plan, attributes, with_positions)

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
        ``(distance, leaf, treelet, slot)`` — deterministic across
        engines, executors, and shard layouts; ``engine="brute"`` is the
        exhaustive byte-identical reference.

        ``request.on_error`` matches :meth:`query`: ``"degrade"``
        quarantines corrupt/missing leaves and returns the partial
        result (``stats.quarantined_files`` counts what was lost).
        """
        if not isinstance(request, NeighborRequest):
            raise InvalidRequestError("neighbors() takes a repro.NeighborRequest")
        stats = NeighborStats()
        on_error = request.on_error
        attributes = None
        with_positions = True
        if request.columns is not None:
            attributes = [c for c in request.columns if c != "positions"]
            with_positions = "positions" in request.columns
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
            except FileNotFoundError as exc:
                self._leaf_failed(leaf_index, "missing", str(exc), on_error)
                failed.add(leaf_index)
                stats.quarantined_files += 1
                return None
            except IntegrityError as exc:
                self._leaf_failed(leaf_index, "corrupt", str(exc), on_error)
                failed.add(leaf_index)
                stats.quarantined_files += 1
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
            cplan = self._plan_cache.get_or_build(
                self.metadata, request.center_box, request.filters,
                exclude=self._exclude(),
            )
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

        # -- plan + engines -------------------------------------------------
        region = request.region
        if plan is None:
            plan = self._plan_cache.get_or_build_neighbor(
                self.metadata, region, request.radius, request.filters,
                exclude=self._exclude(),
            )
        elif (
            plan.region != region or plan.radius != request.radius
            or plan.filters != request.filters
        ):
            raise InvalidRequestError(
                "plan was built for a different region/radius/filters shape"
            )
        stats.pruned_files += plan.pruned_files
        stats.quarantined_files += plan.excluded_files

        if len(centers) == 0:
            offsets = np.zeros(1, dtype=np.int64)
            keys = np.empty((0, 3), dtype=np.int64)
            d2 = np.empty(0, dtype=np.float64)
        elif request.engine == "brute":
            excl = self._exclude()
            brute_files = [
                SimpleNamespace(
                    leaf_index=leaf.leaf_index,
                    file_name=leaf.file_name,
                    action="full",
                )
                for leaf in self.metadata.leaves
                if leaf.leaf_index not in excl
            ]
            offsets, keys, d2 = brute_neighbors(
                brute_files, open_plan_file, centers, request.k,
                request.radius, request.filters, stats,
            )
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
        tv_cache: dict[tuple[int, int], object] = {}
        rank_to_leaf: dict[int, np.ndarray] = {}

        def open_treelet(leaf_index: int, trank: int):
            tv = tv_cache.get((leaf_index, trank))
            if tv is None:
                f = open_leaf(leaf_index)
                inv = rank_to_leaf.get(leaf_index)
                if inv is None:
                    inv = rank_to_leaf[leaf_index] = np.argsort(
                        f.shallow_leaf_visit_rank()
                    )
                tv = tv_cache[(leaf_index, trank)] = f.treelet(int(inv[trank]))
            return tv

        batch = materialize_rows(
            open_treelet, keys, specs, attributes, with_positions
        )

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

    def _stream_rungs(self, req, ladder, plan, attributes, with_positions):
        stats = QueryStats()
        stats.pruned_files += plan.pruned_files
        stats.quarantined_files += plan.excluded_files
        partial = False
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
                except FileNotFoundError as exc:
                    self._leaf_failed(fp.leaf_index, "missing", str(exc), req.on_error)
                    stats.quarantined_files += 1
                    partial = True
                    continue
                except IntegrityError as exc:
                    self._leaf_failed(fp.leaf_index, "corrupt", str(exc), req.on_error)
                    stats.quarantined_files += 1
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
                    req, ladder, gens, stats, partial, attributes,
                    with_positions, leaf_points,
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

    def _stream_ladder(
        self, req, ladder, gens, stats, partial, attributes,
        with_positions, leaf_points,
    ):
        specs = None
        prev = req.prev_quality
        for q in ladder:
            parts: list[ParticleBatch] = []
            orders: list[np.ndarray] = []
            dead: list[int] = []
            for slot, (file_rank, leaf_index, gen) in enumerate(gens):
                try:
                    inc = next(gen)
                except FileNotFoundError as exc:
                    self._leaf_failed(leaf_index, "missing", str(exc), req.on_error)
                    stats.quarantined_files += 1
                    partial = True
                    dead.append(slot)
                    continue
                except IntegrityError as exc:
                    self._leaf_failed(leaf_index, "corrupt", str(exc), req.on_error)
                    stats.quarantined_files += 1
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
                if specs is None:
                    specs = self.attribute_specs()
                    if attributes is not None:
                        specs = [sp for sp in specs if sp.name in attributes]
                batch = ParticleBatch.empty(specs, with_positions=with_positions)
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

    def _query_leaf_shared(self, kwargs: dict, item):
        """Thread-executor work unit: query one leaf via the shared cache.

        Mirrors :func:`_query_leaf`'s return contract but reuses (and
        populates) the dataset's handle cache instead of opening a
        throwaway ``BATFile`` per task.
        """
        leaf_index, file_name, box = item
        try:
            f = self._cache.get(self.directory / file_name)
            # decode accounting is a per-handle counter shared by all
            # threads; the delta is approximate under concurrent queries
            # of the same leaf, but the sum across a quiet service is exact
            decoded_before = f.decoded_bytes
            batch, stats = query_file(f, box=box, **kwargs)
        except FileNotFoundError as exc:
            return leaf_index, None, None, ("missing", str(exc))
        except IntegrityError as exc:
            return leaf_index, None, None, ("corrupt", str(exc))
        stats.decoded_bytes = max(f.decoded_bytes - decoded_before, 0)
        return leaf_index, batch, stats, None

    def _leaf_failed(self, leaf_index: int, kind: str, message: str,
                     on_error: str) -> None:
        """One leaf file turned out corrupt/missing mid-query.

        ``"degrade"`` quarantines it (future plans exclude it up front);
        ``"raise"`` surfaces a clear error naming the leaf and dataset.
        """
        leaf = self.metadata.leaves[leaf_index]
        path = str(self.directory / leaf.file_name)
        if on_error == "degrade":
            self.quarantine_leaf(leaf_index, message)
            return
        context = (
            f"leaf file {leaf.file_name!r} (leaf {leaf_index}) of dataset "
            f"{self.metadata_path.name!r}"
        )
        if kind == "missing":
            raise LeafUnavailableError(
                f"{context} is missing: {message}",
                leaf_index=leaf_index, path=path,
            )
        raise IntegrityError(f"{context} is corrupt: {message}", path=path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BATDataset({str(self.metadata_path)!r}, files={self.n_files}, "
            f"particles={self.total_particles})"
        )
