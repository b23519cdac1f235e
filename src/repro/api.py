"""The unified query API: ``open_dataset`` + ``QueryRequest``/``QueryResult``.

Every read path — :meth:`~repro.core.dataset.BATDataset.query`, the serve
layer's request parsing, the ``repro query`` CLI — speaks one request
shape. A :class:`QueryRequest` captures *what* to read (box, filters,
quality window, columns, error policy) independently of
*where* it runs, so the same request object can be replayed against a
dataset, a time series, or the concurrent service and must produce
byte-identical data.

Typical use::

    import repro

    ds = repro.open_dataset("out/ts0000.meta.json")
    result = ds.query(repro.QueryRequest(quality=0.3, columns=("temp",)))
    print(len(result.batch), result.stats.files_opened)

:class:`QueryResult` iterates as ``(batch, stats)``, so
``batch, stats = ds.query(...)`` works too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InvalidRequestError
from .types import Box, ParticleBatch

__all__ = [
    "Request",
    "QueryRequest",
    "NeighborRequest",
    "QueryResult",
    "NeighborResult",
    "StreamIncrement",
    "reassemble_stream",
    "request_to_doc",
    "request_from_doc",
    "open_dataset",
]

#: legal ``on_error`` policies for corrupt/missing leaf files
ON_ERROR_POLICIES = ("raise", "degrade")

@dataclass(frozen=True)
class Request:
    """Frozen base of every request family.

    Carries the fields the families share — ``filters``, ``columns``,
    ``on_error`` — plus the common construction-time
    machinery: sequence fields are frozen to tuples, the error policy is
    checked, and then the subclass's :meth:`_validate` hook runs. Every
    request is therefore hashable and comparable the moment it exists,
    so request objects key the plan and result caches directly, and
    an invalid request fails at construction with an
    :class:`~repro.errors.InvalidRequestError` naming the offending
    field — never deep inside a traversal.

    ``family`` is the wire-format discriminator used by
    :func:`request_to_doc` / :func:`request_from_doc`; the serve tier's
    cache and single-flight keys hold the request object itself.
    """

    filters: tuple = ()
    columns: tuple[str, ...] | None = None
    on_error: str = "raise"

    family: ClassVar[str] = "query"

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))
        if self.on_error not in ON_ERROR_POLICIES:
            raise InvalidRequestError("on_error must be 'raise' or 'degrade'")
        self._validate()

    def _validate(self) -> None:
        """Family-specific construction checks (subclass hook)."""


@dataclass(frozen=True)
class QueryRequest(Request):
    """One immutable description of a (progressive) read.

    ``quality``/``prev_quality`` bound the progressive increment: the
    request loads the data between the two quality levels, so
    ``QueryRequest(quality=0.7, prev_quality=0.3)`` is the refinement a
    viewer issues after already holding the 0.3 view. ``columns`` names
    the columns to materialize (``None`` means all); on a v4 file,
    unrequested columns are never even decoded. An explicit selection may
    include the pseudo-column ``"positions"``; leaving it out projects
    positions away too — the result batch then has ``positions=None`` and
    carries its row count in ``batch.count``, and on v4 files the
    position payload is only decoded where a box test needs it (so
    ``QueryRequest(columns=("temp",))`` decodes roughly just the ``temp``
    column). ``on_error``
    chooses what a corrupt or missing leaf file does: ``"raise"`` (the
    default) or ``"degrade"`` to quarantine it and return the partial
    result from the surviving files.

    Requests are hashable and comparable, so they key caches directly.
    """

    box: Box | None = None
    quality: float = 1.0
    prev_quality: float = 0.0

    family: ClassVar[str] = "query"

    def _validate(self):
        # quality 0.0 is a valid (empty) read — progressive loops start there
        if not 0.0 <= self.quality <= 1.0:
            raise InvalidRequestError(
                f"quality must be in [0, 1], got {self.quality}"
            )
        if not 0.0 <= self.prev_quality <= self.quality:
            raise InvalidRequestError(
                f"prev_quality must be in [0, quality], got "
                f"{self.prev_quality} with quality {self.quality}"
            )


@dataclass(frozen=True)
class NeighborRequest(Request):
    """One immutable description of a neighbor-list query.

    Centers come from exactly one of two sources: ``points`` (an explicit
    sequence of ``(x, y, z)`` probe positions, frozen to a tuple of float
    triples) or ``center_box`` (every stored particle inside the box
    becomes a center, in the dataset's canonical file/treelet/slot
    order). Exactly one of ``k`` (the *k* nearest neighbors per center)
    and ``radius`` (all neighbors with distance ≤ radius) selects the
    query mode; both are validated here, at construction — ``k >= 1``,
    ``radius > 0`` and finite — so a degenerate request can never reach
    the planner's ghost-halo expansion.

    ``filters`` restrict which particles participate at all: as
    neighbors always, and — for ``center_box`` requests — as centers
    too, so a filtered friends-of-friends run links only the particles
    that pass. A center is its own neighbor when it is a stored particle
    (distance 0 sorts first). Per-center neighbor lists are ordered by
    ``(distance, leaf, treelet, slot)`` — the global particle order-key
    breaks distance ties, which makes results reproducible across
    shard layouts (see docs/API.md).
    """

    center_box: Box | None = None
    points: tuple | None = None
    k: int | None = None
    radius: float | None = None

    family: ClassVar[str] = "neighbor"

    def _validate(self):
        if self.points is not None:
            try:
                pts = tuple(
                    tuple(float(c) for c in p) for p in self.points
                )
            except (TypeError, ValueError):
                raise InvalidRequestError(
                    "points must be a sequence of (x, y, z) triples"
                ) from None
            if not pts:
                raise InvalidRequestError(
                    "points must name at least one center (got an empty "
                    "sequence); omit it to use center_box instead"
                )
            for p in pts:
                if len(p) != 3:
                    raise InvalidRequestError(
                        f"points entries must be (x, y, z) triples, got "
                        f"a length-{len(p)} entry"
                    )
                if not all(np.isfinite(c) for c in p):
                    raise InvalidRequestError(
                        f"points entries must be finite, got {p}"
                    )
            object.__setattr__(self, "points", pts)
        if (self.center_box is None) == (self.points is None):
            raise InvalidRequestError(
                "exactly one of center_box and points must be given"
            )
        if self.center_box is not None:
            if not isinstance(self.center_box, Box):
                raise InvalidRequestError(
                    f"center_box must be a Box, got "
                    f"{type(self.center_box).__name__}"
                )
            if self.center_box.is_empty:
                raise InvalidRequestError("center_box must not be empty")
        if (self.k is None) == (self.radius is None):
            raise InvalidRequestError(
                "exactly one of k and radius must be given"
            )
        if self.k is not None:
            if isinstance(self.k, bool) or not isinstance(
                self.k, (int, np.integer)
            ):
                raise InvalidRequestError(
                    f"k must be an integer >= 1, got {self.k!r}"
                )
            if self.k < 1:
                raise InvalidRequestError(f"k must be >= 1, got {self.k}")
            object.__setattr__(self, "k", int(self.k))
        if self.radius is not None:
            try:
                r = float(self.radius)
            except (TypeError, ValueError):
                raise InvalidRequestError(
                    f"radius must be a finite number > 0, got {self.radius!r}"
                ) from None
            if not np.isfinite(r) or not r > 0.0:
                raise InvalidRequestError(
                    f"radius must be a finite number > 0, got {self.radius!r}"
                )
            object.__setattr__(self, "radius", r)

    @property
    def region(self) -> Box:
        """Tight box around the query centers (the pre-halo query region)."""
        if self.center_box is not None:
            return self.center_box
        return Box.of_points(np.asarray(self.points, dtype=np.float64))


@dataclass(frozen=True)
class QueryResult:
    """What one request returned: the batch plus traversal statistics.

    Iterates as ``(batch, stats)`` so existing two-value unpacking keeps
    working.
    """

    batch: ParticleBatch
    stats: object = field(repr=False, default=None)

    def __iter__(self):
        yield self.batch
        yield self.stats

    def __len__(self) -> int:
        return len(self.batch)


@dataclass(frozen=True, eq=False)
class NeighborResult:
    """What one :class:`NeighborRequest` returned.

    Per-center neighbor lists in CSR form: center ``i``'s neighbors are
    rows ``offsets[i]:offsets[i+1]`` of ``batch`` / ``distances`` /
    ``keys``. Within each list rows ascend by ``(distance, leaf,
    treelet, slot)`` — the deterministic tie-break contract — and
    ``keys`` carries each neighbor's global ``(leaf, treelet, slot)``
    order-key so two results can be compared (or joined against the
    center set) without relying on float identity.

    ``centers`` holds the resolved query centers (float64, request
    order); ``center_keys`` their order-keys when the centers came from
    ``center_box`` (``None`` for explicit ``points``). ``stats`` is a
    :class:`~repro.bat.neighbors.NeighborStats` with the traversal and
    ghost-exchange work counters.
    """

    centers: np.ndarray
    offsets: np.ndarray
    batch: ParticleBatch | None
    distances: np.ndarray
    keys: np.ndarray
    center_keys: np.ndarray | None = None
    stats: object = field(repr=False, default=None)

    def __len__(self) -> int:
        """Total neighbor rows across all centers."""
        return int(self.offsets[-1]) if len(self.offsets) else 0

    @property
    def n_centers(self) -> int:
        return len(self.offsets) - 1 if len(self.offsets) else 0

    @property
    def counts(self) -> np.ndarray:
        """Neighbors found per center (``(C,)`` int64)."""
        return np.diff(self.offsets)

    @property
    def nbytes(self) -> int:
        n = (
            self.centers.nbytes + self.offsets.nbytes
            + self.distances.nbytes + self.keys.nbytes
        )
        if self.center_keys is not None:
            n += self.center_keys.nbytes
        if self.batch is not None:
            n += self.batch.nbytes
        return n

    def neighbors(self, i: int) -> slice:
        """Row slice of center ``i``'s neighbor list."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))


def request_to_doc(req: Request) -> dict:
    """Serialize any request family to a plain-JSON wire doc.

    The inverse of :func:`request_from_doc`; the shard router uses this
    pair to move requests across process boundaries without pickling.
    """
    doc = {
        "family": req.family,
        "filters": [[f.name, float(f.lo), float(f.hi)] for f in req.filters],
        "columns": list(req.columns) if req.columns is not None else None,
        "on_error": req.on_error,
    }
    if isinstance(req, QueryRequest):
        doc["box"] = (
            [list(map(float, req.box.lower)), list(map(float, req.box.upper))]
            if req.box is not None else None
        )
        doc["quality"] = float(req.quality)
        doc["prev_quality"] = float(req.prev_quality)
    elif isinstance(req, NeighborRequest):
        doc["center_box"] = (
            [list(map(float, req.center_box.lower)),
             list(map(float, req.center_box.upper))]
            if req.center_box is not None else None
        )
        doc["points"] = (
            [list(map(float, p)) for p in req.points]
            if req.points is not None else None
        )
        doc["k"] = None if req.k is None else int(req.k)
        doc["radius"] = None if req.radius is None else float(req.radius)
    else:  # pragma: no cover - future families must extend this
        raise InvalidRequestError(
            f"cannot serialize request family {req.family!r}"
        )
    return doc


def request_from_doc(doc: dict) -> Request:
    """Rebuild a request from its :func:`request_to_doc` wire doc.

    Docs without a ``family`` tag predate the neighbor family and parse
    as query requests. Stored docs (the job queue persists them) may
    still carry the ``"engine"`` key of the time a request could choose
    its traversal; it is ignored in both families.
    """
    from .bat.query import AttributeFilter  # local: avoids an import cycle

    common = dict(
        filters=tuple(
            AttributeFilter(name, lo, hi) for name, lo, hi in doc.get("filters", ())
        ),
        columns=(
            tuple(doc["columns"]) if doc.get("columns") is not None else None
        ),
        on_error=doc.get("on_error", "raise"),
    )
    family = doc.get("family", "query")
    if family == "query":
        box = doc.get("box")
        return QueryRequest(
            box=Box(tuple(box[0]), tuple(box[1])) if box is not None else None,
            quality=doc.get("quality", 1.0),
            prev_quality=doc.get("prev_quality", 0.0),
            **common,
        )
    if family == "neighbor":
        cb = doc.get("center_box")
        pts = doc.get("points")
        return NeighborRequest(
            center_box=Box(tuple(cb[0]), tuple(cb[1])) if cb is not None else None,
            points=tuple(tuple(p) for p in pts) if pts is not None else None,
            k=doc.get("k"),
            radius=doc.get("radius"),
            **common,
        )
    raise InvalidRequestError(f"unknown request family {family!r} in doc")


@dataclass(frozen=True)
class StreamIncrement:
    """One quality rung of a streamed (progressive) read.

    ``batch`` holds the rows this rung adds on top of ``prev_quality``.
    ``order`` is an ``(N, 3)`` int64 array of per-row order keys
    ``(file_rank, treelet_rank, slot)``; rows within one increment are
    already ascending in their keys, and sorting the concatenation of a
    stream's increments by them reproduces the direct synchronous
    emission order byte for byte (see :func:`reassemble_stream`).
    ``order=None`` marks a pre-ordered increment — e.g. a one-shot
    synchronous result (a result-cache hit, or an identical in-flight
    window's) pushed to a stream as a single increment by the serve layer.

    ``stats`` are the stream's *cumulative* work counters as of this
    rung (a :class:`~repro.bat.query.QueryStats`), which equal a direct
    query's once the final rung has been consumed. ``partial`` turns
    (and stays) True once a leaf file was quarantined mid-stream under
    ``on_error="degrade"``; partial streams are never cached or shared.
    """

    quality: float
    prev_quality: float
    batch: ParticleBatch
    order: np.ndarray | None = None
    stats: object = field(repr=False, default=None)
    partial: bool = False


def reassemble_stream(increments) -> QueryResult:
    """Fold streamed increments back into one :class:`QueryResult`.

    The inverse of :meth:`~repro.core.dataset.BATDataset.stream`: given
    every increment of one stream (in delivery order), returns a result
    byte-identical to the direct synchronous query at the final rung's
    quality. A *prefix* of a stream is also valid input — truncated
    streams reassemble to the direct query at the last consumed rung's
    quality, because increment slot ranges chain with no overlap and no
    gap.
    """
    incs = list(increments)
    if not incs:
        raise InvalidRequestError("cannot reassemble an empty stream")
    stats = incs[-1].stats
    keyed = sum(inc.order is not None for inc in incs)
    if keyed not in (0, len(incs)):
        raise InvalidRequestError(
            "cannot reassemble a mix of keyed and pre-ordered increments"
        )
    parts = [inc for inc in incs if len(inc.batch)] or incs[:1]
    if len(parts) == 1:
        # one increment already is in order (ascending keys, or pre-ordered)
        return QueryResult(batch=parts[0].batch, stats=stats)
    # pre-ordered increments (the sync one-shot path, the shard router's
    # leaf runs) laid end to end already are the direct order
    batch = ParticleBatch.concatenate([inc.batch for inc in parts])
    if keyed:
        order = np.concatenate([inc.order for inc in parts])
        batch = batch.select(np.lexsort((order[:, 2], order[:, 1], order[:, 0])))
    return QueryResult(batch=batch, stats=stats)


def open_dataset(path, *, file_cache=None, plan_cache=None):
    """Open one written timestep for querying.

    The front door of the read API: returns a
    :class:`~repro.core.dataset.BATDataset` (usable as a context manager)
    whose :meth:`~repro.core.dataset.BATDataset.query` accepts a
    :class:`QueryRequest`. ``file_cache`` and ``plan_cache`` tune
    resource sharing exactly as the
    :class:`~repro.core.dataset.BATDataset` constructor does.
    """
    from .core.dataset import BATDataset

    return BATDataset(path, file_cache=file_cache, plan_cache=plan_cache)
