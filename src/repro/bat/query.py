"""Visualization reads on BAT files (paper §V).

Queries take a quality window, an optional bounding box, and a set of
attribute filters. Spatial pruning uses the k-d hierarchy (exact);
attribute pruning uses the binned bitmaps (conservative — a final
false-positive check is applied to every returned particle). The read is
one traversal parameterised by ``(prev_quality, quality]``: a one-shot
read is the window ``(0, q]``, a progressive refinement passes the
quality already held, and a streamed read is a ladder of consecutive
windows over one kept traversal.

Quality ∈ [0, 1] maps to a maximum treelet depth through a log remap:
the number of LOD particles doubles per level, so the remap
``e(q) = log2(1 + q·(2^(D+1) − 1))`` makes perceived quality progress
smoothly. A node at depth *d* is processed fully when ``d < floor(e)`` and
fractionally (a prefix of its particles) when ``d == floor(e)``. ``D`` is
each file's own ``max_treelet_depth``, so the files of one read can reach
different depths at the same quality.

**One core.** A read is pruned, windowed and gathered one *step* at a
time — all the files of one request, read as one forest of trees
(:class:`_Step`) — with no Python loop over nodes, levels or files'
passes. A single file is the one-part step. Each file keeps its own
query bitmaps, effective depths, plan box and ``live`` flag (a root that
already proves its read empty); the step carries them per row:

- *Shallow pass.* Every file's shallow tree is one table
  (:meth:`~repro.bat.file.BATFile.shallow_table`: a row per node in the
  recursive walk's visit order, with box, resolved bitmaps, parent and
  depth); the step's tables are laid back to back as one :class:`_Forest`
  and tested against the query in one numpy pass. A node counts as
  visited when its parent passed (:func:`_survivors`), and the surviving
  leaf rows, in row order, are the treelets to read in emission order:
  file by file, each file's in its own visit order.
- *Treelet pass.* A treelet's nodes are not walked either. The
  survivors' *walk tables* (:meth:`~repro.bat.file.BATFile.walk_tables`:
  the same kind of table per treelet, in pre-order, with each node's
  slot range, held with the decoded columns; each file's missing ones
  built in one level-synchronous pass) are laid back to back, across
  files, as one :class:`_Forest` and tested in one pass. A tree, shallow
  or treelet, whose boxes or bitmaps do not nest has the result pushed
  down level by level instead, over its own rows only. Pruning does not
  depend on quality, so the masks are computed on the walk's first
  window and kept.
- *Window.* The depth cutoff lives in the window: it selects the kept
  rows with ``floor(e_lo) <= depth <= floor(e_hi)`` and counts visited
  nodes only down to ``floor(e_hi)``, below which no node can contribute
  — the counters are those of a top-down walk that stops there.
- *Gather.* The window's slot ranges, in pre-order, become one index for
  the step (:func:`_segments`), cut per treelet; each column is fetched
  per file for all that file's treelets in one call
  (:meth:`~repro.bat.file.BATFile.columns`: one cache round-trip) and
  gathered once into one array for the step (:func:`_gather`), and every
  row gets one exact box/filter check (positions are gathered for it only
  under a box; else once, at the kept rows). Every box test runs axis by
  axis (:func:`~repro.types.points_in_box`). A whole treelet asked for
  at full quality — no filters, a box that contains it, a window from 0
  past its deepest level — skips its table, node records and checks and
  is handed on as views of its columns, fetched the same way.

What has to stay per file does: treelet CRC verification on first touch
(:meth:`~repro.bat.file.BATFile.treelet`), walk-table builds, column
fetches and decodes, and the work counters — each file's
:class:`QueryStats` are its own, counted per row. A file that turns out
corrupt or missing (``IntegrityError`` / ``FileNotFoundError``) is
dropped from the step: its rows never reach the result, its counters stay
its own, and the error is handed back with it (:class:`StepPart`). So a
step returns exactly the bytes and counters of reading its files one at
a time, in order.

The rows leave as *chunks* — the views of whole treelets and the
gathered rows of the walked ones between them, across file boundaries —
and are copied once, where a rung's chunks are concatenated; rows the
walk gathered, alone, were copied by that gather.

There is one read, :func:`stream_query_file`: it keeps the walk of one
step across the rungs of a quality ladder. Only a caller that merges
rungs asks for per-row order keys ``(part, treelet_rank, slot)``, so the
increments can be merged back into the one-shot order; every increment
carries each part's row count. :func:`query_file` is its one-rung,
unkeyed call.

**One engine.** There is no second traversal in the package. The
original per-node stack walk is kept as the tests' reference
(``tests/reference_query.py``); the property tests pin the core's output
to it byte for byte. Both return identical batches and identical
``points_tested`` / ``points_returned`` / ``treelets_visited`` counters;
``nodes_visited`` and the per-subtree prune counters can be lower for the
core because of its depth cutoff. "The recursive walk" below means that
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from ..bitmaps import query_bitmap
from ..errors import IntegrityError, InvalidRequestError
from ..types import Box, ParticleBatch, boxes_meet, boxes_within, points_in_box
from .file import BATFile

__all__ = [
    "AttributeFilter",
    "QueryStats",
    "StepPart",
    "quality_to_depth",
    "quality_for_depth",
    "default_quality_ladder",
    "query_file",
    "FileIncrement",
    "stream_query_file",
]

#: what a corrupt or missing leaf file raises, at open or mid-traversal
LEAF_ERRORS = (FileNotFoundError, IntegrityError)

@dataclass(frozen=True)
class AttributeFilter:
    """Keep particles with ``lo <= value(name) <= hi``."""

    name: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise InvalidRequestError(f"filter on {self.name!r} has hi < lo")


@dataclass
class QueryStats:
    """Work counters for one query; summed across files by dataset reads."""

    treelets_visited: int = 0
    nodes_visited: int = 0
    points_tested: int = 0
    points_returned: int = 0
    pruned_spatial: int = 0
    pruned_bitmap: int = 0
    #: leaf files the query planner skipped without opening them
    pruned_files: int = 0
    #: leaf files actually opened and traversed
    files_opened: int = 0
    #: leaf files skipped because they were corrupt or missing (degraded
    #: reads): both files quarantined during this query and files a prior
    #: query quarantined that the plan excluded up front
    quarantined_files: int = 0
    #: v4 column bytes materialized for this query (0 for v2/v3 files and
    #: for decoded-column-cache hits — it measures real decode work); set
    #: by the dataset layer from the handle's counter delta
    decoded_bytes: int = 0

    def merge(self, other: "QueryStats") -> None:
        self.treelets_visited += other.treelets_visited
        self.nodes_visited += other.nodes_visited
        self.points_tested += other.points_tested
        self.points_returned += other.points_returned
        self.pruned_spatial += other.pruned_spatial
        self.pruned_bitmap += other.pruned_bitmap
        self.pruned_files += other.pruned_files
        self.files_opened += other.files_opened
        self.quarantined_files += other.quarantined_files
        self.decoded_bytes += other.decoded_bytes


def quality_to_depth(quality: float, max_depth: int) -> float:
    """Log-remapped effective depth ``e`` ∈ [0, max_depth+1] (see module doc)."""
    if not 0.0 <= quality <= 1.0:
        raise InvalidRequestError("quality must be in [0, 1]")
    levels = max_depth + 1
    if quality == 0.0:
        return 0.0
    e = math.log2(1.0 + quality * (2.0**levels - 1.0))
    return min(e, float(levels))


def quality_for_depth(e: float, max_depth: int) -> float:
    """Inverse of :func:`quality_to_depth`: the quality whose effective
    depth is exactly ``e`` on a tree with ``max_depth`` treelet levels."""
    levels = max_depth + 1
    if e <= 0.0:
        return 0.0
    e = min(e, float(levels))
    return (2.0**e - 1.0) / (2.0**levels - 1.0)


def default_quality_ladder(
    quality: float, prev_quality: float = 0.0, levels: int = 8
) -> tuple[float, ...]:
    """Quality rungs for a streamed progressive read.

    Returns an ascending ladder ending exactly at ``quality``: one rung
    per frontier depth level of a nominal ``levels``-level tree, so each
    streamed increment roughly doubles the number of delivered particles
    (particle counts double per treelet depth). The ladder is a pure
    increment schedule — any ascending ladder ending at ``quality``
    reassembles to the same bytes — so ``levels`` needs only to be in the
    ballpark of the data's real treelet depth for the increments to line
    up with the frontier.
    """
    if not 0.0 <= prev_quality <= quality <= 1.0:
        raise InvalidRequestError("need 0 <= prev_quality <= quality <= 1")
    denom = 2.0**levels - 1.0
    rungs = [
        q
        for e in range(1, levels)
        if prev_quality < (q := (2.0**e - 1.0) / denom) < quality
    ]
    rungs.append(quality)
    return tuple(rungs)


def check_ladder(ladder, prev_quality: float) -> tuple[float, ...]:
    """``ladder`` as a tuple of floats, checked to be a stream's ladder:
    at least one rung, non-descending within ``[prev_quality, 1]``."""
    ladder = tuple(float(q) for q in ladder)
    if not ladder:
        raise InvalidRequestError("ladder must have at least one rung")
    lo = prev_quality
    for q in ladder:
        if not lo <= q <= 1.0:
            raise InvalidRequestError("ladder must be non-descending within [prev_quality, 1]")
        lo = q
    return ladder


@dataclass
class StepPart:
    """One file of a multi-file :func:`query_file` or
    :func:`stream_query_file` step.

    ``bat`` and ``box`` (the file's plan box; ``None`` = no box test) go
    in. ``stats`` come out as the file's own counters, exactly those of
    reading it alone (parts may share one object, to sum into); ``error``
    is the ``IntegrityError`` or ``FileNotFoundError`` that dropped the
    file from the step — its rows are then in no later result and its
    counters are partial — else ``None``.
    """

    bat: BATFile
    box: Box | None = None
    stats: QueryStats = field(default_factory=QueryStats)
    error: Exception | None = None


@dataclass
class _QueryContext:
    """One file's side of a read: its request, derived for its own binnings
    and tree depth, its counters, and the error that dropped it, if any."""

    bat: BATFile
    box: Box | None
    filters: tuple[AttributeFilter, ...]
    e_prev: float
    e_new: float
    stats: QueryStats = field(default_factory=QueryStats)
    #: names to materialize in the result; None = all
    attributes: tuple[str, ...] | None = None
    #: False = column-projected read: positions are neither returned nor
    #: decoded (unless a box test still needs them)
    with_positions: bool = True
    #: False when the root already proves the read empty (a filter no
    #: stored value can match, a box off the file's bounds, quality 0)
    live: bool = True
    #: the box as ``(lower, upper)`` float64 arrays, for array-wise tests
    qbounds: tuple[np.ndarray, np.ndarray] | None = None
    #: per filter ``(attribute index, query bitmap)``, for array-wise tests
    bitmap_tests: tuple[tuple[int, np.uint32], ...] = ()
    #: the corrupt-or-missing error that dropped this file from its step
    error: Exception | None = None


def _prepare(
    bat: BATFile,
    quality: float,
    prev_quality: float,
    box: Box | None,
    filters,
    attributes,
    with_positions: bool,
    stats: QueryStats | None = None,
) -> _QueryContext:
    """Validate one file read and derive what every traversal needs.

    The request prologue of every read entry point: unknown attribute
    names raise ``KeyError`` here, each filter becomes a query bitmap
    against the attribute's binning, and the quality window becomes
    effective depths. ``stats`` may be a caller-owned counter object to
    accumulate into.
    """
    if prev_quality > quality:
        raise InvalidRequestError("prev_quality must be <= quality")
    if attributes is not None:
        for name in attributes:
            bat.attr_index(name)  # raises KeyError for unknown names
    filters = tuple(filters)
    qbitmaps: dict[str, int] = {}
    for f in filters:
        bat.attr_index(f.name)  # raises KeyError for unknown attributes
        binning = bat.binnings.get(f.name)
        if binning is not None:
            qbitmaps[f.name] = int(binning.query(f.lo, f.hi))
        else:
            lo, hi = bat.attr_ranges[f.name]
            qbitmaps[f.name] = int(query_bitmap(f.lo, f.hi, lo, hi))
    e_new = quality_to_depth(quality, bat.max_treelet_depth)
    ctx = _QueryContext(
        bat=bat,
        box=box,
        filters=filters,
        e_prev=quality_to_depth(prev_quality, bat.max_treelet_depth),
        e_new=e_new,
        attributes=tuple(attributes) if attributes is not None else None,
        with_positions=bool(with_positions),
        live=not (
            e_new == 0.0
            or any(q == 0 for q in qbitmaps.values())
            or (box is not None and not bat.bounds.intersects(box))
        ),
        qbounds=(
            (np.asarray(box.lower), np.asarray(box.upper)) if box is not None else None
        ),
        bitmap_tests=tuple(
            (bat.attr_index(f.name), np.uint32(qbitmaps[f.name])) for f in filters
        ),
    )
    if stats is not None:
        ctx.stats = stats
    ctx.stats.files_opened += 1
    return ctx


def query_file(
    bat,
    quality: float = 1.0,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    attributes: list[str] | None = None,
    with_positions: bool = True,
) -> tuple[ParticleBatch, QueryStats]:
    """Run one (progressive) visualization read against BAT files: the
    one-rung, unkeyed :func:`stream_query_file`.

    ``bat`` is one :class:`~repro.bat.file.BATFile` (read with ``box``)
    or the :class:`StepPart` sequence of one step, as there. Returns
    ``(batch, stats)``: ``stats`` sums the counters of the files read
    (the dropped ones left out). The batch is the window's chunks
    concatenated — the one copy of the returned rows — or, when every row
    was gathered by the walk (no treelet went whole), the gathered arrays
    themselves: the gather was their one copy.
    """
    if not isinstance(bat, BATFile):
        bat = list(bat)
    stats = QueryStats()
    (inc,) = stream_query_file(
        bat, (quality,), prev_quality, box, filters, attributes, with_positions, stats,
        keyed=False,
    )
    if not isinstance(bat, BATFile):
        for p in bat:
            if p.error is None:
                stats.merge(p.stats)
    return ParticleBatch(inc.positions, inc.attributes, count=inc.count), stats


# -- flat core (vectorized) ----------------------------------------------------


def _survivors(keep, parent, depth, roots, loose=None):
    """``(alive, visited)`` of a table of trees, from each row's own test.

    A top-down walk visits a node when its parent passed and keeps it when
    it passes too. Where boxes and bitmaps nest (every file the builder
    writes) a failing parent implies failing children, so ``keep`` already
    is the kept set; the rows of trees that do not (``loose``) have it
    pushed down one level at a time. ``roots`` are the rows every walk
    starts from.
    """
    if loose is not None:
        keep = keep.copy()
        rows = np.flatnonzero(loose)
        d = depth[rows]
        for level in range(1, int(d.max(initial=0)) + 1):
            at = rows[d == level]
            keep[at] &= keep[parent[at]]
    visited = keep[parent]
    visited[roots] = True
    return keep, visited


def _shallow_survivors(table: np.ndarray, keep: np.ndarray):
    """:func:`_survivors` of a :meth:`~repro.bat.file.BATFile.shallow_table`."""
    loose = None if table["nests"][0] else np.ones(len(table), dtype=bool)
    return _survivors(keep, table["parent"], table["depth"], 0, loose)


class _Forest:
    """Several tables of trees laid back to back as one table.

    The tables are walk tables (:meth:`~repro.bat.file.BATFile.walk_tables`)
    or shallow tables (:meth:`~repro.bat.file.BATFile.shallow_table`), of
    one file or of several. One array per field, the tables' rows back to
    back: ``tid`` is each row's table (as ``ranks`` numbers them),
    ``parent`` a row of this table, ``roots`` every table's first row,
    ``loose`` the rows of trees that do not nest (``None`` when all of
    them do). ``bitmaps`` is only gathered on request; of the other fields,
    only those named in ``fields`` (``begin`` / ``count``, or ``leaf``).
    """

    __slots__ = (
        "lo", "hi", "bitmaps", "begin", "count", "leaf", "parent", "depth", "tid",
        "roots", "loose",
    )

    def __init__(self, tables, ranks, with_bitmaps: bool, fields=("begin", "count")):
        if len(tables) == 1:  # one table is its own forest: no copy
            table = tables[0]
            column = table.__getitem__
            self.roots = 0
            self.tid = np.zeros(len(table), dtype=np.int64) + ranks[0]
            self.parent = table["parent"]
            self.loose = None if table["nests"][0] else np.ones(len(table), dtype=bool)
        else:
            sizes = np.array([len(t) for t in tables])
            self.roots = sizes.cumsum() - sizes
            self.tid = np.repeat(ranks, sizes)

            def column(name):
                return np.concatenate([t[name] for t in tables])

            self.parent = column("parent") + np.repeat(self.roots, sizes)
            nests = np.array([t["nests"][0] for t in tables], dtype=bool)
            self.loose = None if nests.all() else np.repeat(~nests, sizes)
        self.lo, self.hi, self.depth = column("lo"), column("hi"), column("depth")
        for name in fields:
            setattr(self, name, column(name))
        self.bitmaps = column("bitmaps") if with_bitmaps else None

    def survivors(self, keep: np.ndarray):
        return _survivors(keep, self.parent, self.depth, self.roots, self.loose)


def _segments(lo: np.ndarray, hi: np.ndarray, tid: np.ndarray, n_points: np.ndarray):
    """Slot ranges ``[lo, hi)`` as one index, cut per treelet.

    The ranges come grouped by treelet ``tid`` and ascending within each.
    Returns ``(index, ranks, bounds, runs)``: ``index[bounds[i]:bounds[i +
    1]]`` are the slots of treelet ``ranks[i]``, one contiguous run from
    slot ``runs[i]`` where that is not -1 — or ``None`` when the ranges are
    empty. A range past its treelet's ``n_points`` is a damaged file.
    """
    nz = hi > lo
    if not nz.all():
        lo, hi, tid = lo[nz], hi[nz], tid[nz]
        if not lo.size:
            return None
    if (hi > n_points[tid]).any():
        raise IntegrityError("treelet node slot range past the treelet's points")
    n = len(lo)
    ends = np.cumsum(hi - lo)
    # the index: consecutive slots, jumping at every range start
    steps = np.ones(int(ends[-1]), dtype=np.int64)
    steps[0] = lo[0]
    steps[ends[:-1]] = lo[1:] - hi[:-1] + 1
    # each treelet's first and last range
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(tid[1:], tid[:-1], out=first[1:])
    first = np.flatnonzero(first)
    last = np.empty_like(first)
    last[:-1] = first[1:] - 1
    last[-1] = n - 1
    bounds = np.zeros(len(first) + 1, dtype=np.int64)
    bounds[1:] = ends[last]
    runs = np.where(hi[last] - lo[first] == bounds[1:] - bounds[:-1], lo[first], -1)
    return np.cumsum(steps), tid[first], bounds, runs


def _gather(fetch, name, index: np.ndarray, bounds: np.ndarray, runs=None, want=None, out=None):
    """One column of several treelets gathered into one array.

    ``name`` is an attribute, or ``None`` for the positions. Segment ``i``
    takes ``index[bounds[i]:bounds[i + 1]]`` from that column of its
    treelet — a plain slice copy where ``runs[i]`` names the first slot of
    one contiguous run. ``fetch(segs, name)`` returns the column of the
    treelets of segments ``segs`` (ascending), in order. Only non-empty
    segments are fetched — and with ``want``, only those it marks; the
    rows of the others are zero, or kept from ``out`` — so an unwanted
    column is never fetched (nor, on v4 files, decoded).
    """
    b = bounds.tolist()
    segs = [i for i in range(len(b) - 1) if b[i] < b[i + 1]]
    if want is not None:
        segs = [i for i in segs if want[i]]
    if not segs:
        return None
    cols = fetch(segs, name)
    starts = runs.tolist() if runs is not None else None
    if out is None:
        out = (np.empty if want is None else np.zeros)((b[-1], *cols[0].shape[1:]), cols[0].dtype)
    for i, col in zip(segs, cols):
        a, z = b[i], b[i + 1]
        s = -1 if starts is None else starts[i]
        if s >= 0:
            out[a:z] = col[s : s + z - a]
        else:
            # indices are in range (see _segments): no bounds-checked copy
            col.take(index[a:z], axis=0, out=out[a:z], mode="clip")
    return out


def _check(gather, pos, inbox, filters):
    """The exact box/filter check over a read's gathered rows.

    ``pos`` are the rows' positions and ``inbox(pos)`` the box test
    (``None`` without one); ``gather(name)`` gathers one attribute over
    the rows. Returns ``(cols, kept)``: the filter columns by name, and
    the indices of the rows that pass, ``None`` when nothing was checked.
    Each column is gathered once, so a filter column that is also returned
    reuses the values its filter tested.
    """
    mask = None if inbox is None else inbox(pos)
    cols: dict[str, np.ndarray] = {}
    for f in filters:
        vals = cols.get(f.name)
        if vals is None:
            vals = cols[f.name] = gather(f.name)
        fmask = (vals >= f.lo) & (vals <= f.hi)
        mask = fmask if mask is None else (mask & fmask)
    return cols, None if mask is None else np.flatnonzero(mask)


class _PartFailed(Exception):
    """Part ``part`` of a step raised ``error``, one of :data:`LEAF_ERRORS`."""

    def __init__(self, part: int, error: Exception):
        super().__init__(part, error)
        self.part = part
        self.error = error


def _fetcher(bats, parts: list, leaves: list, method: str = "columns"):
    """The :func:`_gather` ``fetch`` of segments over the treelets
    ``leaves[i]`` of files ``bats[parts[i]]``, the segments grouped by part:
    one call of the handle's ``method`` (:meth:`~repro.bat.file.BATFile.columns`,
    or :meth:`~repro.bat.file.BATFile.walk_tables`) per file, a file that
    fails raised as :class:`_PartFailed`."""

    def fetch(segs, *args):
        # segments come in part order: one run when the ends agree
        runs = (
            [(parts[segs[0]], segs)] if parts[segs[0]] == parts[segs[-1]]
            else groupby(segs, key=parts.__getitem__)
        )
        out = []
        for p, group in runs:
            try:
                out += getattr(bats[p], method)([leaves[s] for s in group], *args)
            except LEAF_ERRORS as exc:
                raise _PartFailed(p, exc) from None
        return out

    return fetch


#: the per-file counters a step counts per row (see :meth:`_Step._flush`)
_TALLY = (
    "treelets_visited", "nodes_visited", "pruned_spatial", "pruned_bitmap",
    "points_tested", "points_returned",
)
_TREELETS, _NODES, _SPATIAL, _BITMAP, _TESTED, _RETURNED = range(len(_TALLY))


class _Step:
    """A step's pruned read, advanced one quality window at a time.

    ``ctxs`` are the live files of the step, in order (*parts* below
    number them). The shallow pass runs on construction and picks the
    treelets to read, in emission order: grouped by part, each part's in
    its own visit order (*ranks* below index them). Pruning does not
    depend on quality, so the first window that walks any treelet tests
    the walk tables of all it walks as one :class:`_Forest` and later
    windows reuse the masks. What a window still decides is depth: it
    counts the visited nodes of the depths no earlier window reached for
    that part (the recursive walk's counters under the depth cutoff — no
    node below ``floor(e_hi)`` is ever counted) and selects the kept nodes
    of the depths it covers, with the same monotone slot-range rounding as
    the recursive walk, so consecutive windows chain with no gap and no
    overlap.

    Every counter is counted per part (one ``bincount`` per counter) into
    a window-local tally that reaches the parts' stats when the window
    ends. A part that raises one of :data:`LEAF_ERRORS` takes its partial
    tally and the error and is dropped; the window is then redone without
    it, so no row of it reaches a result and the other parts count
    exactly as if it had never been in the step.
    """

    __slots__ = (
        "ctxs", "filters", "with_positions", "names", "bitmap_tests",
        "qlo", "qhi", "free", "one_box",
        "tpart", "first", "leaves", "n_points", "max_depth", "containable", "spent",
        "forest", "fpart", "inside", "alive", "visited", "reached", "views",
    )

    def __init__(self, ctxs: list[_QueryContext]) -> None:
        self.ctxs = ctxs
        first = ctxs[0]
        schema = (first.bat.attr_names, first.bat.attr_dtypes)
        if any((c.bat.attr_names, c.bat.attr_dtypes) != schema for c in ctxs[1:]):
            raise InvalidRequestError("the files of one step must share their attributes")
        self.filters = first.filters
        self.with_positions = first.with_positions
        self.names = [
            n for n in first.bat.attr_names if first.attributes is None or n in first.attributes
        ]
        # each file's query bitmap per filter (its own binning), per part
        self.bitmap_tests = [
            (a, np.array([c.bitmap_tests[i][1] for c in ctxs], dtype=np.uint32))
            for i, (a, _) in enumerate(first.bitmap_tests)
        ]
        # each file's plan box, per part: ``qlo`` / ``qhi`` (None when no
        # file has one; a file without one borrows another's corners) and
        # ``free``, the parts without one (None when every part has one)
        boxes = [c.qbounds for c in ctxs if c.qbounds is not None]
        self.qlo = self.qhi = self.free = None
        if boxes:
            corners = [c.qbounds or boxes[0] for c in ctxs]
            self.qlo = np.array([lo for lo, _ in corners])
            self.qhi = np.array([hi for _, hi in corners])
            if len(boxes) < len(ctxs):
                self.free = np.array([c.qbounds is None for c in ctxs])
        #: every file with a box has the same one
        self.one_box = all(
            (lo == boxes[0][0]).all() and (hi == boxes[0][1]).all() for lo, hi in boxes[1:]
        )

        tally = self._tally()
        tables, owners = [], []
        for p, c in enumerate(ctxs):
            try:
                tables.append(c.bat.shallow_table())
            except LEAF_ERRORS as exc:
                c.error = exc
                continue
            owners.append(p)
        if tables:
            s = _Forest(tables, owners, bool(self.bitmap_tests), fields=("leaf",))
            inside, keep = self._node_tests(s.tid, s.lo, s.hi, s.bitmaps)
            alive, visited = s.survivors(keep)
            self._count_visits(tally, s.tid, visited, inside, alive)
            rows = np.flatnonzero(alive & (s.leaf >= 0))
            tpart, leaves = s.tid[rows], s.leaf[rows]
        else:
            tpart = leaves = rows = np.zeros(0, dtype=np.int64)
        self.tpart = tpart
        #: per part, the rank of its first treelet
        self.first = np.searchsorted(tpart, np.arange(len(ctxs)))
        tally[_TREELETS] += self._count(tpart)
        self._flush(tally)
        self.leaves = leaves.tolist()
        # materialize (and verify) each surviving treelet, file by file
        n_points, max_depth = [], []
        for p, leaf in zip(tpart.tolist(), self.leaves):
            c, n, d = ctxs[p], 0, 0
            if c.error is None:
                try:
                    tv = c.bat.treelet(leaf)
                    n, d = tv.n_points, tv.max_depth
                except LEAF_ERRORS as exc:
                    c.error = exc
            n_points.append(n)
            max_depth.append(d)
        self.n_points = np.array(n_points, dtype=np.int64)
        self.max_depth = np.array(max_depth, dtype=np.int64)
        # the quality-independent half of the whole-treelet rule: no
        # filters, and the box (if its file has one) contains the leaf box
        if self.filters or not tables:
            self.containable = np.zeros(len(tpart), dtype=bool)
        elif self.qlo is None:
            self.containable = np.ones(len(tpart), dtype=bool)
        else:
            qlo, qhi, free = self._box(tpart)
            lo, hi = s.lo[rows], s.hi[rows]
            self.containable = boxes_within(lo, hi, qlo, qhi)  # alive: met its box, not empty
            if free is not None:
                self.containable |= free
        #: treelets emitted whole, or of a dropped file: no later window adds anything
        self.spent = np.zeros(len(tpart), dtype=bool)
        for p, c in enumerate(ctxs):
            if c.error is not None:
                self.spent[tpart == p] = True
        #: the walked treelets' tables and masks (first walking window)
        self.forest = self.fpart = self.inside = self.alive = self.visited = None
        #: per part, the deepest depth whose visited nodes are counted already
        self.reached = np.array([-1] * len(ctxs))
        #: whether the last window's chunks include views of columns (the
        #: whole treelets') rather than only rows the walk gathered
        self.views = False

    # -- per-part bookkeeping ------------------------------------------------

    @staticmethod
    def _tally() -> list:
        """One count per :data:`_TALLY` counter: per part, an array — or a
        number, in a one-part step or where nothing was counted yet."""
        return [0] * len(_TALLY)

    def _flush(self, tally: list, parts=None) -> None:
        """Add the ``tally`` counts of ``parts`` (default all) to their stats."""
        for p in range(len(self.ctxs)) if parts is None else parts:
            stats = self.ctxs[p].stats
            for name, n in zip(_TALLY, tally):
                n = int(n[p] if isinstance(n, np.ndarray) else n)
                if n:
                    setattr(stats, name, getattr(stats, name) + n)

    def _count(self, rp, mask=None):
        """The rows of parts ``rp`` (those of ``mask``) counted per part."""
        if len(self.ctxs) == 1:
            return len(rp) if mask is None else np.count_nonzero(mask)
        return np.bincount(rp if mask is None else rp[mask], minlength=len(self.ctxs))

    def _per_part(self, ranks: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``sizes`` (one per treelet of ``ranks``) summed per part."""
        if len(self.ctxs) == 1:
            return sizes.sum()
        return np.bincount(
            self.tpart[ranks], weights=sizes, minlength=len(self.ctxs)
        ).astype(np.int64)

    def _count_visits(self, tally, rp, seen, inside, kept) -> None:
        """Count the ``seen`` rows (of parts ``rp``) as visited nodes and the
        pruned among them, in the recursive walk's order of checks:
        spatially first (``inside``, ``None`` without a box), by bitmap only
        if the box passed; ``kept`` are the seen rows that survived."""
        n = self._count(rp, seen)
        n_inside = n if inside is None else self._count(rp, seen & inside)
        tally[_NODES] += n
        tally[_SPATIAL] += n - n_inside
        tally[_BITMAP] += n_inside - self._count(rp, kept)

    # -- the query, per row ------------------------------------------------------

    @staticmethod
    def _rows(values: np.ndarray, rp):
        """``values`` (one per part) for rows of parts ``rp`` — just one
        value where every part has the same."""
        return values[0] if len(values) == 1 or (values == values[0]).all() else values[rp]

    def _box(self, rp):
        """``(qlo, qhi, free)`` for rows of parts ``rp``: the box corners
        and the rows with no box test (``None`` when every row has one)."""
        if self.one_box:
            qlo, qhi = self.qlo[0], self.qhi[0]
        else:
            qlo, qhi = self.qlo[rp], self.qhi[rp]
        return qlo, qhi, None if self.free is None else self.free[rp]

    def _node_tests(self, rp, lo, hi, bitmaps):
        """Test nodes of parts ``rp`` against their files' queries: ``(inside, keep)``.

        ``lo``/``hi`` are the nodes' ``(n, 3)`` box corners, ``bitmaps``
        their ``(n, n_attrs)`` resolved bitmaps (unused without filters).
        ``inside`` marks the boxes that meet their query box, axis by
        axis (:func:`~repro.types.boxes_meet`; ``None`` when no file has
        a box), ``keep`` those that also pass every filter's bitmap.
        """
        if self.qlo is not None:
            qlo, qhi, free = self._box(rp)
            inside = boxes_meet(lo, hi, qlo, qhi)
            if free is not None:
                inside |= free
            keep = inside
        else:
            inside, keep = None, np.ones(len(lo), dtype=bool)
        for a, qbitmaps in self.bitmap_tests:
            keep = keep & ((bitmaps[:, a] & self._rows(qbitmaps, rp)) != 0)
        return inside, keep

    def _inbox(self, ranks, sizes):
        """The exact box test, axis by axis, over the rows of treelets ``ranks``
        (``sizes`` each; box-free parts' rows, zeros, pass); ``None`` without a box."""
        if self.qlo is None:
            return None
        per_row = self.free is not None or not self.one_box
        qlo, qhi, free = self._box(np.repeat(self.tpart[ranks], sizes) if per_row else None)

        def inbox(pos):
            if pos is None:  # no row has a box test
                return free
            mask = points_in_box(pos, qlo, qhi)
            return mask if free is None else mask | free

        return inbox

    def _fetcher(self, ranks: np.ndarray, method: str = "columns"):
        """:func:`_fetcher` of segments over treelets ``ranks``."""
        return _fetcher(
            [c.bat for c in self.ctxs], self.tpart[ranks].tolist(),
            [self.leaves[r] for r in ranks.tolist()], method,
        )

    # -- windows -----------------------------------------------------------------

    def window(self, q_lo: float, q_hi: float, keyed: bool = False):
        """``(chunks, keys, rows)``: the row chunks ``(positions, attrs,
        count)`` the step adds between qualities ``q_lo → q_hi``, in
        emission order; the rows' order keys ``(part, treelet rank within
        the part, slot)`` as one ``(n, 3)`` int64 array, built only when
        ``keyed`` (else ``None``); and the rows each part added, an int64
        array with one count per part.

        Each treelet emitted whole is one chunk of views; the walked rows
        between two such are one chunk, sliced from the window's gathered
        arrays.
        """
        while True:
            spent, reached, tally = self.spent.copy(), self.reached.copy(), self._tally()
            try:
                chunks, keys = self._window(q_lo, q_hi, keyed, tally)
            except _PartFailed as fail:
                # drop the part and redo the window without it
                self.spent, self.reached = spent, reached
                self._flush(tally, [fail.part])
                self.ctxs[fail.part].error = fail.error
                self.spent[self.tpart == fail.part] = True
                continue
            self._flush(tally)
            rows = tally[_RETURNED]
            if not isinstance(rows, np.ndarray):  # one part, or no row counted
                rows = np.full(len(self.ctxs), rows, dtype=np.int64)
            return chunks, keys, rows

    def _window(self, q_lo, q_hi, keyed, tally):
        # each file's effective depths, from its own tree depth
        e_lo = np.array([quality_to_depth(q_lo, c.bat.max_treelet_depth) for c in self.ctxs])
        e_hi = np.array([quality_to_depth(q_hi, c.bat.max_treelet_depth) for c in self.ctxs])
        tp = self.tpart
        live = ~self.spent
        whole = live & self.containable & (self._rows(e_lo, tp) == 0.0)
        whole &= self._rows(e_hi, tp) >= self.max_depth + 1
        self.spent |= whole
        tally[_NODES] += self._count(tp, whole)
        walked = live & ~whole
        rows = self._walk(walked, e_lo, e_hi, tally) if walked.any() else None
        whole_ranks = np.flatnonzero(whole)
        wholes = self._wholes(whole_ranks, tally)
        self.views = bool(whole_ranks.size)
        pos, attrs, count, ranks, bounds, slots = rows or _NO_ROWS
        # the row offset each whole treelet sits at among the walked rows
        cuts = bounds[np.searchsorted(ranks, whole_ranks)].tolist()
        chunks = []
        done = 0
        for whole_chunk, cut in zip([*wholes, None], [*cuts, count]):
            if cut > done:
                chunks.append((
                    None if pos is None else pos[done:cut],
                    {name: col[done:cut] for name, col in attrs.items()},
                    cut - done,
                ))
                done = cut
            if whole_chunk is not None:
                chunks.append(whole_chunk)
        if not keyed:
            return chunks, None
        return chunks, self._keys(ranks, bounds, slots, whole_ranks, cuts)

    def _keys(self, ranks, bounds, slots, whole_ranks, cuts) -> np.ndarray:
        """The order keys of a window's rows: walked treelets ``ranks``
        (rows at ``bounds``, node-order ``slots``) with the whole treelets
        ``whole_ranks`` emitted at walked-row offsets ``cuts``."""
        sizes = self.n_points[whole_ranks]
        # the rows' slots in emission order: each whole treelet's 0..n-1
        # at its cut among the walked rows' slots
        from0 = np.arange(sizes.max(initial=0))
        slot_runs, done = [], 0
        for n, cut in zip(sizes.tolist(), cuts):
            slot_runs += [slots[done:cut], from0[:n]]
            done = cut
        slot_runs.append(slots[done:])
        # the rows' treelets, in emission (= rank) order
        ranks = np.concatenate([ranks, whole_ranks])
        at = np.argsort(ranks)
        ranks, sizes = ranks[at], np.concatenate([np.diff(bounds), sizes])[at]
        part = self.tpart[ranks]
        keys = np.empty((3, int(sizes.sum())), dtype=np.int64)  # column-major: key by key
        keys[0] = np.repeat(part, sizes)
        keys[1] = np.repeat(ranks - self.first[part], sizes)
        np.concatenate(slot_runs, out=keys[2])
        return keys.T

    def _wholes(self, ranks: np.ndarray, tally) -> list[tuple]:
        """Treelets emitted whole: views of their columns, no table, no check.

        Each column is fetched for all of a file's in one call. No box
        test runs here, so under column projection the node records and
        the position block are never touched — a one-column read decodes
        just that column.
        """
        if not ranks.size:
            return []
        fetch = self._fetcher(ranks)
        segs = range(len(ranks))
        pos = fetch(segs, None) if self.with_positions else None
        cols = {name: fetch(segs, name) for name in self.names}
        sizes = self.n_points[ranks]
        tally[_RETURNED] += self._per_part(ranks, sizes)
        return [
            (None if pos is None else pos[i], {name: col[i] for name, col in cols.items()}, n)
            for i, n in enumerate(sizes.tolist())
        ]

    def _walk(self, walked: np.ndarray, e_lo: np.ndarray, e_hi: np.ndarray, tally):
        """The ``walked`` treelets' rows between ``e_lo → e_hi`` (per part),
        gathered once.

        Returns ``(positions, attrs, count, ranks, bounds, slots)`` — the
        rows of treelet ``ranks[i]`` at ``bounds[i]:bounds[i + 1]``, and
        ``slots`` their node-order slots — or ``None`` when no row passes.
        """
        if self.forest is None:
            ranks = np.flatnonzero(walked)
            tables = self._fetcher(ranks, "walk_tables")(range(len(ranks)))
            f = self.forest = _Forest(tables, ranks, bool(self.bitmap_tests))
            self.fpart = self.tpart[f.tid]
            self.inside, keep = self._node_tests(self.fpart, f.lo, f.hi, f.bitmaps)
            self.alive, self.visited = f.survivors(keep)
        f, rp = self.forest, self.fpart
        # depths are non-negative: truncation is floor
        fl_lo, fl_hi = e_lo.astype(np.int64), e_hi.astype(np.int64)
        upto = walked[f.tid] & (f.depth <= self._rows(fl_hi, rp))
        new = upto & (f.depth > self._rows(self.reached, rp))
        self._count_visits(tally, rp, self.visited & new, self.inside, self.alive & new)
        self.reached = np.maximum(self.reached, fl_hi)
        sel = np.flatnonzero(self.alive & upto & (f.depth >= self._rows(fl_lo, rp)))
        if not sel.size:
            return None
        d = f.depth[sel]
        beg = f.begin[sel]
        cnt = f.count[sel]
        ps = rp[sel]
        # Same rounding as the recursive walk: truncation of f*count + 0.5
        # (values are non-negative), f = clip(e - depth, 0, 1).
        lo_slot = beg + (np.clip(self._rows(e_lo, ps) - d, 0.0, 1.0) * cnt + 0.5).astype(np.int64)
        hi_slot = beg + (np.clip(self._rows(e_hi, ps) - d, 0.0, 1.0) * cnt + 0.5).astype(np.int64)
        # Rows are node ids, assigned in pre-order: exactly the recursive
        # walk's emission order (and ascending slot order, by construction
        # of the node-order particle layout).
        tid = f.tid[sel]
        try:
            seg = _segments(lo_slot, hi_slot, tid, self.n_points)
        except IntegrityError as exc:
            bad = (hi_slot > lo_slot) & (hi_slot > self.n_points[tid])
            raise _PartFailed(int(self.tpart[tid[np.argmax(bad)]]), exc) from None
        if seg is None:
            return None
        index, ranks, bounds, runs = seg
        sizes = bounds[1:] - bounds[:-1]
        tally[_TESTED] += self._per_part(ranks, sizes)
        fetch = self._fetcher(ranks)
        pos = want = None
        if self.qlo is not None:  # the box test reads the boxed parts' positions
            if self.free is not None:
                want = ~self.free[self.tpart[ranks]]
            pos = _gather(fetch, None, index, bounds, runs, want)
        cols, kept = _check(
            lambda name: _gather(fetch, name, index, bounds, runs),
            pos, self._inbox(ranks, sizes), self.filters,
        )
        count = len(index)
        if kept is not None:
            count = len(kept)
            if count == 0:
                return None
            index, bounds, runs = index[kept], np.searchsorted(kept, bounds), None
            cols = {name: vals[kept] for name, vals in cols.items() if name in self.names}
            if pos is not None and self.with_positions:
                pos = pos.take(kept, axis=0)
        if not self.with_positions:
            pos = None
        elif pos is None:  # no box test read them: gathered once, at the kept rows
            pos = _gather(fetch, None, index, bounds, runs)
        elif want is not None:  # and so are the box-free parts'
            _gather(fetch, None, index, bounds, runs, ~want, out=pos)
        # selection is by key so lazily decoded (v4) columns outside the
        # requested set are never materialized
        attrs = {
            name: cols[name] if name in cols else _gather(fetch, name, index, bounds, runs)
            for name in self.names
        }
        tally[_RETURNED] += self._per_part(ranks, bounds[1:] - bounds[:-1])
        return pos, attrs, count, ranks, bounds, index


#: :meth:`_Step._walk`'s result when no walked row passes
_NO_ROWS = (None, {}, 0, np.zeros(0, np.int64), np.zeros(1, np.int64), np.zeros(0, np.int64))


# -- streamed reads -------------------------------------------------------------


@dataclass
class FileIncrement:
    """Rows one quality rung of a streamed step read adds.

    ``rows`` counts them per part of the step (int64, part order: a part
    that was not read adds 0). ``keys``, asked for only by a caller that
    merges rungs (else ``None``), are per-row order keys ``(part,
    treelet_rank, slot)``, ``(count, 3)`` int64: stably sorting the
    concatenation of a stream's increments by them reproduces the direct
    synchronous emission order byte for byte — parts emit in step order,
    a part's treelets in its own visit-rank order, and within a treelet
    node ids are assigned pre-order, which is ascending slot order by
    construction of the node-order particle layout.
    """

    quality: float
    prev_quality: float
    positions: np.ndarray | None
    attributes: dict[str, np.ndarray]
    count: int
    rows: np.ndarray
    keys: np.ndarray | None = None


def stream_query_file(
    bat,
    ladder,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    attributes: list[str] | None = None,
    with_positions: bool = True,
    stats: QueryStats | None = None,
    keyed: bool = True,
):
    """Stream one (progressive) read as per-rung increments: the one read.

    ``bat`` is one :class:`~repro.bat.file.BATFile` (read with ``box``;
    ``stats`` may pass a caller-owned :class:`QueryStats` to count into),
    or the files of one *step* as a sequence of :class:`StepPart`, each
    with its own plan box (``box`` must then be ``None``) and sharing one
    attribute schema. A step reads its files as one forest, in order; it
    returns the bytes the files' one-file reads return, concatenated, and
    sets each part's ``stats`` to that file's own counters.

    ``ladder`` is a non-descending sequence of qualities starting above
    ``prev_quality`` and ending at the target quality (see
    :func:`default_quality_ladder`). Exactly one :class:`FileIncrement`
    is yielded per rung — possibly empty. Each rung is one window of one
    step kept from rung to rung, so two invariants hold:

    - *Reassembly*: the concatenation of all increments, stably sorted by
      ``(part, treelet_rank, slot)``, is byte-identical to
      ``query_file(bat, ladder[-1], prev_quality, ...)``.
    - *Truncation*: stopping after rung *k* leaves exactly the rows of a
      direct query at quality ``ladder[k]`` — rung ranges chain with no
      overlap and no gap, so a shed or abandoned stream is a valid
      lower-quality result, refinable later from ``prev_quality =
      ladder[k]``.

    Order keys are built only when ``keyed``: a one-rung read whose
    caller merges nothing (:func:`query_file`) skips them.

    ``attributes`` restricts which attribute arrays are materialized —
    unrequested attributes are never touched (filter attributes are read
    for the false-positive check but only returned if requested).
    ``with_positions=False`` projects positions away too: increments
    carry ``positions=None``, and on column-encoded (v4) files the
    position block is only decoded where a box test still needs it.

    A part that turns out corrupt or missing is dropped from the rung it
    fails at on — its earlier rows stay delivered — and has its ``error``
    set before that rung's increment is yielded; a one-file stream raises
    it instead. Work counters advance as rungs are consumed. A one-rung
    ladder does exactly a direct query's work. After the final rung of a
    longer one, ``points_returned`` and the prune counters equal the
    direct query's; ``points_tested``/``nodes_visited`` (and the dataset's
    ``decoded_bytes``: node records decoded for walk tables) can be higher
    where the direct query takes the whole-treelet fast path a rung-split
    read cannot.
    """
    ladder = check_ladder(ladder, prev_quality)
    one = isinstance(bat, BATFile)
    if one:
        parts = [StepPart(bat, box, stats if stats is not None else QueryStats())]
    elif box is not None:
        raise InvalidRequestError("a step's boxes are per file: set StepPart.box")
    else:
        parts = list(bat)
    ctxs = [
        _prepare(p.bat, ladder[-1], prev_quality, p.box, filters, attributes, with_positions,
                 stats=p.stats)
        for p in parts
    ]
    # the step reads only the live parts: ``owner`` maps them back
    live = [i for i, c in enumerate(ctxs) if c.live]
    step = _Step([ctxs[i] for i in live]) if live else None
    owner = np.array(live, dtype=np.int64) if len(live) < len(parts) else None
    prev = prev_quality
    for q in ladder:
        if step is None:
            chunks, keys, rows = [], None, np.zeros(0, dtype=np.int64)
        else:
            chunks, keys, rows = step.window(prev, q, keyed)
        for p, c in zip(parts, ctxs):
            p.error = c.error
        if one and parts[0].error is not None:
            raise parts[0].error
        if owner is not None:
            rows, live_rows = np.zeros(len(parts), dtype=np.int64), rows
            rows[owner] = live_rows
            if keys is not None:
                keys[:, 0] = owner[keys[:, 0]]
        if keyed and keys is None:
            keys = np.empty((0, 3), dtype=np.int64)
        if not chunks:  # the schema-stable empty rung
            specs = parts[0].bat.attribute_specs() if parts else []
            empty = ParticleBatch.empty(
                [sp for sp in specs if attributes is None or sp.name in attributes],
                with_positions,
            )
            pos, attrs = empty.positions, empty.attributes
        elif len(chunks) == 1 and not step.views:
            # rows the walk gathered alone are a copy already
            pos, attrs = chunks[0][:2]
        else:
            attrs = {name: np.concatenate([c[1][name] for c in chunks]) for name in chunks[0][1]}
            pos = np.concatenate([c[0] for c in chunks]) if with_positions else None
        yield FileIncrement(
            quality=q, prev_quality=prev, positions=pos, attributes=attrs,
            count=int(rows.sum()), rows=rows, keys=keys,
        )
        prev = q
