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
query bitmaps, effective depths, whether it has the step's one query
box, and whether it is read at all (a root that already proves its read
empty is not); the step carries them per row:

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
  files, as one :class:`_Forest` (one byte join) and tested in one pass. A tree, shallow
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
  for all the step's treelets in one call (each file's
  :meth:`~repro.bat.file.BATFile.request`, answered together by
  :func:`~repro.bat.file.fetch_retained`: one cache round-trip) and
  gathered once into one array for the step (:func:`_gather`), and every
  row gets one exact box/filter check (positions are gathered for it only
  under a box; else once, at the kept rows). Every box test runs axis by
  axis (:func:`~repro.types.points_in_box`). A whole treelet asked for
  at full quality — no filters, a box that contains it, a window from 0
  past its deepest level — skips its table, node records and checks and
  is handed on as views of its columns, fetched the same way.

What has to stay per file does: treelet CRC verification on first touch
(:meth:`~repro.bat.file.BATFile.treelet`), walk-table builds, column
decodes, and the work counters — each file's
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
rungs asks for per-row order keys ``(leaf, treelet_rank, slot)`` — the
part's leaf index, the treelet's visit rank within its file
(:meth:`~repro.bat.file.BATFile.shallow_leaf_visit_rank`), the row's slot —
so the increments can be merged back into the one-shot order; every
increment carries each part's row count. :func:`query_file` is its
one-rung, unkeyed call.

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
from .file import WALK_TABLE_SLOT, BATFile, fetch_retained

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

#: the directory slot of a treelet's positions (attribute ``a`` is ``2 + a``)
POSITIONS = 1

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

    ``bat``, ``box`` and ``leaf`` go in: the file, its plan box (``None``
    = no box test; the parts of one step that have a box share it) and
    its leaf index, which column 0 of the rows' order keys carries
    (default: the part's position; ascending in part order). ``stats``
    come out as the file's own counters, exactly those of reading it
    alone (parts may share one object, to sum into); ``error`` is the
    ``IntegrityError`` or ``FileNotFoundError`` that dropped the file
    from the step — its rows are then in no later result and its
    counters are partial — else ``None``. A part that comes in with an
    ``error`` (a file that failed to open; ``bat`` may then be ``None``)
    is not read.
    """

    bat: BATFile | None
    box: Box | None = None
    leaf: int | None = None
    stats: QueryStats = field(default_factory=QueryStats)
    error: Exception | None = None


def _query_bitmap(bat: BATFile, f: AttributeFilter) -> int:
    """Filter ``f``'s query bitmap under ``bat``'s own binning of its attribute."""
    binning = bat.binnings.get(f.name)
    if binning is not None:
        return int(binning.query(f.lo, f.hi))
    lo, hi = bat.attr_ranges[f.name]
    return int(query_bitmap(f.lo, f.hi, lo, hi))


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


class _Forest:
    """Several tables of trees laid back to back as one table.

    The tables are walk tables (:meth:`~repro.bat.file.BATFile.walk_tables`)
    or shallow tables (:meth:`~repro.bat.file.BATFile.shallow_table`), of
    one file or of several, all of one dtype. One array per field, the
    tables' rows back to back: ``tid`` is each row's table (as ``ranks``
    numbers them), ``parent`` a row of this table, ``depth`` its depth,
    ``roots`` every table's first row, ``loose`` the rows of trees that do
    not nest (``None`` when all of them do). Of the other fields (``lo``,
    ``hi``, ``bitmaps``, ``begin``, ``count``, ``leaf``) only those named
    in ``fields`` are gathered; the rest are ``None``.

    Several tables are joined once, as bytes, and each field is one
    contiguous copy out of the join; one table is its own forest, read in
    place, and its ``tid`` a zero-stride view of its one rank.
    """

    __slots__ = (
        "lo", "hi", "bitmaps", "begin", "count", "leaf", "parent", "depth", "tid",
        "roots", "loose",
    )

    def __init__(self, tables, ranks, fields):
        if len(tables) == 1:
            table = tables[0]
            column = table.__getitem__
            self.roots = 0
            self.tid = np.ndarray(len(table), np.int64, np.array(ranks[0], np.int64), strides=(0,))
            self.parent = table["parent"]
            self.loose = None if table["nests"][0] else np.ones(len(table), dtype=bool)
        else:
            sizes = np.fromiter(map(len, tables), np.int64, len(tables))
            self.roots = sizes.cumsum() - sizes
            self.tid = np.repeat(ranks, sizes)
            table = np.frombuffer(b"".join(tables), tables[0].dtype)

            def column(name):
                return np.ascontiguousarray(table[name])

            self.parent = table["parent"] + np.repeat(self.roots, sizes)
            nests = table["nests"][self.roots]
            self.loose = None if nests.all() else np.repeat(~nests, sizes)
        self.depth = column("depth")
        for name in ("lo", "hi", "bitmaps", "begin", "count", "leaf"):
            setattr(self, name, column(name) if name in fields else None)

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


def _gather(fetch, slot: int, index: np.ndarray, bounds: np.ndarray, runs=None, want=None,
            out=None):
    """One column of several treelets gathered into one array.

    ``slot`` is the column's directory slot (:data:`POSITIONS`, or an
    attribute's). Segment ``i`` takes ``index[bounds[i]:bounds[i + 1]]``
    from that column of its treelet — a plain slice copy where ``runs[i]``
    names the first slot of one contiguous run. ``fetch(segs, slot)``
    returns the column of the treelets of segments ``segs`` (ascending),
    in order. Only non-empty
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
    cols = fetch(segs, slot)
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


def _fetcher(bats, parts: list, leaves: list):
    """The :func:`_gather` ``fetch`` of segments over the treelets
    ``leaves[i]`` of files ``bats[parts[i]]``, the segments grouped by
    part: ``fetch(segs, slot)`` makes each file's
    :meth:`~repro.bat.file.BATFile.request` for slot ``slot`` (a directory
    column, or :data:`~repro.bat.file.WALK_TABLE_SLOT`) and answers all of
    them with one :func:`~repro.bat.file.fetch_retained` call, one file or
    many. A file that fails is raised as :class:`_PartFailed`."""

    def fetch(segs, slot):
        requests = []
        for p, run in groupby(segs, key=parts.__getitem__):
            try:
                store, path, keys, load = bats[p].request([leaves[s] for s in run], slot)
            except LEAF_ERRORS as exc:
                raise _PartFailed(p, exc) from None
            requests.append((store, path, keys, _owned(p, load)))
        return [a for arrays in fetch_retained(requests) for a in arrays]

    return fetch


def _owned(part: int, load):
    """``load``, a failing file raised as :class:`_PartFailed` of ``part``."""

    def run(keys):
        try:
            return load(keys)
        except LEAF_ERRORS as exc:
            raise _PartFailed(part, exc) from None

    return run


#: the per-file counters a step counts per row (see :meth:`_Step._flush`)
_TALLY = (
    "treelets_visited", "nodes_visited", "pruned_spatial", "pruned_bitmap",
    "points_tested", "points_returned",
)
_TREELETS, _NODES, _SPATIAL, _BITMAP, _TESTED, _RETURNED = range(len(_TALLY))


class _Step:
    """A step's pruned read, advanced one quality window at a time.

    ``parts`` are the step's :class:`StepPart` files, in order (*parts*
    below number them), read for one request: the ladder's target
    ``quality``, ``filters``, ``attributes`` and ``with_positions``. Only
    what differs by file is kept per part: its query bitmaps under its
    own binnings, its tree depth, whether it has the step's one box, and
    whether it is read at all. A part that came in with an ``error``, or
    whose root already proves its read empty (a filter no stored value
    can match, a box off the file's bounds, quality 0), is not: it stays
    in the step, adds no row, and its shallow table is never fetched.

    The shallow pass runs on construction and picks the treelets to
    read, in emission order: grouped by part, each part's in its own
    visit order (*ranks* below index them). Pruning does not depend on
    quality, so the first window that walks any treelet tests the walk
    tables of all it walks as one :class:`_Forest` and later windows
    reuse the masks. What a window still decides is depth: it counts the
    visited nodes of the depths no earlier window reached for that part
    (the recursive walk's counters under the depth cutoff — no node below
    ``floor(e_hi)`` is ever counted) and selects the kept nodes of the
    depths it covers, with the same monotone slot-range rounding as the
    recursive walk, so consecutive windows chain with no gap and no
    overlap.

    Every counter is counted per part (one ``bincount`` per counter) into
    a window-local tally that reaches the parts' stats when the window
    ends. A part that raises one of :data:`LEAF_ERRORS` takes its partial
    tally and the error and is dropped; the window is then redone without
    it, so no row of it reaches a result and the other parts count
    exactly as if it had never been in the step.
    """

    __slots__ = (
        "parts", "filters", "with_positions", "names", "slots", "bitmap_tests", "leaf",
        "depth_levels", "depth_at", "qlo", "qhi", "free",
        "tpart", "leaves", "n_points", "max_depth", "containable", "spent",
        "forest", "fpart", "inside", "alive", "visited", "reached", "views",
    )

    def __init__(self, parts: list[StepPart], quality: float, filters, attributes,
                 with_positions: bool) -> None:
        self.parts = parts
        self.filters = filters = tuple(filters)
        self.with_positions = bool(with_positions)
        opened = [i for i, p in enumerate(parts) if p.error is None]
        bats = [parts[i].bat for i in opened]
        schema = bats[0] if bats else None
        if schema is not None:
            key = (schema.attr_names, schema.attr_dtypes)
            if any((bat.attr_names, bat.attr_dtypes) != key for bat in bats):
                raise InvalidRequestError("the files of one step must share their attributes")
            for name in [*(attributes or ()), *(f.name for f in filters)]:
                schema.attr_index(name)  # raises KeyError for unknown names
        self.names = [
            n for n in (schema.attr_names if schema is not None else ())
            if attributes is None or n in attributes
        ]
        #: each attribute's directory slot, the same in every file
        self.slots = schema.attr_slots if schema is not None else {}
        boxes = {p.box for p in parts if p.box is not None}
        if len(boxes) > 1:
            raise InvalidRequestError("the parts of one step share one box")
        self.leaf = np.array(
            [i if p.leaf is None else p.leaf for i, p in enumerate(parts)], dtype=np.int64
        )
        if (self.leaf[1:] <= self.leaf[:-1]).any():
            raise InvalidRequestError("the parts' leaf indices must ascend")
        # per opened part: each filter's query bitmap under the part's own
        # binnings, tree depth, and whether its root proves its read empty
        # (quality 0 at its depth, a filter no stored value can match, or
        # bounds off the box: one array test over the files' headers)
        qbits = [[_query_bitmap(bat, f) for f in filters] for bat in bats]
        depth = [bat.max_treelet_depth for bat in bats]
        deep = {d: quality_to_depth(quality, d) > 0.0 for d in set(depth)}
        ok = [deep[d] and all(qb) for d, qb in zip(depth, qbits)]
        if boxes:
            (box,) = boxes
            qlo, qhi = np.asarray(box.lower), np.asarray(box.upper)
            bounds = np.array([bat.header.bounds for bat in bats]).reshape(-1, 2, 3)
            meets = boxes_meet(bounds[:, 0], bounds[:, 1], qlo, qhi) & (not box.is_empty)
            ok = [
                o and (parts[i].box is None or m) for i, o, m in zip(opened, ok, meets.tolist())
            ]
        read = [i for i, o in zip(opened, ok) if o]
        # a part that is not read takes the first read part's values: it
        # has no rows, and equal values keep the one-value fast paths
        own = [(qb, d) for qb, d, o in zip(qbits, depth, ok) if o]
        values = [own[0] if own else ([0] * len(filters), 0)] * len(parts)
        for i, v in zip(read, own):
            values[i] = v
        tree_depth = [d for _, d in values]
        #: the parts' distinct tree depths, and each part's among them
        #: (``None`` when they share one)
        self.depth_levels = sorted(set(tree_depth))
        self.depth_at = (
            None if len(self.depth_levels) == 1
            else np.searchsorted(self.depth_levels, tree_depth)
        )
        self.bitmap_tests = [
            (schema.attr_index(f.name), np.array([qb[k] for qb, _ in values], dtype=np.uint32))
            for k, f in enumerate(filters) if schema is not None
        ]
        # the one box: ``qlo`` / ``qhi`` (None when no read part has it)
        # and ``free``, the parts without it (None when every read part has it)
        boxed = [i for i in read if parts[i].box is not None]
        self.qlo = self.qhi = self.free = None
        if boxed:
            self.qlo, self.qhi = qlo, qhi
            if len(boxed) < len(read):
                self.free = np.array([p.box is None for p in parts])

        for i in opened:
            parts[i].stats.files_opened += 1
        tally = self._tally()
        tables, owners = [], []
        for p in read:
            try:
                tables.append(parts[p].bat.shallow_table())
            except LEAF_ERRORS as exc:
                parts[p].error = exc
                continue
            owners.append(p)
        if tables:
            s = _Forest(tables, owners, ("leaf", *self._tested))
            inside, keep = self._node_tests(s.tid, s)
            alive, visited = s.survivors(keep)
            self._count_visits(tally, s.tid, visited, inside, alive)
            rows = np.flatnonzero(alive & (s.leaf >= 0))
            tpart, leaves = s.tid[rows], s.leaf[rows]
        else:
            tpart = leaves = rows = np.zeros(0, dtype=np.int64)
        self.tpart = tpart
        ends = np.searchsorted(tpart, np.arange(len(parts) + 1)).tolist()
        tally[_TREELETS] += self._count(tpart)
        self._flush(tally)
        self.leaves = leaves.tolist()
        # materialize (and verify) each surviving treelet, file by file; a
        # dropped file's treelets are spent, so their sizes stay 0
        self.n_points = np.zeros(len(tpart), dtype=np.int64)
        self.max_depth = np.zeros(len(tpart), dtype=np.int64)
        for p in owners:
            a, z = ends[p], ends[p + 1]
            if a == z or parts[p].error is not None:
                continue
            treelet = parts[p].bat.treelet
            try:
                views = [treelet(leaf) for leaf in self.leaves[a:z]]
            except LEAF_ERRORS as exc:
                parts[p].error = exc
                continue
            self.n_points[a:z] = [tv.n_points for tv in views]
            self.max_depth[a:z] = [tv.max_depth for tv in views]
        # the quality-independent half of the whole-treelet rule: no
        # filters, and the box (if its file has one) contains the leaf box
        if self.filters or not tables:
            self.containable = np.zeros(len(tpart), dtype=bool)
        elif self.qlo is None:
            self.containable = np.ones(len(tpart), dtype=bool)
        else:
            lo, hi = s.lo[rows], s.hi[rows]
            self.containable = boxes_within(lo, hi, self.qlo, self.qhi)  # alive: met its box
            if self.free is not None:
                self.containable |= self.free[tpart]
        #: treelets emitted whole, or of a dropped file: no later window adds anything
        self.spent = np.array([p.error is not None for p in parts], dtype=bool)[tpart]
        #: the walked treelets' tables and masks (first walking window)
        self.forest = self.fpart = self.inside = self.alive = self.visited = None
        #: per part, the deepest depth whose visited nodes are counted already
        self.reached = np.full(len(parts), -1, dtype=np.int64)
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
        """Add the ``tally`` counts of ``parts`` (default all) to their
        stats: one ``tolist()`` per counter."""
        n = len(self.parts)
        counts = [c.tolist() if isinstance(c, np.ndarray) else [int(c)] * n for c in tally]
        for p in range(n) if parts is None else parts:
            stats = self.parts[p].stats
            for name, c in zip(_TALLY, counts):
                if c[p]:
                    setattr(stats, name, getattr(stats, name) + c[p])

    def _count(self, rp, mask=None):
        """The rows of parts ``rp`` (those of ``mask``) counted per part."""
        if len(self.parts) == 1:
            return len(rp) if mask is None else np.count_nonzero(mask)
        return np.bincount(rp if mask is None else rp[mask], minlength=len(self.parts))

    def _per_part(self, ranks: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``sizes`` (one per treelet of ``ranks``) summed per part."""
        if len(self.parts) == 1:
            return sizes.sum()
        return np.bincount(
            self.tpart[ranks], weights=sizes, minlength=len(self.parts)
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

    def _depths(self, quality: float) -> np.ndarray:
        """Each part's effective depth at ``quality``, from its own tree
        depth — one value for all where the parts share their depth."""
        e = np.array([quality_to_depth(quality, d) for d in self.depth_levels])
        return e if self.depth_at is None else e[self.depth_at]

    # -- the query, per row ------------------------------------------------------

    @staticmethod
    def _rows(values: np.ndarray, rp):
        """``values`` (one per part) for rows of parts ``rp`` — just one
        value where every part has the same."""
        if len(values) == 1 or (len(values) > 1 and (values == values[0]).all()):
            return values[0]
        return values[rp]

    @property
    def _tested(self) -> tuple:
        """The :class:`_Forest` fields :meth:`_node_tests` reads: the box
        corners under a box, the bitmaps under filters."""
        fields = ("lo", "hi") if self.qlo is not None else ()
        return fields + ("bitmaps",) if self.bitmap_tests else fields

    def _node_tests(self, rp, forest: _Forest):
        """Test the nodes of ``forest`` (rows of parts ``rp``) against their
        files' queries: ``(inside, keep)``.

        ``inside`` marks the boxes that meet the step's box, axis by axis
        (:func:`~repro.types.boxes_meet`; rows of parts without it pass;
        ``None`` when no read part has it), ``keep`` those that also pass
        every filter's bitmap.
        """
        if self.qlo is not None:
            inside = boxes_meet(forest.lo, forest.hi, self.qlo, self.qhi)
            if self.free is not None:
                inside |= self.free[rp]
            keep = inside
        else:
            inside, keep = None, np.ones(len(forest.depth), dtype=bool)
        for a, qbitmaps in self.bitmap_tests:
            keep = keep & ((forest.bitmaps[:, a] & self._rows(qbitmaps, rp)) != 0)
        return inside, keep

    def _inbox(self, ranks, sizes):
        """The exact box test, axis by axis, over the rows of treelets ``ranks``
        (``sizes`` each; box-free parts' rows, zeros, pass); ``None`` without a box."""
        if self.qlo is None:
            return None
        qlo, qhi, free = self.qlo, self.qhi, self.free
        if free is not None:
            free = np.repeat(free[self.tpart[ranks]], sizes)

        def inbox(pos):
            if pos is None:  # no row has a box test
                return free
            mask = points_in_box(pos, qlo, qhi)
            return mask if free is None else mask | free

        return inbox

    def _fetcher(self, ranks: np.ndarray):
        """:func:`_fetcher` of segments over treelets ``ranks``."""
        return _fetcher(
            [p.bat for p in self.parts], self.tpart[ranks].tolist(),
            [self.leaves[r] for r in ranks.tolist()],
        )

    # -- windows -----------------------------------------------------------------

    def window(self, q_lo: float, q_hi: float, keyed: bool = False):
        """``(chunks, keys, rows)``: the row chunks ``(positions, attrs,
        count)`` the step adds between qualities ``q_lo → q_hi``, in
        emission order; the rows' order keys ``(leaf, treelet visit rank
        in the file, slot)`` as one ``(n, 3)`` int64 array, built only when
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
                self.parts[fail.part].error = fail.error
                self.spent[self.tpart == fail.part] = True
                continue
            self._flush(tally)
            rows = tally[_RETURNED]
            if not isinstance(rows, np.ndarray):  # one part, or no row counted
                rows = np.full(len(self.parts), rows, dtype=np.int64)
            return chunks, keys, rows

    def _window(self, q_lo, q_hi, keyed, tally):
        e_lo, e_hi = self._depths(q_lo), self._depths(q_hi)
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
        # each treelet's visit rank in its file
        visit = np.array([self.leaves[r] for r in ranks.tolist()], dtype=np.int64)
        for p in np.unique(part).tolist():
            own = part == p
            visit[own] = self.parts[p].bat.shallow_leaf_visit_rank()[visit[own]]
        keys = np.empty((3, int(sizes.sum())), dtype=np.int64)  # column-major: key by key
        keys[0] = np.repeat(self.leaf[part], sizes)
        keys[1] = np.repeat(visit, sizes)
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
        pos = fetch(segs, POSITIONS) if self.with_positions else None
        cols = {name: fetch(segs, self.slots[name]) for name in self.names}
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
            tables = self._fetcher(ranks)(range(len(ranks)), WALK_TABLE_SLOT)
            f = self.forest = _Forest(tables, ranks, ("begin", "count", *self._tested))
            self.fpart = self.tpart[f.tid]
            self.inside, keep = self._node_tests(self.fpart, f)
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
            pos = _gather(fetch, POSITIONS, index, bounds, runs, want)

        def gather(name):  # one attribute, at the rows current when called
            return _gather(fetch, self.slots[name], index, bounds, runs)

        cols, kept = _check(gather, pos, self._inbox(ranks, sizes), self.filters)
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
            pos = _gather(fetch, POSITIONS, index, bounds, runs)
        elif want is not None:  # and so are the box-free parts'
            _gather(fetch, POSITIONS, index, bounds, runs, ~want, out=pos)
        # selection is by key so lazily decoded (v4) columns outside the
        # requested set are never materialized
        attrs = {name: cols[name] if name in cols else gather(name) for name in self.names}
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
    merges rungs (else ``None``), are per-row order keys ``(leaf,
    treelet_rank, slot)``, ``(count, 3)`` int64, ``leaf`` the part's
    :attr:`StepPart.leaf`: stably sorting the concatenation of a stream's
    increments by them reproduces the direct synchronous emission order
    byte for byte — parts emit in step (= ascending leaf) order, a part's
    treelets in its own visit-rank order, and within a treelet
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
    with its own plan box (``box`` must then be ``None``; the parts that
    have one share it) and sharing one attribute schema. A step reads its
    files as one forest, in order; it returns the bytes the files'
    one-file reads return, concatenated, and sets each part's ``stats`` to
    that file's own counters.

    ``ladder`` is a non-descending sequence of qualities starting above
    ``prev_quality`` and ending at the target quality (see
    :func:`default_quality_ladder`). Exactly one :class:`FileIncrement`
    is yielded per rung — possibly empty. Each rung is one window of one
    step kept from rung to rung, so two invariants hold:

    - *Reassembly*: the concatenation of all increments, stably sorted by
      ``(leaf, treelet_rank, slot)``, is byte-identical to
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
        parts = [StepPart(bat, box, stats=stats if stats is not None else QueryStats())]
    elif box is not None:
        raise InvalidRequestError("a step's boxes are per file: set StepPart.box")
    else:
        parts = list(bat)
    step = _Step(parts, ladder[-1], filters, attributes, with_positions)
    prev = prev_quality
    for q in ladder:
        chunks, keys, rows = step.window(prev, q, keyed)
        if one and parts[0].error is not None:
            raise parts[0].error
        if not chunks:  # the schema-stable empty rung
            schema = next((p.bat for p in parts if p.bat is not None), None)
            specs = schema.attribute_specs() if schema is not None else []
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
