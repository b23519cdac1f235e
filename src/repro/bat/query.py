"""Visualization reads on a BAT file (paper §V).

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
fractionally (a prefix of its particles) when ``d == floor(e)``.

**One core.** A read is pruned, windowed and gathered one *file* at a
time, with no Python loop over nodes or levels (:class:`_FileWalk`):

- *Shallow pass.* The file's shallow tree is one table
  (:meth:`~repro.bat.file.BATFile.shallow_table`: a row per node in the
  recursive walk's visit order, with box, resolved bitmaps, parent and
  depth), tested against the query in one numpy pass
  (:func:`_node_tests`). A node counts as visited when its parent passed
  (:func:`_survivors`), and the surviving leaf rows, in row order, are
  the treelets to read in emission order.
- *Treelet pass.* A treelet's nodes are not walked either. The
  survivors' *walk tables* (:meth:`~repro.bat.file.BATFile.walk_tables`:
  the same kind of table per treelet, in pre-order, with each node's
  slot range, held with the decoded columns; the missing ones built in
  one level-synchronous pass) are laid back to back as one
  :class:`_Forest` and tested in one pass. A tree, shallow or
  treelet, whose boxes or bitmaps do not nest has the result pushed down
  level by level instead, over its own rows only. Pruning does not depend
  on quality, so the masks are computed on the walk's first window and
  kept.
- *Window.* The depth cutoff lives in the window: it selects the kept
  rows with ``floor(e_lo) <= depth <= floor(e_hi)`` and counts visited
  nodes only down to ``floor(e_hi)``, below which no node can contribute
  — the counters are those of a top-down walk that stops there.
- *Gather.* The window's slot ranges, in pre-order, become one index for
  the file (:func:`_segments`), cut per treelet; each column is fetched
  for all those treelets in one call
  (:meth:`~repro.bat.file.BATFile.columns`: one cache round-trip) and
  gathered once into one array for the file (:func:`_gather`), and every
  row gets one exact box/filter check. A whole treelet asked for at full
  quality — no filters, a box that contains it, a window from 0 past its
  deepest level — skips its table, node records and checks and is handed
  on as views of its columns, fetched the same way.

The rows leave as *chunks* — the views of whole treelets and the
gathered rows of the walked ones between them — and are copied once,
where they are concatenated (:func:`concat_chunks`): in
:func:`query_file`, or in the dataset layer across all of a read's
files. The two entry points differ only in what they do with the
chunks:

- :func:`query_file` asks for one window and concatenates them (or hands
  each one to a callback).
- :func:`stream_query_file` keeps the walk across the rungs of a quality
  ladder and attaches per-row order keys ``(treelet_rank, slot)`` so the
  increments can be merged back into the one-shot order.

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

import numpy as np

from ..bitmaps import query_bitmap
from ..errors import IntegrityError, InvalidRequestError
from ..types import Box, ParticleBatch
from .file import BATFile

__all__ = [
    "AttributeFilter",
    "QueryStats",
    "quality_to_depth",
    "quality_for_depth",
    "default_quality_ladder",
    "query_file",
    "FileIncrement",
    "stream_query_file",
    "concat_chunks",
]

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


@dataclass
class _QueryContext:
    box: Box | None
    filters: tuple[AttributeFilter, ...]
    e_prev: float
    e_new: float
    stats: QueryStats = field(default_factory=QueryStats)
    #: ``(positions, attrs)`` row chunks, concatenated once by :func:`_result`
    chunks: list[tuple] = field(default_factory=list)
    callback: object = None
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

    def emit(
        self,
        positions: np.ndarray | None,
        attrs: dict[str, np.ndarray],
        count: int | None = None,
    ) -> None:
        n = int(count) if positions is None else len(positions)
        if n == 0:
            return
        self.stats.points_returned += n
        if self.callback is not None:
            self.callback(positions, attrs)
        else:
            self.chunks.append((positions, attrs))


def _prepare(
    bat: BATFile,
    quality: float,
    prev_quality: float,
    box: Box | None,
    filters,
    attributes,
    with_positions: bool,
    callback=None,
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
        box=box,
        filters=filters,
        e_prev=quality_to_depth(prev_quality, bat.max_treelet_depth),
        e_new=e_new,
        callback=callback,
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


def _result(bat: BATFile, ctx: _QueryContext) -> tuple[ParticleBatch | None, QueryStats]:
    """The ``(batch, stats)`` a one-shot read returns from what ``ctx`` collected."""
    if ctx.callback is not None:
        return None, ctx.stats
    if ctx.stats.points_returned == 0:
        specs = bat.attribute_specs()
        if ctx.attributes is not None:
            specs = [sp for sp in specs if sp.name in ctx.attributes]
        return ParticleBatch.empty(specs, with_positions=ctx.with_positions), ctx.stats
    batch = concat_chunks(ctx.chunks, ctx.with_positions, ctx.stats.points_returned)
    return batch, ctx.stats


def concat_chunks(chunks, with_positions: bool, count: int) -> ParticleBatch:
    """One batch from a read's non-empty list of ``(positions, attrs)`` chunks.

    The one copy every returned byte takes: a chunk may be a view of a
    mapped file or of a cached column, and the batch never is. ``count``
    is the total row count (what sizes a batch with neither positions nor
    attributes).
    """
    attrs = {name: np.concatenate([a[name] for _, a in chunks]) for name in chunks[0][1]}
    positions = np.concatenate([p for p, _ in chunks]) if with_positions else None
    return ParticleBatch(positions, attrs, count=count)


def query_file(
    bat: BATFile,
    quality: float = 1.0,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    callback=None,
    attributes: list[str] | None = None,
    with_positions: bool = True,
) -> tuple[ParticleBatch | None, QueryStats]:
    """Run one (progressive) visualization read against a BAT file.

    Returns ``(batch, stats)``; ``batch`` is ``None`` when a ``callback`` is
    given (the paper's API invokes a user callback for each point; here the
    callback receives chunks of arrays in emission order, for
    vectorization: a treelet emitted whole as views of its columns, or the
    rows of the walked treelets between two such, gathered once). The
    batch is the chunks concatenated — the one copy of the returned rows.

    ``attributes`` restricts which attribute arrays are materialized in the
    result — the array-per-attribute storage model means unrequested
    attributes are never touched (filter attributes are still read for the
    false-positive check but only returned if requested).

    ``with_positions=False`` projects positions away too: the result batch
    carries ``positions=None`` plus a row count, and on column-encoded
    (v4) files the position block is only decoded where a box test still
    needs it. Callbacks then receive ``None`` as their positions argument.
    """
    ctx = _prepare(
        bat, quality, prev_quality, box, filters, attributes, with_positions, callback
    )
    if ctx.live:
        for pos, attrs, count, _, _ in _FileWalk(bat, ctx).window(ctx.e_prev, ctx.e_new):
            ctx.emit(pos, attrs, count)
    return _result(bat, ctx)


# -- flat core (vectorized) ----------------------------------------------------


def _node_tests(ctx: _QueryContext, lo: np.ndarray, hi: np.ndarray, bitmaps):
    """Test a batch of nodes against the query: ``(inside, keep)``.

    ``lo``/``hi`` are the nodes' ``(n, 3)`` box corners, ``bitmaps`` their
    ``(n, n_attrs)`` resolved bitmaps (unused without filters). ``inside``
    marks the boxes that meet the query box (``None`` without one),
    ``keep`` those that also pass every filter's bitmap.
    """
    if ctx.qbounds is not None:
        qlo, qhi = ctx.qbounds
        inside = keep = np.all((lo <= qhi) & (hi >= qlo) & (lo <= hi), axis=1)
    else:
        inside, keep = None, np.ones(len(lo), dtype=bool)
    for a, qbitmap in ctx.bitmap_tests:
        keep = keep & ((bitmaps[:, a] & qbitmap) != 0)
    return inside, keep


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


def _count_visits(stats: QueryStats, seen, inside, kept) -> None:
    """Count the ``seen`` rows as visited nodes and the pruned among them,
    in the recursive walk's order of checks: spatially first (``inside``,
    ``None`` without a box), by bitmap only if the box passed; ``kept``
    are the seen rows that survived."""
    n = int(np.count_nonzero(seen))
    n_inside = n if inside is None else int(np.count_nonzero(seen & inside))
    stats.nodes_visited += n
    stats.pruned_spatial += n - n_inside
    stats.pruned_bitmap += n_inside - int(np.count_nonzero(kept))


class _Forest:
    """The walk tables of several treelets of one file as one table.

    One array per field, the treelets' rows back to back: ``tid`` is each
    row's treelet (as ``ranks`` numbers them), ``parent`` a row of this
    table, ``roots`` every treelet's first row, ``loose`` the rows of
    treelets that do not nest (``None`` when all of them do). ``bitmaps``
    is only gathered on request.
    """

    __slots__ = (
        "lo", "hi", "bitmaps", "begin", "count", "parent", "depth", "tid",
        "roots", "loose",
    )

    def __init__(self, tables, ranks, with_bitmaps: bool):
        sizes = [len(t) for t in tables]
        self.roots = np.cumsum([0, *sizes[:-1]])
        self.tid = np.repeat(ranks, sizes)
        self.lo = np.concatenate([t["lo"] for t in tables])
        self.hi = np.concatenate([t["hi"] for t in tables])
        self.begin = np.concatenate([t["begin"] for t in tables])
        self.count = np.concatenate([t["count"] for t in tables])
        self.depth = np.concatenate([t["depth"] for t in tables])
        self.parent = np.concatenate([t["parent"] for t in tables])
        self.parent += np.repeat(self.roots, sizes)
        self.bitmaps = (
            np.concatenate([t["bitmaps"] for t in tables]) if with_bitmaps else None
        )
        nests = np.array([t["nests"][0] for t in tables], dtype=bool)
        self.loose = None if nests.all() else np.repeat(~nests, sizes)

    def survivors(self, keep: np.ndarray):
        return _survivors(keep, self.parent, self.depth, self.roots, self.loose)


def _segments(lo: np.ndarray, hi: np.ndarray, tid: np.ndarray, n_points: np.ndarray):
    """One file's slot ranges ``[lo, hi)`` as one index, cut per treelet.

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


def _gather(bat: BATFile, leaves, name, index: np.ndarray, bounds: np.ndarray, runs=None):
    """One column of several treelets of ``bat`` gathered into one array.

    ``name`` is an attribute, or ``None`` for the positions. Segment ``i``
    takes ``index[bounds[i]:bounds[i + 1]]`` from that column of treelet
    ``leaves[i]`` — a plain slice copy where ``runs[i]`` names the first
    slot of one contiguous run. The columns of the non-empty segments are
    fetched in one call (:meth:`~repro.bat.file.BATFile.columns`); empty
    segments are skipped, so their column is never fetched (nor, on v4
    files, decoded).
    """
    b = bounds.tolist()
    segs = [i for i in range(len(leaves)) if b[i] < b[i + 1]]
    if not segs:
        return None
    cols = bat.columns([leaves[i] for i in segs], name)
    starts = runs.tolist() if runs is not None else None
    out = np.empty((b[-1], *cols[0].shape[1:]), dtype=cols[0].dtype)
    for i, col in zip(segs, cols):
        a, z = b[i], b[i + 1]
        s = -1 if starts is None else starts[i]
        if s >= 0:
            out[a:z] = col[s : s + z - a]
        else:
            # indices are in range (see _segments): no bounds-checked copy
            col.take(index[a:z], axis=0, out=out[a:z], mode="clip")
    return out


def _check(bat: BATFile, leaves, index, bounds, runs, box, filters, with_positions: bool):
    """The exact box/filter check over a file's gathered rows.

    Returns ``(positions, cols, kept)``: the positions when returned
    (``with_positions``) or needed for the box test, else ``None`` — they
    decode only then; the filter columns by name; and the indices of the
    rows that pass, ``None`` when nothing was checked. Each column is
    fetched and gathered once, so a filter column that is also returned
    reuses the values its filter tested.
    """
    pos = mask = None
    if with_positions or box is not None:
        pos = _gather(bat, leaves, None, index, bounds, runs)
        if box is not None:
            mask = box.contains_points(pos)
    cols: dict[str, np.ndarray] = {}
    for f in filters:
        vals = cols.get(f.name)
        if vals is None:
            vals = cols[f.name] = _gather(bat, leaves, f.name, index, bounds, runs)
        fmask = (vals >= f.lo) & (vals <= f.hi)
        mask = fmask if mask is None else (mask & fmask)
    return pos, cols, None if mask is None else np.flatnonzero(mask)


class _FileWalk:
    """One file's pruned read, advanced one quality window at a time.

    The shallow pass runs on construction and picks the treelets to read
    (in emission order; ``ranks`` below index them). Pruning does not
    depend on quality, so the first window that walks any treelet tests
    the walk tables of all it walks as one :class:`_Forest` and later
    windows reuse the masks. What a window still decides is depth: it
    counts the visited nodes of the depths no earlier window reached (the
    recursive walk's counters under the depth cutoff — no node below
    ``floor(e_hi)`` is ever counted) and selects the kept nodes of the
    depths it covers, with the same monotone slot-range rounding as the
    recursive walk, so consecutive windows chain with no gap and no
    overlap.
    """

    __slots__ = (
        "bat", "ctx", "leaves", "n_points", "max_depth", "containable", "names", "spent",
        "forest", "inside", "alive", "visited", "reached",
    )

    def __init__(self, bat: BATFile, ctx: _QueryContext) -> None:
        self.bat = bat
        self.ctx = ctx
        table = bat.shallow_table()
        inside, keep = _node_tests(ctx, table["lo"], table["hi"], table["bitmaps"])
        alive, visited = _shallow_survivors(table, keep)
        _count_visits(ctx.stats, visited, inside, alive)
        leaves = table[alive & (table["leaf"] >= 0)]
        ctx.stats.treelets_visited += len(leaves)
        self.leaves = leaves["leaf"].tolist()
        tvs = [bat.treelet(leaf) for leaf in self.leaves]
        self.n_points = np.array([tv.n_points for tv in tvs], dtype=np.int64)
        self.max_depth = np.array([tv.max_depth for tv in tvs], dtype=np.int64)
        # the quality-independent half of the whole-treelet rule: no
        # filters, and the box contains the leaf box
        if ctx.filters:
            self.containable = np.zeros(len(leaves), dtype=bool)
        elif ctx.qbounds is None:
            self.containable = np.ones(len(leaves), dtype=bool)
        else:
            qlo, qhi = ctx.qbounds
            lo, hi = leaves["lo"], leaves["hi"]
            self.containable = (lo > hi).any(axis=1) | ((qlo <= lo) & (hi <= qhi)).all(axis=1)
        self.names = [
            n for n in bat.attr_names if ctx.attributes is None or n in ctx.attributes
        ]
        #: treelets emitted whole: no later window adds anything
        self.spent = np.zeros(len(leaves), dtype=bool)
        #: the walked treelets' tables and masks (first walking window)
        self.forest = self.inside = self.alive = self.visited = None
        #: deepest depth whose visited nodes are counted already
        self.reached = -1

    def window(self, e_lo: float, e_hi: float, keyed: bool = False) -> list[tuple]:
        """Row chunks ``(positions, attrs, count, ranks, slots)`` this file
        adds between effective depths ``e_lo → e_hi``, in emission order.

        Each treelet emitted whole is one chunk of views; the walked rows
        between two such are one chunk, sliced from the window's gathered
        arrays. ``ranks`` / ``slots`` are per-row order keys, only built
        when ``keyed``.
        """
        ctx = self.ctx
        live = ~self.spent
        whole = live & self.containable & (e_lo == 0.0) & (e_hi >= self.max_depth + 1)
        self.spent |= whole
        ctx.stats.nodes_visited += int(np.count_nonzero(whole))
        walked = live & ~whole
        rows = self._walk(walked, e_lo, e_hi) if walked.any() else None
        whole_ranks = np.flatnonzero(whole).tolist()
        wholes = self._wholes(whole_ranks, keyed)
        if rows is None:
            return wholes
        pos, attrs, count, ranks, bounds, slots = rows
        row_ranks = np.repeat(ranks, np.diff(bounds)) if keyed else None
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
                    None if row_ranks is None else row_ranks[done:cut],
                    slots[done:cut] if keyed else None,
                ))
                done = cut
            if whole_chunk is not None:
                chunks.append(whole_chunk)
        return chunks

    def _wholes(self, ranks: list[int], keyed: bool) -> list[tuple]:
        """Treelets emitted whole: views of their columns, no table, no check.

        Each column is fetched for all of them in one call. No box test
        runs here, so under column projection the node records and the
        position block are never touched — a one-column read decodes just
        that column.
        """
        if not ranks:
            return []
        leaves = [self.leaves[r] for r in ranks]
        pos = self.bat.columns(leaves, None) if self.ctx.with_positions else None
        cols = {name: self.bat.columns(leaves, name) for name in self.names}
        chunks = []
        for i, rank in enumerate(ranks):
            n = int(self.n_points[rank])
            chunks.append((
                None if pos is None else pos[i],
                {name: col[i] for name, col in cols.items()},
                n,
                np.full(n, rank, dtype=np.int64) if keyed else None,
                np.arange(n, dtype=np.int64) if keyed else None,
            ))
        return chunks

    def _walk(self, walked: np.ndarray, e_lo: float, e_hi: float):
        """The ``walked`` treelets' rows between ``e_lo → e_hi``, gathered once.

        Returns ``(positions, attrs, count, ranks, bounds, slots)`` — the
        rows of treelet ``ranks[i]`` at ``bounds[i]:bounds[i + 1]``, and
        ``slots`` their node-order slots — or ``None`` when no row passes.
        """
        ctx = self.ctx
        if self.forest is None:
            ranks = np.flatnonzero(walked)
            f = self.forest = _Forest(
                self.bat.walk_tables([self.leaves[r] for r in ranks.tolist()]), ranks,
                bool(ctx.bitmap_tests),
            )
            self.inside, keep = _node_tests(ctx, f.lo, f.hi, f.bitmaps)
            self.alive, self.visited = f.survivors(keep)
        f = self.forest
        fl_lo, fl_hi = math.floor(e_lo), math.floor(e_hi)
        upto = walked[f.tid] & (f.depth <= fl_hi)
        if fl_hi > self.reached:
            new = upto & (f.depth > self.reached)
            _count_visits(ctx.stats, self.visited & new, self.inside, self.alive & new)
            self.reached = fl_hi
        sel = np.flatnonzero(self.alive & upto & (f.depth >= fl_lo))
        if not sel.size:
            return None
        d = f.depth[sel]
        beg = f.begin[sel]
        cnt = f.count[sel]
        # Same rounding as the recursive walk: truncation of f*count + 0.5
        # (values are non-negative), f = clip(e - depth, 0, 1).
        lo_slot = beg + (np.clip(e_lo - d, 0.0, 1.0) * cnt + 0.5).astype(np.int64)
        hi_slot = beg + (np.clip(e_hi - d, 0.0, 1.0) * cnt + 0.5).astype(np.int64)
        # Rows are node ids, assigned in pre-order: exactly the recursive
        # walk's emission order (and ascending slot order, by construction
        # of the node-order particle layout).
        seg = _segments(lo_slot, hi_slot, f.tid[sel], self.n_points)
        if seg is None:
            return None
        index, ranks, bounds, runs = seg
        ctx.stats.points_tested += len(index)
        leaves = [self.leaves[r] for r in ranks.tolist()]
        pos, cols, kept = _check(
            self.bat, leaves, index, bounds, runs, ctx.box, ctx.filters, ctx.with_positions
        )
        count = len(index)
        if kept is not None:
            count = len(kept)
            if count == 0:
                return None
            index, bounds, runs = index[kept], np.searchsorted(kept, bounds), None
            cols = {name: vals[kept] for name, vals in cols.items() if name in self.names}
            if ctx.with_positions:
                pos = pos.take(kept, axis=0)
        if not ctx.with_positions:
            pos = None
        # selection is by key so lazily decoded (v4) columns outside the
        # requested set are never materialized
        attrs = {
            name: cols[name] if name in cols
            else _gather(self.bat, leaves, name, index, bounds, runs)
            for name in self.names
        }
        return pos, attrs, count, ranks, bounds, index


def _concat(parts: list[np.ndarray], dtype, shape=(0,)) -> np.ndarray:
    """``np.concatenate`` that turns no parts into a typed empty array."""
    return np.concatenate(parts) if parts else np.empty(shape, dtype=dtype)


# -- streamed reads -------------------------------------------------------------


@dataclass
class FileIncrement:
    """Rows one quality rung of a streamed file read adds.

    ``treelet_rank`` and ``slots`` are per-row order keys: stably sorting
    the concatenation of a file's increments by ``(treelet_rank, slot)``
    reproduces the direct synchronous emission order byte for byte —
    treelets emit in visit-rank order, and within a treelet node ids are
    assigned pre-order, which is ascending slot order by construction of
    the node-order particle layout.
    """

    quality: float
    prev_quality: float
    positions: np.ndarray | None
    attributes: dict[str, np.ndarray]
    count: int
    treelet_rank: np.ndarray
    slots: np.ndarray


def stream_query_file(
    bat: BATFile,
    ladder,
    prev_quality: float = 0.0,
    box: Box | None = None,
    filters: tuple[AttributeFilter, ...] | list[AttributeFilter] = (),
    attributes: list[str] | None = None,
    with_positions: bool = True,
    stats: QueryStats | None = None,
):
    """Stream one file's (progressive) read as per-rung increments.

    ``ladder`` is a non-descending sequence of qualities starting above
    ``prev_quality`` and ending at the target quality (see
    :func:`default_quality_ladder`). Exactly one :class:`FileIncrement` is
    yielded per rung — possibly empty. Each rung is one window of the
    traversal :func:`query_file` runs once, over walks kept from rung to
    rung, so two invariants hold:

    - *Reassembly*: the concatenation of all increments, stably sorted by
      ``(treelet_rank, slot)``, is byte-identical to
      ``query_file(bat, ladder[-1], prev_quality, ...)``.
    - *Truncation*: stopping after rung *k* leaves exactly the rows of a
      direct query at quality ``ladder[k]`` — rung ranges chain with no
      overlap and no gap, so a shed or abandoned stream is a valid
      lower-quality result, refinable later from ``prev_quality =
      ladder[k]``.

    ``stats`` may pass a caller-owned :class:`QueryStats` to accumulate
    into (the dataset layer shares one across a stream's files); work
    counters advance as rungs are consumed. A one-rung ladder does exactly
    a direct query's work. After the final rung of a longer one,
    ``points_returned`` and the prune counters equal the direct query's;
    ``points_tested``/``nodes_visited`` can be higher where the direct
    query takes the whole-treelet fast path a rung-split read cannot.
    """
    ladder = tuple(float(q) for q in ladder)
    if not ladder:
        raise InvalidRequestError("ladder must have at least one rung")
    lo = prev_quality
    for q in ladder:
        if not lo <= q <= 1.0:
            raise InvalidRequestError(
                "ladder must be non-descending within [prev_quality, 1]"
            )
        lo = q
    ctx = _prepare(
        bat, ladder[-1], prev_quality, box, filters, attributes, with_positions,
        stats=stats,
    )
    walk = _FileWalk(bat, ctx) if ctx.live else None
    specs = bat.attribute_specs()
    if attributes is not None:
        specs = [sp for sp in specs if sp.name in attributes]
    prev = prev_quality
    for q in ladder:
        chunks = []
        if walk is not None:
            chunks = walk.window(
                quality_to_depth(prev, bat.max_treelet_depth),
                quality_to_depth(q, bat.max_treelet_depth),
                keyed=True,
            )
        total = sum(c[2] for c in chunks)
        ctx.stats.points_returned += total
        yield FileIncrement(
            quality=q,
            prev_quality=prev,
            positions=(
                _concat([c[0] for c in chunks], np.float32, (0, 3))
                if with_positions else None
            ),
            attributes={
                sp.name: _concat([c[1][sp.name] for c in chunks], sp.dtype)
                for sp in specs
            },
            count=total,
            treelet_rank=_concat([c[3] for c in chunks], np.int64),
            slots=_concat([c[4] for c in chunks], np.int64),
        )
        prev = q
