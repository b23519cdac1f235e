"""Memory-mapped BAT file reader (paper §V).

Reads go through ``mmap`` so the OS page cache serves repeated traversals
and the 4 KB-aligned treelets map cleanly onto pages. The shallow tree,
attribute table, and bitmap dictionary — touched by every query — live in
the first pages of the file.

Every treelet, whatever the file version, is read through a column
directory (:class:`_ColumnDir`), parsed into Python values once when
:meth:`BATFile.treelet` materializes it. A v4 treelet carries its own; a
v2/v3 treelet's is synthesized from its header counts, every slot codec
``raw`` (a zero-copy view), and a legacy compressed treelet is inflated
once into the buffer its directory indexes. Each column of a treelet is
one :meth:`BATFile._decode_slot` call.

A read asks for treelets in batches, one slot of all of them at once:
a directory column, or the walk tables (:data:`WALK_TABLE_SLOT`, each
file's missing ones built in one level-synchronous pass by
:func:`build_walk_tables`). Each file's batch is one
:meth:`BATFile.request`, and :func:`fetch_retained` answers the requests
of every file of a step together: one round trip to an attached
:class:`~repro.bat.colcache.DecodedColumnCache` per step and slot.
:meth:`BATFile.columns`, :meth:`BATFile.walk_tables` and the
:class:`TreeletView` accessors are that call for one file.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import os
import struct
import threading
import zlib
from collections.abc import Mapping

import numpy as np

from ..binning import make_binning
from .._inflate import inflate
from ..errors import CodecError, IntegrityError
from ..types import AttributeSpec, Box
from .codecs import decode_column, get_codec
from .format import (
    CHECKSUM_VERSION,
    CODEC_VERSION,
    FLAG_COMPRESSED_TREELETS,
    FLAG_QUANTIZED_POSITIONS,
    HEADER_SIZE,
    LEAF_FLAG,
    Header,
    attr_table_dtype,
    column_dir_dtype,
    child_links_ok,
    shallow_inner_dtype,
    shallow_leaf_dtype,
    treelet_node_dtype,
    unpack_binning_section,
    unpack_footer,
)

__all__ = ["BATFile", "TreeletView", "WALK_TABLE_SLOT", "build_walk_tables", "fetch_retained"]

#: :class:`~repro.bat.colcache.DecodedColumnCache` slot of a treelet's walk
#: table; directory columns occupy slots ``0 .. n_attrs + 1``
WALK_TABLE_SLOT = -1

#: a treelet's 16-byte preamble, the four little-endian u4 fields of
#: :func:`~repro.bat.format.treelet_header_dtype` in order
_TREELET_HEADER = struct.Struct("<4I")
_COLUMN_DIR = column_dir_dtype()


@functools.lru_cache(maxsize=None)
def walk_table_dtype(n_attrs: int) -> np.dtype:
    """One row per treelet node, indexed by node id (= pre-order).

    Everything a pruned read needs from a node without following a link:
    its box, depth, own slot range, parent row, and its bitmaps resolved
    through the dictionary. ``nests`` is the treelet's verdict, the same
    in every row: each node's box and bitmaps lie inside its parent's, so
    testing every row against a query independently gives exactly the
    nodes a top-down walk would keep.
    """
    return np.dtype(
        [
            ("lo", "<f8", (3,)),
            ("hi", "<f8", (3,)),
            ("begin", "<i8"),
            ("count", "<i8"),
            ("parent", "<i8"),
            ("depth", "<i2"),
            ("nests", "?"),
            ("bitmaps", "<u4", (max(n_attrs, 1),)),
        ]
    )


def _resolve_bitmaps(bitmap_ids: np.ndarray, dictionary: np.ndarray) -> np.ndarray:
    """Dictionary ids to bitmaps. An id outside the dictionary resolves to
    the all-ones bitmap: it can never prune, and every returned row is
    value-checked anyway."""
    lut = np.append(dictionary, np.uint32(0xFFFFFFFF))
    return lut.take(bitmap_ids, mode="clip")  # ids are >= 0: clip hits the sentinel


def _nests(lo, hi, bitmaps, parent) -> bool:
    """Every row's box and bitmaps lie inside its parent row's."""
    return bool(
        (lo >= lo[parent]).all()
        and (hi <= hi[parent]).all()
        and not (bitmaps & ~bitmaps[parent]).any()
    )


def build_walk_tables(leaves, nodes, bboxes, dictionary: np.ndarray, levels: int) -> list:
    """The walk tables of several treelets, built together.

    ``nodes[i]`` are the node records of treelet ``leaves[i]`` and
    ``bboxes[i]`` its leaf box. Table ``i`` flattens those nodes into a
    :func:`walk_table_dtype` array. This is the only place node boxes are
    derived from the splits: a level-by-level pass from each leaf box
    through at most ``levels`` depths (no read looks deeper). Rows no link
    reaches keep a NaN box, depth -1 and themselves as parent, so no test
    or depth window ever selects them.

    The treelets' records are laid back to back and walked level-
    synchronously: one numpy pass per depth over every treelet's frontier
    at once, not one per treelet. Each table is its own array (no view of
    a shared one), so a cache charging its ``nbytes`` charges exactly what
    it pins. A link that leaves ``node < child < n_nodes`` raises
    :class:`~repro.errors.IntegrityError` naming the treelet.
    """
    bounds = list(itertools.accumulate(map(len, nodes), initial=0))
    sizes = np.diff(bounds)
    if not sizes.all():
        leaf = leaves[int(np.argmin(sizes))]
        raise IntegrityError(f"treelet {leaf} has no nodes", section=f"treelet {leaf}")
    roots = np.array(bounds[:-1])
    # one buffer of raw records: a structured np.concatenate promotes
    # every field of every operand first
    recs = nodes[0] if len(nodes) == 1 else np.frombuffer(b"".join(nodes), nodes[0].dtype)
    n = bounds[-1]
    ar = np.arange(n)
    first = np.repeat(roots, sizes)  # each row's treelet root
    axis, split = recs["axis"], recs["split"]
    children = np.empty((2, n), dtype=np.int64)
    children[0], children[1] = recs["left"], recs["right"]
    children += first
    # the rule in rows of all the treelets: first + node < first + child < first + n_nodes
    ok = child_links_ok(ar, children[0], children[1], first + np.repeat(sizes, sizes))
    if not (ok | (axis < 0)).all():
        row = int(np.flatnonzero(~ok & (axis >= 0))[0])
        t = int(np.searchsorted(roots, row, side="right")) - 1
        raise IntegrityError(
            f"treelet {leaves[t]} node {row - bounds[t]}: child link outside "
            "node < child < n_nodes",
            section=f"treelet {leaves[t]}",
        )
    ids = roots
    box = np.asarray(bboxes, dtype=np.float64).reshape(-1, 2, 3)  # [:, 0] lo, [:, 1] hi
    level_ids, level_box, level_parent = [], [], [ids]
    for _ in range(levels):
        level_ids.append(ids)
        level_box.append(box)
        ax = axis[ids]
        desc = ax >= 0
        k = int(np.count_nonzero(desc))
        if k < len(ids):
            if k == 0:
                break
            ids, ax, box = ids[desc], ax[desc], box[desc]
        # every treelet's left children, then every treelet's right ones:
        # within a treelet, the order a walk of it alone would queue them
        rows = np.arange(k)
        sp = split[ids]
        box = np.concatenate([box, box])
        box[rows, 1, ax] = sp  # left children end at the split ...
        box[rows + k, 0, ax] = sp  # ... right ones start there
        level_parent += (ids, ids)
        ids = children[:, ids].ravel()
    ids = np.concatenate(level_ids)
    t_box = np.full((n, 2, 3), np.nan)
    t_box[ids] = np.concatenate(level_box)
    t_depth = np.full(n, -1, dtype=np.int16)
    t_depth[ids] = np.repeat(np.arange(len(level_ids)), [len(i) for i in level_ids])
    t_parent = ar.copy()
    # one entry for the roots plus two per level below them (a pass that
    # ran out of levels queued parents for a level it never recorded)
    t_parent[ids] = np.concatenate(level_parent[: 2 * len(level_ids) - 1])
    lo, hi = t_box[:, 0], t_box[:, 1]
    bitmaps = _resolve_bitmaps(recs["bitmap_ids"], dictionary)
    # _nests per treelet, reduced over each treelet's run of flat values
    # (an axis=1 reduction of rows this short costs more than the test)
    inside = (lo >= lo[t_parent]) & (hi <= hi[t_parent])
    spill = bitmaps & ~bitmaps[t_parent]
    nests = np.logical_and.reduceat(inside.ravel(), roots * 3) & (
        np.bitwise_or.reduceat(spill.ravel(), roots * spill.shape[1]) == 0
    )
    table = np.empty(n, dtype=walk_table_dtype(bitmaps.shape[1]))
    table["nests"] = np.repeat(nests, sizes)
    table["lo"], table["hi"], table["depth"], table["parent"] = lo, hi, t_depth, t_parent - first
    table["begin"], table["count"], table["bitmaps"] = recs["begin"], recs["count"], bitmaps
    if len(sizes) == 1:
        return [table]
    return [table[a:z].copy() for a, z in zip(bounds, bounds[1:])]


@functools.lru_cache(maxsize=None)
def shallow_table_dtype(n_attrs: int) -> np.dtype:
    """One row per shallow node, in the recursive walk's visit order.

    The shallow counterpart of :func:`walk_table_dtype`: box, depth,
    parent row and resolved bitmaps, plus ``leaf`` (the shallow leaf
    index, -1 for inner nodes) and the ``left`` / ``right`` child rows of
    inner nodes (-1 for leaves). ``nests`` is the tree's verdict, the same
    in every row.
    """
    return np.dtype(
        [
            ("lo", "<f8", (3,)),
            ("hi", "<f8", (3,)),
            ("parent", "<i8"),
            ("left", "<i8"),
            ("right", "<i8"),
            ("leaf", "<i8"),
            ("depth", "<i2"),
            ("nests", "?"),
            ("bitmaps", "<u4", (max(n_attrs, 1),)),
        ]
    )


class _ColumnDir:
    """One treelet's column directory, parsed once into Python values.

    Slot ``i`` (0 nodes, 1 positions, 2+ attributes) is codec
    ``codecs[i]`` over ``buf[starts[i]:starts[i + 1]]`` with parameters
    ``p0[i]`` / ``p1[i]``, decoding to ``counts[i]`` values that fill
    ``raw_nbytes[i]`` bytes. ``buf`` is the file's mapping, or a legacy
    compressed treelet's inflated payload. ``bbox`` dequantizes positions.
    """

    __slots__ = ("buf", "codecs", "starts", "p0", "p1", "raw_nbytes", "counts", "bbox")

    def __init__(self, buf, base: int, codecs, enc_nbytes, raw_nbytes, p0, p1, counts, bbox):
        self.buf = buf
        self.codecs = codecs
        self.starts = list(itertools.accumulate(enc_nbytes, initial=base))
        self.p0 = p0
        self.p1 = p1
        self.raw_nbytes = raw_nbytes
        self.counts = counts
        self.bbox = bbox


class _LazyColumns(Mapping):
    """Attribute columns of one treelet, each read on first subscript.

    A read-only mapping over :meth:`BATFile.request`: queries that filter
    or select a subset of attributes never touch (or pay for) the rest.
    """

    __slots__ = ("_file", "_leaf")

    def __init__(self, file: "BATFile", leaf: int):
        self._file = file
        self._leaf = leaf

    def __getitem__(self, name: str) -> np.ndarray:
        slot = self._file.attr_slots.get(name)
        if slot is None:
            raise KeyError(name)
        return fetch_retained([self._file.request([self._leaf], slot)])[0][0]

    def __iter__(self):
        return iter(self._file.attr_names)

    def __len__(self) -> int:
        return len(self._file.attr_names)

    def __contains__(self, name) -> bool:
        return name in self._file.attr_slots


class TreeletView:
    """One treelet of a mapped file: its header counts and column directory.

    The treelet header carries ``n_points`` and ``max_depth``, so a
    full-speed plan (no box test, no filters) can emit a whole treelet
    without reading its node records — or, under column projection, its
    position block. ``nodes``, ``positions`` and ``attributes`` (a lazy
    read-only mapping) read a column on access and keep it as
    :meth:`BATFile.request` says: a v2/v3 column is a zero-copy view, a
    v4 column one codec call.

    Pruned reads test the flattened form of ``nodes``:
    :meth:`BATFile.walk_tables`.
    """

    __slots__ = ("n_points", "max_depth", "column_dir", "attributes", "_file", "_leaf")

    def __init__(self, file: "BATFile", leaf: int, n_points: int, max_depth: int,
                 column_dir: _ColumnDir):
        self.n_points = int(n_points)
        self.max_depth = int(max_depth)
        self.column_dir = column_dir
        self.attributes = _LazyColumns(file, leaf)
        self._file = file
        self._leaf = leaf

    @property
    def nodes(self) -> np.ndarray:  # structured treelet_node_dtype
        return fetch_retained([self._file.request([self._leaf], 0)])[0][0]

    @property
    def positions(self) -> np.ndarray:  # (n, 3) float32, node order
        return fetch_retained([self._file.request([self._leaf], 1)])[0][0]


def _dequantize(q: np.ndarray, bbox: np.ndarray) -> np.ndarray:
    """``(n, 3)`` 16-bit quantized positions to float32 inside ``bbox``."""
    lo = bbox[:3]
    ext = np.maximum(bbox[3:] - lo, 0.0)
    return (lo + q.astype(np.float64) / 65535.0 * ext).astype(np.float32)


class BATFile:
    """One aggregator's BAT file, opened read-only via memory mapping.

    Usable as a context manager. All returned arrays are views into the
    mapping and become invalid after :meth:`close`.
    """

    def __init__(self, path):
        self.path = str(path)
        self._f = open(self.path, "rb")
        # Identity of the file *object* behind this handle, captured from
        # the open fd so it cannot race a concurrent os.replace. Caches use
        # it to detect that the path now names different bytes: an atomic
        # publish (tmp + rename) always lands a new inode, and an in-place
        # rewrite changes size or mtime_ns.
        st = os.fstat(self._f.fileno())
        self.stat_signature = (st.st_mtime_ns, st.st_size, st.st_ino)
        #: inode-qualified cache key — two handles for the same *path* but
        #: different file generations never share decoded-column entries
        self.cache_key = f"{self.path}\x00{st.st_ino}:{st.st_mtime_ns}"
        try:
            self._mm = mmap.mmap(self._f.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            # an empty file cannot be mapped; report it like any other
            # not-a-BAT-file input instead of leaking the mmap detail
            self._f.close()
            self._f = None
            raise IntegrityError(
                f"not a BAT file (empty file): {self.path}",
                section="header", path=self.path,
            ) from None
        try:
            self._parse()
        except BaseException:
            # a failed parse must not leak the fd/mapping: close() may run
            # never (caller has no object) so release here before re-raising
            self.close()
            raise

    @classmethod
    def from_bytes(cls, data: bytes, name: str = "<memory>") -> "BATFile":
        """Open a BAT image that was never written to disk.

        This is the paper's in-transit path (§III-C3): "the tree can be
        used for in transit visualization and analysis on the aggregators
        before or instead of being written to disk." All query APIs work
        identically; the buffer replaces the memory map.
        """
        self = cls.__new__(cls)
        self.path = name
        self._f = None
        self.stat_signature = None
        self.cache_key = name
        self._mm = bytes(data)
        self._parse()
        return self

    def _parse(self) -> None:
        try:
            self.header = Header.unpack(self._mm[:HEADER_SIZE])
        except IntegrityError as exc:
            exc.path = self.path
            raise
        h = self.header
        if h.file_size != len(self._mm):
            raise IntegrityError(
                f"BAT file size mismatch: header says {h.file_size}, "
                f"file is {len(self._mm)}",
                section="header", path=self.path,
            )
        # With the header validated (CRC-checked for v3), every section
        # extent it implies must land inside the buffer before any
        # np.frombuffer view is built over it.
        for name, (off, nbytes) in h.section_extents().items():
            if off < 0 or off + nbytes > len(self._mm):
                raise IntegrityError(
                    f"BAT section {name!r} out of bounds "
                    f"(offset {off}, {nbytes} bytes, file is {len(self._mm)})",
                    section=name, path=self.path,
                )
        self._footer = None
        self._treelet_crcs = None
        # slicing an mmap copies; slicing one long-lived memoryview of it
        # hands codecs zero-copy windows into the mapped pages instead
        self._buf = memoryview(self._mm)
        #: column bytes materialized for queries so far (v4 decode accounting)
        self.decoded_bytes = 0
        self._dbytes_lock = threading.Lock()
        #: optional DecodedColumnCache attached by the file-handle cache
        self.column_cache = None
        self._column_summary = None
        if h.version >= CHECKSUM_VERSION:
            try:
                self._footer = unpack_footer(self._mm, h.footer_offset, h.n_shallow_leaves)
            except IntegrityError as exc:
                exc.path = self.path
                raise
            self._treelet_crcs = self._footer.treelet_crcs
            for name, (off, nbytes) in h.section_extents().items():
                actual = zlib.crc32(self._mm[off : off + nbytes])
                if actual != self._footer.section_crcs[name]:
                    raise IntegrityError(
                        f"BAT section {name!r} checksum mismatch in {self.path}",
                        section=name, path=self.path,
                    )
        self._inner_dt = shallow_inner_dtype(h.n_attrs)
        self._leaf_dt = shallow_leaf_dtype(h.n_attrs)
        self._node_dt = treelet_node_dtype(h.n_attrs)

        atab = np.frombuffer(
            self._mm, dtype=attr_table_dtype(), count=h.n_attrs, offset=h.attr_table_offset
        )
        self.attr_names: list[str] = [
            bytes(rec["name"]).rstrip(b"\0").decode() for rec in atab
        ]
        self.attr_dtypes: dict[str, np.dtype] = {
            name: np.dtype(bytes(rec["dtype"]).rstrip(b"\0").decode())
            for name, rec in zip(self.attr_names, atab)
        }
        self.attr_ranges: dict[str, tuple[float, float]] = {
            name: (float(rec["lo"]), float(rec["hi"]))
            for name, rec in zip(self.attr_names, atab)
        }
        self.shallow_inner = np.frombuffer(
            self._mm, dtype=self._inner_dt, count=h.n_shallow_inner, offset=h.shallow_inner_offset
        )
        self.shallow_leaves = np.frombuffer(
            self._mm, dtype=self._leaf_dt, count=h.n_shallow_leaves, offset=h.shallow_leaf_offset
        )
        self.dictionary = np.frombuffer(
            self._mm, dtype=np.uint32, count=h.dict_entries, offset=h.dict_offset
        )
        #: per-attribute binning scheme (drives query-bitmap computation)
        self.binnings: dict[str, object] = {}
        if h.n_attrs and h.binning_offset:
            kinds, edge_tables = unpack_binning_section(
                self._mm, h.binning_offset, h.n_attrs
            )
            for a, name in enumerate(self.attr_names):
                lo, hi = self.attr_ranges[name]
                self.binnings[name] = make_binning(kinds[a], lo, hi, edge_tables[a])
        #: directory slot of each attribute (0 nodes, 1 positions)
        self.attr_slots = {name: 2 + a for a, name in enumerate(self.attr_names)}
        #: what each directory slot decodes to
        self._slot_dtypes = [
            self._node_dt,
            np.dtype("<u2") if self.quantized else np.dtype("<f4"),
            *self.attr_dtypes.values(),
        ]
        self._treelet_cache: dict[int, TreeletView] = {}
        #: ``(leaf, slot)`` -> what no attached cache keeps (see :meth:`request`)
        self._memo = _Memo()
        self._shallow_table: np.ndarray | None = None
        self._visit_rank: np.ndarray | None = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the mapping.

        If the caller still holds numpy views into the file, the mapping
        cannot be unmapped yet; it is released when the last view dies
        (CPython keeps an mmap alive while exported buffers exist), so the
        views stay valid either way.

        Safe to call on a partially constructed instance (a parse failure
        releases its handles through here).
        """
        for memo in ("_treelet_cache", "_memo"):
            cache = getattr(self, memo, None)
            if cache is not None:
                cache.clear()
        self.shallow_inner = None
        self.shallow_leaves = None
        self.dictionary = None
        buf = getattr(self, "_buf", None)
        if buf is not None:
            try:
                buf.release()
            except BufferError:
                pass  # exported to a live array; freed when it is collected
            self._buf = None
        if getattr(self, "_mm", None) is not None:
            if isinstance(self._mm, mmap.mmap):
                try:
                    self._mm.close()
                except BufferError:
                    pass  # outstanding views; freed when they are collected
            self._mm = None
        if getattr(self, "_f", None) is not None:
            self._f.close()
            self._f = None

    def __enter__(self) -> "BATFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structure ----------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.header.n_points

    @property
    def bounds(self) -> Box:
        return Box.from_array(self.header.bounds)

    @property
    def n_treelets(self) -> int:
        return self.header.n_shallow_leaves

    @property
    def max_treelet_depth(self) -> int:
        return self.header.max_treelet_depth

    def attribute_specs(self) -> list[AttributeSpec]:
        return [AttributeSpec(n, self.attr_dtypes[n]) for n in self.attr_names]

    def attr_index(self, name: str) -> int:
        try:
            return self.attr_names.index(name)
        except ValueError:
            raise KeyError(f"no attribute {name!r} in {self.path}") from None

    def bitmap(self, bitmap_id: int) -> int:
        """Resolve a 16-bit dictionary ID to its 32-bit bitmap."""
        return int(self.dictionary[bitmap_id])

    def shallow_table(self) -> np.ndarray:
        """The shallow tree as a :func:`shallow_table_dtype` array, cached.

        Rows are in stack-DFS visit order: the recursive traversal pops a
        LIFO stack, so the *right* child of every inner node is visited
        first. Pruning removes subtrees but never reorders survivors, so
        the leaf rows of any query's survivors, in row order, are the
        canonical emission order. Built on first use from the shallow
        sections, which are CRC-checked when the file opens.
        """
        if self._shallow_table is not None:
            return self._shallow_table
        h = self.header
        inner, leaves = self.shallow_inner, self.shallow_leaves
        raw = np.stack([inner["left"], inner["right"]], axis=1).astype(np.int64)
        kids = np.stack([raw & ~LEAF_FLAG, (raw & LEAF_FLAG) != 0], axis=2).tolist()
        index, is_leaf, parent, depth, left, right = [], [], [], [], [], []
        stack = [(0, h.n_shallow_inner == 0, 0, 0, None)]
        while stack:
            idx, leaf, up, d, side = stack.pop()
            row = len(index)
            if row == h.n_shallow_inner + h.n_shallow_leaves:
                raise IntegrityError(
                    f"shallow tree of {self.path} is not a tree",
                    section="shallow_inner", path=self.path,
                )
            index.append(idx)
            is_leaf.append(leaf)
            parent.append(up)
            depth.append(d)
            left.append(-1)
            right.append(-1)
            if side is not None:
                side[up] = row
            if not leaf:
                (li, ll), (ri, rl) = kids[idx]
                stack.append((li, ll, row, d + 1, left))
                stack.append((ri, rl, row, d + 1, right))
        index = np.array(index, dtype=np.int64)
        is_leaf = np.array(is_leaf, dtype=bool)
        bbox = np.empty((len(index), 6))
        ids = np.empty((len(index), *inner.dtype["bitmap_ids"].shape), dtype=np.int64)
        for recs, rows in ((leaves, is_leaf), (inner, ~is_leaf)):
            bbox[rows] = recs["bbox"][index[rows]]
            ids[rows] = recs["bitmap_ids"][index[rows]]
        bitmaps = _resolve_bitmaps(ids, self.dictionary)
        parent = np.array(parent, dtype=np.int64)
        table = np.empty(len(index), dtype=shallow_table_dtype(h.n_attrs))
        table["lo"], table["hi"], table["bitmaps"] = bbox[:, :3], bbox[:, 3:], bitmaps
        table["parent"], table["depth"] = parent, depth
        table["left"], table["right"] = left, right
        table["leaf"] = np.where(is_leaf, index, -1)
        table["nests"] = _nests(bbox[:, :3], bbox[:, 3:], bitmaps, parent)
        self._shallow_table = table
        return table

    def shallow_leaf_visit_rank(self) -> np.ndarray:
        """Rank of each shallow leaf in visit order (see :meth:`shallow_table`)."""
        if self._visit_rank is None:
            leaf = self.shallow_table()["leaf"]
            leaf = leaf[leaf >= 0]
            rank = np.empty(self.header.n_shallow_leaves, dtype=np.int64)
            rank[leaf] = np.arange(len(leaf))
            self._visit_rank = rank
        return self._visit_rank

    def leaf_box(self, leaf: int) -> Box:
        b = self.shallow_leaves[leaf]["bbox"]
        return Box(tuple(map(float, b[:3])), tuple(map(float, b[3:])))

    def inner_box(self, inner: int) -> Box:
        b = self.shallow_inner[inner]["bbox"]
        return Box(tuple(map(float, b[:3])), tuple(map(float, b[3:])))

    def root(self) -> tuple[int, bool]:
        """(index, is_leaf) of the shallow root."""
        if self.header.n_shallow_inner == 0:
            return 0, True
        return 0, False

    def children(self, inner: int) -> list[tuple[int, bool]]:
        """Decode an inner node's (child index, child-is-leaf) pairs."""
        rec = self.shallow_inner[inner]
        out = []
        for key in ("left", "right"):
            raw = np.uint32(rec[key])
            is_leaf = bool(raw & LEAF_FLAG)
            out.append((int(raw & ~LEAF_FLAG), is_leaf))
        return out

    @property
    def quantized(self) -> bool:
        return bool(self.header.flags & FLAG_QUANTIZED_POSITIONS)

    @property
    def compressed(self) -> bool:
        return bool(self.header.flags & FLAG_COMPRESSED_TREELETS)

    @property
    def version(self) -> int:
        return self.header.version

    @property
    def checksummed(self) -> bool:
        """True when the file carries the version-3 checksum footer."""
        return self._treelet_crcs is not None

    @property
    def column_encoded(self) -> bool:
        """True when treelets carry a per-column codec directory (v4)."""
        return self.header.version >= CODEC_VERSION

    def column_summary(self) -> dict[str, dict]:
        """Per-column codec id, encoded/raw byte totals, and error bound.

        Aggregated over every treelet's column directory without decoding
        any payload (or checking a CRC). Raw-layout (v2/v3) files report
        the ``raw`` codec with equal encoded and raw sizes.
        """
        if self._column_summary is not None:
            return self._column_summary
        names = ["nodes", "positions", *self.attr_names]
        out = {n: {"codec": "raw", "enc_nbytes": 0, "raw_nbytes": 0, "error_bound": 0.0}
               for n in names}
        for rec in self.shallow_leaves:
            off = int(rec["treelet_offset"])
            n_nodes, n_pts, _, _ = _TREELET_HEADER.unpack_from(self._buf, off)
            d = self._column_dir(rec, n_nodes, n_pts, None)
            for i, name in enumerate(names):
                row = out[name]
                row["codec"] = d.codecs[i]
                row["enc_nbytes"] += d.starts[i + 1] - d.starts[i]
                row["raw_nbytes"] += d.raw_nbytes[i]
                codec = get_codec(d.codecs[i])
                if not codec.lossless:
                    dtype = self.attr_dtypes[name] if name in self.attr_dtypes else np.float32
                    row["error_bound"] = max(
                        row["error_bound"], float(codec.error_bound(d.p0[i], d.p1[i], dtype))
                    )
        self._column_summary = out
        return out

    # -- treelet columns and walk tables ------------------------------------

    def columns(self, leaves, name: str | None) -> list[np.ndarray]:
        """One column of several treelets, in order: attribute ``name``, or
        the ``(n, 3)`` positions for ``None``. :func:`fetch_retained` of
        one :meth:`request`."""
        slot = 1 if name is None else 2 + self.attr_index(name)
        return fetch_retained([self.request(leaves, slot)])[0]

    def request(self, leaves, slot: int) -> tuple:
        """Slot ``slot`` of treelets ``leaves`` as a :func:`fetch_retained`
        request ``(store, path, keys, load)``: directory slot ``slot`` (0
        nodes, 1 positions, 2+ attributes) or the walk tables
        (:data:`WALK_TABLE_SLOT`). Each array is produced by
        ``load(missing_keys)`` (:meth:`_load`) once and then kept in
        ``store``, under ``path``. A treelet not materialized yet is
        materialized first (:meth:`treelet`).

        The attached :class:`DecodedColumnCache` keeps walk tables and v4
        columns, under this handle's :attr:`cache_key`: single-flight, and
        its byte budget bounds them. Everything else — a v2/v3 column (a
        view of the mapping, nothing to budget), or anything on a
        cache-less handle — is kept in the handle's own :class:`_Memo`.
        """
        keys = list(zip(leaves, itertools.repeat(slot)))
        cache = self.column_cache
        if cache is not None and (self.column_encoded or slot == WALK_TABLE_SLOT):
            return cache, self.cache_key, keys, self._load
        return self._memo, None, keys, self._load

    def _load(self, keys) -> list[np.ndarray]:
        """The arrays of ``(leaf, slot)`` ``keys`` of one slot: the missing
        walk tables built in one pass, or one :meth:`_decode_slot` each."""
        leaves = [leaf for leaf, _ in keys]
        slot = keys[0][1]
        if slot == WALK_TABLE_SLOT:
            return self._build_walk_tables(leaves)
        return [self._decode_slot(leaf, slot) for leaf in leaves]

    def _decode_slot(self, leaf: int, slot: int) -> np.ndarray:
        """Run directory slot ``slot`` of one treelet through its codec.

        The position slot is also reshaped to ``(n, 3)`` and dequantized,
        and a cache stores that final product, so hits skip the work too.
        Only a v4 slot counts toward ``decoded_bytes`` — cache hits never
        get here, so the counter measures real decode work.
        """
        d = self._view(leaf).column_dir
        try:
            arr = decode_column(
                d.codecs[slot], d.buf[d.starts[slot] : d.starts[slot + 1]],
                self._slot_dtypes[slot], d.counts[slot], d.p0[slot], d.p1[slot],
            )
        except CodecError as exc:
            raise IntegrityError(
                f"treelet {leaf} column {slot}: {exc} in {self.path}",
                section=f"treelet {leaf}", path=self.path,
            ) from None
        if arr.nbytes != d.raw_nbytes[slot]:
            raise IntegrityError(
                f"treelet {leaf} column {slot}: decoded {arr.nbytes} bytes, "
                f"directory says {d.raw_nbytes[slot]} in {self.path}",
                section=f"treelet {leaf}", path=self.path,
            )
        if self.column_encoded:
            with self._dbytes_lock:
                self.decoded_bytes += arr.nbytes
        if slot == 1:
            arr = arr.reshape(-1, 3)
            if self.quantized:
                arr = _dequantize(arr, d.bbox)
        return arr

    def walk_tables(self, leaves) -> list[np.ndarray]:
        """The walk tables of several treelets, in order, built on first use.

        The missing tables are built together, in one
        :func:`build_walk_tables` pass over their node records, and kept
        like columns (:meth:`request`): with a :class:`DecodedColumnCache`
        attached the byte budget bounds them, and whatever retires the
        handle's columns retires them. Not codec work: never counts toward
        ``decoded_bytes``. :func:`fetch_retained` of one :meth:`request`.
        """
        return fetch_retained([self.request(leaves, WALK_TABLE_SLOT)])[0]

    def _build_walk_tables(self, leaves: list) -> list[np.ndarray]:
        try:
            return build_walk_tables(
                leaves, fetch_retained([self.request(leaves, 0)])[0],
                self.shallow_leaves["bbox"][leaves],
                self.dictionary, self.max_treelet_depth + 2,
            )
        except IntegrityError as exc:
            exc.path = self.path
            raise

    def _view(self, leaf: int) -> TreeletView:
        return self._treelet_cache.get(leaf) or self.treelet(leaf)

    def _column_dir(self, rec, n_nodes: int, n_pts: int, buf) -> _ColumnDir:
        """The column directory, over ``buf``, of the treelet of shallow
        leaf record ``rec``.

        A v4 treelet's is read from the file. A v2/v3 treelet's is
        synthesized from its header counts: every slot is codec ``raw``
        over the packed bytes, laid out in slot order after the header —
        or, in a legacy compressed treelet, from the start of the
        inflated payload.
        """
        base = int(rec["treelet_offset"]) + _TREELET_HEADER.size
        counts = [n_nodes, 3 * n_pts] + [n_pts] * self.header.n_attrs
        # plain floats copied out of the shallow-leaf record, not a
        # structured view pinning the mapping
        bbox = np.asarray(rec["bbox"], dtype=np.float64).copy()
        if self.column_encoded:
            col_dir = np.frombuffer(self._mm, dtype=_COLUMN_DIR, count=len(counts), offset=base)
            return _ColumnDir(
                buf, base + col_dir.nbytes,
                [c.rstrip(b"\0").decode() for c in col_dir["codec"].tolist()],
                col_dir["enc_nbytes"].tolist(), col_dir["raw_nbytes"].tolist(),
                col_dir["p0"].tolist(), col_dir["p1"].tolist(), counts, bbox,
            )
        sizes = [n * dt.itemsize for n, dt in zip(counts, self._slot_dtypes)]
        zeros = [0.0] * len(sizes)
        return _ColumnDir(
            buf, 0 if self.compressed else base, ["raw"] * len(sizes), sizes, sizes, zeros, zeros,
            counts, bbox,
        )

    def treelet(self, leaf: int) -> TreeletView:
        """Materialize the treelet of shallow leaf ``leaf``: its column
        directory, nothing decoded yet.

        The view is cached, so repeated traversals pay once — including
        the treelet's CRC32 verification on checksummed files, which runs
        on first touch so queries that prune a damaged treelet never pay
        for (or trip over) it. A legacy compressed treelet inflates here,
        once. A treelet that fails to inflate, or whose directory runs
        past its bytes, raises :class:`~repro.errors.IntegrityError`.
        """
        cached = self._treelet_cache.get(leaf)
        if cached is not None:
            return cached
        rec = self.shallow_leaves[leaf]
        off = int(rec["treelet_offset"])
        nbytes = int(rec["treelet_nbytes"])
        if off < 0 or off + nbytes > len(self._mm):
            raise IntegrityError(
                f"treelet {leaf} out of bounds (offset {off}, {nbytes} bytes) "
                f"in {self.path}",
                section=f"treelet {leaf}", path=self.path,
            )
        if self._treelet_crcs is not None:
            actual = zlib.crc32(self._buf[off : off + nbytes])
            if actual != int(self._treelet_crcs[leaf]):
                raise IntegrityError(
                    f"treelet {leaf} checksum mismatch in {self.path}",
                    section=f"treelet {leaf}", path=self.path,
                )
        n_nodes, n_pts, max_depth, raw_nbytes = _TREELET_HEADER.unpack_from(self._buf, off)
        buf, end = self._buf, off + nbytes
        if self.compressed and not self.column_encoded:
            try:
                payload = inflate(self._buf[off + _TREELET_HEADER.size : end], raw_nbytes)
            except CodecError as exc:
                raise IntegrityError(
                    f"treelet {leaf}: {exc} in {self.path}",
                    section=f"treelet {leaf}", path=self.path,
                ) from None
            buf, end = memoryview(payload), raw_nbytes
        d = self._column_dir(rec, n_nodes, n_pts, buf)
        if d.starts[-1] > end:
            raise IntegrityError(
                f"treelet {leaf}: column payloads overrun the treelet block "
                f"in {self.path}",
                section=f"treelet {leaf}", path=self.path,
            )
        view = TreeletView(self, leaf, n_pts, max_depth, d)
        self._treelet_cache[leaf] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BATFile({self.path!r}, points={self.n_points}, "
            f"treelets={self.n_treelets}, attrs={self.attr_names})"
        )


def fetch_retained(requests) -> list[list[np.ndarray]]:
    """The arrays of several :meth:`BATFile.request` requests, one list
    per request, in order: one ``fetch_groups`` call per store — so one
    round trip to a :class:`DecodedColumnCache` for all of its requests."""
    out: list = [None] * len(requests)
    stores: dict = {}
    for i, r in enumerate(requests):
        stores.setdefault(id(r[0]), (r[0], []))[1].append(i)
    for store, at in stores.values():
        for i, arrays in zip(at, store.fetch_groups([requests[i][1:] for i in at])):
            out[i] = arrays
    return out


class _Memo(dict):
    """A handle's ``(leaf, slot)`` -> array store for what no
    :class:`DecodedColumnCache` keeps: :meth:`fetch_groups` as the cache
    has it, without its lock, single-flight or budget (two threads that
    miss one key both load it; either array is the same bytes)."""

    def fetch_groups(self, groups) -> list[list[np.ndarray]]:
        out = []
        for _, keys, load in groups:
            missing = [key for key in keys if key not in self]
            if missing:
                self.update(zip(missing, load(missing)))
            out.append([self[key] for key in keys])
        return out
