"""In-situ BAT construction on an aggregator (paper §III-C).

``build_bat`` takes the particles an aggregator received and produces the
complete serialized file image plus the summary (attribute ranges and root
bitmaps) that the aggregator later sends to rank 0 for the top-level
metadata (§III-D). The build is the two-step scheme from the paper: a
bottom-up shallow radix tree over merged Morton subprefixes, then an
independent treelet per shallow leaf.

The treelets of a file are built, and everything after them computed, as
one *forest*: ``bat.treelet.build_forest`` returns every treelet's nodes
in one set of arrays (treelet-major, ids and slots treelet-local, exactly
what the node records store), and ``build_bat`` derives bitmaps,
dictionary ids, boxes and codec segments from those arrays in whole-file
passes. No per-treelet object exists; the only per-treelet
loop left assembles the page-aligned blobs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..atomic import publish_bytes
from ..binning import EquiDepthBinning, EquiWidthBinning
from ..bitmaps import BitmapDictionary
from ..morton import MAX_BITS, encode_positions
from ..types import Box, ParticleBatch
from .build import DEFAULT_SUBPREFIX_BITS, build_radix_tree, shallow_tree_leaves
from .codecs import get_codec, select_codecs
from .format import (
    CODEC_VERSION,
    FLAG_COLUMN_CODECS,
    HEADER_SIZE,
    LEAF_FLAG,
    LEGACY_VERSION,
    PAGE_SIZE,
    VERSION,
    Header,
    attr_table_dtype,
    check_attr_names,
    column_dir_dtype,
    footer_size,
    pack_binning_section,
    pack_footer,
    pad_to,
    shallow_inner_dtype,
    shallow_leaf_dtype,
    treelet_header_dtype,
    treelet_node_dtype,
)
from .treelet import build_forest, propagate_bitmaps_bottom_up

__all__ = ["BATBuildConfig", "BuiltBAT", "build_bat"]

#: particles per shallow leaf the adaptive subprefix aims for
TARGET_TREELET_POINTS = 4096


@dataclass(frozen=True)
class BATBuildConfig:
    """Knobs of the BAT build.

    The defaults follow the paper's evaluation: up to a 12-bit shallow
    subprefix, 8 LOD particles per treelet inner node, up to 128 particles
    per treelet leaf, 21-bit Morton quantization.

    ``subprefix_bits=None`` (the default) adapts the subprefix to the input
    size so each shallow leaf receives about ``TARGET_TREELET_POINTS``
    particles, capped at the paper's 12 bits — the paper evaluated
    aggregators holding millions of particles, where 12 bits "provides
    satisfactory results"; a fixed 12 bits on a small input would shatter
    it into thousands of near-empty page-aligned treelets.
    """

    subprefix_bits: int | None = None
    lod_per_node: int = 8
    max_leaf_points: int = 128
    #: "equiwidth" (the paper's scheme) or "equidepth" (quantile bins — the
    #: §VII extension for skewed attributes)
    attribute_binning: str = "equiwidth"
    #: emit the version-3 checksum footer (header CRC, per-section and
    #: per-treelet CRC32s, whole-file digest). ``False`` produces a legacy
    #: version-2 image, byte-identical to pre-checksum builds — used by the
    #: backward-compatibility tests.
    checksums: bool = True
    #: per-column codec spec (format v4). ``None`` (the default) keeps the
    #: version-3 raw-column layout byte-identical to previous builds.
    #: ``"auto"`` sizes a sample of each column at write time and picks the
    #: smallest lossless codec; a mapping assigns codecs per column name
    #: (``"positions"``, ``"nodes"``, attribute names; ``"*"`` as default,
    #: value ``"auto"`` to defer to sampling). Lossy ``quantize{b}`` codecs
    #: are only ever used when named explicitly here. This is the §VII
    #: compression and quantization extension: per column, ``zlib`` or an
    #: error-bounded ``quantize{b}`` (the whole-treelet-zlib and 16-bit
    #: position layouts of header flag bits 0 and 1 are read, never written).
    codecs: object = None

    def __post_init__(self) -> None:
        if self.attribute_binning not in ("equiwidth", "equidepth"):
            raise ValueError("attribute_binning must be 'equiwidth' or 'equidepth'")
        if self.subprefix_bits is not None:
            if not 3 <= self.subprefix_bits <= 3 * MAX_BITS:
                raise ValueError(f"subprefix_bits must be in [3, {3 * MAX_BITS}]")
            if self.subprefix_bits % 3 != 0:
                raise ValueError("subprefix_bits must be a multiple of 3")
        if self.lod_per_node < 1 or self.max_leaf_points < 1:
            raise ValueError("lod_per_node and max_leaf_points must be >= 1")
        if self.codecs is not None:
            if not self.checksums:
                raise ValueError("codecs require checksums=True (v4 is a checksummed format)")
            if isinstance(self.codecs, str) and self.codecs != "auto":
                raise ValueError("codecs must be None, 'auto', or a column->codec mapping")

    def resolve_subprefix_bits(self, n_points: int) -> int:
        """Subprefix width to use for an input of ``n_points`` particles."""
        if self.subprefix_bits is not None:
            return self.subprefix_bits
        import math

        ratio = max(n_points / TARGET_TREELET_POINTS, 1.0)
        levels = math.ceil(math.log2(ratio) / 3.0) if ratio > 1.0 else 1
        return int(min(max(3 * levels, 3), DEFAULT_SUBPREFIX_BITS))


@dataclass
class BuiltBAT:
    """A serialized BAT plus the summary sent to rank 0.

    ``data`` is the exact file image; writing it to disk and opening it with
    :class:`repro.bat.BATFile` is lossless. The object is also usable
    directly for in-transit analysis without touching disk.
    """

    data: bytes
    n_points: int
    bounds: Box
    #: per-attribute (lo, hi) local value ranges
    attr_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: per-attribute root bitmap (relative to the local range)
    root_bitmaps: dict[str, int] = field(default_factory=dict)
    #: bytes of structure beyond the raw particle payload
    overhead_bytes: int = 0
    raw_bytes: int = 0
    dict_entries: int = 0
    n_treelets: int = 0
    #: per-attribute binning scheme used by the file's bitmaps
    attr_binnings: dict = field(default_factory=dict)
    #: FLAG_* bits recorded in the header
    flags: int = 0
    #: column name -> codec id chosen by the build (empty for v2/v3 files)
    codec_table: dict = field(default_factory=dict)
    #: treelet payload bytes before / after per-column encoding (equal when
    #: no codecs are configured)
    payload_raw_bytes: int = 0
    payload_encoded_bytes: int = 0

    @property
    def nbytes(self) -> int:
        return len(self.data)

    @property
    def overhead_fraction(self) -> float:
        """Structure overhead relative to the raw data (paper reports ~0.9%)."""
        return self.overhead_bytes / self.raw_bytes if self.raw_bytes else 0.0

    def write(self, path) -> None:
        """Publish the image atomically (tmp file, fsync, read-back check, rename)."""
        publish_bytes(path, self.data)

    def open(self):
        """Open the image in memory for in-transit analysis (§III-C3).

        Returns a fully functional :class:`repro.bat.BATFile` without
        touching disk — the paper's "used for in transit visualization and
        analysis on the aggregators before or instead of being written".
        """
        from .file import BATFile

        return BATFile.from_bytes(self.data)


def _shallow_bitmaps_and_boxes(
    radix, leaf_bitmaps: np.ndarray, leaf_boxes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate bitmaps (OR) and bboxes (union) up the shallow tree."""
    n_inner = radix.n_inner
    n_attrs = leaf_bitmaps.shape[1]
    inner_bm = np.zeros((n_inner, n_attrs), dtype=np.uint32)
    inner_box = np.zeros((n_inner, 6), dtype=np.float32)
    if n_inner == 0:
        return inner_bm, inner_box

    # Post-order DFS from the root; children (inner or leaf) are resolved
    # before their parent.
    state = np.zeros(n_inner, dtype=np.int8)
    stack = [radix.root]
    while stack:
        node = stack[-1]
        if state[node] == 0:
            state[node] = 1
            if not radix.left_is_leaf[node]:
                stack.append(int(radix.left[node]))
            if not radix.right_is_leaf[node]:
                stack.append(int(radix.right[node]))
            continue
        stack.pop()
        if state[node] == 2:
            continue
        state[node] = 2
        parts_bm = []
        parts_box = []
        for child, is_leaf in (
            (int(radix.left[node]), radix.left_is_leaf[node]),
            (int(radix.right[node]), radix.right_is_leaf[node]),
        ):
            if is_leaf:
                parts_bm.append(leaf_bitmaps[child])
                parts_box.append(leaf_boxes[child])
            else:
                parts_bm.append(inner_bm[child])
                parts_box.append(inner_box[child])
        inner_bm[node] = parts_bm[0] | parts_bm[1]
        lo = np.minimum(parts_box[0][:3], parts_box[1][:3])
        hi = np.maximum(parts_box[0][3:], parts_box[1][3:])
        inner_box[node] = np.concatenate([lo, hi])
    return inner_bm, inner_box


def build_bat(batch: ParticleBatch, config: BATBuildConfig | None = None) -> BuiltBAT:
    """Construct the BAT over an aggregator's particles and serialize it."""
    config = config or BATBuildConfig()
    n = len(batch)
    if n == 0:
        raise ValueError("cannot build a BAT over zero particles")
    check_attr_names(batch.attributes, attr_table_dtype()["name"].itemsize)

    bounds = batch.bounds
    subprefix_bits = config.resolve_subprefix_bits(n)
    codes = encode_positions(batch.positions, bounds)
    sort_order = np.argsort(codes, kind="stable")
    uniq, pt_starts = shallow_tree_leaves(codes[sort_order], subprefix_bits)
    radix = build_radix_tree(uniq, subprefix_bits)
    n_leaves = len(uniq)

    # One independent treelet per shallow leaf (parallel in the paper),
    # built together: one pass per depth over the whole file's forest.
    forest, node_starts = build_forest(
        batch.positions[sort_order], pt_starts, config.lod_per_node, config.max_leaf_points
    )
    global_order = sort_order[forest.order]

    positions_no = batch.positions[global_order]
    attr_names = list(batch.attributes.keys())
    n_attrs = len(attr_names)
    attrs_no = {name: batch.attributes[name][global_order] for name in attr_names}
    attr_ranges = {
        name: (float(np.min(arr)), float(np.max(arr))) for name, arr in attrs_no.items()
    }
    if config.attribute_binning == "equidepth":
        attr_binnings = {name: EquiDepthBinning.fit(arr) for name, arr in attrs_no.items()}
    else:
        attr_binnings = {
            name: EquiWidthBinning(*attr_ranges[name]) for name in attr_names
        }

    # Per-treelet bitmaps -> dictionary IDs (ID 0 reserved for the empty
    # bitmap so absent attributes prune immediately). The whole forest is
    # processed in level-order numpy passes: global node ids are
    # treelet-major, one group-bitmap pass per attribute covers every
    # node's own slots at once, and one bottom-up propagation covers every
    # treelet's OR sweep.
    dictionary = BitmapDictionary()
    dictionary.add(0)
    bm_cols = max(n_attrs, 1)

    n_nodes_per = np.diff(node_starts)
    total_nodes = int(node_starts[-1])
    pts_per = np.diff(pt_starts)

    leaf_boxes = np.zeros((n_leaves, 6), dtype=np.float32)
    leaf_boxes[:, :3] = np.minimum.reduceat(positions_no, pt_starts[:-1], axis=0)
    leaf_boxes[:, 3:] = np.maximum.reduceat(positions_no, pt_starts[:-1], axis=0)

    # the forest's child links are treelet-local (what the file stores);
    # rebased they address the stacked node arrays (a leaf's -1 lands on a
    # meaningless id nothing reads: only inner nodes follow their links)
    node_base = np.repeat(node_starts[:-1], n_nodes_per)
    # own-slot slices are contiguous/ascending/tiling within each treelet,
    # so the global slot->node map is one repeat
    owner = np.repeat(np.arange(total_nodes, dtype=np.int64), forest.count)

    node_bitmaps = np.zeros((total_nodes, bm_cols), dtype=np.uint32)
    for a, name in enumerate(attr_names):
        node_bitmaps[:, a] = attr_binnings[name].group_bitmaps(
            attrs_no[name], owner, total_nodes
        )
    propagate_bitmaps_bottom_up(
        forest.axis, forest.depth, forest.left + node_base, forest.right + node_base, node_bitmaps
    )
    # each treelet's root is its local node 0
    leaf_root_bitmaps = node_bitmaps[node_starts[:-1], :].copy()

    # Intern in the same order the per-node build would (treelet-major,
    # attribute-major within a treelet) so dictionary IDs — and therefore
    # file bytes — are independent of the vectorization.
    treelet_bitmap_ids = np.zeros((total_nodes, bm_cols), dtype=np.uint16)
    if n_attrs:
        # where node g's attribute a sits in that order: after the earlier
        # treelets' blocks and a rows of its own treelet's block
        local = np.arange(total_nodes) - node_base
        at = (node_base * n_attrs + local)[:, None] + np.multiply.outer(
            np.repeat(n_nodes_per, n_nodes_per), np.arange(n_attrs)
        )
        ordered = np.empty(total_nodes * n_attrs, dtype=np.uint32)
        ordered[at] = node_bitmaps[:, :n_attrs]
        treelet_bitmap_ids[:, :n_attrs] = dictionary.add_many(ordered)[at]

    inner_bm, inner_box = _shallow_bitmaps_and_boxes(radix, leaf_root_bitmaps, leaf_boxes)

    # ---- serialize -------------------------------------------------------
    atab = np.zeros(n_attrs, dtype=attr_table_dtype())
    for a, name in enumerate(attr_names):
        atab[a]["name"] = name.encode()
        atab[a]["dtype"] = batch.attributes[name].dtype.str.encode()
        atab[a]["lo"], atab[a]["hi"] = attr_ranges[name]

    inner_dt = shallow_inner_dtype(n_attrs)
    leaf_dt = shallow_leaf_dtype(n_attrs)
    inner_rec = np.zeros(radix.n_inner, dtype=inner_dt)
    if radix.n_inner:
        inner_rec["left"] = radix.left.astype(np.uint32) | np.where(
            radix.left_is_leaf, LEAF_FLAG, np.uint32(0)
        )
        inner_rec["right"] = radix.right.astype(np.uint32) | np.where(
            radix.right_is_leaf, LEAF_FLAG, np.uint32(0)
        )
        inner_rec["bbox"] = inner_box
        if n_attrs:
            inner_rec["bitmap_ids"] = dictionary.add_many(
                inner_bm[:, :n_attrs]
            ).reshape(radix.n_inner, n_attrs)

    leaf_rec = np.zeros(n_leaves, dtype=leaf_dt)
    node_dt = treelet_node_dtype(n_attrs)
    thead_dt = treelet_header_dtype()

    attr_table_offset = HEADER_SIZE
    shallow_inner_offset = attr_table_offset + atab.nbytes
    shallow_leaf_offset = shallow_inner_offset + inner_rec.nbytes
    dict_offset = shallow_leaf_offset + leaf_rec.nbytes
    leaf_rec["n_points"] = pts_per
    leaf_rec["bbox"] = leaf_boxes
    if n_attrs:
        # each treelet's root ID row, already interned above
        leaf_rec["bitmap_ids"] = treelet_bitmap_ids[node_starts[:-1], :n_attrs]

    dict_arr = dictionary.as_array()
    binning_offset = dict_offset + dict_arr.nbytes
    binning_bytes = b""
    if n_attrs:
        edge_tables = np.stack([attr_binnings[name].edges() for name in attr_names])
        binning_bytes = pack_binning_section(
            [attr_binnings[name].kind for name in attr_names], edge_tables
        )
    treelets_offset = pad_to(binning_offset + len(binning_bytes), PAGE_SIZE)

    use_codecs = config.codecs is not None
    flags = FLAG_COLUMN_CODECS if use_codecs else 0

    # All node records in one structured array (treelet-major, so each
    # blob is a contiguous slice); the remaining loop only assembles bytes.
    all_nodes = np.zeros(total_nodes, dtype=node_dt)
    for name in ("axis", "depth", "split", "left", "right", "begin", "count", "subtree_end"):
        all_nodes[name] = getattr(forest, name)
    if n_attrs:
        all_nodes["bitmap_ids"] = treelet_bitmap_ids[:, :n_attrs]

    # Codec selection is per file and samples the *whole-file* columns, so
    # every treelet of a leaf uses the same codec per column and the choice
    # is a pure function of the input batch (the same bytes whichever
    # writer thread builds the leaf).
    codec_map: dict[str, str] = {}
    encoded_cols: dict[str, list[tuple[bytes, float, float]]] = {}
    codec_wire_names: dict[str, bytes] = {}
    if use_codecs:
        file_columns = {"nodes": all_nodes, "positions": positions_no}
        for name in attr_names:
            file_columns[name] = attrs_no[name]
        codec_map = select_codecs(file_columns, config.codecs)
        # Encode each whole-file column once, batched across treelets, so
        # per-treelet Python/struct overhead is amortized (the delta codec
        # shares one diff/zigzag pass over the entire column). Node records
        # segment on node_starts; everything else is per-point.
        segment_sources = {
            "nodes": (all_nodes, node_starts),
            "positions": (positions_no, pt_starts),
        }
        for name in attr_names:
            segment_sources[name] = (attrs_no[name], pt_starts)
        for cname, (source, seg_starts) in segment_sources.items():
            codec = get_codec(codec_map[cname])
            # the directory records the codec's wire name, which for
            # parameterized specs (quantize_auto:<bound>) is not the spec
            codec_wire_names[cname] = codec.name.encode()
            encoded_cols[cname] = codec.encode_segments(
                np.ascontiguousarray(source), seg_starts
            )

    # Treelet blobs with page alignment.
    col_dir_dt = column_dir_dtype()
    blobs: list[bytes] = []
    offsets: list[int] = []
    cursor = treelets_offset
    max_depths = np.maximum.reduceat(forest.depth, node_starts[:-1])
    payload_raw_total = 0
    payload_enc_total = 0
    for k in range(n_leaves):
        nodes = all_nodes[node_starts[k] : node_starts[k + 1]]
        seg = slice(int(pt_starts[k]), int(pt_starts[k + 1]))
        th = np.zeros(1, dtype=thead_dt)
        th[0]["n_nodes"] = n_nodes_per[k]
        th[0]["n_points"] = pts_per[k]
        th[0]["max_depth"] = max_depths[k]

        if use_codecs:
            columns = [("nodes", nodes), ("positions", positions_no[seg])]
            columns += [(name, attrs_no[name][seg]) for name in attr_names]
            col_dir = np.zeros(len(columns), dtype=col_dir_dt)
            payload_parts = []
            raw_nbytes = 0
            for i, (cname, arr) in enumerate(columns):
                enc, p0, p1 = encoded_cols[cname][k]
                col_dir[i]["codec"] = codec_wire_names[cname]
                col_dir[i]["enc_nbytes"] = len(enc)
                col_dir[i]["raw_nbytes"] = arr.nbytes
                col_dir[i]["p0"] = p0
                col_dir[i]["p1"] = p1
                raw_nbytes += arr.nbytes
                payload_parts.append(enc)
            th[0]["raw_nbytes"] = raw_nbytes
            payload = col_dir.tobytes() + b"".join(payload_parts)
            payload_raw_total += raw_nbytes
            payload_enc_total += sum(len(p) for p in payload_parts)
        else:
            payload_parts = [nodes.tobytes(), np.ascontiguousarray(positions_no[seg]).tobytes()]
            for name in attr_names:
                payload_parts.append(np.ascontiguousarray(attrs_no[name][seg]).tobytes())
            payload = b"".join(payload_parts)
            payload_raw_total += len(payload)
            payload_enc_total += len(payload)
        blob = th.tobytes() + payload

        aligned = pad_to(cursor, PAGE_SIZE)
        offsets.append(aligned)
        leaf_rec[k]["treelet_offset"] = aligned
        leaf_rec[k]["treelet_nbytes"] = len(blob)
        cursor = aligned + len(blob)
        blobs.append(blob)

    footer_offset = cursor
    file_size = footer_offset + footer_size(n_leaves) if config.checksums else cursor
    header = Header(
        n_points=n,
        n_attrs=n_attrs,
        morton_bits=MAX_BITS,
        subprefix_bits=subprefix_bits,
        lod_per_node=config.lod_per_node,
        max_leaf_points=config.max_leaf_points,
        n_shallow_inner=radix.n_inner,
        n_shallow_leaves=n_leaves,
        dict_entries=len(dictionary),
        max_treelet_depth=int(max_depths.max()),
        bounds=bounds.as_array(),
        attr_table_offset=attr_table_offset,
        shallow_inner_offset=shallow_inner_offset,
        shallow_leaf_offset=shallow_leaf_offset,
        dict_offset=dict_offset,
        treelets_offset=treelets_offset,
        file_size=file_size,
        flags=flags,
        binning_offset=binning_offset if n_attrs else 0,
        footer_offset=footer_offset if config.checksums else 0,
        version=CODEC_VERSION if use_codecs else (VERSION if config.checksums else LEGACY_VERSION),
    )

    out = bytearray(file_size)
    out[0:HEADER_SIZE] = header.pack()
    out[attr_table_offset : attr_table_offset + atab.nbytes] = atab.tobytes()
    out[shallow_inner_offset : shallow_inner_offset + inner_rec.nbytes] = inner_rec.tobytes()
    out[shallow_leaf_offset : shallow_leaf_offset + leaf_rec.nbytes] = leaf_rec.tobytes()
    out[dict_offset : dict_offset + dict_arr.nbytes] = dict_arr.tobytes()
    out[binning_offset : binning_offset + len(binning_bytes)] = binning_bytes
    for off, blob in zip(offsets, blobs):
        out[off : off + len(blob)] = blob

    if config.checksums:
        section_crcs = {
            name: zlib.crc32(out[o : o + nb])
            for name, (o, nb) in header.section_extents().items()
        }
        treelet_crcs = [
            zlib.crc32(out[off : off + len(blob)]) for off, blob in zip(offsets, blobs)
        ]
        digest = zlib.crc32(out[:footer_offset])
        out[footer_offset:file_size] = pack_footer(section_crcs, treelet_crcs, digest)

    raw = batch.nbytes
    root_bitmaps = {}
    for a, name in enumerate(attr_names):
        if radix.n_inner:
            root_bitmaps[name] = int(inner_bm[radix.root, a])
        else:
            root_bitmaps[name] = int(leaf_root_bitmaps[0, a])

    return BuiltBAT(
        data=bytes(out),
        n_points=n,
        bounds=bounds,
        attr_ranges=attr_ranges,
        root_bitmaps=root_bitmaps,
        overhead_bytes=file_size - raw,
        raw_bytes=raw,
        dict_entries=len(dictionary),
        n_treelets=n_leaves,
        attr_binnings=attr_binnings,
        flags=flags,
        codec_table=dict(codec_map),
        payload_raw_bytes=payload_raw_total,
        payload_encoded_bytes=payload_enc_total,
    )
