"""On-disk BAT file format (paper §III-C3, Fig 2).

Layout, in file order::

    header (256 B, fixed)
    attribute table          (64 B per attribute)
    shallow inner nodes      (structured records)
    shallow leaf nodes       (structured records, treelet offsets)
    bitmap dictionary        (u32 per entry)
    -- pad to 4 KB --
    treelet 0 (4 KB aligned) : treelet header | nodes | positions | attrs...
    treelet 1 (4 KB aligned)
    ...

Everything frequently touched during traversal (tree + dictionary) sits at
the start of the file; treelets are page-aligned for memory-mapped access.
All integers are little-endian.

Version 3 appends a checksum footer after the last treelet::

    footer magic "BATC" | footer version | n_treelets
    CRC32 per metadata section (header, attr table, shallow inner,
        shallow leaves, dictionary, binning)
    CRC32 per treelet block
    whole-file digest (CRC32 of every byte before the footer)
    footer CRC32

and stores a self-contained header CRC32 in the header's last four bytes,
so a flipped bit in the header itself is caught before any offset in it is
trusted. Version-2 files (no checksums) remain readable.

Version 4 re-encodes each treelet column-by-column. The treelet block
becomes::

    treelet header (16 B, raw_nbytes = decoded payload size)
    column directory: 48 B per column for nodes, positions, attr 0..N-1
        (codec id | encoded bytes | raw bytes | two f8 codec params)
    encoded column payloads, back to back

The directory sits inside the treelet block, so the existing per-treelet
footer CRCs cover codec ids and sizes with no new trust machinery. Codecs
live in :mod:`repro.bat.codecs`; v2/v3 files remain readable.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import IntegrityError

__all__ = [
    "MAGIC",
    "VERSION",
    "LEGACY_VERSION",
    "CHECKSUM_VERSION",
    "CODEC_VERSION",
    "SUPPORTED_VERSIONS",
    "column_dir_dtype",
    "HEADER_SIZE",
    "PAGE_SIZE",
    "Header",
    "Footer",
    "METADATA_SECTIONS",
    "footer_size",
    "pack_footer",
    "unpack_footer",
    "attr_table_dtype",
    "check_attr_names",
    "shallow_inner_dtype",
    "shallow_leaf_dtype",
    "treelet_node_dtype",
    "child_links_ok",
    "node_fault",
    "treelet_header_dtype",
    "LEAF_FLAG",
]

MAGIC = b"BATF"
#: default write version: checksummed, raw columns (byte-identical to PR 4)
VERSION = 3
#: first version with the checksum footer / header self-CRC
CHECKSUM_VERSION = 3
#: first version with per-column codecs (treelet column directory)
CODEC_VERSION = 4
#: last pre-checksum version; still readable, no integrity verification
LEGACY_VERSION = 2
SUPPORTED_VERSIONS = (LEGACY_VERSION, VERSION, CODEC_VERSION)
HEADER_SIZE = 256
PAGE_SIZE = 4096
#: the header CRC32 covers bytes [0, HEADER_CRC_OFFSET) and is stored
#: little-endian in the header's final four bytes (version >= 3)
HEADER_CRC_OFFSET = HEADER_SIZE - 4

#: High bit of a shallow inner node's child field: set when the child is a
#: shallow *leaf* index rather than another inner node.
LEAF_FLAG = np.uint32(0x80000000)

#: header flag (read, no longer written): treelet positions stored as
#: uint16 quantized against the shallow leaf's bounding box (6 B/particle
#: instead of 12 B), lossy to ~1/65535 of the leaf extent. The v4
#: ``quantize{b}`` codecs supersede it.
FLAG_QUANTIZED_POSITIONS = 0x1
#: header flag (read, no longer written): each v2/v3 treelet's payload
#: (nodes + positions + attributes) is one zlib stream, inflated on first
#: access. The v4 per-column ``zlib`` codec supersedes it.
FLAG_COMPRESSED_TREELETS = 0x2
#: header flag: treelets carry a per-column codec directory (version >= 4);
#: columns decode independently, and only when a query touches them.
FLAG_COLUMN_CODECS = 0x4

_HEADER_FMT = "<4sI Q IIIIII III 6d 9Q"
_HEADER_FIELDS = struct.calcsize(_HEADER_FMT)
assert _HEADER_FIELDS <= HEADER_CRC_OFFSET


@dataclass
class Header:
    """Parsed fixed-size file header."""

    n_points: int
    n_attrs: int
    morton_bits: int
    subprefix_bits: int
    lod_per_node: int
    max_leaf_points: int
    n_shallow_inner: int
    n_shallow_leaves: int
    dict_entries: int
    max_treelet_depth: int
    bounds: np.ndarray  # (2, 3) float64 local bounds
    attr_table_offset: int
    shallow_inner_offset: int
    shallow_leaf_offset: int
    dict_offset: int
    treelets_offset: int
    file_size: int
    #: FLAG_* bits
    flags: int = 0
    #: offset of the binning section (per-attr kind bytes + edge tables);
    #: 0 when the file has no attributes
    binning_offset: int = 0
    #: offset of the checksum footer; 0 in legacy (version-2) files
    footer_offset: int = 0
    #: on-disk format version this header was read from / will pack as
    version: int = field(default=VERSION, compare=False)

    def pack(self) -> bytes:
        b = self.bounds.reshape(6)
        raw = struct.pack(
            _HEADER_FMT,
            MAGIC,
            self.version,
            self.n_points,
            self.n_attrs,
            self.morton_bits,
            self.subprefix_bits,
            self.lod_per_node,
            self.max_leaf_points,
            self.n_shallow_inner,
            self.n_shallow_leaves,
            self.dict_entries,
            self.max_treelet_depth,
            *b.tolist(),
            self.attr_table_offset,
            self.shallow_inner_offset,
            self.shallow_leaf_offset,
            self.dict_offset,
            self.treelets_offset,
            self.file_size,
            self.flags,
            self.binning_offset,
            self.footer_offset,
        )
        out = bytearray(raw.ljust(HEADER_SIZE, b"\0"))
        if self.version >= CHECKSUM_VERSION:
            crc = zlib.crc32(bytes(out[:HEADER_CRC_OFFSET]))
            out[HEADER_CRC_OFFSET:HEADER_SIZE] = struct.pack("<I", crc)
        return bytes(out)

    @staticmethod
    def unpack(raw: bytes) -> "Header":
        if len(raw) < HEADER_SIZE:
            raise IntegrityError("not a BAT file (truncated BAT header)", section="header")
        vals = struct.unpack(_HEADER_FMT, raw[:_HEADER_FIELDS])
        magic, version = vals[0], vals[1]
        if magic != MAGIC:
            raise IntegrityError(f"not a BAT file (magic {magic!r})", section="header")
        if version not in SUPPORTED_VERSIONS:
            raise IntegrityError(f"unsupported BAT version {version}", section="header")
        if version >= CHECKSUM_VERSION:
            # the header carries its own CRC so none of its offsets are
            # trusted (e.g. to find the footer) if the header itself is bad
            (stored,) = struct.unpack_from("<I", raw, HEADER_CRC_OFFSET)
            actual = zlib.crc32(bytes(raw[:HEADER_CRC_OFFSET]))
            if stored != actual:
                raise IntegrityError(
                    f"BAT header checksum mismatch "
                    f"(stored {stored:#010x}, computed {actual:#010x})",
                    section="header",
                )
        bounds = np.array(vals[12:18], dtype=np.float64).reshape(2, 3)
        return Header(
            n_points=vals[2],
            n_attrs=vals[3],
            morton_bits=vals[4],
            subprefix_bits=vals[5],
            lod_per_node=vals[6],
            max_leaf_points=vals[7],
            n_shallow_inner=vals[8],
            n_shallow_leaves=vals[9],
            dict_entries=vals[10],
            max_treelet_depth=vals[11],
            bounds=bounds,
            attr_table_offset=vals[18],
            shallow_inner_offset=vals[19],
            shallow_leaf_offset=vals[20],
            dict_offset=vals[21],
            treelets_offset=vals[22],
            file_size=vals[23],
            flags=vals[24],
            binning_offset=vals[25],
            footer_offset=vals[26],
            version=version,
        )

    def section_extents(self) -> dict[str, tuple[int, int]]:
        """(offset, nbytes) of every metadata section, in file order.

        Sizes are derived from the counts in the header, so the extents are
        only meaningful once the header itself has been validated.
        """
        n_attrs = self.n_attrs
        binning_nbytes = (
            pad_to(max(n_attrs, 1), 8) + n_attrs * 33 * 8 if self.binning_offset else 0
        )
        return {
            "header": (0, HEADER_SIZE),
            "attr_table": (self.attr_table_offset, n_attrs * attr_table_dtype().itemsize),
            "shallow_inner": (
                self.shallow_inner_offset,
                self.n_shallow_inner * shallow_inner_dtype(n_attrs).itemsize,
            ),
            "shallow_leaves": (
                self.shallow_leaf_offset,
                self.n_shallow_leaves * shallow_leaf_dtype(n_attrs).itemsize,
            ),
            "dictionary": (self.dict_offset, self.dict_entries * 4),
            "binning": (self.binning_offset, binning_nbytes),
        }


def attr_table_dtype() -> np.dtype:
    """64-byte attribute descriptor: name, numpy dtype string, local range."""
    return np.dtype(
        [("name", "S40"), ("dtype", "S8"), ("lo", "<f8"), ("hi", "<f8")]
    )


def check_attr_names(names, name_bytes: int) -> None:
    """Reject names a NUL-padded ``name_bytes``-wide table field cannot hold.

    The attribute table is a leaf file's only record of a name: one that
    does not fit would read back as a different (or another column's)
    name. Shared by every layout that stores names this way.
    """
    for name in names:
        raw = name.encode()
        if len(raw) > name_bytes or b"\0" in raw:
            raise ValueError(
                f"attribute name {name!r} does not fit the file's attribute table: "
                f"at most {name_bytes} UTF-8 bytes and no NUL, got {len(raw)}"
            )


def shallow_inner_dtype(n_attrs: int) -> np.dtype:
    """Shallow (Karras) inner node: children, bbox, per-attr bitmap IDs."""
    return np.dtype(
        [
            ("left", "<u4"),
            ("right", "<u4"),
            ("bbox", "<f4", (6,)),
            ("bitmap_ids", "<u2", (max(n_attrs, 1),)),
        ]
    )


def shallow_leaf_dtype(n_attrs: int) -> np.dtype:
    """Shallow leaf: where its treelet lives, plus bbox and bitmap IDs."""
    return np.dtype(
        [
            ("treelet_offset", "<u8"),
            ("treelet_nbytes", "<u8"),
            ("n_points", "<u8"),
            ("bbox", "<f4", (6,)),
            ("bitmap_ids", "<u2", (max(n_attrs, 1),)),
        ]
    )


def treelet_node_dtype(n_attrs: int) -> np.dtype:
    """Treelet k-d node; ``axis == -1`` marks a leaf."""
    return np.dtype(
        [
            ("axis", "i1"),
            ("pad", "u1"),
            ("depth", "<u2"),
            ("split", "<f4"),
            ("left", "<i4"),
            ("right", "<i4"),
            ("begin", "<u4"),
            ("count", "<u4"),
            ("subtree_end", "<u4"),
            ("bitmap_ids", "<u2", (max(n_attrs, 1),)),
        ]
    )


def child_links_ok(node, left, right, n_nodes):
    """Where inner nodes' child links stay inside their treelet and point
    forward: ``node < child < n_nodes`` for both children (node records
    are in pre-order). Array-wise over any number of nodes."""
    return (node < left) & (left < n_nodes) & (node < right) & (right < n_nodes)


def node_fault(axis, left, right, begin, count, subtree_end, n_points: int) -> str | None:
    """The first broken per-node invariant of one treelet, or ``None``.

    Array-wise over the treelet's node fields (one entry per node, node ids
    local to the treelet). Each node's own slice ``[begin, begin + count)``
    starts its subtree slice ``[begin, subtree_end)``, which lies in
    ``[0, n_points)``; an inner node's children pass
    :func:`child_links_ok`, the left one starts right after the parent's
    own particles, the right one ends with the parent's subtree, and no gap
    lies between them; and the own slices partition ``[0, n_points)``.
    The message names the first offending node.
    """
    n = len(axis)
    if n == 0:
        return "no nodes"
    b, c, e = (np.asarray(a, dtype=np.int64) for a in (begin, count, subtree_end))
    bad = np.flatnonzero((b + c > e) | (e > n_points))
    if len(bad):
        i = bad[0]
        return f"node {i}: bad slice [{b[i]}, {b[i] + c[i]}, {e[i]})"
    inner = np.flatnonzero(np.asarray(axis) >= 0)
    l = np.asarray(left, dtype=np.int64)[inner]
    r = np.asarray(right, dtype=np.int64)[inner]
    bad = np.flatnonzero(~child_links_ok(inner, l, r, n))
    if len(bad):
        return f"node {inner[bad[0]]}: children must follow parent"
    bad = np.flatnonzero((b[l] != b[inner] + c[inner]) | (e[r] != e[inner]))
    if len(bad):
        return f"node {inner[bad[0]]}: children do not tile subtree"
    bad = np.flatnonzero(e[l] != b[r])
    if len(bad):
        return f"node {inner[bad[0]]}: gap between children"
    # own-slot coverage via a difference array (+1 at begin, -1 at
    # begin + count): the prefix sums are all 1 iff the slices partition
    cover = np.zeros(n_points + 1, dtype=np.int64)
    np.add.at(cover, b, 1)
    np.add.at(cover, b + c, -1)
    if (np.cumsum(cover[:-1]) != 1).any():
        return "node slices do not partition the particles"
    return None


def column_dir_dtype() -> np.dtype:
    """48-byte per-column codec descriptor in a version-4 treelet.

    One record per column in on-disk order: node records, positions, then
    each attribute. ``p0``/``p1`` are codec parameters (for ``quantize{b}``
    the range origin and quantization step, from which the recorded error
    bound derives).
    """
    return np.dtype(
        [
            ("codec", "S16"),
            ("enc_nbytes", "<u8"),
            ("raw_nbytes", "<u8"),
            ("p0", "<f8"),
            ("p1", "<f8"),
        ]
    )


def treelet_header_dtype() -> np.dtype:
    """16-byte treelet preamble; ``raw_nbytes`` is the decompressed payload
    size (0 for uncompressed files)."""
    return np.dtype(
        [("n_nodes", "<u4"), ("n_points", "<u4"), ("max_depth", "<u4"), ("raw_nbytes", "<u4")]
    )


def pad_to(offset: int, alignment: int) -> int:
    """Next multiple of ``alignment`` at or after ``offset``."""
    return (offset + alignment - 1) // alignment * alignment


# -- checksum footer (version >= 3) ----------------------------------------

FOOTER_MAGIC = b"BATC"
FOOTER_VERSION = 1
#: metadata sections covered by the footer's fixed CRC block, in order
METADATA_SECTIONS = (
    "header",
    "attr_table",
    "shallow_inner",
    "shallow_leaves",
    "dictionary",
    "binning",
)
_FOOTER_FIXED = struct.calcsize("<4sII") + 4 * len(METADATA_SECTIONS)


@dataclass
class Footer:
    """Parsed checksum footer of a version-3 file."""

    section_crcs: dict[str, int]
    treelet_crcs: np.ndarray  # (n_treelets,) uint32
    #: CRC32 of every byte before the footer
    file_digest: int


def footer_size(n_treelets: int) -> int:
    """On-disk footer size: fixed block + one CRC per treelet + digest + CRC."""
    return _FOOTER_FIXED + 4 * n_treelets + 8


def pack_footer(section_crcs: dict[str, int], treelet_crcs, file_digest: int) -> bytes:
    crcs = np.ascontiguousarray(treelet_crcs, dtype="<u4")
    body = struct.pack("<4sII", FOOTER_MAGIC, FOOTER_VERSION, len(crcs))
    body += struct.pack(
        f"<{len(METADATA_SECTIONS)}I", *(section_crcs[s] for s in METADATA_SECTIONS)
    )
    body += crcs.tobytes()
    body += struct.pack("<I", file_digest)
    return body + struct.pack("<I", zlib.crc32(body))


def unpack_footer(buf, offset: int, n_treelets: int) -> Footer:
    """Parse and self-verify the footer at ``offset``.

    ``n_treelets`` comes from the (already CRC-verified) header; a mismatch
    means the footer does not belong to this file.
    """
    size = footer_size(n_treelets)
    if offset <= 0 or offset + size > len(buf):
        raise IntegrityError(
            f"BAT footer out of bounds (offset {offset}, need {size} bytes)",
            section="footer",
        )
    raw = bytes(buf[offset : offset + size])
    (stored,) = struct.unpack_from("<I", raw, size - 4)
    if zlib.crc32(raw[: size - 4]) != stored:
        raise IntegrityError("BAT footer checksum mismatch", section="footer")
    magic, version, count = struct.unpack_from("<4sII", raw, 0)
    if magic != FOOTER_MAGIC:
        raise IntegrityError(f"bad BAT footer magic {magic!r}", section="footer")
    if version != FOOTER_VERSION:
        raise IntegrityError(f"unsupported BAT footer version {version}", section="footer")
    if count != n_treelets:
        raise IntegrityError(
            f"BAT footer treelet count mismatch (footer {count}, header {n_treelets})",
            section="footer",
        )
    fields = struct.unpack_from(f"<{len(METADATA_SECTIONS)}I", raw, struct.calcsize("<4sII"))
    section_crcs = dict(zip(METADATA_SECTIONS, fields))
    treelet_crcs = np.frombuffer(raw, dtype="<u4", count=n_treelets, offset=_FOOTER_FIXED)
    (file_digest,) = struct.unpack_from("<I", raw, _FOOTER_FIXED + 4 * n_treelets)
    return Footer(section_crcs=section_crcs, treelet_crcs=treelet_crcs, file_digest=file_digest)


def pack_binning_section(kinds: list[int], edge_tables: np.ndarray) -> bytes:
    """Serialize per-attribute binning info.

    ``kinds`` is one code per attribute (see :mod:`repro.binning`);
    ``edge_tables`` is ``(n_attrs, 33)`` float64 (zeros for attributes whose
    binning derives its edges from the (lo, hi) range).
    """
    n = len(kinds)
    kind_bytes = bytes(kinds).ljust(pad_to(max(n, 1), 8), b"\0")
    return kind_bytes + np.ascontiguousarray(edge_tables, dtype="<f8").tobytes()


def unpack_binning_section(buf, offset: int, n_attrs: int) -> tuple[list[int], np.ndarray]:
    """Inverse of :func:`pack_binning_section`."""
    kinds = list(buf[offset : offset + n_attrs])
    edges_off = offset + pad_to(max(n_attrs, 1), 8)
    edges = np.frombuffer(buf, dtype="<f8", count=n_attrs * 33, offset=edges_off)
    return kinds, edges.reshape(n_attrs, 33)
