"""Damage checking: tell a damaged file or dataset from a good one before a
restart read or a reorganization consumes it.

:func:`scrub_file` runs two layers:

1. **Checksums**, over raw bytes. This layer never builds numpy views over
   unverified regions, so it survives — and precisely localizes — arbitrary
   corruption: it names the exact bad section (``header``, ``dictionary``,
   ``treelet 12``, ...) instead of failing to parse. It follows the trust
   chain of the format: the self-contained header CRC first (nothing in a
   damaged header is trusted), then the footer's own CRC, then each
   metadata section, then each treelet (whose offsets come from the — by
   then verified — shallow-leaf section), then the whole-file digest, which
   catches flips in alignment padding that no section covers.
2. **Structure**, over the opened file, when the checksums passed or the
   file is a legacy version 2 one, which carries none: section offsets in
   order, every shallow leaf reachable exactly once, page alignment, leaf
   point counts summing to the header's, bitmap IDs inside the dictionary.
   ``deep=True`` adds every treelet: the per-node invariants of
   :func:`~repro.bat.format.node_fault`, child depths, bitmap containment
   and particles inside their leaf's (slightly padded) bbox.

:func:`scrub_dataset` scrubs every leaf file a manifest names and
cross-checks each against it (counts, bounds, attribute ranges).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import IntegrityError
from .file import BATFile
from .format import (
    CHECKSUM_VERSION,
    HEADER_CRC_OFFSET,
    HEADER_SIZE,
    LEGACY_VERSION,
    MAGIC,
    PAGE_SIZE,
    SUPPORTED_VERSIONS,
    Header,
    node_fault,
    shallow_leaf_dtype,
    unpack_footer,
)

__all__ = ["FileScrubReport", "DatasetScrubReport", "scrub_file", "scrub_dataset"]


@dataclass
class FileScrubReport:
    """Findings for one file."""

    path: str
    #: "ok" | "legacy" (version 2: no checksums, structure checked) |
    #: "corrupt" | "missing" | "error"
    status: str = "ok"
    version: int | None = None
    #: number of checks run: CRCs verified plus structural checks
    checked: int = 0
    #: exact sections whose checksums failed
    bad_sections: list[str] = field(default_factory=list)
    #: structural findings, and disagreements with the manifest
    errors: list[str] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "legacy")

    def check(self, condition: bool, msg: str) -> bool:
        """Count one structural check; a failed one is a finding."""
        self.checked += 1
        if not condition:
            self.errors.append(msg)
            self.status = "corrupt"
        return condition

    def summary(self) -> str:
        if self.status == "ok":
            head = f"{self.path}: OK ({self.checked} checks)"
        elif self.status == "legacy":
            head = f"{self.path}: LEGACY v{LEGACY_VERSION} (no checksums, {self.checked} checks)"
        elif self.status == "missing":
            head = f"{self.path}: MISSING"
        else:
            what = ", ".join(self.bad_sections) or self.detail or f"{len(self.errors)} error(s)"
            head = f"{self.path}: {self.status.upper()} ({what})"
        return "\n".join([head, *(f"  error: {e}" for e in self.errors)])

    def to_doc(self) -> dict:
        return {
            "path": self.path,
            "status": self.status,
            "version": self.version,
            "checked": self.checked,
            "bad_sections": list(self.bad_sections),
            "errors": list(self.errors),
            "detail": self.detail,
        }


@dataclass
class DatasetScrubReport:
    """Findings for a manifest and every leaf file it names."""

    path: str
    files: list[FileScrubReport] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not self.detail and all(f.ok for f in self.files)

    @property
    def checked(self) -> int:
        return sum(f.checked for f in self.files)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.files:
            out[f.status] = out.get(f.status, 0) + 1
        return out

    def summary(self) -> str:
        status = "OK" if self.ok else "CORRUPT"
        counts = ", ".join(f"{v} {k}" for k, v in sorted(self.counts.items()))
        lines = [f"{self.path}: {status} ({len(self.files)} leaf files: {counts})"]
        if self.detail:
            lines.append(f"  manifest: {self.detail}")
        lines += [f"  {line}" for f in self.files for line in f.summary().splitlines()]
        return "\n".join(lines)

    def to_doc(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "checked": self.checked,
            "detail": self.detail,
            "files": [f.to_doc() for f in self.files],
        }


def scrub_file(path, deep: bool = False) -> FileScrubReport:
    """Check one BAT file: every checksum from raw bytes, then its structure
    (``deep=True`` adds every treelet's)."""
    r = FileScrubReport(path=str(path))
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        r.status = "missing"
        r.detail = "file does not exist"
        return r
    except OSError as exc:
        r.status = "error"
        r.detail = str(exc)
        return r
    _verify_checksums(data, r)
    if r.ok:
        _check_structure(data, r, deep)
    return r


def _verify_checksums(data: bytes, r: FileScrubReport) -> None:
    if len(data) < HEADER_SIZE:
        r.status = "corrupt"
        r.bad_sections.append("header")
        r.detail = f"truncated: {len(data)} bytes, header needs {HEADER_SIZE}"
        return
    magic, version = struct.unpack_from("<4sI", data, 0)
    if magic != MAGIC:
        r.status = "corrupt"
        r.bad_sections.append("header")
        r.detail = f"bad magic {magic!r}"
        return
    r.version = int(version)
    if version == LEGACY_VERSION:
        r.status = "legacy"
        r.detail = "legacy version-2 file carries no checksums"
        return
    if version not in SUPPORTED_VERSIONS or version < CHECKSUM_VERSION:
        r.status = "corrupt"
        r.bad_sections.append("header")
        r.detail = f"unsupported version {version}"
        return

    # 1. self-contained header CRC — nothing in a damaged header is trusted
    (stored,) = struct.unpack_from("<I", data, HEADER_CRC_OFFSET)
    r.checked += 1
    if zlib.crc32(data[:HEADER_CRC_OFFSET]) != stored:
        r.status = "corrupt"
        r.bad_sections.append("header")
        r.detail = "header checksum mismatch; offsets untrusted, deeper checks skipped"
        return
    header = Header.unpack(data[:HEADER_SIZE])
    if header.file_size != len(data):
        # header is intact, so the file itself was truncated or extended
        r.status = "corrupt"
        r.bad_sections.append("file")
        r.detail = f"file is {len(data)} bytes, header says {header.file_size}"

    # 2. footer (self-verifying)
    try:
        footer = unpack_footer(data, header.footer_offset, header.n_shallow_leaves)
        r.checked += 1
    except IntegrityError as exc:
        r.status = "corrupt"
        r.bad_sections.append("footer")
        r.detail = str(exc)
        return

    # 3. metadata sections
    for name, (off, nbytes) in header.section_extents().items():
        r.checked += 1
        if off + nbytes > len(data) or zlib.crc32(data[off : off + nbytes]) != footer.section_crcs[name]:
            r.bad_sections.append(name)

    # 4. treelets — offsets come from the shallow-leaf section, so they are
    # only trusted once that section verified
    if "shallow_leaves" not in r.bad_sections:
        leaves = np.frombuffer(
            data,
            dtype=shallow_leaf_dtype(header.n_attrs),
            count=header.n_shallow_leaves,
            offset=header.shallow_leaf_offset,
        )
        offs = leaves["treelet_offset"].astype(np.int64)
        nbs = leaves["treelet_nbytes"].astype(np.int64)
        for k in range(header.n_shallow_leaves):
            r.checked += 1
            off, nb = int(offs[k]), int(nbs[k])
            if (
                off < 0
                or off + nb > len(data)
                or zlib.crc32(data[off : off + nb]) != int(footer.treelet_crcs[k])
            ):
                r.bad_sections.append(f"treelet {k}")

    # 5. whole-file digest: catches flips in alignment padding between
    # sections, which no per-section CRC covers. Only reported when no
    # section was flagged — otherwise the mismatch is already explained.
    r.checked += 1
    if (
        0 < header.footer_offset <= len(data)
        and zlib.crc32(data[: header.footer_offset]) != footer.file_digest
        and not r.bad_sections
    ):
        r.bad_sections.append("file digest")

    if r.bad_sections:
        r.status = "corrupt"


def _first(mask) -> int:
    """Index of the first true entry of ``mask``; ``-1`` when there is none."""
    idx = np.flatnonzero(mask)
    return int(idx[0]) if len(idx) else -1


def _check_structure(data: bytes, r: FileScrubReport, deep: bool) -> None:
    try:
        bat = BATFile.from_bytes(data, name=r.path)
    except Exception as exc:  # noqa: BLE001 - any parse failure is the finding
        r.check(False, f"cannot open: {exc}")
        return
    with bat:
        h = bat.header
        r.check(h.n_points > 0, "file holds zero particles")
        r.check(
            h.attr_table_offset
            <= h.shallow_inner_offset
            <= h.shallow_leaf_offset
            <= h.dict_offset
            <= h.treelets_offset,
            "section offsets out of order",
        )
        r.check(h.treelets_offset % PAGE_SIZE == 0, "treelet section not page aligned")

        # shallow tree reachability
        root, root_is_leaf = bat.root()
        seen_leaves: set[int] = set()
        seen_inner: set[int] = set()
        stack = [(root, root_is_leaf)]
        while stack:
            idx, is_leaf = stack.pop()
            if is_leaf:
                if not r.check(0 <= idx < h.n_shallow_leaves, f"leaf index {idx} out of range"):
                    continue
                if not r.check(idx not in seen_leaves, f"leaf {idx} reached twice"):
                    continue
                seen_leaves.add(idx)
            else:
                n_inner = max(h.n_shallow_inner, 1)
                if not r.check(0 <= idx < n_inner, f"inner index {idx} out of range"):
                    continue
                if not r.check(idx not in seen_inner, f"inner {idx} reached twice (cycle?)"):
                    continue
                seen_inner.add(idx)
                stack.extend(bat.children(idx))
        unreached = sorted(set(range(h.n_shallow_leaves)) - seen_leaves)
        r.check(not unreached, f"unreachable shallow leaves: {unreached[:5]}")

        # leaf records, every leaf at once; failures name the first
        offs = bat.shallow_leaves["treelet_offset"].astype(np.int64)
        nbs = bat.shallow_leaves["treelet_nbytes"].astype(np.int64)
        k = _first(offs % PAGE_SIZE != 0)
        r.check(k < 0, f"treelet {k} not page aligned")
        k = _first(offs + nbs > h.file_size)
        r.check(k < 0, f"treelet {k} extends past end of file")
        total = int(bat.shallow_leaves["n_points"].astype(np.int64).sum())
        r.check(total == h.n_points, f"leaf point counts sum to {total}, header says {h.n_points}")
        for arr in (bat.shallow_inner, bat.shallow_leaves):
            if len(arr):
                r.check(
                    int(arr["bitmap_ids"].max(initial=0)) < max(h.dict_entries, 1),
                    "shallow-node bitmap ID exceeds dictionary",
                )

        if deep:
            for leaf in range(h.n_shallow_leaves):
                _check_treelet(bat, leaf, r)


def _check_treelet(bat: BATFile, leaf: int, r: FileScrubReport) -> None:
    try:
        tv = bat.treelet(leaf)
        nodes = tv.nodes
    except Exception as exc:  # noqa: BLE001
        r.check(False, f"treelet {leaf}: cannot load ({exc})")
        return
    if not r.check(
        tv.n_points == int(bat.shallow_leaves[leaf]["n_points"]),
        f"treelet {leaf}: point count mismatch",
    ):
        return
    fault = node_fault(
        nodes["axis"], nodes["left"], nodes["right"], nodes["begin"], nodes["count"],
        nodes["subtree_end"], tv.n_points,
    )
    if not r.check(fault is None, f"treelet {leaf} {fault}"):
        return
    inner = np.flatnonzero(nodes["axis"] >= 0)
    if len(inner):
        depth = nodes["depth"].astype(np.int64)
        if bat.header.n_attrs:
            bitmaps = np.asarray(bat.dictionary, dtype=np.uint32)[nodes["bitmap_ids"]]
        for side in ("left", "right"):
            child = nodes[side][inner]
            i = _first(depth[child] != depth[inner] + 1)
            r.check(i < 0, f"treelet {leaf} node {inner[i]}: {side} child depth not parent+1")
            if bat.header.n_attrs:
                # a parent's bitmaps cover its child's, every attribute at once
                i = _first(((bitmaps[inner] & bitmaps[child]) != bitmaps[child]).any(axis=1))
                r.check(i < 0, f"treelet {leaf} node {inner[i]}: {side} child bitmap not contained")

    # particles inside the leaf bbox (padded for float32 rounding / quantization)
    box = bat.leaf_box(leaf)
    ext = np.maximum(box.extents, 1e-6)
    lo = (np.asarray(box.lower) - 1e-4 * ext).astype(np.float32)
    hi = (np.asarray(box.upper) + 1e-4 * ext).astype(np.float32)
    inside = ((tv.positions >= lo) & (tv.positions <= hi)).all()
    r.check(bool(inside), f"treelet {leaf}: particles outside leaf bounds")


def scrub_dataset(metadata_path, deep: bool = False) -> DatasetScrubReport:
    """Scrub a manifest and every leaf file it names, cross-checking each
    BAT leaf against the manifest. Other layouts carry neither checksums
    nor a BAT structure, so only their leaves' existence is checked."""
    from ..core.metadata import DatasetMetadata

    metadata_path = Path(metadata_path)
    report = DatasetScrubReport(path=str(metadata_path))
    try:
        meta = DatasetMetadata.load(metadata_path)
    except FileNotFoundError:
        report.detail = "manifest does not exist"
        return report
    except (ValueError, OSError) as exc:
        report.detail = f"cannot load manifest: {exc}"
        return report
    for leaf in meta.leaves:
        fpath = metadata_path.parent / leaf.file_name
        if meta.layout != "bat":
            r = FileScrubReport(path=str(fpath), checked=1)
            if not fpath.exists():
                r.status, r.detail = "missing", "file does not exist"
        else:
            r = scrub_file(fpath, deep)
            if r.ok:
                with BATFile(fpath) as f:
                    r.check(
                        f.n_points == leaf.count,
                        f"manifest says {leaf.count} points, file has {f.n_points}",
                    )
                    r.check(
                        leaf.bounds.contains_box(f.bounds) or f.bounds.contains_box(leaf.bounds),
                        "bounds disagree with manifest",
                    )
                    for name, (lo, hi) in f.attr_ranges.items():
                        glo, ghi = meta.attr_ranges.get(name, (None, None))
                        r.check(
                            glo is not None and glo <= lo and hi <= ghi,
                            f"attribute {name} range outside global range",
                        )
        report.files.append(r)
    return report
