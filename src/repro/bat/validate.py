"""Integrity validation for BAT files and datasets (fsck-style).

A production I/O library must be able to tell a damaged checkpoint from a
good one *before* a restart consumes it. ``validate_file`` walks every
structural invariant of the format:

- header magic/version/size bookkeeping,
- section offsets in order and within the file,
- shallow tree: every leaf reachable exactly once, child pointers in range,
- treelets: page alignment, node slices tile the particle range,
  parent/child depth relations, subtree contiguity,
- bitmaps: every 16-bit ID resolves in the dictionary; node bitmaps are
  supersets of their children's,
- particles: positions inside their leaf's (slightly padded) bbox.

``validate_dataset`` additionally cross-checks the manifest against the
leaf files (counts, bounds, attribute ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .file import BATFile
from .format import PAGE_SIZE, child_links_ok

__all__ = ["ValidationReport", "validate_file", "validate_dataset"]


@dataclass
class ValidationReport:
    """Findings of one validation pass."""

    path: str
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, msg: str) -> None:
        self.errors.append(msg)

    def check(self, condition: bool, msg: str) -> bool:
        self.checks += 1
        if not condition:
            self.errors.append(msg)
        return condition

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.errors)} ERROR(S)"
        lines = [f"{self.path}: {status} ({self.checks} checks)"]
        lines += [f"  error: {e}" for e in self.errors]
        lines += [f"  warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate_file(path, deep: bool = True) -> ValidationReport:
    """Validate one BAT file; ``deep=False`` skips per-treelet checks."""
    report = ValidationReport(path=str(path))
    try:
        bat = BATFile(path)
    except Exception as exc:  # noqa: BLE001 - any parse failure is the finding
        report.error(f"cannot open: {exc}")
        return report
    try:
        _validate_open_file(bat, report, deep)
    finally:
        bat.close()
    return report


def _validate_open_file(bat: BATFile, report: ValidationReport, deep: bool) -> None:
    h = bat.header
    report.check(h.n_points > 0, "file holds zero particles")
    report.check(
        h.attr_table_offset
        <= h.shallow_inner_offset
        <= h.shallow_leaf_offset
        <= h.dict_offset
        <= h.treelets_offset,
        "section offsets out of order",
    )
    report.check(h.treelets_offset % PAGE_SIZE == 0, "treelet section not page aligned")

    # shallow tree reachability
    root, root_is_leaf = bat.root()
    seen_leaves: set[int] = set()
    seen_inner: set[int] = set()
    stack = [(root, root_is_leaf)]
    while stack:
        idx, is_leaf = stack.pop()
        if is_leaf:
            if not report.check(0 <= idx < h.n_shallow_leaves, f"leaf index {idx} out of range"):
                continue
            if not report.check(idx not in seen_leaves, f"leaf {idx} reached twice"):
                continue
            seen_leaves.add(idx)
        else:
            if not report.check(0 <= idx < max(h.n_shallow_inner, 1), f"inner index {idx} out of range"):
                continue
            if not report.check(idx not in seen_inner, f"inner {idx} reached twice (cycle?)"):
                continue
            seen_inner.add(idx)
            stack.extend(bat.children(idx))
    report.check(
        seen_leaves == set(range(h.n_shallow_leaves)),
        f"unreachable shallow leaves: {sorted(set(range(h.n_shallow_leaves)) - seen_leaves)[:5]}",
    )

    # leaf records (vectorized across all leaves; failures name the first)
    offs = bat.shallow_leaves["treelet_offset"].astype(np.int64)
    nbs = bat.shallow_leaves["treelet_nbytes"].astype(np.int64)
    misaligned = np.nonzero(offs % PAGE_SIZE != 0)[0]
    report.check(
        len(misaligned) == 0, f"treelet {misaligned[0] if len(misaligned) else 0} not page aligned"
    )
    past_end = np.nonzero(offs + nbs > h.file_size)[0]
    report.check(
        len(past_end) == 0,
        f"treelet {past_end[0] if len(past_end) else 0} extends past end of file",
    )
    total_points = int(bat.shallow_leaves["n_points"].astype(np.int64).sum())
    report.check(
        total_points == h.n_points,
        f"leaf point counts sum to {total_points}, header says {h.n_points}",
    )

    # bitmap dictionary IDs in range
    for arr in (bat.shallow_inner, bat.shallow_leaves):
        if len(arr):
            ids = arr["bitmap_ids"]
            report.check(
                int(ids.max(initial=0)) < max(h.dict_entries, 1),
                "shallow-node bitmap ID exceeds dictionary",
            )

    if not deep:
        return

    for k in range(h.n_shallow_leaves):
        _validate_treelet(bat, k, report)


def _validate_treelet(bat: BATFile, leaf: int, report: ValidationReport) -> None:
    h = bat.header
    try:
        tv = bat.treelet(leaf)
    except Exception as exc:  # noqa: BLE001
        report.error(f"treelet {leaf}: cannot load ({exc})")
        return
    nodes = tv.nodes
    n = len(nodes)
    rec = bat.shallow_leaves[leaf]
    if not report.check(tv.n_points == int(rec["n_points"]), f"treelet {leaf}: point count mismatch"):
        return

    # every per-node invariant below is one vectorized comparison over the
    # whole treelet; error messages name the first offending node
    b = nodes["begin"].astype(np.int64)
    c = nodes["count"].astype(np.int64)
    e = nodes["subtree_end"].astype(np.int64)
    bad = np.nonzero(~((b + c <= e) & (e <= tv.n_points)))[0]
    if not report.check(
        len(bad) == 0,
        f"treelet {leaf} node {bad[0] if len(bad) else 0}: bad slice"
        + (f" [{b[bad[0]]},{b[bad[0]] + c[bad[0]]},{e[bad[0]]})" if len(bad) else ""),
    ):
        return
    inner = np.nonzero(nodes["axis"] >= 0)[0]
    if len(inner):
        l = nodes["left"][inner].astype(np.int64)
        r = nodes["right"][inner].astype(np.int64)
        bad = np.nonzero(~child_links_ok(inner, l, r, n))[0]
        if not report.check(
            len(bad) == 0, f"treelet {leaf} node {inner[bad[0]] if len(bad) else 0}: bad children"
        ):
            return
        bad = np.nonzero((b[l] != b[inner] + c[inner]) | (e[r] != e[inner]))[0]
        report.check(
            len(bad) == 0,
            f"treelet {leaf} node {inner[bad[0]] if len(bad) else 0}: children do not tile subtree",
        )
        d = nodes["depth"].astype(np.int64)
        bad = np.nonzero(d[l] != d[inner] + 1)[0]
        report.check(
            len(bad) == 0,
            f"treelet {leaf} node {inner[bad[0]] if len(bad) else 0}: child depth not parent+1",
        )
        if h.n_attrs:
            # bitmap containment: parent covers children, all attrs at once
            dict_arr = np.asarray(bat.dictionary, dtype=np.uint32)
            pb = dict_arr[nodes["bitmap_ids"][inner]]
            ok = True
            for child in (l, r):
                cb = dict_arr[nodes["bitmap_ids"][child]]
                contained = (pb & cb) == cb
                if not contained.all():
                    i_bad, a_bad = np.nonzero(~contained)
                    ok = report.check(
                        False,
                        f"treelet {leaf} node {inner[i_bad[0]]} attr {a_bad[0]}: "
                        "child bitmap not contained",
                    )
                else:
                    report.checks += 1
            if not ok:
                return
    # coverage multiplicity via a difference array (+1 at begin, -1 at
    # begin+count): prefix sums are all 1 iff the slices partition
    cover = np.zeros(tv.n_points + 1, dtype=np.int64)
    np.add.at(cover, b, 1)
    np.add.at(cover, b + c, -1)
    report.check(
        bool((np.cumsum(cover[:-1]) == 1).all()),
        f"treelet {leaf}: node slices do not partition particles",
    )

    # particles inside leaf bbox (pad for float32 rounding / quantization)
    box = bat.leaf_box(leaf)
    ext = np.maximum(box.extents, 1e-6)
    lo = np.asarray(box.lower) - 1e-4 * ext
    hi = np.asarray(box.upper) + 1e-4 * ext
    inside = ((tv.positions >= lo.astype(np.float32)) & (tv.positions <= hi.astype(np.float32))).all()
    report.check(bool(inside), f"treelet {leaf}: particles outside leaf bounds")


def validate_dataset(metadata_path, deep: bool = False) -> ValidationReport:
    """Validate a manifest and every leaf file it references."""
    from ..core.metadata import DatasetMetadata

    metadata_path = Path(metadata_path)
    report = ValidationReport(path=str(metadata_path))
    try:
        meta = DatasetMetadata.load(metadata_path)
    except Exception as exc:  # noqa: BLE001
        report.error(f"cannot load metadata: {exc}")
        return report
    if meta.layout != "bat":
        report.warnings.append(f"layout {meta.layout!r}: only manifest checks performed")

    for leaf in meta.leaves:
        fpath = metadata_path.parent / leaf.file_name
        if not report.check(fpath.exists(), f"missing leaf file {leaf.file_name}"):
            continue
        if meta.layout != "bat":
            continue
        sub = validate_file(fpath, deep=deep)
        report.checks += sub.checks
        report.errors.extend(f"{leaf.file_name}: {e}" for e in sub.errors)
        if sub.ok:
            with BATFile(fpath) as f:
                report.check(
                    f.n_points == leaf.count,
                    f"{leaf.file_name}: manifest says {leaf.count} points, file has {f.n_points}",
                )
                report.check(
                    leaf.bounds.contains_box(f.bounds) or f.bounds.contains_box(leaf.bounds),
                    f"{leaf.file_name}: bounds disagree with manifest",
                )
                for name, (lo, hi) in f.attr_ranges.items():
                    glo, ghi = meta.attr_ranges.get(name, (None, None))
                    report.check(
                        glo is not None and glo <= lo and hi <= ghi,
                        f"{leaf.file_name}: attribute {name} range outside global range",
                    )
    return report
