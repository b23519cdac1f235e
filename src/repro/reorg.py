"""Telemetry-driven online layout reorganization (background rewriter).

The write path freezes the leaf layout at aggregation time, but the serve
tier records exactly which boxes, filters, and columns real sessions hit
(:class:`repro.serve.metrics.AccessTelemetry`). Following Wan et al.
(arXiv 2107.07108), this module closes the loop: it scores leaves hot or
cold from those tallies and rewrites the touched-but-misaligned ones into
query-aligned layouts —

- **carve**: leaves that recurring hot boxes only *partially* overlap are
  re-split along the observed box boundary; the inside points consolidate
  into dedicated hot leaf files (so hot queries open files whose every
  point matches) and each source leaf keeps a remainder file;
- **merge**: rarely-touched leaves coalesce into fewer files, cutting the
  per-query open/parse cost of broad sweeps over cold regions;
- **recodec**: frequently-opened leaves are rewritten with per-column
  codecs chosen by access frequency — hot columns decode-cheap (raw),
  cold columns size-cheap (zlib). Column *order* is only changed when a
  reorganization rewrites every leaf of a step: result attribute order
  follows file order, and mixed orders across one dataset's files would
  break batch concatenation (and byte-identity).

Every rewritten leaf is published under a **new, generation-qualified
file name** via :func:`repro.atomic.publish_bytes`, and the manifest
republish bumps its layout ``generation`` counter. Old leaf files are
left in place (``remove_old`` garbage-collects them explicitly), so a
query in flight against the previous manifest keeps reading the exact
bytes it planned against: whichever generation a request observed, its
response is byte-identical to a direct query against that generation.
The serve tier reacts to the generation bump by invalidating its caches
coherently — see :meth:`repro.serve.service.QueryService.reload_step` and
:meth:`repro.serve.shard.ShardedQueryService.reload_step`.

Every action is verified before the manifest is published: the rewritten
files are reopened, read back through :func:`repro.bat.query.query_file`
— the path that will serve them — and their full-quality particle
multiset compared byte-for-byte against the source leaves. A mismatch
unlinks every file the pass wrote and raises :class:`ReorgError`.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bat.builder import BATBuildConfig, build_bat
from .bat.file import BATFile
from .bat.query import query_file
from .core.metadata import DatasetMetadata, LeafMetadata, remap_to_global
from .morton import encode_positions
from .types import Box, ParticleBatch

__all__ = [
    "ReorgAction",
    "ReorgConfig",
    "ReorgDaemon",
    "ReorgError",
    "ReorgReport",
    "apply_reorg",
    "plan_reorg",
    "reorganize",
]


lgr = logging.getLogger("repro.reorg")


class ReorgError(RuntimeError):
    """A reorganization could not be applied safely; nothing was published."""


#: how many distinct hot boxes one pass may carve along
MAX_HOT_BOXES = 4

#: cap on points per carved hot file (larger hot regions chunk)
MAX_HOT_FILE_POINTS = 1 << 18

#: merged cold files (and carve remainder slabs) stop growing here
MERGE_MAX_POINTS = 1 << 18

#: a column is "hot" when touched in at least this fraction of queries
HOT_COLUMN_FRACTION = 0.5

#: codecs of rewritten files' frequently read (decode-cheap) and rarely
#: read (size-cheap) columns
HOT_CODEC = "raw"
COLD_CODEC = "zlib"


@dataclass(frozen=True)
class ReorgConfig:
    """Thresholds and rewrite policy of one reorganization pass; values
    no caller tunes are the module constants above."""

    #: do nothing until at least this many queries back the evidence
    min_queries: int = 8
    #: a recurring box becomes carve evidence at this many observations
    min_box_queries: int = 4
    #: carve only leaves with at least this many points (tiny leaves are
    #: cheap to read whole; splitting them just multiplies files)
    carve_min_points: int = 512
    #: a leaf is "cold" when its opens fall at or below this fraction of
    #: the step's most-opened leaf
    cold_open_fraction: float = 0.25
    #: per-column codec policy of rewritten files: None keeps v3 raw
    #: columns; otherwise column-access evidence picks ``HOT_CODEC`` /
    #: ``COLD_CODEC`` per column, and without evidence "auto" samples
    codecs: str | None = "auto"
    #: unlink replaced leaf files after the manifest republish. Off by
    #: default: readers of the previous generation may still be streaming
    #: from them (the serve tier's leases pin open handles, but a cold
    #: re-open of the old manifest needs the files on disk).
    remove_old: bool = False


@dataclass(frozen=True)
class ReorgAction:
    """One planned rewrite of a set of source leaves."""

    #: "carve", "merge", or "recodec"
    kind: str
    #: manifest leaf indices consumed by this action
    leaf_indices: tuple[int, ...]
    #: the observed hot box a carve splits along (None otherwise)
    hot_box: Box | None = None
    #: human-readable evidence ("opened 412x by 37 queries", ...)
    reason: str = ""

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "leaves": list(self.leaf_indices),
            "hot_box": (
                [list(self.hot_box.lower), list(self.hot_box.upper)]
                if self.hot_box is not None
                else None
            ),
            "reason": self.reason,
        }


@dataclass
class ReorgReport:
    """What one reorganization pass did."""

    step: int
    generation_from: int
    generation_to: int
    actions: list[ReorgAction] = field(default_factory=list)
    files_written: list[str] = field(default_factory=list)
    files_obsolete: list[str] = field(default_factory=list)
    files_removed: list[str] = field(default_factory=list)
    leaves_before: int = 0
    leaves_after: int = 0
    bytes_written: int = 0
    verified_points: int = 0
    duration_seconds: float = 0.0

    @property
    def changed(self) -> bool:
        return bool(self.actions)

    def to_doc(self) -> dict:
        return {
            "step": self.step,
            "generation_from": self.generation_from,
            "generation_to": self.generation_to,
            "actions": [a.to_doc() for a in self.actions],
            "files_written": list(self.files_written),
            "files_obsolete": list(self.files_obsolete),
            "files_removed": list(self.files_removed),
            "leaves_before": self.leaves_before,
            "leaves_after": self.leaves_after,
            "bytes_written": self.bytes_written,
            "verified_points": self.verified_points,
            "duration_seconds": self.duration_seconds,
        }


# -- planning ------------------------------------------------------------------


def _step_telemetry(telemetry: dict, step: int) -> dict:
    """The one-step slice of an AccessTelemetry snapshot (or merged doc)."""
    if telemetry is None:
        return {}
    steps = telemetry.get("steps", telemetry)
    return steps.get(str(step), steps.get(step, {})) or {}


def _leaf_opens(metadata: DatasetMetadata, tele: dict) -> np.ndarray:
    opens = np.zeros(len(metadata.leaves), dtype=np.int64)
    for leaf, tally in tele.get("leaves", {}).items():
        i = int(leaf)
        if 0 <= i < len(opens):
            opens[i] = int(tally.get("opens", 0))
    return opens


def plan_reorg(
    metadata: DatasetMetadata,
    telemetry: dict,
    step: int = 0,
    config: ReorgConfig | None = None,
) -> list[ReorgAction]:
    """Score leaves hot/cold against telemetry and plan rewrites.

    ``telemetry`` is an :meth:`AccessTelemetry.snapshot` document (or a
    router-merged one). Returns a possibly-empty list of actions; leaves
    appear in at most one action.
    """
    config = config or ReorgConfig()
    tele = _step_telemetry(telemetry, step)
    n_queries = sum(n for _, _, n in tele.get("boxes", []))
    if not tele or n_queries < config.min_queries:
        return []
    opens = _leaf_opens(metadata, tele)
    if not opens.any():
        return []
    actions: list[ReorgAction] = []
    claimed: set[int] = set()

    # carve along recurring hot boxes, hottest first
    boxes = [
        (Box(tuple(lo), tuple(hi)), int(n))
        for lo, hi, n in tele.get("boxes", [])
        if lo is not None and int(n) >= config.min_box_queries
    ]
    boxes.sort(key=lambda bn: -bn[1])
    for box, n in boxes[:MAX_HOT_BOXES]:
        carve = []
        for i, leaf in enumerate(metadata.leaves):
            if i in claimed or opens[i] == 0:
                continue
            if leaf.count < config.carve_min_points:
                continue
            # fully-inside leaves are already query-aligned; only leaves
            # the box cuts through pay for points they do not need
            if leaf.bounds.intersects(box) and not box.contains_box(leaf.bounds):
                carve.append(i)
        if not carve:
            continue
        claimed.update(carve)
        actions.append(
            ReorgAction(
                kind="carve",
                leaf_indices=tuple(carve),
                hot_box=box,
                reason=f"box seen {n}x cuts {len(carve)} leaves",
            )
        )

    # merge cold leaves (rarely opened relative to the hottest leaf),
    # grouped along the Morton curve so merged files keep tight bounds —
    # merging spatially scattered leaves would balloon the merged bounds
    # and defeat the manifest's box pruning
    max_opens = int(opens.max())
    cold_cut = max_opens * config.cold_open_fraction
    cold = [
        i
        for i in range(len(metadata.leaves))
        if i not in claimed and opens[i] <= cold_cut
    ]
    if len(cold) > 1:
        centers = np.array(
            [metadata.leaves[i].bounds.center for i in cold], dtype=np.float64
        )
        codes = encode_positions(centers, metadata.bounds)
        cold = [cold[j] for j in np.argsort(codes, kind="stable")]
    group: list[int] = []
    group_points = 0
    for i in cold:
        count = metadata.leaves[i].count
        if group and group_points + count > MERGE_MAX_POINTS:
            if len(group) >= 2:
                claimed.update(group)
                actions.append(
                    ReorgAction(
                        kind="merge",
                        leaf_indices=tuple(group),
                        reason=f"opens <= {cold_cut:.1f} (max {max_opens})",
                    )
                )
            group, group_points = [], 0
        group.append(i)
        group_points += count
    if len(group) >= 2:
        claimed.update(group)
        actions.append(
            ReorgAction(
                kind="merge",
                leaf_indices=tuple(group),
                reason=f"opens <= {cold_cut:.1f} (max {max_opens})",
            )
        )

    # recodec the remaining hot leaves when column access is skewed
    col_touches = tele.get("columns", {})
    if col_touches:
        hot_cols = {
            name
            for name, n in col_touches.items()
            if n >= HOT_COLUMN_FRACTION * max(n_queries, 1)
        }
        all_cols = set(metadata.attr_dtypes) | {"positions"}
        if hot_cols and hot_cols != all_cols:
            for i in range(len(metadata.leaves)):
                if i not in claimed and opens[i] > cold_cut:
                    actions.append(
                        ReorgAction(
                            kind="recodec",
                            leaf_indices=(i,),
                            reason=(
                                f"hot columns {sorted(hot_cols)} of "
                                f"{sorted(all_cols)}"
                            ),
                        )
                    )
                    claimed.add(i)
    if actions:
        counts = dict(Counter(a.kind for a in actions))
        lgr.info(
            "planned %d reorg actions for step %d: %s", len(actions), step,
            ", ".join(f"{n} {kind}" for kind, n in counts.items()),
            extra={"step": step, "action_counts": counts},
        )
    return actions


# -- applying ------------------------------------------------------------------


def _read_leaf(directory: Path, leaf: LeafMetadata) -> ParticleBatch:
    """Full-quality read of one leaf file (transient handle, no cache)."""
    with BATFile(directory / leaf.file_name) as f:
        batch, _ = query_file(f, quality=1.0)
    return batch


def _canonical_rows(batch: ParticleBatch) -> bytes:
    """Order-independent byte identity of a batch's particle multiset."""
    cols = [np.ascontiguousarray(batch.positions[:, d]) for d in range(3)]
    names = sorted(batch.attributes)
    cols += [np.ascontiguousarray(batch.attributes[n]) for n in names]
    order = np.lexsort(tuple(reversed(cols)))
    return b"".join(np.ascontiguousarray(c[order]).tobytes() for c in cols)


def _codec_map(
    config: ReorgConfig, hot_cols: set[str] | None, file_cols: set[str]
):
    """The per-column codec spec for rewritten files."""
    if hot_cols is None or config.codecs is None:
        # no frequency evidence (or v3 output requested): keep the
        # configured policy as-is
        return config.codecs
    # tree node records decode on every open regardless of the query:
    # always decode-cheap; everything unobserved defaults size-cheap
    spec: dict[str, str] = {"*": COLD_CODEC, "nodes": HOT_CODEC}
    for name in hot_cols & file_cols:
        spec[name] = HOT_CODEC
    return spec


def _hot_columns(tele: dict) -> set[str] | None:
    col_touches = tele.get("columns", {})
    n_queries = sum(n for _, _, n in tele.get("boxes", []))
    if not col_touches or not n_queries:
        return None
    return {
        name
        for name, n in col_touches.items()
        if n >= HOT_COLUMN_FRACTION * n_queries
    }


def _chunk(batch: ParticleBatch, max_points: int) -> list[ParticleBatch]:
    """Split a batch into spatially-sorted chunks of at most max_points."""
    n = len(batch)
    if n <= max_points:
        return [batch]
    pos = batch.positions
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0]))
    pieces = []
    n_chunks = -(-n // max_points)
    for idx in np.array_split(order, n_chunks):
        pieces.append(
            ParticleBatch(
                pos[idx],
                {k: v[idx] for k, v in batch.attributes.items()},
            )
        )
    return pieces


def _complement_slabs(batch: ParticleBatch, box: Box) -> list[ParticleBatch]:
    """Partition points strictly outside ``box`` into up to 6 slabs.

    Slab ``2*axis`` holds points below the box on ``axis``, slab
    ``2*axis + 1`` points above it, considering only points not already
    claimed by an earlier axis. Every input point is strictly outside the
    (inclusive) box on at least one axis, so the slabs cover the batch —
    and each slab's tight bounds cannot intersect the box.
    """
    pos = batch.positions
    remaining = np.ones(len(batch), dtype=bool)
    slabs = []
    for axis in range(3):
        below = remaining & (pos[:, axis] < box.lower[axis])
        above = remaining & (pos[:, axis] > box.upper[axis])
        for m in (below, above):
            if m.any():
                slabs.append(_subset(batch, m))
        remaining &= ~(below | above)
    assert not remaining.any(), "point inside box reached complement split"
    return slabs


def _subset(batch: ParticleBatch, mask: np.ndarray) -> ParticleBatch:
    return ParticleBatch(
        batch.positions[mask],
        {k: v[mask] for k, v in batch.attributes.items()},
    )


def apply_reorg(
    manifest_path,
    actions,
    config: ReorgConfig | None = None,
    telemetry: dict | None = None,
    step: int = 0,
) -> ReorgReport:
    """Execute planned actions and atomically republish the manifest.

    Rewritten leaves land under new ``<stem>.g<generation>.r<k>.bat``
    names (each through the verified tmp+fsync+rename publish); the
    manifest is republished last with ``generation + 1``, so a crash at
    any point leaves the previous generation fully intact and readable.
    Raises :class:`ReorgError` (publishing nothing) if verification finds
    any rewritten multiset differing from its sources.
    """
    t0 = time.perf_counter()
    config = config or ReorgConfig()
    manifest_path = Path(manifest_path)
    metadata = DatasetMetadata.load(manifest_path)
    directory = manifest_path.parent
    report = ReorgReport(
        step=step,
        generation_from=metadata.generation,
        generation_to=metadata.generation,
        actions=list(actions),
        leaves_before=len(metadata.leaves),
        leaves_after=len(metadata.leaves),
    )
    if not actions:
        report.duration_seconds = time.perf_counter() - t0
        return report

    new_gen = metadata.generation + 1
    stem = manifest_path.name.split(".")[0] or "reorg"
    hot_cols = _hot_columns(_step_telemetry(telemetry, step))
    attr_order = list(metadata.attr_dtypes)
    seen: set[int] = set()
    for action in actions:
        for i in action.leaf_indices:
            if i in seen:
                raise ReorgError(f"leaf {i} claimed by more than one action")
            if not 0 <= i < len(metadata.leaves):
                raise ReorgError(f"action names unknown leaf {i}")
            seen.add(i)

    # physical column reorder is only safe when every leaf is rewritten:
    # result attribute order follows file order, and one dataset must not
    # mix orders across files (batch concatenation requires agreement)
    reorder_all = hot_cols is not None and len(seen) == len(metadata.leaves)
    if reorder_all:
        attr_order = sorted(
            metadata.attr_dtypes,
            key=lambda n: (n not in hot_cols, n),
        )

    def _ordered(batch: ParticleBatch) -> ParticleBatch:
        attrs = {n: batch.attributes[n] for n in attr_order if n in batch.attributes}
        for n in batch.attributes:  # columns the manifest does not know
            attrs.setdefault(n, batch.attributes[n])
        return ParticleBatch(batch.positions, attrs)

    file_cols = {"nodes", "positions", *metadata.attr_dtypes}
    build_config = BATBuildConfig(codecs=_codec_map(config, hot_cols, file_cols))

    # Build every output file first; nothing is visible until the manifest
    # flips. outputs: position of the action's first source leaf -> list
    # of (file_name, BuiltBAT) so the new leaf list keeps spatial order.
    outputs: dict[int, list[tuple[str, object]]] = {}
    written: list[Path] = []
    file_seq = 0
    for action in actions:
        sources = [
            _read_leaf(directory, metadata.leaves[i]) for i in action.leaf_indices
        ]
        merged = (
            ParticleBatch.concatenate(sources) if len(sources) > 1 else sources[0]
        )
        if action.kind == "carve":
            mask = action.hot_box.contains_points(merged.positions)
            pieces = []
            if mask.any():
                pieces += _chunk(
                    _subset(merged, mask), MAX_HOT_FILE_POINTS
                )
            # the remainder is decomposed into axis-aligned complement
            # slabs: each slab lies strictly outside the hot box on its
            # defining axis, so the slab file's bounds never intersect
            # the box and the manifest prunes it from hot queries (a
            # plain per-source remainder would still wrap around the box)
            if not mask.all():
                for slab in _complement_slabs(
                    _subset(merged, ~mask), action.hot_box
                ):
                    pieces += _chunk(slab, MERGE_MAX_POINTS)
        elif action.kind == "merge":
            pieces = _chunk(merged, MERGE_MAX_POINTS)
        elif action.kind == "recodec":
            pieces = [merged]
        else:
            raise ReorgError(f"unknown action kind {action.kind!r}")

        built_pieces = []
        for piece in pieces:
            built = build_bat(_ordered(piece), build_config)
            name = f"{stem}.g{new_gen}.r{file_seq:04d}.bat"
            file_seq += 1
            built.write(directory / name)
            written.append(directory / name)
            report.bytes_written += built.nbytes
            built_pieces.append((name, built))

        rebuilt = []
        for name, _ in built_pieces:
            with BATFile(directory / name) as f:
                b, _stats = query_file(f, quality=1.0)
            rebuilt.append(b)
        got = _canonical_rows(ParticleBatch.concatenate(rebuilt))
        want = _canonical_rows(merged)
        if got != want:
            for path in written:
                path.unlink(missing_ok=True)
            lgr.warning(
                "reorg %s of leaves %s failed round-trip verification; "
                "generation %d not published", action.kind, list(action.leaf_indices), new_gen,
                extra={"kind": action.kind, "leaf_indices": list(action.leaf_indices),
                       "generation_from": metadata.generation, "generation_to": new_gen},
            )
            raise ReorgError(
                f"{action.kind} of leaves {action.leaf_indices} does not "
                "round-trip the particle multiset; manifest not published"
            )
        report.verified_points += len(merged)
        outputs[min(action.leaf_indices)] = built_pieces
        for i in action.leaf_indices:
            report.files_obsolete.append(metadata.leaves[i].file_name)

    # Splice the new leaf list: untouched leaves keep their relative
    # order, each action's outputs replace its first source leaf.
    new_leaves: list[LeafMetadata] = []
    attr_ranges = metadata.attr_ranges
    for i, leaf in enumerate(metadata.leaves):
        if i in seen:
            for name, built in outputs.pop(i, ()):
                new_leaves.append(
                    _built_leaf(name, built, leaf, attr_ranges)
                )
            continue
        new_leaves.append(leaf)
    if outputs:
        raise ReorgError("internal: unplaced reorg outputs")  # pragma: no cover
    for idx, leaf in enumerate(new_leaves):
        leaf.leaf_index = idx

    new_meta = DatasetMetadata(
        nranks=metadata.nranks,
        bounds=metadata.bounds,
        leaves=new_leaves,
        attr_ranges=dict(attr_ranges),
        # the aggregation tree indexes the old leaf set; a reorganized
        # manifest goes flat (readers fall back to the linear leaf scan)
        tree_nodes=[],
        inner_bitmaps=[],
        layout=metadata.layout,
        attr_dtypes={n: metadata.attr_dtypes[n] for n in attr_order}
        if metadata.attr_dtypes
        else {},
        generation=new_gen,
    )
    new_meta.save(manifest_path)
    report.generation_to = new_gen
    report.leaves_after = len(new_leaves)
    report.files_written = [p.name for p in written]
    lgr.info(
        "reorg published %s generation %d -> %d: %d actions, %d files written",
        manifest_path.name, metadata.generation, new_gen, len(actions), len(written),
        extra={"generation_from": metadata.generation, "generation_to": new_gen,
               "actions": len(actions), "files_written": list(report.files_written)},
    )
    if config.remove_old:
        for name in report.files_obsolete:
            path = directory / name
            if path.exists() and name not in report.files_written:
                path.unlink()
                report.files_removed.append(name)
    report.duration_seconds = time.perf_counter() - t0
    return report


def _built_leaf(
    name: str, built, source: LeafMetadata, global_ranges: dict
) -> LeafMetadata:
    """Manifest entry for one rewritten file (bitmaps on global ranges)."""
    [global_bms] = remap_to_global(
        [built.root_bitmaps], [built.attr_ranges], [built.attr_binnings],
        {**built.attr_ranges, **global_ranges},
    )
    return LeafMetadata(
        leaf_index=-1,  # renumbered after the splice
        file_name=name,
        bounds=built.bounds,
        count=built.n_points,
        nbytes=built.nbytes,
        aggregator=source.aggregator,
        rank_ids=list(source.rank_ids),
        attr_ranges=dict(built.attr_ranges),
        global_bitmaps=global_bms,
    )


def reorganize(
    manifest_path,
    telemetry: dict,
    step: int = 0,
    config: ReorgConfig | None = None,
) -> ReorgReport:
    """Plan and apply one reorganization pass over one step's manifest."""
    config = config or ReorgConfig()
    metadata = DatasetMetadata.load(manifest_path)
    actions = plan_reorg(metadata, telemetry, step=step, config=config)
    return apply_reorg(
        manifest_path, actions, config=config, telemetry=telemetry, step=step
    )


class ReorgDaemon:
    """Background loop: poll serve telemetry, rewrite, reload the service.

    Works against either a :class:`~repro.serve.service.QueryService` or a
    :class:`~repro.serve.shard.ShardedQueryService` (``telemetry_snapshot``,
    ``manifest_path``, ``reload_step``). Each tick runs one
    :func:`reorganize` pass per step and, when the layout changed, tells
    the service to swap in the new generation.
    """

    def __init__(
        self,
        service,
        config: ReorgConfig | None = None,
        interval: float = 30.0,
        steps=None,
    ):
        self.service = service
        self.config = config or ReorgConfig()
        self.interval = float(interval)
        self._steps = list(steps) if steps is not None else None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.reports: list[ReorgReport] = []

    def run_once(self) -> list[ReorgReport]:
        """One reorganization pass over every step; returns its reports."""
        telemetry = self.service.telemetry_snapshot()
        steps = self._steps if self._steps is not None else self.service.steps
        out = []
        for step in steps:
            report = reorganize(
                self.service.manifest_path(step), telemetry,
                step=step, config=self.config,
            )
            if report.changed:
                self.service.reload_step(step)
            out.append(report)
        self.reports.extend(out)
        return out

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def loop():
            while not self._stop.wait(self.interval):
                try:
                    self.run_once()
                except ReorgError:
                    # a failed pass publishes nothing; keep serving and
                    # try again with fresher telemetry next tick
                    continue

        self._thread = threading.Thread(
            target=loop, name="reorg-daemon", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ReorgDaemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
