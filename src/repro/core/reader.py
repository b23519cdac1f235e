"""Two-phase parallel restart read pipeline (paper §IV, Fig 3).

Every rank reads the top-level metadata, a subset of ranks becomes *read
aggregators* (computed locally, no communication), each rank determines
which leaves its bounds overlap and requests their particles from the
aggregator owning each leaf file. Aggregators serve spatial queries through
a client–server loop of nonblocking calls terminated by a nonblocking
barrier; here the same structure is executed phase-wise on the virtual
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from functools import partial

from ..machines import MachineSpec
from ..parallel import executor_scope, parse_executor_spec
from ..simmpi import Message, VirtualCluster
from ..types import Box, ParticleBatch
from .assign import assign_read_aggregators
from .metadata import DatasetMetadata
from .planner import leaves_for_boxes

__all__ = ["TwoPhaseReader", "ReadReport", "READ_PHASE_NAMES"]

READ_PHASE_NAMES = (
    "read metadata",
    "read leaf files",
    "spatial queries",
    "transfer to readers",
    "barrier",
)


@dataclass
class ReadReport:
    """Outcome of one parallel restart read."""

    elapsed: float
    breakdown: dict[str, float]
    total_bytes: float
    n_files: int
    #: per-rank particles, when the read ran against real files
    batches: list[ParticleBatch] | None = None

    @property
    def bandwidth(self) -> float:
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0


def _shared_face_owners(points: np.ndarray, r: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which of ``points`` (rows request ``r``'s closed box returned) stay with ``r``.

    ``lo`` / ``hi`` are the ``(R, 3)`` corners of every request on the
    leaf. A box hands a point on one of its upper faces to a requested box
    that contains it and *starts* on that face and continues past it, so a
    point on a face two boxes share goes to the upper one — the half-open
    cells the write decomposition uses. Overlapping requests keep their
    whole overlap, and a point every containing box would hand on (their
    faces meet only around a hole in the decomposition) stays with all of
    them rather than being lost.
    """
    keep = np.ones(len(points), dtype=bool)
    face = np.flatnonzero((points == hi[r]).any(axis=1))
    if face.size == 0:
        return keep
    p = points[face].astype(np.float64)[:, None, :]                 # (m, 1, 3)
    inside = ((lo <= p) & (p <= hi)).all(axis=2)[:, :, None]        # (m, R, 1)
    starts = ((p == lo) & (p < hi) & inside).any(axis=1, keepdims=True)
    hands_on = ((p == hi) & inside & starts).any(axis=2)            # (m, R)
    kept_by_none = np.all(hands_on | ~inside[:, :, 0], axis=1)
    keep[face] = ~hands_on[:, r] | kept_by_none
    return keep


def _read_leaf(layout_name: str, data_dir: str, item):
    """Serve every request against one leaf file (one executor task).

    ``item`` is ``(leaf_index, file_name, [(rank, (2,3) bounds), ...])``;
    returns ``(leaf_index, [(rank, batch), ...])``. Each task owns its file
    handle, so tasks are independent across threads and processes. Every
    rank whose box touches a particle asks this leaf for it, so the task
    alone decides who owns a particle on a shared face.
    """
    from ..layouts import get_layout

    leaf_idx, file_name, reqs = item
    try:
        f = get_layout(layout_name).open(Path(data_dir) / file_name)
    except FileNotFoundError as exc:
        from ..errors import LeafUnavailableError

        raise LeafUnavailableError(
            f"leaf file {file_name!r} (leaf {leaf_idx}) is missing from "
            f"{data_dir!r}: {exc}",
            leaf_index=leaf_idx, path=str(Path(data_dir) / file_name),
        ) from exc
    lo = np.array([bounds[0] for _, bounds in reqs], dtype=np.float64)
    hi = np.array([bounds[1] for _, bounds in reqs], dtype=np.float64)
    served = []
    try:
        for i, (r, bounds) in enumerate(reqs):
            batch = f.query_box(Box.from_array(bounds))
            keep = _shared_face_owners(batch.positions, i, lo, hi)
            served.append((r, batch if keep.all() else batch.select(np.flatnonzero(keep))))
    finally:
        f.close()
    return leaf_idx, served


class TwoPhaseReader:
    """Parallel reads of a BAT data set at an arbitrary rank count."""

    def __init__(self, machine: MachineSpec, network_model: str = "phase", executor=None):
        self.machine = machine
        self.network_model = network_model
        #: execution layer for per-file restart reads: a spec string whose
        #: pool lives for one read(), an Executor instance the caller
        #: shares and closes, or None for $REPRO_EXECUTOR, else serial (no
        #: restart-read traffic has been measured to want a pool; see
        #: repro.parallel)
        if isinstance(executor, str):
            parse_executor_spec(executor)
        self.executor = executor

    def read(
        self,
        metadata: DatasetMetadata,
        read_bounds: np.ndarray,
        data_dir=None,
    ) -> ReadReport:
        """Read the region each rank wants (one box per reading rank).

        ``read_bounds`` is ``(R, 2, 3)``; R defines the reading job's size
        and may differ from the writing job's. With ``data_dir`` the leaf
        files are really opened and queried, so the returned batches are
        exact; otherwise transfer sizes are estimated from volume overlap.
        """
        read_bounds = np.asarray(read_bounds, dtype=np.float64).reshape(-1, 2, 3)
        nranks = len(read_bounds)
        cluster = VirtualCluster(nranks, self.machine, network_model=self.network_model)
        n_files = metadata.n_files

        # 1. everyone reads the metadata file
        cluster.all_small_read(READ_PHASE_NAMES[0], metadata.json_size)

        # 2. local read-aggregator assignment
        read_aggs = assign_read_aggregators(n_files, nranks)

        # 3. requests: which leaves does each rank overlap? The planner
        # helper evaluates all (rank, leaf) pairs vectorized in rank
        # chunks — a 43k-rank restart against hundreds of leaves is
        # millions of box tests.
        leaf_lo, leaf_hi = metadata.leaf_bounds_arrays()
        requests: list[tuple[int, int]] = []  # (reading rank, leaf index)
        for r, leaf_hits in enumerate(leaves_for_boxes(metadata, read_bounds)):
            requests.extend((r, int(leaf_idx)) for leaf_idx in leaf_hits)

        # aggregators read the leaf files they own that anyone asked for
        needed = sorted({leaf for _, leaf in requests})
        read_sizes = np.zeros(nranks)
        opens = np.zeros(nranks)
        for leaf_idx in needed:
            leaf = metadata.leaves[leaf_idx]
            agg = int(read_aggs[leaf_idx])
            read_sizes[agg] += leaf.nbytes
            opens[agg] += 1
        active = opens > 0
        avg_opens = float(opens[active].mean()) if active.any() else 1.0
        cluster.read_independent(READ_PHASE_NAMES[1], read_sizes, opens=avg_opens)

        # 4. spatial query scan cost on aggregators
        req_rank = np.array([r for r, _ in requests], dtype=np.int64)
        req_leaf = np.array([l for _, l in requests], dtype=np.int64)
        leaf_counts = np.array([l.count for l in metadata.leaves], dtype=np.float64)
        leaf_nbytes = np.array([l.nbytes for l in metadata.leaves], dtype=np.float64)
        scan_seconds = np.zeros(nranks)
        if len(requests):
            np.add.at(
                scan_seconds,
                read_aggs[req_leaf],
                leaf_counts[req_leaf] / self.machine.query_scan_rate,
            )
        cluster.compute(READ_PHASE_NAMES[2], scan_seconds)

        # functional reads against real files (dispatched on the layout the
        # data set was written with — see repro.layouts)
        batches: list[ParticleBatch] | None = None
        actual_bytes: dict[tuple[int, int], float] = {}
        if data_dir is not None:
            # Group requests per leaf file and fan the files out across the
            # executor — one open/query/close per file, mirroring the read
            # aggregators that each serve the files they own. Results are
            # keyed by (rank, leaf) and re-assembled in the original
            # request order, so completion order cannot change the output.
            by_leaf: dict[int, list[tuple[int, np.ndarray]]] = {}
            for r, leaf_idx in requests:
                by_leaf.setdefault(leaf_idx, []).append((r, read_bounds[r]))
            tasks = [
                (leaf_idx, metadata.leaves[leaf_idx].file_name, reqs)
                for leaf_idx, reqs in sorted(by_leaf.items())
            ]
            with executor_scope(self.executor) as ex:
                results = ex.map(partial(_read_leaf, metadata.layout, str(data_dir)), tasks)
            answered: dict[tuple[int, int], ParticleBatch] = {}
            for leaf_idx, served in results:
                for r, res in served:
                    answered[(r, leaf_idx)] = res
                    actual_bytes[(r, leaf_idx)] = float(res.nbytes)
            per_rank: list[list[ParticleBatch]] = [[] for _ in range(nranks)]
            for r, leaf_idx in requests:
                per_rank[r].append(answered[(r, leaf_idx)])
            batches = [ParticleBatch.concatenate(parts) for parts in per_rank]

        # 5. transfer query results to the requesting ranks. Without real
        # files, per-request bytes are estimated from the volume fraction of
        # each leaf covered by the reader's box (vectorized).
        if len(requests):
            if actual_bytes:
                sizes = np.array(
                    [actual_bytes.get((r, l), 0.0) for r, l in requests], dtype=np.float64
                )
            else:
                llo = leaf_lo[req_leaf]
                lhi = leaf_hi[req_leaf]
                rlo = read_bounds[req_rank, 0, :]
                rhi = read_bounds[req_rank, 1, :]
                inter = np.maximum(np.minimum(lhi, rhi) - np.maximum(llo, rlo), 0.0)
                vol = np.prod(np.maximum(lhi - llo, 0.0), axis=1)
                frac = np.where(vol > 0, np.prod(inter, axis=1) / np.where(vol > 0, vol, 1.0), 1.0)
                sizes = leaf_nbytes[req_leaf] * np.minimum(frac, 1.0)
        else:
            sizes = np.zeros(0)
        total_bytes = float(sizes.sum())
        messages = [
            Message(int(read_aggs[l]), int(r), float(s))
            for (r, l), s in zip(requests, sizes)
            if s > 0
        ]
        cluster.p2p(READ_PHASE_NAMES[3], messages)

        # 6. nonblocking barrier completes the read
        cluster.barrier(READ_PHASE_NAMES[4])

        return ReadReport(
            elapsed=cluster.elapsed,
            breakdown=cluster.breakdown(),
            total_bytes=total_bytes,
            n_files=n_files,
            batches=batches,
        )
