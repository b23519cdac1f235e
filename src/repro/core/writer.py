"""Two-phase adaptive write pipeline (paper §III, Fig 1).

The pipeline runs on a :class:`~repro.simmpi.VirtualCluster`:

1. gather (bounds, count) per rank to rank 0;
2. rank 0 builds the aggregation plan (adaptive k-d tree, or a baseline
   strategy such as AUG) and assigns aggregators;
3. scatter assignments;
4. every rank sends its particles to its leaf's aggregator (nonblocking
   point-to-point; a rank with no particles sends nothing);
5. each aggregator builds a BAT over its received particles and writes it
   to its own file;
6. aggregators send per-attribute ranges and root bitmaps to rank 0, which
   writes the top-level metadata file.

With materialized data the pipeline really moves the bytes and writes real
BAT files (lossless, query-able); timing always comes from the cost models,
so scaling studies can also run counts-only (DESIGN.md §5).

Step 5 really runs concurrently: one task per leaf (gather its members'
particles, build, encode, verified publish) through
:func:`~repro.parallel.fan_out` — a thread per usable CPU, at most one per
leaf, in-process on one CPU. Rank 0's part of step 6 stays serial, so it
is kept short: every leaf's root bitmaps are remapped to the global
ranges in one vectorized pass and the manifest is encoded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from functools import partial

from ..atomic import publish_bytes
from ..machines import MachineSpec
from ..bat.builder import BATBuildConfig
from ..iosim.faults import FaultConfig, FaultInjector, FaultReport
from ..parallel import fan_out
from ..simmpi import Message, VirtualCluster
from ..types import ParticleBatch
from .aggtree import AggTreeConfig, build_aggregation_tree
from .assign import assign_write_aggregators
from .metadata import DatasetMetadata, build_metadata
from .rankdata import RankData

__all__ = ["TwoPhaseWriter", "WriteReport", "PHASE_NAMES"]

#: canonical phase names, in pipeline order (breakdown figures key off these)
PHASE_NAMES = (
    "gather rank info",
    "build aggregation tree",
    "scatter assignments",
    "transfer to aggregators",
    "construct BAT",
    "write files",
    "write metadata",
)

#: BAT structure overhead assumed for counts-only runs (paper §VI-B: ~0.9%,
#: plus page-alignment padding)
ESTIMATED_BAT_OVERHEAD = 1.02


@dataclass(frozen=True)
class _LeafSummary:
    """What rank 0 needs from one aggregator's build (§III-D).

    The serialized bytes stay in the leaf task — written straight to disk
    there when materializing — so rank 0 never holds every leaf's file
    image at once.
    """

    attr_ranges: dict
    root_bitmaps: dict
    attr_binnings: dict
    nbytes: int
    #: publish attempts this leaf file needed (1 = first try verified clean)
    attempts: int = 1
    #: treelet payload bytes before/after per-column encoding (equal for
    #: raw-layout builds) — feeds WriteReport compression accounting
    payload_raw_bytes: int = 0
    payload_encoded_bytes: int = 0
    #: column name -> codec id the build chose (empty for v2/v3 builds)
    codec_table: dict = field(default_factory=dict)
    #: attribute name -> numpy dtype string of the aggregated batch
    attr_dtypes: dict = field(default_factory=dict)


def _build_leaf(layout_name: str, cfg, max_attempts: int, item) -> _LeafSummary:
    """Aggregate, build (and optionally publish) one aggregation leaf.

    A pure function of its arguments, so the leaf's bytes do not depend
    on which thread runs it or when. ``item`` is ``(member batches,
    out_path | None, fault_plan)``; the members are concatenated here, on
    the aggregator, and the file lands through the verified atomic-publish
    protocol, with ``fault_plan`` (precomputed on rank 0, see
    :meth:`~repro.iosim.faults.FaultInjector.plan_leaf_write`) damaging
    specific attempts.
    """
    from ..layouts import get_layout

    members, out_path, fault_plan = item
    batch = ParticleBatch.concatenate(members)
    built = get_layout(layout_name).build(batch, cfg)
    attempts = 1
    if out_path is not None:
        attempts = publish_bytes(
            out_path,
            built.data,
            fault_plan=fault_plan,
            max_attempts=max_attempts,
        )
    return _LeafSummary(
        attr_ranges=built.attr_ranges,
        root_bitmaps=built.root_bitmaps,
        attr_binnings=built.attr_binnings,
        nbytes=built.nbytes,
        attempts=attempts,
        payload_raw_bytes=getattr(built, "payload_raw_bytes", 0),
        payload_encoded_bytes=getattr(built, "payload_encoded_bytes", 0),
        codec_table=dict(getattr(built, "codec_table", {}) or {}),
        attr_dtypes={n: a.dtype.str for n, a in batch.attributes.items()},
    )


@dataclass
class WriteReport:
    """Outcome of one timestep write."""

    elapsed: float
    breakdown: dict[str, float]
    total_bytes: float
    n_files: int
    file_sizes: np.ndarray
    imbalance: float
    metadata: DatasetMetadata | None = None
    metadata_path: str | None = None
    plan: object = None
    #: what was injected and recovered from, when fault injection is on
    faults: FaultReport | None = None
    #: treelet payload bytes before/after per-column encoding, summed over
    #: every leaf build (equal unless the build config enables codecs)
    payload_raw_bytes: int = 0
    payload_encoded_bytes: int = 0
    #: column name -> codec id (the per-file choice of the first leaf that
    #: reported one; files may differ when sampling diverges per leaf)
    codec_table: dict = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Raw/encoded payload ratio (1.0 when codecs are off)."""
        if self.payload_encoded_bytes <= 0:
            return 1.0
        return self.payload_raw_bytes / self.payload_encoded_bytes

    @property
    def bandwidth(self) -> float:
        """Apparent write bandwidth in bytes/s, as a simulation observes it."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0


class TwoPhaseWriter:
    """Spatially aware two-phase writer with a pluggable aggregation strategy.

    ``strategy`` is either ``"adaptive"`` (the paper's contribution) or a
    callable ``(bounds, counts, bytes_per_particle, target_size) -> plan``
    where the plan exposes ``leaves`` (used for the AUG baseline).
    """

    def __init__(
        self,
        machine: MachineSpec,
        target_size: int | str = 8 << 20,
        strategy="adaptive",
        agg_config: AggTreeConfig | None = None,
        bat_config: BATBuildConfig | None = None,
        layout: str = "bat",
        network_model: str = "phase",
        faults: FaultConfig | None = None,
    ):
        from ..layouts import get_layout

        self.machine = machine
        self.strategy = strategy
        self.network_model = network_model
        #: fault-injection config; None (or all-zero probabilities) leaves
        #: the pipeline byte- and timing-identical to a fault-free run
        self.faults = faults
        self.layout = get_layout(layout)
        if layout != "bat" and bat_config is not None:
            raise ValueError("bat_config only applies to the 'bat' layout")
        if target_size == "auto":
            # resolved per write from the timestep's size (§VII extension)
            if agg_config is not None:
                raise ValueError("agg_config cannot be combined with target_size='auto'")
            self.target_size = "auto"
            self.agg_config = None
        else:
            self.target_size = int(target_size)
            self.agg_config = agg_config or AggTreeConfig(target_size=self.target_size)
            if self.agg_config.target_size != self.target_size:
                raise ValueError("agg_config.target_size disagrees with target_size")
        self.bat_config = bat_config or BATBuildConfig()

    # -- plan ---------------------------------------------------------------

    def _resolve_target(self, data: RankData) -> tuple[int, AggTreeConfig]:
        if self.target_size == "auto":
            from .autotune import recommend_target_size

            target = recommend_target_size(data.total_bytes, data.nranks)
            # the paper's evaluated overfull settings (§VI-A2)
            return target, AggTreeConfig(
                target_size=target, overfull_cost_ratio=4.0, overfull_factor=1.5
            )
        return self.target_size, self.agg_config

    def build_plan(self, data: RankData):
        target, agg_config = self._resolve_target(data)
        if self.strategy == "adaptive":
            return build_aggregation_tree(
                data.bounds, data.counts, data.bytes_per_particle, agg_config
            )
        if callable(self.strategy):
            return self.strategy(data.bounds, data.counts, data.bytes_per_particle, target)
        raise ValueError(f"unknown strategy {self.strategy!r}")

    # -- pipeline -------------------------------------------------------------

    def write(
        self,
        data: RankData,
        out_dir=None,
        name: str = "timestep",
    ) -> WriteReport:
        """Write one timestep; returns the report with modeled timings.

        When ``data`` is materialized and ``out_dir`` is given, real BAT
        files and the metadata manifest land in ``out_dir``.
        """
        materialize = data.materialized and out_dir is not None
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)

        nranks = data.nranks
        cluster = VirtualCluster(nranks, self.machine, network_model=self.network_model)
        net = self.machine.network

        faults = self.faults if (self.faults is not None and self.faults.any_enabled) else None
        injector = FaultInjector(faults) if faults is not None else None
        fault_report = FaultReport() if injector is not None else None

        # 1. gather rank info
        cluster.gather_to_root(PHASE_NAMES[0], self.machine.rank_meta_bytes)

        # 2. aggregation plan on rank 0 (modeled serial cost ~ R log R)
        plan = self.build_plan(data)
        r_active = max(int((data.counts > 0).sum()), 1)
        tree_cost = self.machine.tree_build_coeff * r_active * max(math.log2(r_active), 1.0)
        cluster.root_compute(PHASE_NAMES[1], tree_cost)

        leaves = list(plan.leaves)
        n_leaves = len(leaves)
        aggregators = assign_write_aggregators(n_leaves, nranks)
        for leaf, agg in zip(leaves, aggregators):
            leaf.aggregator = int(agg)

        # 3. scatter assignments: each rank gets its aggregator id and count;
        # aggregators additionally get their member-rank list.
        member_bytes = sum(len(l.rank_ids) for l in leaves) * 12 / nranks
        cluster.scatter_from_root(PHASE_NAMES[2], 16 + member_bytes)

        # 4. transfer particles to aggregators
        bpp = data.bytes_per_particle
        messages = []
        for leaf in leaves:
            for r in leaf.rank_ids:
                c = int(data.counts[r])
                if c > 0:
                    messages.append(Message(int(r), leaf.aggregator, c * bpp))
        if injector is not None:
            # Dropped messages cost their lost transmission plus a
            # retransmit phase; duplicates cost the wire twice. The
            # functional data path below concatenates member batches
            # directly, so only timing is perturbed.
            timing, retransmits, dropped, duplicated = injector.perturb_messages(messages)
            fault_report.dropped_messages = dropped
            fault_report.duplicated_messages = duplicated
            cluster.p2p(PHASE_NAMES[3], timing)
            if retransmits:
                cluster.p2p("retransmit dropped messages", retransmits)
        else:
            cluster.p2p(PHASE_NAMES[3], messages)

        # Aggregator death: ranks that die after receiving particles but
        # before building their files. Affected leaves are reassigned
        # deterministically to surviving ranks and the members re-send.
        if injector is not None and faults.aggregator_death > 0.0:
            dead = injector.sample_dead_aggregators(aggregators)
            if dead:
                dead_set = set(dead)
                alive = [r for r in range(nranks) if r not in dead_set]
                retransfer = []
                n_reassigned = 0
                for i, leaf in enumerate(leaves):
                    if leaf.aggregator in dead_set:
                        leaf.aggregator = alive[i % len(alive)]
                        n_reassigned += 1
                        for r in leaf.rank_ids:
                            c = int(data.counts[r])
                            if c > 0:
                                retransfer.append(Message(int(r), leaf.aggregator, c * bpp))
                aggregators = np.array([l.aggregator for l in leaves], dtype=np.int64)
                if retransfer:
                    cluster.p2p("recover dead aggregators", retransfer)
                fault_report.dead_aggregators = dead
                fault_report.reassigned_leaves = n_reassigned

        payload_raw = payload_enc = 0
        codec_table: dict = {}
        attr_dtypes = None

        # 5. BAT construction on aggregators (per-rank, sums over the leaves
        # a rank aggregates)
        bat_seconds = np.zeros(nranks)
        for leaf in leaves:
            bat_seconds[leaf.aggregator] += leaf.count / self.machine.bat_build_rate
        cluster.compute(PHASE_NAMES[4], bat_seconds)

        ext = self.layout.extension
        file_names = [f"{name}.{i:05d}{ext}" for i in range(n_leaves)]
        leaf_ranges: list[dict] = []
        leaf_bitmaps: list[dict] = []
        leaf_binnings: list[dict] | None = None
        write_sizes = np.zeros(nranks)
        file_sizes = np.zeros(n_leaves)
        # Per-leaf fault plans are precomputed here (rank 0) as plain
        # tuples, so thread scheduling cannot reorder them; retry_sizes
        # accumulates the extra bytes each aggregator re-publishes.
        plans = (
            [injector.plan_leaf_write(i) for i in range(n_leaves)]
            if injector is not None
            else None
        )
        retry_sizes = np.zeros(nranks)
        if data.materialized:
            cfg = self.bat_config if self.layout.name == "bat" else None
            max_attempts = faults.max_write_attempts if faults is not None else 1
            # One task per aggregation leaf: every aggregator gathers, builds
            # and publishes independently, so the tasks fan out; the rank-0
            # metadata assembly below is the only barrier. Results come
            # back in leaf order, so pooled runs are bit-identical to
            # in-process ones.
            tasks = [
                (
                    [data.batches[r] for r in leaf.rank_ids],
                    str(out_dir / file_names[i]) if materialize else None,
                    plans[i] if plans is not None else (),
                )
                for i, leaf in enumerate(leaves)
            ]
            built = fan_out(partial(_build_leaf, self.layout.name, cfg, max_attempts), tasks)
            if built:
                attr_dtypes = built[0].attr_dtypes
            leaf_binnings = []
            for i, (leaf, bb) in enumerate(zip(leaves, built)):
                leaf_ranges.append(bb.attr_ranges)
                leaf_bitmaps.append(bb.root_bitmaps)
                leaf_binnings.append(bb.attr_binnings)
                write_sizes[leaf.aggregator] += bb.nbytes
                file_sizes[i] = bb.nbytes
                payload_raw += bb.payload_raw_bytes
                payload_enc += bb.payload_encoded_bytes
                if not codec_table and bb.codec_table:
                    codec_table = dict(bb.codec_table)
                if fault_report is not None:
                    self._tally_attempts(
                        fault_report, plans[i], bb.attempts, leaf, bb.nbytes, retry_sizes
                    )
        else:
            for i, leaf in enumerate(leaves):
                leaf_ranges.append({})
                leaf_bitmaps.append({})
                size = leaf.nbytes * ESTIMATED_BAT_OVERHEAD
                write_sizes[leaf.aggregator] += size
                file_sizes[i] = size
                if fault_report is not None:
                    # counts-only run: every damaged attempt in the plan
                    # would have been consumed before the clean publish
                    self._tally_attempts(
                        fault_report, plans[i], len(plans[i]) + 1, leaf, size, retry_sizes
                    )

        # 6. write aggregator files
        writers = write_sizes > 0
        creates = np.bincount(
            aggregators, weights=np.ones(n_leaves), minlength=nranks
        )
        avg_creates = float(creates[writers].mean()) if writers.any() else 1.0
        cluster.write_independent(PHASE_NAMES[5], write_sizes, creates=avg_creates)
        if fault_report is not None and retry_sizes.any():
            cluster.retry_writes("retry failed writes", retry_sizes)

        # 7. metadata: aggregators send ranges+bitmaps to rank 0, which
        # writes the manifest.
        n_attrs = max(len(leaf_ranges[0]) if leaf_ranges else 0, 1)
        cluster.gather_to_root("gather leaf summaries", 20.0 * n_attrs)
        metadata = build_metadata(
            plan, nranks, file_names, leaf_ranges, leaf_bitmaps, leaf_binnings,
            layout=self.layout.name, attr_dtypes=attr_dtypes,
        )
        metadata_path = None
        if materialize:
            metadata_path = str(out_dir / f"{name}.meta.json")
            metadata.save(metadata_path)  # also records json_size
        cluster.root_small_write(PHASE_NAMES[6], metadata.json_size)

        breakdown = cluster.breakdown()
        breakdown[PHASE_NAMES[6]] = breakdown.pop(PHASE_NAMES[6], 0.0) + breakdown.pop(
            "gather leaf summaries", 0.0
        )
        counts_arr = np.array([l.count for l in leaves], dtype=np.float64)
        imbalance = float(counts_arr.max() / counts_arr.mean()) if n_leaves else 1.0
        return WriteReport(
            elapsed=cluster.elapsed,
            breakdown=breakdown,
            total_bytes=data.total_bytes,
            n_files=n_leaves,
            file_sizes=file_sizes,
            imbalance=imbalance,
            metadata=metadata,
            metadata_path=metadata_path,
            plan=plan,
            faults=fault_report,
            payload_raw_bytes=payload_raw,
            payload_encoded_bytes=payload_enc,
            codec_table=codec_table,
        )

    @staticmethod
    def _tally_attempts(
        report: FaultReport, plan: tuple, attempts: int, leaf, nbytes: float,
        retry_sizes: np.ndarray,
    ) -> None:
        """Fold one leaf's publish attempts into the fault report."""
        report.write_attempts += attempts
        if attempts > 1:
            report.retried_writes += 1
            retry_sizes[leaf.aggregator] += (attempts - 1) * nbytes
        for kind, _frac in plan[: attempts - 1]:
            if kind == "torn":
                report.injected_torn += 1
            elif kind == "bitflip":
                report.injected_bit_flips += 1
