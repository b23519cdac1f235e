"""Machine models: Stampede2, Summit, and a generic testing machine.

Each :class:`MachineSpec` bundles a network model, a filesystem model, and
compute-rate constants for the pipeline's CPU-bound stages. The constants
are *calibrated*, not measured: they are chosen so the first-order models
in :mod:`repro.simmpi` and :mod:`repro.iosim` put the paper's observed
crossovers in the right places (DESIGN.md §2):

- Stampede2 (Lustre, 330 GB/s peak, stripe 32 x 8 MB, 100 Gb/s fat tree,
  48-core SKX nodes): file-per-process flattens near 1536 ranks, so the
  metadata create rate is set so the per-rank create storm overtakes the
  ~4 MB payload write around that point.
- Summit (GPFS, 2.5 TB/s peak, 184 Gb/s, 42 hardware threads used per
  node): file-per-process flattens near 672 ranks, hence a lower create
  rate; GPFS has no per-file stripe-width cap, so shared-file scaling is
  limited by the per-writer coupling term instead.
- BAT construction is faster per particle on Summit's POWER9 (larger L3),
  matching the paper's Fig 6 discussion.

Absolute bandwidths will not match the paper's testbeds and are not meant
to; EXPERIMENTS.md compares shapes, ratios, and crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .iosim import FileSystemSpec, ParallelFileSystem
from .simmpi.network import NetworkSpec

__all__ = ["MachineSpec", "stampede2", "summit", "testing_machine"]

GB = 1e9
TB = 1e12


@dataclass(frozen=True)
class MachineSpec:
    """One HPC system: interconnect, filesystem, and compute rates."""

    name: str
    network: NetworkSpec
    filesystem: FileSystemSpec
    #: BAT construction throughput per aggregator, particles/second.
    bat_build_rate: float
    #: Aggregation Tree build cost coefficient: seconds per rank*log2(ranks).
    tree_build_coeff: float
    #: Read-side spatial query scan rate on an aggregator, particles/second.
    query_scan_rate: float
    #: Bytes of (bounds, count) metadata gathered per rank when building
    #: the Aggregation Tree: 6 doubles + one int64.
    rank_meta_bytes: int = 56

    def fs_model(self) -> ParallelFileSystem:
        return ParallelFileSystem(self.filesystem)


def stampede2() -> MachineSpec:
    """TACC Stampede2: SKX nodes, Omni-Path fat tree, Lustre scratch."""
    return MachineSpec(
        name="stampede2",
        network=NetworkSpec(
            node_bw=12.5 * GB,  # 100 Gb/s Omni-Path
            latency=2e-6,
            ranks_per_node=48,
            bisection_bw=float("inf"),  # full-bisection fat tree
        ),
        filesystem=FileSystemSpec(
            name="lustre-scratch",
            peak_write_bw=330 * GB,
            peak_read_bw=300 * GB,
            client_bw=1.2 * GB,
            target_bw=1.0 * GB,  # per-OST
            stripe_count=32,  # paper's stripe settings (32 x 8 MB)
            create_rate=20_000.0,
            open_rate=40_000.0,
            shared_writer_overhead=5e-4,
        ),
        bat_build_rate=20e6,
        tree_build_coeff=2e-7,
        query_scan_rate=150e6,
    )


def summit() -> MachineSpec:
    """OLCF Summit: POWER9 nodes, EDR fat tree, Spectrum Scale (GPFS)."""
    return MachineSpec(
        name="summit",
        network=NetworkSpec(
            node_bw=23.0 * GB,  # 184 Gb/s (dual-rail EDR)
            latency=1.5e-6,
            ranks_per_node=42,
            bisection_bw=float("inf"),
        ),
        filesystem=FileSystemSpec(
            name="gpfs-alpine",
            peak_write_bw=2.5 * TB,
            peak_read_bw=2.2 * TB,
            client_bw=2.5 * GB,
            target_bw=2.5 * GB,
            stripe_count=1024,  # GPFS block-distributes; effectively uncapped
            create_rate=5_000.0,
            open_rate=12_000.0,
            shared_writer_overhead=5e-4,
        ),
        bat_build_rate=30e6,
        tree_build_coeff=2e-7,
        query_scan_rate=200e6,
    )


def testing_machine(
    ranks_per_node: int = 4,
    create_rate: float = 1_000.0,
    peak_bw: float = 10 * GB,
) -> MachineSpec:
    """A small, fast-to-simulate machine for unit tests and examples."""
    return MachineSpec(
        name="testing",
        network=NetworkSpec(
            node_bw=10 * GB,
            latency=1e-6,
            ranks_per_node=ranks_per_node,
        ),
        filesystem=FileSystemSpec(
            name="testing-fs",
            peak_write_bw=peak_bw,
            peak_read_bw=peak_bw,
            client_bw=1 * GB,
            target_bw=1 * GB,
            stripe_count=4,
            create_rate=create_rate,
            open_rate=2 * create_rate,
            shared_writer_overhead=5e-4,
        ),
        bat_build_rate=10e6,
        tree_build_coeff=2e-7,
        query_scan_rate=100e6,
    )


# pytest collects module-level ``test*`` callables of every test module that
# imports this one by name; it is a factory, not a test
testing_machine.__test__ = False
