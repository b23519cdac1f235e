"""Sweep runners behind the ``benchmarks/`` targets.

Scaling and time-series experiments run counts-only on the virtual cluster
(DESIGN.md §5); the progressive-read experiments (Tables I–II) measure real
wall-clock time against real BAT files on local storage, matching the
paper's single-threaded desktop methodology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..api import QueryRequest
from ..baselines import build_aug_plan, ior_benchmark
from ..core import AggTreeConfig, RankData, TwoPhaseReader, TwoPhaseWriter
from ..core.dataset import BATDataset
from ..machines import MachineSpec
from ..workloads import uniform_rank_data

__all__ = [
    "ScalingPoint",
    "weak_scaling",
    "two_phase_write_point",
    "two_phase_read_point",
    "timing_breakdown",
    "coal_boiler_series",
    "dam_break_series",
    "progressive_read_benchmark",
]

MB = 1 << 20

#: overfull settings used throughout the paper's evaluation (§VI-A2)
PAPER_AGG = dict(overfull_cost_ratio=4.0, overfull_factor=1.5)


def paper_agg_config(target_size: int) -> AggTreeConfig:
    return AggTreeConfig(target_size=target_size, **PAPER_AGG)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a weak-scaling curve."""

    label: str
    nranks: int
    total_bytes: float
    write_bandwidth: float
    read_bandwidth: float


def two_phase_write_point(
    machine: MachineSpec, data: RankData, target_size: int, strategy="adaptive"
):
    """Write one timestep with the two-phase pipeline; returns the report."""
    if strategy == "adaptive":
        writer = TwoPhaseWriter(
            machine, target_size=target_size, agg_config=paper_agg_config(target_size)
        )
    elif strategy == "aug":
        writer = TwoPhaseWriter(machine, target_size=target_size, strategy=build_aug_plan)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return writer.write(data)


def two_phase_read_point(machine: MachineSpec, write_report, data: RankData, shift: int = 1):
    """Restart-read the just-written data on shifted ranks (paper §VI-A).

    Reading rank r asks for the region writing rank (r+shift) owned, so no
    rank reads what it wrote (defeats OS caching in the paper's runs; here
    it exercises the cross-rank transfer path).
    """
    read_bounds = np.roll(data.bounds, -shift, axis=0)
    reader = TwoPhaseReader(machine)
    return reader.read(write_report.metadata, read_bounds)


def weak_scaling(
    machine: MachineSpec,
    rank_counts: list[int],
    target_sizes: list[int] = (8 * MB, 64 * MB, 256 * MB),
    ior_modes: list[str] = ("fpp", "shared", "hdf5"),
    particles_per_rank: int = 32_768,
) -> list[ScalingPoint]:
    """Figs 5 and 7: uniform weak scaling of writes and reads."""
    out: list[ScalingPoint] = []
    bpp = 3 * 4 + 14 * 8
    for nranks in rank_counts:
        block = particles_per_rank * bpp
        for mode in ior_modes:
            r = ior_benchmark(machine, nranks, block, mode)
            out.append(
                ScalingPoint(
                    label=f"ior-{mode}",
                    nranks=nranks,
                    total_bytes=r.total_bytes,
                    write_bandwidth=r.write_bandwidth,
                    read_bandwidth=r.read_bandwidth,
                )
            )
        data = uniform_rank_data(nranks, particles_per_rank)
        for target in target_sizes:
            wrep = two_phase_write_point(machine, data, target)
            rrep = two_phase_read_point(machine, wrep, data)
            out.append(
                ScalingPoint(
                    label=f"two-phase-{target // MB}MB",
                    nranks=nranks,
                    total_bytes=data.total_bytes,
                    write_bandwidth=wrep.bandwidth,
                    read_bandwidth=rrep.bandwidth,
                )
            )
    return out


def timing_breakdown(
    machine: MachineSpec, rank_counts: list[int], target_size: int
) -> list[dict]:
    """Fig 6: per-phase makespan fractions of the uniform write."""
    rows = []
    for nranks in rank_counts:
        data = uniform_rank_data(nranks)
        rep = two_phase_write_point(machine, data, target_size)
        total = sum(rep.breakdown.values())
        rows.append(
            {
                "nranks": nranks,
                "elapsed": rep.elapsed,
                "phases": dict(rep.breakdown),
                "fractions": {k: v / total for k, v in rep.breakdown.items()} if total else {},
            }
        )
    return rows


def _series(machine, workload_rank_data, timesteps, target_sizes, strategies, read_shift=1):
    rows = []
    for ts in timesteps:
        data = workload_rank_data(ts)
        for target in target_sizes:
            for strategy in strategies:
                wrep = two_phase_write_point(machine, data, target, strategy)
                rrep = two_phase_read_point(machine, wrep, data, shift=read_shift)
                rows.append(
                    {
                        "timestep": ts,
                        "target_mb": target // MB,
                        "strategy": strategy,
                        "total_particles": data.total_particles,
                        "write_seconds": wrep.elapsed,
                        "write_bandwidth": wrep.bandwidth,
                        "read_seconds": rrep.elapsed,
                        "read_bandwidth": rrep.bandwidth,
                        "n_files": wrep.n_files,
                        "file_sizes": wrep.file_sizes,
                        "write_breakdown": wrep.breakdown,
                        "read_breakdown": rrep.breakdown,
                        "imbalance": wrep.imbalance,
                    }
                )
    return rows


def coal_boiler_series(
    machine: MachineSpec,
    nranks: int = 1536,
    timesteps=(501, 1501, 2501, 3501, 4501),
    target_sizes=(8 * MB, 16 * MB, 32 * MB, 64 * MB),
    strategies=("adaptive", "aug"),
    sample_size: int = 300_000,
) -> list[dict]:
    """Figs 9–10: adaptive vs AUG over the Coal Boiler time series."""
    from ..workloads import CoalBoiler

    boiler = CoalBoiler()
    return _series(
        machine,
        lambda ts: boiler.rank_data(ts, nranks, sample_size=sample_size),
        timesteps,
        target_sizes,
        strategies,
    )


def dam_break_series(
    machine: MachineSpec,
    total_particles: int = 2_000_000,
    nranks: int = 1536,
    timesteps=(0, 1001, 2001, 3001, 4001),
    target_sizes=(1 * MB, 3 * MB),
    strategies=("adaptive", "aug"),
    sample_size: int = 300_000,
) -> list[dict]:
    """Figs 11–12: adaptive vs AUG over the Dam Break time series."""
    from ..workloads import DamBreak

    dam = DamBreak(total=total_particles)
    return _series(
        machine,
        lambda ts: dam.rank_data(ts, nranks, sample_size=sample_size),
        timesteps,
        target_sizes,
        strategies,
    )


def progressive_read_benchmark(
    metadata_path, steps: int = 10, start_quality: float = 0.1
) -> dict:
    """Tables I–II: real single-threaded progressive read timing.

    Starting at ``start_quality``, requests successively higher quality in
    equal increments until the full data set is loaded, timing traversal
    plus per-point processing — the paper's desktop methodology.
    """
    with BATDataset(metadata_path) as ds:
        qualities = np.linspace(start_quality, 1.0, steps)
        prev = 0.0
        times = []
        points = []
        for q in qualities:
            t0 = time.perf_counter()
            batch, _ = ds.query(QueryRequest(quality=float(q), prev_quality=prev))
            dt = time.perf_counter() - t0
            times.append(dt)
            points.append(len(batch))
            prev = float(q)
        total_pts = int(np.sum(points))
        total_time = float(np.sum(times))
        return {
            "avg_read_ms": 1e3 * total_time / len(times),
            "throughput_pts_per_ms": total_pts / (1e3 * total_time) if total_time else 0.0,
            "total_points": total_pts,
            "per_step_ms": [1e3 * t for t in times],
            "per_step_points": points,
        }
