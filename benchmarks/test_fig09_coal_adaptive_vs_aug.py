"""Fig 9: adaptive vs AUG I/O on the Coal Boiler time series at 1536 ranks.

Paper shape: adaptive aggregation improves writes by up to 2.5x and reads
by up to 3x over AUG; lower target sizes degrade as the particle count
grows while larger targets surpass them.
"""

import numpy as np
import pytest

from benchmarks.paper import coal_boiler_series, format_table
from conftest import MB, emit
from repro.machines import stampede2

TIMESTEPS = (501, 1501, 2501, 3501, 4501)
TARGETS = (8 * MB, 16 * MB, 32 * MB, 64 * MB)


@pytest.fixture(scope="module")
def series():
    return coal_boiler_series(
        stampede2(), nranks=1536, timesteps=TIMESTEPS, target_sizes=TARGETS,
        sample_size=300_000,
    )


def test_fig09a_writes(series):
    by = {(r["timestep"], r["target_mb"], r["strategy"]): r for r in series}
    table = []
    speedups = []
    for ts in TIMESTEPS:
        line = [ts]
        for t in TARGETS:
            a = by[(ts, t // MB, "adaptive")]["write_bandwidth"]
            g = by[(ts, t // MB, "aug")]["write_bandwidth"]
            speedups.append(a / g)
            line.append(f"{a / 1e9:.1f}/{g / 1e9:.1f} ({a / g:.2f}x)")
        table.append(line)
    emit(
        format_table(
            ["timestep"] + [f"{t // MB}MB adp/aug" for t in TARGETS],
            table,
            title="Fig 9a: Coal Boiler write bandwidth, adaptive vs AUG (GB/s)",
        )
    )
    # adaptive never loses badly, and wins big somewhere (paper: up to 2.5x)
    assert min(speedups) > 0.85
    assert max(speedups) > 1.8


def test_fig09b_reads(series):
    by = {(r["timestep"], r["target_mb"], r["strategy"]): r for r in series}
    table = []
    speedups = []
    for ts in TIMESTEPS:
        line = [ts]
        for t in TARGETS:
            a = by[(ts, t // MB, "adaptive")]["read_bandwidth"]
            g = by[(ts, t // MB, "aug")]["read_bandwidth"]
            speedups.append(a / g)
            line.append(f"{a / 1e9:.1f}/{g / 1e9:.1f} ({a / g:.2f}x)")
        table.append(line)
    emit(
        format_table(
            ["timestep"] + [f"{t // MB}MB adp/aug" for t in TARGETS],
            table,
            title="Fig 9b: Coal Boiler read bandwidth, adaptive vs AUG (GB/s)",
        )
    )
    # individual (timestep, target) points can cross (they do in the
    # paper's curves too); the claim is the aggregate advantage, with large
    # wins at the favourable operating points (paper: up to 3x)
    geomean = float(np.exp(np.mean(np.log(speedups))))
    assert geomean > 1.1
    assert max(speedups) > 1.8
    assert min(speedups) > 0.4


def test_fig09_small_targets_lose_ground_as_population_grows(series):
    by = {(r["timestep"], r["target_mb"], r["strategy"]): r for r in series}
    # paper: "As the number of particles increases, we observe decreasing
    # performance at lower target sizes, whereas larger target sizes
    # surpass them." Our filesystem model penalizes file-count growth more
    # mildly than the real Lustre MDS, so we assert the relative trend: the
    # small target's advantage over the large one shrinks over the series.
    early, late = TIMESTEPS[0], TIMESTEPS[-1]
    ratio_early = (
        by[(early, 8, "adaptive")]["write_bandwidth"]
        / by[(early, 64, "adaptive")]["write_bandwidth"]
    )
    ratio_late = (
        by[(late, 8, "adaptive")]["write_bandwidth"]
        / by[(late, 64, "adaptive")]["write_bandwidth"]
    )
    assert ratio_early > 1.0  # small targets win while the data is small
    assert ratio_late < ratio_early  # and lose ground as it grows
