"""Fig 12: breakdowns on the 8M Dam Break, 3 MB target.

Paper shape: the Dam Break has a fixed particle count, so an ideal
strategy writes in constant time; adaptive aggregation stays nearly
constant across the series while AUG's write time tracks the changing
particle distribution.
"""

import numpy as np

from benchmarks.paper import dam_break_series, format_table
from conftest import MB, emit
from repro.machines import stampede2

TIMESTEPS = (0, 501, 1001, 2001, 3001, 4001)
MAJOR = ("transfer to aggregators", "construct BAT", "write files")


def test_fig12_adaptive_constant_aug_drifts():
    rows = dam_break_series(
        stampede2(), total_particles=8_000_000, nranks=6144, timesteps=TIMESTEPS,
        target_sizes=(3 * MB,), sample_size=250_000,
    )
    by = {(r["timestep"], r["strategy"]): r for r in rows}

    table = []
    for ts in TIMESTEPS:
        for strat in ("adaptive", "aug"):
            r = by[(ts, strat)]
            table.append(
                [ts, strat, f"{r['write_seconds']:.3f}s", r["n_files"], f"{r['imbalance']:.1f}x"]
                + [f"{r['write_breakdown'].get(p, 0):.3f}s" for p in MAJOR]
            )
    emit(
        format_table(
            ["timestep", "strategy", "total", "files", "leaf imb."] + list(MAJOR),
            table,
            title="Fig 12: 8M Dam Break write breakdown, 3MB target (6144 ranks)",
        )
    )

    a_times = np.array([by[(ts, "adaptive")]["write_seconds"] for ts in TIMESTEPS])
    g_times = np.array([by[(ts, "aug")]["write_seconds"] for ts in TIMESTEPS])
    # coefficient of variation: adaptive write time is markedly steadier
    cv_a = a_times.std() / a_times.mean()
    cv_g = g_times.std() / g_times.mean()
    emit(f"write-time variation: adaptive CV={cv_a:.2f}, AUG CV={cv_g:.2f}")
    assert cv_a < cv_g
    # adaptive leaf imbalance stays low throughout
    for ts in TIMESTEPS:
        assert by[(ts, "adaptive")]["imbalance"] <= by[(ts, "aug")]["imbalance"] * 1.05
