"""Fig 10: timing breakdowns, adaptive vs AUG, Coal Boiler at 8 MB target.

Paper shape: the improved load balance of adaptive aggregation reduces time
spent in every major pipeline component, cutting total write time.
"""

from benchmarks.paper import coal_boiler_series, format_table
from conftest import MB, emit
from repro.machines import stampede2

TIMESTEPS = (501, 2501, 4501)
MAJOR = ("transfer to aggregators", "construct BAT", "write files")


def test_fig10_breakdowns():
    rows = coal_boiler_series(
        stampede2(), nranks=1536, timesteps=TIMESTEPS, target_sizes=(8 * MB,), sample_size=300_000
    )
    by = {(r["timestep"], r["strategy"]): r for r in rows}

    table = []
    for ts in TIMESTEPS:
        for strat in ("adaptive", "aug"):
            bd = by[(ts, strat)]["write_breakdown"]
            table.append(
                [ts, strat, f"{by[(ts, strat)]['write_seconds']:.3f}s"]
                + [f"{bd.get(p, 0):.3f}s" for p in MAJOR]
            )
    emit(
        format_table(
            ["timestep", "strategy", "total"] + list(MAJOR),
            table,
            title="Fig 10: Coal Boiler write breakdown, 8MB target (1536 ranks)",
        )
    )

    for ts in TIMESTEPS[1:]:
        a = by[(ts, "adaptive")]["write_breakdown"]
        g = by[(ts, "aug")]["write_breakdown"]
        # adaptive total is lower, and the major components do not regress
        assert by[(ts, "adaptive")]["write_seconds"] < by[(ts, "aug")]["write_seconds"]
        major_a = sum(a.get(p, 0) for p in MAJOR)
        major_g = sum(g.get(p, 0) for p in MAJOR)
        assert major_a < major_g * 1.05
