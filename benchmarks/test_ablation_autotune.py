"""Ablation: automatic target-size selection vs fixed targets.

§VII proposes auto-selecting the target size from the particle count and
size; `repro.core.autotune` implements it from the paper's §VI-A2
guidance. The test drives the growing Coal Boiler series and checks that
the auto writer tracks close to the best fixed target at every step —
i.e. nobody has to hand-tune the portability parameter per machine/step.
"""

import numpy as np

from benchmarks.paper import format_table, two_phase_write_point
from conftest import MB, emit
from repro.core import TwoPhaseWriter
from repro.machines import stampede2
from repro.workloads import CoalBoiler

FIXED_TARGETS = (8 * MB, 16 * MB, 32 * MB, 64 * MB)
TIMESTEPS = (501, 1501, 2501, 3501, 4501)


def test_auto_target_tracks_best_fixed():
    boiler = CoalBoiler()
    machine = stampede2()
    rows = []
    for ts in TIMESTEPS:
        data = boiler.rank_data(ts, 1536, sample_size=250_000)
        fixed = {
            t: two_phase_write_point(machine, data, t).bandwidth for t in FIXED_TARGETS
        }
        auto_rep = TwoPhaseWriter(machine, target_size="auto").write(data)
        rows.append((ts, fixed, auto_rep.bandwidth, auto_rep.n_files))
    table = []
    ratios = []
    for ts, fixed, auto_bw, n_files in rows:
        best = max(fixed.values())
        ratios.append(auto_bw / best)
        table.append(
            [ts]
            + [f"{bw / 1e9:.1f}" for bw in fixed.values()]
            + [f"{auto_bw / 1e9:.1f}", f"{auto_bw / best:.2f}", n_files]
        )
    emit(
        format_table(
            ["timestep"] + [f"{t // MB}MB" for t in FIXED_TARGETS] + ["auto", "auto/best", "auto files"],
            table,
            title="Ablation: auto target size vs fixed (Coal Boiler @1536, GB/s)",
        )
    )
    # the auto writer achieves a solid fraction of the best fixed target at
    # every step, without per-step tuning
    assert min(ratios) > 0.5
    assert float(np.mean(ratios)) > 0.7
