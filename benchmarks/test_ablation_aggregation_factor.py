"""Ablation: aggregation factor vs scale (§VI-A2 recommendations).

The paper recommends ~1:1–4:1 aggregation at small scales and >=16:1 at
large scales. This ablation sweeps the factor (via the target size) at a
small and a large rank count and checks the recommendation falls out of
the model: the best factor grows with scale.
"""

from benchmarks.paper import format_table, two_phase_write_point
from conftest import emit
from repro.machines import stampede2
from repro.workloads import uniform_rank_data

PER_RANK = 4.06e6
FACTORS = (1, 2, 4, 8, 16, 32, 64)


def test_best_aggregation_factor_grows_with_scale():
    out = {}
    for nranks in (384, 24576):
        data = uniform_rank_data(nranks)
        bws = {}
        for f in FACTORS:
            target = int(PER_RANK * f)
            rep = two_phase_write_point(stampede2(), data, target)
            bws[f] = rep.bandwidth
        out[nranks] = bws
    table = [
        [nranks] + [f"{bws[f] / 1e9:.1f}" for f in FACTORS] for nranks, bws in out.items()
    ]
    emit(
        format_table(
            ["ranks"] + [f"{f}:1" for f in FACTORS],
            table,
            title="Ablation: write bandwidth (GB/s) vs aggregation factor",
        )
    )

    best_small = max(out[384], key=out[384].get)
    best_large = max(out[24576], key=out[24576].get)
    emit(f"best factor: {best_small}:1 at 384 ranks, {best_large}:1 at 24576 ranks")
    assert best_small <= 8  # small scale: small factors
    assert best_large >= 16  # large scale: heavy aggregation
    assert best_large > best_small
