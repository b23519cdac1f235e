"""Fig 8: the evaluation datasets over time (quantitative stand-in).

The paper's Fig 8 shows renders of the Coal Boiler (timesteps 501, 2501,
4501) and Dam Break (0, 1001, 4001). We reproduce the figure's *content* as
distribution statistics: total particles, occupied-rank fraction, and
per-rank imbalance — the properties that drive the I/O results.
"""

from benchmarks.paper import format_table
from conftest import emit
from repro.workloads import CoalBoiler, DamBreak


def test_fig08a_coal_boiler_stats():
    boiler = CoalBoiler()

    rows = []
    for ts in (501, 2501, 4501):
        rd = boiler.rank_data(ts, 1536, sample_size=200_000)
        nz = rd.counts[rd.counts > 0]
        rows.append(
            [
                ts,
                f"{rd.total_particles / 1e6:.1f}M",
                f"{len(nz) / 1536:.0%}",
                f"{rd.counts.max() / max(rd.counts.mean(), 1):.1f}x",
                f"{rd.total_bytes / 1e9:.2f}GB",
            ]
        )
    emit(
        format_table(
            ["timestep", "particles", "occupied ranks", "imbalance", "data"],
            rows,
            title="Fig 8a: Coal Boiler time series (1536 ranks)",
        )
    )
    # published totals and growing population
    assert rows[0][1] == "4.6M"
    assert rows[2][1] == "41.5M"
    # injection starts localized, spreads over time
    occupied = [float(r[2].rstrip("%")) for r in rows]
    assert occupied[0] < occupied[-1]


def test_fig08b_dam_break_stats():
    dam = DamBreak(total=2_000_000)

    rows = []
    for ts in (0, 1001, 4001):
        rd = dam.rank_data(ts, 1536, sample_size=200_000)
        nz = rd.counts[rd.counts > 0]
        rows.append(
            [
                ts,
                f"{rd.total_particles / 1e6:.2f}M",
                f"{len(nz) / 1536:.0%}",
                f"{rd.counts.max() / max(rd.counts.mean(), 1):.1f}x",
            ]
        )
    emit(
        format_table(
            ["timestep", "particles", "occupied ranks", "imbalance"],
            rows,
            title="Fig 8b: Dam Break time series (2M particles, 1536 ranks)",
        )
    )
    # fixed count, spreading occupancy, falling imbalance
    totals = [r[1] for r in rows]
    assert len(set(totals)) == 1
    occupied = [float(r[2].rstrip("%")) for r in rows]
    assert occupied[0] < occupied[-1]
    imb = [float(r[3].rstrip("x")) for r in rows]
    assert imb[0] > imb[-1]
