"""Coal Boiler time series: adaptive I/O for a growing, clustered workload.

Reproduces the paper's headline scenario (§VI-A2) end to end at laptop
scale: a synthetic coal-injection simulation whose particle population
grows and drifts writes a series of timesteps through (a) the adaptive
aggregation tree and (b) the AUG baseline, on a virtual Stampede2
partition. Real (scaled-down) BAT files are written for selected steps and
then explored with attribute-filtered visualization queries.

Usage: python examples/coal_boiler_timeseries.py
"""

import shutil
from pathlib import Path

from repro import AttributeFilter, BATDataset, QueryRequest, TwoPhaseWriter, machines
from repro.baselines import build_aug_plan
from repro.workloads import CoalBoiler

OUT = Path(__file__).parent / "coal_out"
MB = 1 << 20
NRANKS = 384
TIMESTEPS = (501, 1501, 2501, 3501, 4501)


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    machine = machines.stampede2()
    boiler = CoalBoiler()

    # -- I/O scaling over the time series (counts-only, full published sizes)
    rows = []
    for ts in TIMESTEPS:
        data = boiler.rank_data(ts, NRANKS, sample_size=200_000)
        adaptive = TwoPhaseWriter(machine, target_size=8 * MB).write(data)
        aug = TwoPhaseWriter(machine, target_size=8 * MB, strategy=build_aug_plan).write(data)
        rows.append(
            [
                ts,
                f"{data.total_particles / 1e6:.1f}M",
                f"{adaptive.bandwidth / 1e9:.1f}",
                f"{aug.bandwidth / 1e9:.1f}",
                f"{adaptive.bandwidth / aug.bandwidth:.2f}x",
                adaptive.n_files,
                aug.n_files,
            ]
        )
    print(f"Coal Boiler writes @ {NRANKS} virtual ranks, 8MB target (virtual {machine.name})")
    headers = [
        "timestep", "particles", "adaptive GB/s", "AUG GB/s", "speed-up", "adp files", "aug files"
    ]
    for row in [headers, *rows]:
        print("  ".join(f"{c:>{len(h)}}" for c, h in zip(row, headers)))

    # -- materialize one step for real, then explore it -------------------------
    print("\nwriting a real (1/200-scale) timestep 4501 ...")
    data = boiler.rank_data(4501, 64, scale=5e-3, materialize=True)
    report = TwoPhaseWriter(machine, target_size=1 * MB).write(
        data, out_dir=OUT, name="ts4501"
    )
    print(f"  {report.n_files} BAT files, {data.total_particles:,} particles")

    with BATDataset(report.metadata_path) as ds:
        glo, ghi = ds.attr_ranges["temperature"]
        hot_cut = glo + 0.8 * (ghi - glo)
        hot, stats = ds.query(QueryRequest(filters=[AttributeFilter("temperature", hot_cut, ghi)]))
        print(f"  hottest 20% of the temperature range: {len(hot):,} particles "
              f"(tested {stats.points_tested:,} of {ds.total_particles:,})")

        coarse, _ = ds.query(QueryRequest(quality=0.2))
        print(f"  coarse preview at quality 0.2: {len(coarse):,} particles, "
              f"mean height {coarse.positions[:, 2].mean():.2f} "
              f"(full data: {ds.query().batch.positions[:, 2].mean():.2f})")

    print(f"\noutput in {OUT}/")


if __name__ == "__main__":
    main()
