"""Quickstart: write a particle timestep, read it back, query it.

Runs a 16-rank virtual job through the adaptive two-phase pipeline, writes
real BAT files to ./quickstart_out/, then demonstrates every kind of read
the layout supports: full restart reads, spatial queries, attribute
filtering, and progressive multiresolution loading.

Usage: python examples/quickstart.py
"""

import shutil
from pathlib import Path

import numpy as np

from repro import (
    AttributeFilter,
    BATDataset,
    Box,
    ParticleBatch,
    QueryRequest,
    RankData,
    TwoPhaseReader,
    TwoPhaseWriter,
    machines,
)
from repro.workloads import grid_decompose

OUT = Path(__file__).parent / "quickstart_out"


def make_simulation_state(nranks: int = 16, seed: int = 0) -> RankData:
    """Pretend to be a simulation: each rank owns a box and some particles."""
    rng = np.random.default_rng(seed)
    domain = Box((0.0, 0.0, 0.0), (4.0, 4.0, 1.0))
    bounds = grid_decompose(domain, nranks, ndims=3)
    batches = []
    for r in range(nranks):
        lo, hi = bounds[r]
        n = int(rng.integers(2_000, 10_000))
        pos = lo + rng.random((n, 3)) * (hi - lo)
        batches.append(
            ParticleBatch(
                pos.astype(np.float32),
                {
                    "temperature": rng.normal(300.0, 40.0, n),
                    "velocity": rng.normal(0.0, 2.0, n),
                },
            )
        )
    return RankData.from_batches(batches)


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    data = make_simulation_state()
    print(f"simulation state: {data.nranks} ranks, {data.total_particles:,} particles")

    # -- write: adaptive two-phase aggregation --------------------------------
    machine = machines.stampede2()
    writer = TwoPhaseWriter(machine, target_size=512 * 1024)
    report = writer.write(data, out_dir=OUT, name="ts0000")
    print(f"\nwrote {report.n_files} BAT files "
          f"(modeled elapsed {report.elapsed * 1e3:.1f} ms, "
          f"{report.bandwidth / 1e9:.2f} GB/s on virtual {machine.name})")
    for phase, t in report.breakdown.items():
        print(f"  {phase:<26s} {t * 1e3:7.2f} ms")

    # -- restart read at a different scale ------------------------------------
    reader = TwoPhaseReader(machine)
    new_bounds = grid_decompose(Box((0, 0, 0), (4, 4, 1)), 4, ndims=3)
    rrep = reader.read(report.metadata, new_bounds, data_dir=OUT)
    recovered = sum(len(b) for b in rrep.batches)
    print(f"\nrestart read on 4 ranks: {recovered:,} particles recovered "
          f"({rrep.bandwidth / 1e9:.2f} GB/s modeled)")
    assert recovered == data.total_particles

    # -- visualization reads ---------------------------------------------------
    with BATDataset(report.metadata_path) as ds:
        coarse, _ = ds.query(QueryRequest(quality=0.1))
        print(f"\nprogressive: quality 0.1 -> {len(coarse):,} points "
              f"({len(coarse) / ds.total_particles:.1%} of the data)")
        more, _ = ds.query(QueryRequest(quality=0.5, prev_quality=0.1))
        print(f"progressive: 0.1 -> 0.5 increment adds {len(more):,} points")

        region = Box((1.0, 1.0, 0.0), (2.0, 2.0, 1.0))
        sub, stats = ds.query(QueryRequest(box=region))
        print(f"spatial query {region.lower}..{region.upper}: {len(sub):,} points, "
              f"tested only {stats.points_tested:,}")

        hot, stats = ds.query(QueryRequest(filters=[AttributeFilter("temperature", 360.0, 1000.0)]))
        print(f"attribute filter T>360: {len(hot):,} points "
              f"(bitmap pruning skipped {stats.pruned_bitmap} subtrees)")
        assert (hot.attributes["temperature"] >= 360.0).all()

    print(f"\noutput in {OUT}/ — metadata: {Path(report.metadata_path).name}")


if __name__ == "__main__":
    main()
