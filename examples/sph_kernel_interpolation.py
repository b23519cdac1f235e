"""SPH kernel interpolation over fixed-radius neighbor lists.

Writes one dam-break timestep as a multi-file BAT dataset, then
evaluates a cubic-spline smoothed pressure field on a slab of the water
body with :func:`repro.analysis.sph_smooth`. The slab deliberately
straddles leaf-file boundaries: the planner's ghost-region exchange
opens only the boundary strips of neighboring files, never a full
neighbor-file read, and the neighbor lists are exact: the tests hold
them byte-identical to an exhaustive reference.

Usage: python examples/sph_kernel_interpolation.py
"""

import shutil
from pathlib import Path

import numpy as np

from repro import TwoPhaseWriter, machines, open_dataset
from repro.analysis import sph_smooth
from repro.types import Box
from repro.workloads import DamBreak

OUT = Path(__file__).parent / "sph_out"
TIMESTEP = 600
NRANKS = 16
SCALE = 0.02          # ~40k particles: laptop-friendly
H = 0.1               # smoothing length (fixed-radius support)


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    dam = DamBreak()
    data = dam.rank_data(TIMESTEP, NRANKS, scale=SCALE, materialize=True)
    TwoPhaseWriter(machines.testing_machine(), target_size=96 << 10).write(
        data, out_dir=OUT, name=f"ts{TIMESTEP:04d}"
    )

    with open_dataset(OUT / f"ts{TIMESTEP:04d}.meta.json") as ds:
        print(f"dataset: {ds.total_particles:,} particles "
              f"in {ds.metadata.n_files} leaf files")

        # center on one interior leaf file, shrunk just inside its
        # bounds: every neighbor ball at the edge reaches into the
        # adjacent files, which the planner opens as ghost strips only
        leaves = sorted(ds.metadata.leaves, key=lambda l: l.count)
        mid = leaves[len(leaves) // 2].bounds
        eps = 1e-4
        slab = Box(
            tuple(v + eps for v in mid.lower),
            tuple(v - eps for v in mid.upper),
        )

        field = sph_smooth(ds, "pressure", h=H, center_box=slab)
        s = field.result.stats
        print(f"smoothed pressure at {len(field):,} centers "
              f"({s.pairs_tested:,} kernel pairs)")
        print(f"  neighbor lists: mean {field.counts.mean():.1f} "
              f"min {field.counts.min()} max {field.counts.max()}")
        print(f"  files: {s.files_opened} opened "
              f"({s.ghost_files_opened} ghost strips, "
              f"{s.ghost_points:,} ghost candidates), "
              f"{s.pruned_files} never opened")
        print(f"  pressure: mean {np.nanmean(field.values):.1f} "
              f"max {np.nanmax(field.values):.1f}")


if __name__ == "__main__":
    main()
