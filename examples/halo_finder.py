"""Friends-of-friends halo finding over a clustered particle set.

Builds a synthetic clustered dataset (Gaussian blobs in a periodic-free
box, written through the two-phase pipeline so the clumps are scattered
across leaf files), then partitions a region's particles into groups
with :func:`repro.analysis.fof_groups`: two particles share a group when
a chain of links shorter than the linking length connects them. The
single fixed-radius neighbor query behind it crosses leaf-file
boundaries through ghost strips, so groups spanning files are found
without ever reading a whole neighbor file.

Usage: python examples/halo_finder.py
"""

import shutil
from pathlib import Path

import numpy as np

from repro import TwoPhaseWriter, machines, open_dataset
from repro.analysis import fof_groups
from repro.core import RankData
from repro.types import Box, ParticleBatch
from repro.workloads import grid_decompose

OUT = Path(__file__).parent / "halo_out"
NRANKS = 8
N_CLUMPS = 12
PER_CLUMP = 500
LINKING_LENGTH = 0.02


def clustered_rank_data(seed: int = 11) -> RankData:
    """Gaussian clumps over a unit box, decomposed on a rank grid."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(N_CLUMPS, 3))
    pos = np.concatenate([
        rng.normal(c, 0.02, size=(PER_CLUMP, 3)) for c in centers
    ]).clip(0.0, 1.0).astype(np.float32)
    mass = rng.lognormal(0.0, 0.3, size=len(pos))

    domain = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    bounds = grid_decompose(domain, NRANKS, ndims=3)
    batches = []
    for lo, hi in bounds:
        inside = np.all((pos >= lo) & (pos < hi), axis=1)
        batches.append(ParticleBatch(pos[inside], {"mass": mass[inside]}))
    return RankData(
        bounds=bounds,
        counts=np.array([len(b) for b in batches]),
        batches=batches,
    )


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    TwoPhaseWriter(machines.testing_machine(), target_size=24 << 10).write(
        clustered_rank_data(), out_dir=OUT, name="halos"
    )

    with open_dataset(OUT / "halos.meta.json") as ds:
        print(f"dataset: {ds.total_particles:,} particles "
              f"in {ds.metadata.n_files} leaf files")

        groups = fof_groups(ds, LINKING_LENGTH)
        s = groups.result.stats
        print(f"found {groups.n_groups} groups over "
              f"{len(groups.centers):,} particles "
              f"(linking length {LINKING_LENGTH})")
        print(f"  files: {s.files_opened} opened "
              f"({s.ghost_files_opened} ghost strips), "
              f"{s.pruned_files} never opened; "
              f"{s.pairs_tested:,} pair distances tested")

        order = np.argsort(groups.sizes)[::-1]
        for rank, g in enumerate(order[:8]):
            members = groups.members(int(g))
            com = groups.centers[members].mean(axis=0)
            print(f"  #{rank + 1}: {groups.sizes[g]:6d} particles, "
                  f"center of mass ({com[0]:.3f}, {com[1]:.3f}, {com[2]:.3f})")


if __name__ == "__main__":
    main()
