"""Fig 5: write bandwidth weak scaling vs IOR on Stampede2 and Summit.

Paper shape: file-per-process performs well initially, degrades at 1536
ranks (Stampede2) / 672 ranks (Summit); shared-file modes flatten early
from global coupling; the two-phase approach overtakes everything at scale
once the target size is large enough.
"""

import pytest

from benchmarks.paper import format_series, weak_scaling
from conftest import MB, STAMPEDE2_RANKS, SUMMIT_RANKS, emit
from repro.machines import stampede2, summit

TARGETS = [8 * MB, 64 * MB, 256 * MB]


@pytest.mark.parametrize(
    "machine,ranks",
    [(stampede2(), STAMPEDE2_RANKS), (summit(), SUMMIT_RANKS)],
    ids=["stampede2", "summit"],
)
def test_fig05_write_weak_scaling(machine, ranks):
    points = weak_scaling(machine, ranks, target_sizes=TARGETS)
    emit(
        format_series(
            points, "nranks", "write_bandwidth",
            title=f"Fig 5 ({machine.name}): write bandwidth weak scaling (GB/s)",
        )
    )

    by = {(p.label, p.nranks): p.write_bandwidth for p in points}
    small, large = ranks[0], ranks[-1]

    # FPP initially strong, flat at scale
    assert by[("ior-fpp", small)] > by[("ior-shared", small)]
    assert by[("ior-fpp", large)] < 1.5 * by[("ior-fpp", ranks[-3])]
    # shared modes never scale
    assert by[("ior-shared", large)] < 2 * by[("ior-shared", small)]
    assert by[("ior-hdf5", large)] < by[("ior-shared", large)]
    # two-phase with a large target wins at scale (the headline claim)
    best_tp = max(by[(f"two-phase-{t // MB}MB", large)] for t in TARGETS)
    assert best_tp > by[("ior-fpp", large)]
    assert best_tp > by[("ior-shared", large)]
    # larger targets sustain scaling further than small ones at max scale
    assert by[("two-phase-256MB", large)] > by[("two-phase-8MB", large)]
