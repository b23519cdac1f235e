"""Fig 7: read bandwidth weak scaling vs IOR on Stampede2 and Summit.

Paper shape: mirrors the writes — many-small-file overhead hurts FPP and
small targets, shared-file coupling limits scalability, and the two-phase
read pipeline with a suitable target size wins beyond moderate core
counts. On Summit, small/medium aggregation flattens by 43k cores while
256 MB keeps scaling.
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
def test_fig07_read_weak_scaling(machine, ranks):
    points = weak_scaling(machine, ranks, target_sizes=TARGETS)
    emit(
        format_series(
            points, "nranks", "read_bandwidth",
            title=f"Fig 7 ({machine.name}): read bandwidth weak scaling (GB/s)",
        )
    )

    by = {(p.label, p.nranks): p.read_bandwidth for p in points}
    large = ranks[-1]
    best_tp = max(by[(f"two-phase-{t // MB}MB", large)] for t in TARGETS)
    assert best_tp > by[("ior-fpp", large)]
    assert best_tp > by[("ior-shared", large)]
    # the largest aggregation size flattens off least rapidly (paper, Summit)
    growth_256 = by[("two-phase-256MB", large)] / by[("two-phase-256MB", ranks[-2])]
    growth_8 = by[("two-phase-8MB", large)] / by[("two-phase-8MB", ranks[-2])]
    assert growth_256 > growth_8
