"""Fig 13: visual quality progression on the Coal Boiler.

The paper shows renders at qualities 0.2, 0.4, 0.8 with an LOD policy that
inflates particle radii at coarse levels. We reproduce the figure's data:
points loaded per quality, the shown fraction, and the volume-preserving
radius the example policy would draw with — plus the invariant that the
coarse subsets span the full data bounds (no region drops out).
"""

import numpy as np

from benchmarks.paper import format_table
from conftest import emit
from repro import QueryRequest
from repro.core.dataset import BATDataset
from repro.viz import quality_progression


def test_fig13_quality_progression(coal_dataset):
    data, paths = coal_dataset
    meta_path = paths[2]

    with BATDataset(meta_path) as ds:
        rows = quality_progression(ds, qualities=(0.2, 0.4, 0.8, 1.0))
    emit(
        format_table(
            ["quality", "points", "fraction", "LOD radius"],
            [
                [r["quality"], r["points"], f"{r['fraction']:.1%}", f"{r['radius']:.2f}"]
                for r in rows
            ],
            title="Fig 13: Coal Boiler quality progression (radius x of base)",
        )
    )

    pts = [r["points"] for r in rows]
    assert pts == sorted(pts)
    assert rows[-1]["fraction"] == 1.0
    radii = [r["radius"] for r in rows]
    assert radii == sorted(radii, reverse=True)


def test_fig13_coarse_levels_preserve_shape(coal_dataset):
    """The stratified LOD sample must cover the object's extent, which is
    what lets inflated radii 'fill holes and preserve the overall shape'."""
    data, paths = coal_dataset

    with BATDataset(paths[2]) as ds:
        full, _ = ds.query(QueryRequest(quality=1.0))
        coarse, _ = ds.query(QueryRequest(quality=0.2))
    full_pos, coarse_pos = full.positions, coarse.positions
    full_ext = full_pos.max(axis=0) - full_pos.min(axis=0)
    coarse_ext = coarse_pos.max(axis=0) - coarse_pos.min(axis=0)
    assert (coarse_ext > 0.8 * full_ext).all()
    # and the coarse centroid stays near the full centroid
    drift = np.abs(coarse_pos.mean(axis=0) - full_pos.mean(axis=0))
    assert (drift < 0.15 * full_ext).all()
