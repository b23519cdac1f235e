"""Visualization utilities: LOD presentation and density rendering.

The BAT layout "does not impose a specific visual representation" (§VI-B);
:mod:`repro.viz.lod` provides the paper's example policy — coarser quality
levels rendered with inflated particle radii to preserve overall shape —
and :mod:`repro.viz.render` projects a batch to a density image. The
Fig 4 prototype — a server progressively streaming increments of a BAT
data set to clients with spatial and attribute filtering — is
:class:`repro.serve.QueryService` itself; ``examples/progressive_streaming.py``
drives it the way the paper's web viewer does.
"""

from .lod import lod_radius, quality_progression
from .render import ascii_render, density_projection, projection_similarity

__all__ = [
    "lod_radius",
    "quality_progression",
    "density_projection",
    "ascii_render",
    "projection_similarity",
]
