"""repro — Adaptive Spatially Aware I/O for Multiresolution Particle Data Layouts.

A from-scratch Python reproduction of Usher et al., IPDPS 2021 ("libbat"):
spatially aware adaptive two-phase aggregation for particle data, the
Binned Attribute Tree (BAT) multiresolution layout built in situ during
I/O, scalable two-phase restart reads, and low-latency visualization
queries — plus the baselines (AUG aggregation, file-per-process, shared
file, IOR) and machine models (Stampede2, Summit) the paper evaluates
against. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.

Typical use::

    import repro
    from repro import TwoPhaseWriter, machines

    writer = TwoPhaseWriter(machines.stampede2(), target_size=8 << 20)
    report = writer.write(rank_data, out_dir="out", name="ts0042")
    with repro.open_dataset("out/ts0042.meta.json") as ds:
        result = ds.query(repro.QueryRequest(quality=0.1))
        coarse, stats = result.batch, result.stats

All errors raised by the library derive from
:class:`repro.errors.ReproError`; see :mod:`repro.errors`.
"""

import logging

from . import _heap, errors, machines
from .api import (
    NeighborRequest,
    NeighborResult,
    QueryRequest,
    QueryResult,
    StreamIncrement,
    open_dataset,
    reassemble_stream,
)
from .bat import AttributeFilter, BATBuildConfig, BATFile, build_bat, scrub_dataset, scrub_file
from .binning import EquiDepthBinning, EquiWidthBinning
from .core import (
    AggregationTree,
    AggTreeConfig,
    DatasetMetadata,
    RankData,
    ReadReport,
    TwoPhaseReader,
    TwoPhaseWriter,
    WriteReport,
    build_aggregation_tree,
)
from .core.autotune import recommend_target_size
from .core.dataset import BATDataset
from .core.timeseries import TimeSeriesDataset, TimeSeriesWriter
from .types import AttributeSpec, Box, ParticleBatch

__version__ = "1.0.0"

# once per process, shard workers included: freed blocks stay for reuse
_heap.keep_freed_heap()

# the library logs lifecycle events (quarantine, ...) under "repro.*";
# it attaches no output of its own — an application adds its handlers
logging.getLogger("repro").addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    "machines",
    "errors",
    "open_dataset",
    "QueryRequest",
    "QueryResult",
    "NeighborRequest",
    "NeighborResult",
    "StreamIncrement",
    "reassemble_stream",
    "Box",
    "AttributeSpec",
    "ParticleBatch",
    "RankData",
    "AggTreeConfig",
    "AggregationTree",
    "build_aggregation_tree",
    "TwoPhaseWriter",
    "WriteReport",
    "TwoPhaseReader",
    "ReadReport",
    "DatasetMetadata",
    "BATDataset",
    "BATBuildConfig",
    "BATFile",
    "build_bat",
    "AttributeFilter",
    "EquiWidthBinning",
    "EquiDepthBinning",
    "TimeSeriesWriter",
    "TimeSeriesDataset",
    "recommend_target_size",
    "scrub_file",
    "scrub_dataset",
]
