"""Shared fixtures and helpers for the paper-reproduction benchmarks.

Every ``test_*`` here regenerates one table or figure of the paper
(DESIGN.md §4 maps experiment → target) from the sweeps in
``benchmarks/paper.py``. Targets print the reproduced rows/series so
``pytest benchmarks --ignore=benchmarks/baseline -s`` output reads like the
paper's evaluation section; shape assertions guard the qualitative claims
(who wins, where curves flatten, rough factors). The repo root goes on
``sys.path`` so targets import the harness as ``benchmarks.paper``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import TwoPhaseWriter
from repro.machines import stampede2
from repro.workloads import CoalBoiler, DamBreak

MB = 1 << 20

#: rank counts of the weak-scaling sweeps (paper: up to 24k on Stampede2,
#: 43k on Summit)
STAMPEDE2_RANKS = [96, 384, 1536, 6144, 24576]
SUMMIT_RANKS = [84, 336, 1344, 5376, 21504, 43008]

#: scale factor for materialized (real-file) datasets: keeps the published
#: count *ratios* while fitting a laptop-class machine
MATERIALIZE_SCALE = 5e-3


def emit(text: str) -> None:
    """Print a reproduced table under pytest's capture."""
    print("\n" + text)


@pytest.fixture(scope="session")
def coal_dataset(tmp_path_factory):
    """A materialized, scaled Coal Boiler timestep written at several target
    sizes — shared by Table I, Fig 13, and the overhead bench."""
    out = tmp_path_factory.mktemp("coal_ds")
    boiler = CoalBoiler()
    data = boiler.rank_data(4501, nranks=64, scale=MATERIALIZE_SCALE, materialize=True)
    paths = {}
    for target_mb in (1, 2, 4):
        rep = TwoPhaseWriter(stampede2(), target_size=target_mb * MB).write(
            data, out_dir=out / f"t{target_mb}", name="coal"
        )
        paths[target_mb] = rep.metadata_path
    return data, paths


@pytest.fixture(scope="session")
def dam_datasets(tmp_path_factory):
    """Materialized, scaled Dam Break timesteps (the 2M and 8M configs)."""
    out = tmp_path_factory.mktemp("dam_ds")
    result = {}
    for label, total in (("2M", 2_000_000), ("8M", 8_000_000)):
        dam = DamBreak(total=total)
        data = dam.rank_data(1001, nranks=64, scale=MATERIALIZE_SCALE, materialize=True)
        paths = {}
        for target_mb in (1, 2):
            rep = TwoPhaseWriter(stampede2(), target_size=target_mb * MB).write(
                data, out_dir=out / f"{label}_t{target_mb}", name="dam"
            )
            paths[target_mb] = rep.metadata_path
        result[label] = (data, paths)
    return result
