"""Pinned work counters and result digests of three neighbor requests.

The neighbor twin of ``tests/test_read_counters.py``: one k-NN, one
fixed-radius and one filtered k-NN request run in a fixed order on a
fresh v4 dataset written from deterministic particles (a jittered
lattice, so exact distance ties occur). Every
:class:`~repro.bat.neighbors.NeighborStats` field and a digest of the
lists (offsets, keys, distances) and of the materialized rows are
literals below. ``files_opened``, ``pruned_files``,
``ghost_files_opened``, ``ghost_points`` and ``points_returned`` are
properties of the plan and of the exact answer; the traversal counters
(``nodes_visited``, ``points_tested``, ``pairs_tested``) follow the
formulas in the ``NeighborStats`` field comments. The three requests
share one dataset and its decoded-column cache, so ``decoded_bytes``
counts a column for the first request that touches it.

After an intended change, print the new table with
``PYTHONPATH=src python -m tests.test_neighbor_counters``.
"""

import dataclasses
import hashlib

from repro import BATBuildConfig, Box, NeighborRequest
from repro.bat.neighbors import NeighborStats
from repro.bat.query import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine
from repro.workloads import compressible_rank_data

POINTS = ((0.31, 0.42, 0.5), (0.7, 0.2, 0.61), (0.5, 0.5, 0.125), (0.95, 0.9, 0.05))
MIX = {
    "knn": NeighborRequest(points=POINTS, k=12),
    "radius": NeighborRequest(
        center_box=Box((0.3, 0.3, 0.3), (0.45, 0.45, 0.45)), radius=0.06
    ),
    "knn_filter": NeighborRequest(
        points=POINTS, k=20,
        filters=(AttributeFilter("temp", 281.125, 300.125),), columns=("temp",),
    ),
}


def write(out) -> str:
    writer = TwoPhaseWriter(
        testing_machine(), target_size=32 * 1024, bat_config=BATBuildConfig(codecs="auto")
    )
    data = compressible_rank_data(8, 1500, seed=7)
    return writer.write(data, out_dir=out, name="pinn").metadata_path


def observe(meta) -> dict:
    """``{class: (digest, NeighborStats fields in order)}`` of the mix."""
    with BATDataset(meta) as ds:
        out = {}
        for cls, req in MIX.items():
            res = ds.neighbors(req)
            h = hashlib.sha256()
            for arr in (res.offsets, res.keys, res.distances):
                h.update(arr.tobytes())
            h.update(res.batch.digest().encode())
            out[cls] = (h.hexdigest(), dataclasses.astuple(res.stats))
        return out


FIELDS = [f.name for f in dataclasses.fields(NeighborStats)]

PINNED = {
    "knn": (
        "74b51ddc7ff6f33af126cd8689647b828bc0120c709b1d7cde3bfd1053a232ea",
        (4, 39, 205, 6502, 15981, 48, 2, 6, 0, 0, 0, 141808),
    ),
    "radius": (
        "878b26a848cb49141cd29834577b3046d59a29b0fa5f810e89a6a07ff17f3287",
        (27, 5, 50, 765, 1728, 192, 4, 4, 3, 447, 0, 0),
    ),
    "knn_filter": (
        "4aa9db3f90b3990be54f62192ce5afb9a5535f050b1a2ec2c5650c78c6ba18c2",
        (4, 41, 225, 7310, 4426, 80, 0, 8, 0, 0, 0, 24808),
    ),
}


def test_counters_and_bytes_are_pinned(tmp_path):
    got = observe(write(tmp_path))
    for cls, (digest, counters) in PINNED.items():
        assert dict(zip(FIELDS, got[cls][1])) == dict(zip(FIELDS, counters)), (
            f"{cls}: NeighborStats moved"
        )
        assert got[cls][0] == digest, f"{cls}: neighbor lists or rows changed"


if __name__ == "__main__":
    import tempfile

    print("PINNED = {")
    with tempfile.TemporaryDirectory() as tmp:
        for cls, (digest, counters) in observe(write(tmp)).items():
            print(f'    "{cls}": (\n        "{digest}",\n        {counters},\n    ),')
    print("}")
