"""Per-class A/B of neighbor queries: parent vs change, byte-checked.

    python benchmarks/probes/neighbors.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0,1,2,3]

A side sets up the ``neighbors`` workload exactly as
``benchmarks/baseline/run.py`` does (writes ``D_dam`` v4, opens it, runs
every op once to warm the caches), then runs ten passes over the 32 ops
of ``inputs.neighbor_ops(seed)``. Rows, per class (``knn``, ``radius``):
the counter sums ``files_opened``, ``nodes_visited``, ``points_tested``,
``pairs_tested``, ``ghost_points`` and ``points_returned`` (equal on both
sides unless the change means to move them), the fastest pass's mean ms
per op, and the passes' mean user and system CPU ms and minor page
faults per op, read as in ``read_classes.py``.

Pinned per op: the neighbor lists (offsets, keys, distances), centers and
center keys, rows (sha256 of positions and attributes with their dtypes)
and all of its ``NeighborStats`` fields. The pairs, the order flip and
the verdicts are ``pairs.py``'s. Smoke run: ``. . pairs=1 seeds=0``, a
few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile

import pairs
from read_classes import time_classes

PASSES = 10
COUNTERS = ("files_opened", "nodes_visited", "points_tested", "pairs_tested",
            "ghost_points", "points_returned")


def pin(cls: str, res) -> dict:
    lists = pairs.digest(res.batch, res.offsets, res.keys, res.distances, res.centers,
                         res.center_keys)
    return {"op": cls, "lists": lists, "stats": dataclasses.asdict(res.stats)}


def side(seed: int) -> dict:
    import inputs
    from workloads import Neighbors

    with tempfile.TemporaryDirectory(prefix="neighbors_probe_") as tmp:
        w = Neighbors(seed, inputs.FULL, tmp)
        w.setup()
        try:
            ops = [(op["cls"], req) for op, req in zip(w.op_docs, w.reqs)]
            pinned, timed, _ = time_classes(ops, w.ds.neighbors, pin, PASSES)
        finally:
            w.close()
    rows = {}
    for cls in dict.fromkeys(op["op"] for op in pinned):
        rows |= {f"{cls} {k}": sum(op["stats"][k] for op in pinned if op["op"] == cls)
                 for k in COUNTERS}
        rows |= {k: v for k, v in timed.items() if k.startswith(f"{cls} ")}
    return {"ops": pinned, "rows": rows}


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0,1,2,3"))
