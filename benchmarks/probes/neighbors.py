"""Per-class A/B of neighbor queries: parent vs change, byte-checked.

    python benchmarks/probes/neighbors.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0,1,2,3]

Run from any directory; no ``PYTHONPATH``. Each root is a checkout of
this repository; the probe imports ``repro`` from ``ROOT/src``, and the
benchmark inputs from the ``benchmarks/baseline`` next to this file, so
both sides read the same ``neighbors`` dataset and requests.

Per seed and pair, each side runs in its own subprocess, the order
flipped every pair. A side sets up the ``neighbors`` workload exactly as
``benchmarks/baseline/run.py`` does (writes ``D_dam`` v4, opens it, runs
every op once to warm the caches), then runs ten passes over the 32 ops
of ``inputs.neighbor_ops(seed)`` and reports, per class (``knn``,
``radius``), the fastest pass's mean ms per op and the passes' mean user
and system CPU ms and minor page faults per op (``getrusage`` deltas,
read as in ``read_classes.py``).

Before any number is printed, every op's neighbor lists (offsets, keys,
distances), centers and center keys, rows (sha256 of positions and
attributes with their dtypes) and all of its ``NeighborStats`` fields
must be equal on both sides, and equal from pair to pair; the probe exits
1 on the first difference. ``. .`` (one checkout against itself) is the
smoke run: ``pairs=1 seeds=0`` takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from read_classes import per_op, rusage_line, usage

BASELINE = Path(__file__).resolve().parents[1] / "baseline"
PASSES = 10


def digest(res) -> str:
    h = hashlib.sha256()
    for arr in (res.offsets, res.keys, res.distances, res.centers):
        h.update(arr.dtype.str.encode() + arr.tobytes())
    h.update(b"-" if res.center_keys is None else res.center_keys.tobytes())
    b = res.batch
    h.update(str(len(b)).encode())
    if b.positions is not None:
        h.update(b.positions.dtype.str.encode() + b.positions.tobytes())
    for name in sorted(b.attributes):
        col = b.attributes[name]
        h.update(name.encode() + col.dtype.str.encode() + col.tobytes())
    return h.hexdigest()


def side(root: str, seed: int) -> dict:
    """One side's run, in this (fresh) process: ``{"ms", "faults", "user_ms",
    "sys_ms", "ops"}``."""
    sys.path[:0] = [str(Path(root, "src").resolve()), str(BASELINE)]
    import inputs
    from workloads import Neighbors

    with tempfile.TemporaryDirectory(prefix="neighbors_probe_") as tmp:
        w = Neighbors(seed, inputs.FULL, tmp)
        w.setup()
        ops = [(op["cls"], req) for op, req in zip(w.op_docs, w.reqs)]
        seen, best, rusage = [], {}, {}
        for p in range(PASSES):
            spent: dict[str, list[float]] = {}
            for cls, req in ops:
                before, t = usage(), time.perf_counter()
                res = w.ds.neighbors(req)
                spent.setdefault(cls, []).append(time.perf_counter() - t)
                rusage.setdefault(cls, []).append([b - a for a, b in zip(before, usage())])
                if p == 0:
                    seen.append([cls, digest(res), dataclasses.asdict(res.stats)])
            for cls, secs in spent.items():
                ms = 1e3 * sum(secs) / len(secs)
                best[cls] = min(best.get(cls, ms), ms)
        w.close()
    return {"ms": best, **per_op(rusage), "ops": seen}


def run_side(root: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--side", root, str(seed)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def first_difference(want: list, got: list) -> str | None:
    if len(want) != len(got):
        return f"{len(want)} vs {len(got)} ops"
    for i, (a, b) in enumerate(zip(want, got)):
        if a[1] != b[1]:
            return f"op {i} ({a[0]}): neighbor lists, centers or rows differ"
        if a[2] != b[2]:
            fields = [k for k in a[2] if a[2][k] != b[2].get(k)]
            return f"op {i} ({a[0]}): NeighborStats differ in {fields}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    opts = dict(a.split("=", 1) for a in argv[2:])
    pairs = int(opts.get("pairs", 10))
    seeds = [int(s) for s in opts.get("seeds", "0,1,2,3").split(",")]
    for seed in seeds:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for p in range(pairs):
            for label in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
                got = run_side(roots[label], seed)
                bad = first_difference((runs["parent"] or [got])[0]["ops"], got["ops"])
                if bad:
                    print(f"seed {seed} pair {p} {label}: {bad}")
                    return 1
                runs[label].append(got)
        ops = runs["parent"][0]["ops"]
        print(f"seed {seed}: {len(ops)} ops, lists, rows and NeighborStats identical on both sides")
        for cls in runs["parent"][0]["ms"]:
            sums = {
                k: sum(st[k] for c, _, st in ops if c == cls)
                for k in ("files_opened", "nodes_visited", "points_tested", "pairs_tested",
                          "ghost_points", "points_returned")
            }
            print(f"  {cls:6s} " + " ".join(f"{k}={v}" for k, v in sums.items()))
            a, b = ([r["ms"][cls] for r in runs[label]] for label in ("parent", "change"))
            print(
                f"  {cls:6s} ms/op parent {statistics.median(a):6.2f} "
                f"change {statistics.median(b):6.2f}  ratio "
                f"{statistics.median(b) / statistics.median(a):.3f}  "
                f"(change faster in {sum(y < x for x, y in zip(a, b))} of {len(a)} pairs)  "
                + rusage_line(runs, cls)
            )
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        print(json.dumps(side(sys.argv[2], int(sys.argv[3]))))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
