"""Per-class A/B of the warm read path: parent vs change, byte-checked.

    python benchmarks/probes/read_classes.py PARENT_ROOT CHANGE_ROOT \
        [pairs=10] [seeds=0,1] [mode=query]

Run from any directory; no ``PYTHONPATH``. Each root is a checkout of
this repository; the probe imports ``repro`` from ``ROOT/src``, and the
benchmark inputs from the ``benchmarks/baseline`` next to this file, so
both sides read the same ``read_warm`` dataset and views.

Per seed and pair, each side runs in its own subprocess, the order
flipped every pair. A side sets up ``read_warm`` exactly as
``benchmarks/baseline/run.py`` does (writes ``D_main`` v4, opens it,
warms every cache with one full read and one cycle), then runs three
passes over the 24 views × 7 read classes and reports, per class, the
fastest pass's mean ms per op and the passes' mean minor page faults per
op (``ru_minflt`` deltas: a fault is a few µs of kernel time that the
heap layout of the process decides, not the read code).

``mode`` picks how each op reads: ``query`` (``ds.query``), ``rung`` (a
one-rung ``ds.stream``, reassembled) or ``ladder`` (a default-ladder
``ds.stream``, reassembled). Both sides read the same way.

Before any number is printed, every op's batch (sha256 of its rows and
dtypes) and all of its ``QueryStats`` fields must be equal on both sides,
and equal from pair to pair; the probe exits 1 on the first difference.
``. .`` (one checkout against itself) is the smoke run:
``pairs=1 seeds=0`` takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / "baseline"
PASSES = 3


def digest(batch) -> str:
    h = hashlib.sha256(str(len(batch)).encode())
    if batch.positions is not None:
        h.update(batch.positions.dtype.str.encode() + batch.positions.tobytes())
    for name in sorted(batch.attributes):
        col = batch.attributes[name]
        h.update(name.encode() + col.dtype.str.encode() + col.tobytes())
    return h.hexdigest()


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def side(root: str, seed: int, mode: str) -> dict:
    """One side's run, in this (fresh) process: ``{"ms", "faults", "cycle_ms", "ops"}``."""
    sys.path[:0] = [str(Path(root, "src").resolve()), str(BASELINE)]
    import inputs
    from repro import reassemble_stream
    from workloads import ReadWarm

    def read(ds, req):
        if mode == "query":
            return ds.query(req)
        ladder = (req.quality,) if mode == "rung" else None
        return reassemble_stream(ds.stream(req, ladder=ladder))

    with tempfile.TemporaryDirectory(prefix="read_classes_") as tmp:
        w = ReadWarm(seed, inputs.FULL, tmp)
        w.setup()
        ops = [
            (op["cls"], req)
            for docs, reqs in zip(w.cycle_docs, w.cycle_reqs)
            for op, req in zip(docs, reqs)
        ]
        seen, best, cycles, faults = [], {}, [], {}
        for p in range(PASSES):
            spent: dict[str, list[float]] = {}
            t_pass = time.perf_counter()
            for cls, req in ops:
                f, t = minflt(), time.perf_counter()
                res = read(w.ds, req)
                spent.setdefault(cls, []).append(time.perf_counter() - t)
                faults.setdefault(cls, []).append(minflt() - f)
                if p == 0:
                    seen.append([cls, digest(res.batch), dataclasses.asdict(res.stats)])
            cycles.append((time.perf_counter() - t_pass) / len(w.cycle_reqs))
            for cls, secs in spent.items():
                ms = 1e3 * sum(secs) / len(secs)
                best[cls] = min(best.get(cls, ms), ms)
        w.close()
    return {
        "ms": best,
        "faults": {cls: sum(v) / len(v) for cls, v in faults.items()},
        "cycle_ms": 1e3 * min(cycles),
        "ops": seen,
    }


def run_side(root: str, seed: int, mode: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--side", root, str(seed), mode],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def first_difference(want: list, got: list) -> str | None:
    if len(want) != len(got):
        return f"{len(want)} vs {len(got)} ops"
    for i, (a, b) in enumerate(zip(want, got)):
        if a[1] != b[1]:
            return f"op {i} ({a[0]}): batch sha256 differs"
        if a[2] != b[2]:
            fields = [k for k in a[2] if a[2][k] != b[2].get(k)]
            return f"op {i} ({a[0]}): QueryStats differ in {fields}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    opts = dict(a.split("=", 1) for a in argv[2:])
    pairs = int(opts.get("pairs", 10))
    seeds = [int(s) for s in opts.get("seeds", "0,1").split(",")]
    mode = opts.get("mode", "query")
    if mode not in ("query", "rung", "ladder"):
        print(f"mode must be query, rung or ladder, not {mode!r}")
        return 2
    for seed in seeds:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for p in range(pairs):
            for label in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
                got = run_side(roots[label], seed, mode)
                bad = first_difference((runs["parent"] or [got])[0]["ops"], got["ops"])
                if bad:
                    print(f"seed {seed} pair {p} {label}: {bad}")
                    return 1
                runs[label].append(got)
        n_ops = len(runs["parent"][0]["ops"])
        print(
            f"seed {seed}, mode {mode}: {n_ops} ops, batches and QueryStats identical "
            "on both sides"
        )
        classes = list(runs["parent"][0]["ms"])
        for key in [*classes, "cycle"]:
            a, b = (
                [r["cycle_ms"] if key == "cycle" else r["ms"][key] for r in runs[label]]
                for label in ("parent", "change")
            )
            unit = "ms/view" if key == "cycle" else "ms/op"
            faults = ""
            if key != "cycle":
                fa, fb = (
                    statistics.median(r["faults"][key] for r in runs[label])
                    for label in ("parent", "change")
                )
                faults = f"  minor faults/op parent {fa:.0f} change {fb:.0f}"
            print(
                f"  {key:10s} {unit} parent {statistics.median(a):7.2f} "
                f"change {statistics.median(b):7.2f}  ratio "
                f"{statistics.median(b) / statistics.median(a):.3f}  "
                f"(change faster in {sum(y < x for x, y in zip(a, b))} of {len(a)} pairs)"
                f"{faults}"
            )
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        print(json.dumps(side(sys.argv[2], int(sys.argv[3]), sys.argv[4])))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
