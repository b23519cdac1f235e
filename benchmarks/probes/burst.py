"""Serve-side dedup under a burst: parent vs change, counter-checked.

    python benchmarks/probes/burst.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0]

For a change to single-flight (``ResultCache.join`` / ``settle``,
``DecodedColumnCache.fetch_groups``) or to anything a herd of concurrent
reads shares. A side writes ``D_main`` v4 ``auto`` as the workloads do,
then, ``RUNS`` times with a fresh ``QueryService`` (capacity 4, default
caches and degradation, ``max_queued=256`` so nothing is rejected),
releases 120 one-shot sessions together on 4 overlapping views: 0.4 × the
bounds per axis at offsets 0.2, 0.25, 0.3 and 0.35.

Pinned: the burst's decoded-column misses and decoded bytes. With
single-flight each column is decoded once however the burst interleaves,
so they are equal on every run of a side too, or the side reports the
difference (seed 0: 703 misses, 10 201 884 B). Rows, median over a
side's runs: those two, p50 response ms, wall ms, column-tier joins (a reader
waiting on a batch another claimed) and responses collapsed onto an
identical in-flight window. The pairs, the order flip and the verdicts
are ``pairs.py``'s. Smoke run: ``. . pairs=1``, about ten seconds.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time

import pairs

RUNS = 3
SESSIONS, CAPACITY = 120, 4
OFFSETS = (0.2, 0.25, 0.3, 0.35)


def side(seed: int) -> dict:
    import inputs
    from repro import Box, QueryRequest, open_dataset
    from repro.serve import QueryService, ServeConfig
    from workloads import write_dataset

    with tempfile.TemporaryDirectory(prefix="burst_") as tmp:
        meta = write_dataset(inputs.main_data(seed), tmp, inputs.FULL.main_target, 4).metadata_path
        with open_dataset(meta) as ds:
            lo, hi = ds.bounds.lower, ds.bounds.upper

        def at(f):
            return tuple(a + f * (b - a) for a, b in zip(lo, hi))

        views = [QueryRequest(quality=1.0, box=Box(at(f), at(f + 0.4))) for f in OFFSETS]
        ops, runs = [], []
        for _ in range(RUNS):
            with QueryService(meta, ServeConfig(capacity=CAPACITY, max_queued=256)) as svc:
                sids = [svc.open_session() for _ in range(SESSIONS)]
                t0 = time.perf_counter()
                tickets = [svc.submit(sid, views[i % len(views)]) for i, sid in enumerate(sids)]
                resps = [t.result(300) for t in tickets]
                wall = time.perf_counter() - t0
                snap = svc.snapshot()
            cols, files = snap["caches"]["decoded_columns"], snap["caches"]["files"]
            ops.append({"op": "burst", "misses": cols["misses"],
                        "decoded_bytes": files["decoded_bytes"]})
            runs.append({
                "column misses": cols["misses"],
                "decoded bytes": files["decoded_bytes"],
                "p50 ms": 1e3 * statistics.median(r.span.total_seconds for r in resps),
                "wall ms": 1e3 * wall,
                "joins": cols["joins"],
                "collapsed": sum(r.collapsed for r in resps),
            })
    bad = pairs.first_difference(ops[:1] * RUNS, ops)
    if bad:
        return {"error": f"runs of one side: {bad}"}
    return {"ops": ops[:1], "rows": {k: statistics.median(r[k] for r in runs) for k in runs[0]}}


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0"))
