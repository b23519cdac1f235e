"""Per-hit latency of the result cache, parent vs change, byte-checked.

    python benchmarks/probes/hits.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0,1]

A side sets up ``stream_herd`` exactly as ``benchmarks/baseline/run.py``
does (writes ``D_main``, pins itself to one CPU with an idle-priority
spinner beside it, opens the service and warms it), then has one session
per hot view walk the herd's quality ladder, so every window of every
view is in the result cache. It then times, over several passes, a fresh
session per view walking the ladder again: each rung is a cache hit,
served once through ``QueryService.request`` and once through the
asyncio front end (``AsyncQueryService.stream``, increments drained,
``result()`` awaited). Rows: the median µs per hit of each path (the
fastest pass's).

Pinned per hit: the batch (sha256 of its rows and dtypes) and its
``(prev, served)`` window. Within a side, every timed response must be a
cache hit and both paths and every pass must serve the same hits, or the
side reports the difference and the probe exits 1. The pairs, the order
flip and the verdicts are ``pairs.py``'s. Smoke run: ``. . pairs=1
seeds=0``, about ten seconds. A side's µs/hit moves by up to ±25 %
between processes running identical code, so trust a path only when its
verdict resolves, and take the claim from ``run.py`` pairs.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import tempfile
import time

import pairs

PASSES = 20


def side(seed: int) -> dict:
    import inputs
    from repro import QueryRequest
    from repro.serve import AsyncQueryService
    from workloads import StreamHerd

    with tempfile.TemporaryDirectory(prefix="hits_") as tmp:
        w = StreamHerd(seed, inputs.FULL, tmp)
        w.setup()
        try:
            svc = w.svc
            views = [
                [QueryRequest(box=box, filters=filters, quality=q) for q in inputs.QUALITY_LADDER]
                for box, filters in w.view_reqs
            ]
            for ladder in views:  # every window of every view into the cache
                sid = svc.open_session()
                for req in ladder:
                    svc.request(sid, req)
                svc.close_session(sid)

            def answered(resp) -> dict:
                return {"op": "hit" if resp.cache_hit else "miss",
                        "batch": pairs.digest(resp.batch),
                        "window": [resp.prev_quality, resp.served_quality]}

            def requests(lat: list, ops: list) -> None:
                for ladder in views:
                    sid = svc.open_session()
                    for req in ladder:
                        t = time.perf_counter()
                        resp = svc.request(sid, req)
                        lat.append(time.perf_counter() - t)
                        ops.append(answered(resp))
                    svc.close_session(sid)

            async def streams(lat: list, ops: list) -> None:
                asvc = AsyncQueryService(service=svc)
                for ladder in views:
                    sid = asvc.open_session()
                    for req in ladder:
                        t = time.perf_counter()
                        stream = asvc.stream(sid, req)
                        async for _ in stream:
                            pass
                        resp = await stream.result()
                        lat.append(time.perf_counter() - t)
                        ops.append(answered(resp))
                    asvc.close_session(sid)

            best = {"request": float("inf"), "stream": float("inf")}
            seen: dict = {}
            for _ in range(PASSES):
                for path in best:
                    lat, ops = [], []
                    if path == "request":
                        requests(lat, ops)
                    else:
                        asyncio.run(streams(lat, ops))
                    best[path] = min(best[path], 1e6 * statistics.median(lat))
                    if seen.setdefault(path, ops) != ops:
                        return {"error": f"{path}: a pass served other bytes"}
            bad = pairs.first_difference(seen["request"], seen["stream"])
            if bad:
                return {"error": f"request and stream: {bad}"}
            if any(op["op"] == "miss" for op in seen["request"]):
                return {"error": "a timed rung missed the result cache"}
            rows = {f"{path} us/hit": us for path, us in best.items()}
            return {"ops": seen["request"], "rows": rows}
        finally:
            w.close()


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0,1"))
