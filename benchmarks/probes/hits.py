"""Per-hit latency of the result cache, parent vs change, byte-checked.

    python benchmarks/probes/hits.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0,1]

Run from any directory; no ``PYTHONPATH``. Each root is a checkout of
this repository; the probe imports ``repro`` from ``ROOT/src``, and the
benchmark inputs from the ``benchmarks/baseline`` next to this file, so
both sides serve the same ``stream_herd`` dataset and views.

Per seed and pair, each side runs in its own subprocess, the order
flipped every pair. A side sets up ``stream_herd`` exactly as
``benchmarks/baseline/run.py`` does (writes ``D_main``, pins itself to
one CPU with an idle-priority spinner beside it, opens the service and
warms it), then has one session per hot view walk the herd's quality
ladder, so every window of every view is in the result cache. It then
times, over several passes, a fresh session per view walking the ladder
again: each rung is a cache hit, served once through
``QueryService.request`` and once through the asyncio front end
(``AsyncQueryService.stream``, increments drained, ``result()`` awaited).
It reports the median µs per hit of each path (the fastest pass's).

Before any number is printed, every timed response must be a cache hit,
the two paths' batches (sha256 of rows and dtypes) and ``(prev, served)``
windows must be equal, and both must be equal on both sides and from
pair to pair; the probe exits 1 on the first difference. ``. .`` (one
checkout against itself) is the smoke run: ``pairs=1 seeds=0`` takes
about ten seconds. A side's µs/hit moves by up to ±25 % between
processes running identical code, so trust a path only when it wins
nearly every pair, and take the claim from ``run.py`` pairs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / "baseline"
PASSES = 20


def digest(batch) -> str:
    h = hashlib.sha256(str(len(batch)).encode())
    if batch.positions is not None:
        h.update(batch.positions.dtype.str.encode() + batch.positions.tobytes())
    for name in sorted(batch.attributes):
        col = batch.attributes[name]
        h.update(name.encode() + col.dtype.str.encode() + col.tobytes())
    return h.hexdigest()


def side(root: str, seed: int) -> dict:
    """One side's run, in this (fresh) process: ``{"us", "ops", "error"}``."""
    sys.path[:0] = [str(Path(root, "src").resolve()), str(BASELINE)]
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

            def answered(resp) -> list:
                if not resp.cache_hit:
                    raise AssertionError(f"a timed rung missed: {resp.prev_quality} "
                                         f"-> {resp.served_quality}")
                return [digest(resp.batch), resp.prev_quality, resp.served_quality]

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
            if seen["request"] != seen["stream"]:
                return {"error": "request and stream served other bytes"}
            return {"us": best, "ops": seen["request"]}
        finally:
            w.close()


def run_side(root: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--side", root, str(seed)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    opts = dict(a.split("=", 1) for a in argv[2:])
    pairs = int(opts.get("pairs", 10))
    seeds = [int(s) for s in opts.get("seeds", "0,1").split(",")]
    for seed in seeds:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for p in range(pairs):
            for label in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
                got = run_side(roots[label], seed)
                if "error" in got:
                    print(f"seed {seed} pair {p} {label}: {got['error']}")
                    return 1
                want = (runs["parent"] or [got])[0]["ops"]
                if got["ops"] != want:
                    i = next((i for i, (a, b) in enumerate(zip(want, got["ops"])) if a != b),
                             min(len(want), len(got["ops"])))
                    print(f"seed {seed} pair {p} {label}: hit {i} differs")
                    return 1
                runs[label].append(got)
        n = len(runs["parent"][0]["ops"])
        print(f"seed {seed}: {n} hits per path, batches and windows identical on both sides")
        for path in ("request", "stream"):
            a, b = ([r["us"][path] for r in runs[label]] for label in ("parent", "change"))
            print(
                f"  {path:8s} us/hit parent {statistics.median(a):7.1f} "
                f"change {statistics.median(b):7.1f}  ratio "
                f"{statistics.median(b) / statistics.median(a):.3f}  "
                f"(change faster in {sum(y < x for x, y in zip(a, b))} of {len(a)} pairs)"
            )
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        print(json.dumps(side(sys.argv[2], int(sys.argv[3]))))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
