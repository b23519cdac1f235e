"""A/B of the shard tier's data path: parent vs change, byte-checked.

    python benchmarks/probes/shard_ipc.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0]

Run from any directory; no ``PYTHONPATH``. Each root is a checkout of
this repository; the probe imports ``repro`` from ``ROOT/src`` (in the
side's process and in the shard workers it spawns), and the benchmark
inputs from the ``benchmarks/baseline`` next to this file, so both sides
serve the same ``shard2_closed`` dataset and sessions.

Per seed and pair, each side runs in its own subprocess, the order
flipped every pair. A side sets up ``shard2_closed`` exactly as
``benchmarks/baseline/run.py`` does (writes ``D_main`` v4, starts a
2-shard ``ShardedQueryService``, warms it with one full read and four
sessions), then serves every session of ``inputs.serve_sessions(seed)``
once, one request at a time, and reports:

- router and worker CPU ms per op (``utime + stime`` deltas of
  ``/proc/<pid>/stat`` over the pass);
- each process's peak resident set (``VmHWM`` of ``/proc/<pid>/status``
  at the end of the pass: setup included);
- ``fanout_single`` / ``fanout_multi``, the pass's scatters to one shard
  and to more than one;
- ``rpc_s - worker_busy_s`` per op: the router's time in scatters less
  the workers' time executing them (pipe, pickling, wake-ups; with two
  shards answering one scatter in parallel, busy time counts twice).

Before any number is printed, every op's batch (sha256 of its rows and
dtypes), served and previous quality and partial flag must be equal on
both sides, and equal from pair to pair; the probe exits 1 on the first
difference. ``. .`` (one checkout against itself) is the smoke run:
``pairs=1 seeds=0`` takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / "baseline"


def digest(batch) -> str:
    h = hashlib.sha256(str(len(batch)).encode())
    if batch.positions is not None:
        h.update(batch.positions.dtype.str.encode() + batch.positions.tobytes())
    for name in sorted(batch.attributes):
        col = batch.attributes[name]
        h.update(name.encode() + col.dtype.str.encode() + col.tobytes())
    return h.hexdigest()


def cpu_seconds(pid: int) -> float:
    """``utime + stime`` of one process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return float("nan")


def side(root: str, seed: int) -> dict:
    """One side's run, in this (fresh) process."""
    sys.path[:0] = [str(Path(root, "src").resolve()), str(BASELINE)]
    import inputs
    from workloads import Shard2Closed

    with tempfile.TemporaryDirectory(prefix="shard_ipc_") as tmp:
        w = Shard2Closed(seed, inputs.FULL, tmp)
        w.setup()
        svc = w.svc
        pids = [os.getpid(), *(c.process.pid for c in svc._shards)]

        def counters():
            shards = w.cache_stats()["shards"]
            return shards["fanout_single"], shards["fanout_multi"], shards["worker_busy_s"]

        before, cpu0 = counters(), [cpu_seconds(pid) for pid in pids]
        ops, rpc_s = [], 0.0
        t0 = time.perf_counter()
        for session in w.session_docs:
            sid = svc.open_session()
            for op in session:
                resp = svc.request(sid, inputs.to_request(op))
                rpc_s += resp.span.traverse_seconds
                ops.append([op["cls"], digest(resp.batch), resp.served_quality,
                            resp.prev_quality, resp.partial])
            svc.close_session(sid)
        wall = time.perf_counter() - t0
        cpu = [cpu_seconds(pid) - c for pid, c in zip(pids, cpu0)]
        after = counters()
        peaks = [peak_rss_mb(pid) for pid in pids]
        w.close()
    n = len(ops)
    return {
        "ops": ops,
        "op_ms": 1e3 * wall / n,
        "router_cpu_ms": 1e3 * cpu[0] / n,
        "worker_cpu_ms": [1e3 * c / n for c in cpu[1:]],
        "router_hwm_mb": peaks[0],
        "worker_hwm_mb": peaks[1:],
        "fanout_single": after[0] - before[0],
        "fanout_multi": after[1] - before[1],
        "ipc_ms": 1e3 * (rpc_s - (after[2] - before[2])) / n,
    }


def run_side(root: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(root, "src").resolve()))
    out = subprocess.run(
        [sys.executable, __file__, "--side", root, str(seed)],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    return json.loads(out.splitlines()[-1])


def first_difference(want: list, got: list) -> str | None:
    if len(want) != len(got):
        return f"{len(want)} vs {len(got)} ops"
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"op {i} ({a[0]}): batch, qualities or partial flag differ"
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    roots = {"parent": argv[0], "change": argv[1]}
    opts = dict(a.split("=", 1) for a in argv[2:])
    pairs = int(opts.get("pairs", 10))
    seeds = [int(s) for s in opts.get("seeds", "0").split(",")]
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
        n_ops = len(runs["parent"][0]["ops"])
        print(f"seed {seed}: {n_ops} ops, batches identical on both sides")
        rows = [
            ("op ms (wall)", lambda r: r["op_ms"]),
            ("router cpu ms/op", lambda r: r["router_cpu_ms"]),
            *((f"worker {i} cpu ms/op", lambda r, i=i: r["worker_cpu_ms"][i]) for i in range(2)),
            ("router VmHWM MB", lambda r: r["router_hwm_mb"]),
            *((f"worker {i} VmHWM MB", lambda r, i=i: r["worker_hwm_mb"][i]) for i in range(2)),
            ("fanout_single", lambda r: r["fanout_single"]),
            ("fanout_multi", lambda r: r["fanout_multi"]),
            ("rpc - busy ms/op", lambda r: r["ipc_ms"]),
        ]
        for name, get in rows:
            a, b = ([get(r) for r in runs[label]] for label in ("parent", "change"))
            print(
                f"  {name:20s} parent {statistics.median(a):9.3f} "
                f"change {statistics.median(b):9.3f}  "
                f"(change lower in {sum(y < x for x, y in zip(a, b))} of {len(a)} pairs)"
            )
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        print(json.dumps(side(sys.argv[2], int(sys.argv[3]))))
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
