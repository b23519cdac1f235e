"""A/B of the shard tier's data path: parent vs change, byte-checked.

    python benchmarks/probes/shard_ipc.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0]

A side sets up ``shard2_closed`` exactly as ``benchmarks/baseline/run.py``
does (writes ``D_main`` v4, starts a 2-shard ``ShardedQueryService`` whose
workers import the side's own checkout, warms it with one full read and
four sessions), then serves every session of ``inputs.serve_sessions(seed)``
once, one request at a time. Rows:

- wall ms per op;
- router and worker CPU ms per op (``utime + stime`` deltas of
  ``/proc/<pid>/stat`` over the pass);
- each process's peak resident set (``VmHWM`` of ``/proc/<pid>/status``
  at the end of the pass: setup included);
- ``fanout_single`` / ``fanout_multi``, the pass's scatters to one shard
  and to more than one;
- ``rpc_s - worker_busy_s`` per op: the router's time in scatters less
  the workers' time executing them (pipe, pickling, wake-ups; with two
  shards answering one scatter in parallel, busy time counts twice).

Pinned per op: the batch (sha256 of its rows and dtypes), served and
previous quality and partial flag. The pairs, the order flip and the
verdicts are ``pairs.py``'s. Smoke run: ``. . pairs=1 seeds=0``, about a
minute.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import pairs


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


def side(seed: int) -> dict:
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
                ops.append({"op": op["cls"], "batch": pairs.digest(resp.batch),
                            "window": [resp.prev_quality, resp.served_quality],
                            "partial": resp.partial})
            svc.close_session(sid)
        wall = time.perf_counter() - t0
        cpu = [cpu_seconds(pid) - c for pid, c in zip(pids, cpu0)]
        after = counters()
        peaks = [peak_rss_mb(pid) for pid in pids]
        w.close()
    n = len(ops)
    rows = {"op ms (wall)": 1e3 * wall / n, "router cpu ms/op": 1e3 * cpu[0] / n}
    rows |= {f"worker {i} cpu ms/op": 1e3 * c / n for i, c in enumerate(cpu[1:])}
    rows["router VmHWM MB"] = peaks[0]
    rows |= {f"worker {i} VmHWM MB": mb for i, mb in enumerate(peaks[1:])}
    rows |= {
        "fanout_single": after[0] - before[0],
        "fanout_multi": after[1] - before[1],
        "rpc - busy ms/op": 1e3 * (rpc_s - (after[2] - before[2])) / n,
    }
    return {"ops": ops, "rows": rows}


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0"))
