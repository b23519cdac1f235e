#!/usr/bin/env python3
"""The repo's one fixed, layer-attributed baseline benchmark.

Contract form (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/baseline/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a human-readable table and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Without ``--workload`` all seven workloads run (``--trace`` adds the traced
pass); ``--aa`` runs two full sets and compares them; ``--quick`` is the
smoke-test size; ``--json PATH`` writes everything that was printed. See
README.md in this directory for the metric glossary and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 2
CALIBRATION_BYTES = 16 << 20


def _bootstrap() -> None:
    """Make ``repro`` importable here and in spawned shard workers."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")


def load_benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- leaving no process behind -------------------------------------------------------


def _descendants() -> list[int]:
    """Pids of every live process below this one (one scan of ``/proc``)."""
    below: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended during the scan
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            below.setdefault(int(ppid), []).append(int(entry))
    found, frontier = [], [os.getpid()]
    while frontier:
        kids = below.get(frontier.pop(), [])
        found += kids
        frontier += kids
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Runs on every path out of :func:`main`. A clean run has one child
    left by then: the ``spawn`` context's resource tracker, which
    ``ShardedQueryService`` starts with its workers and which otherwise
    ends only *after* this process has (it waits for its pipe to close),
    orphaned and unwaited. Its pipe is closed and it is waited for here.
    A run that failed half-way may also have left shard workers or the
    herd's spinner: those are killed first, so that none of them holds the
    tracker's pipe open.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in _descendants():
        if pid != tracker._pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    tracker._stop()  # closes its pipe and waits for it; nothing to do if none runs
    while True:  # reap whatever was not waited for yet
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    deadline = time.monotonic() + 10.0
    while _descendants() and time.monotonic() < deadline:
        time.sleep(0.01)  # killed grandchildren, reaped by init


# -- machine calibration -------------------------------------------------------------


def calibrate() -> dict:
    """In-run speed of three primitives on a fixed 16 MB buffer (MB/s).

    Context only: a > 10 % drift in these between two runs marks their
    comparison as cross-machine.
    """
    import numpy as np

    mb = CALIBRATION_BYTES / 1e6
    src = (np.arange(CALIBRATION_BYTES // 8, dtype=np.int64) * 2654435761) >> 7
    dst = np.empty_like(src)

    def best(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return mb / min(times)

    raw = src.tobytes()
    return {
        "machine.memcpy_mb_s": best(lambda: np.copyto(dst, src), 8),
        "machine.zlib_mb_s": best(lambda: zlib.compress(raw, 1), 2),
        "machine.pickle_mb_s": best(lambda: pickle.loads(pickle.dumps(src, protocol=4)), 4),
    }


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- one workload ---------------------------------------------------------------------


def _fresh_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK))


def _set_up(cls, seed, scale, repeats):
    """Set the workload up ``repeats`` times and keep the last.

    Returns the workload and each set-up's seconds at reference speed
    (the machine's speed is read just before and just after each one).
    """
    from workloads import SpeedProbe

    probe = SpeedProbe()
    probe.read()
    times = []
    for k in range(repeats):
        workdir = _fresh_dir()
        t0 = time.perf_counter()
        w = cls(seed, scale, workdir)
        try:
            w.setup()
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise
        t1 = time.perf_counter()
        probe.read()
        times.append((t1 - t0) * probe.speed(t0, t1))
        if k < repeats - 1:
            w.close()
            shutil.rmtree(workdir, ignore_errors=True)
    return w, times


def end_to_end(w, s, setup_times) -> dict:
    """The eight end-to-end metrics of one measured phase.

    Rates and latencies are medians over *cycles* (each cycle is the same
    op mix), every cycle taken at reference machine speed — see
    :class:`workloads.SpeedProbe`. A closed loop's throughput is its
    clients' per-cycle rate times the number of clients; an open loop's is
    completed ops over wall time (the offered load, which the schedule
    fixes — the machine's speed does not enter it).
    """
    from metrics import median
    from workloads import LIMIT_MS, peak_rss_mb

    limit_s = LIMIT_MS[w.name] / 1e3
    if s.open_loop:
        ops_per_s = len(s.lat) / s.wall_s
        payload_mb_s = s.nbytes / 1e6 / s.wall_s
    else:
        cycles = s.by_cycle()
        at_reference = [c["seconds"] * c["speed"] for c in cycles]
        ops_per_s = s.clients * median(
            [len(c["lat"]) / t for c, t in zip(cycles, at_reference)]
        )
        payload_mb_s = s.clients * median(
            [c["bytes"] / 1e6 / t for c, t in zip(cycles, at_reference)]
        )
    return {
        "setup_s": median(setup_times),
        "ops_per_s": ops_per_s,
        "op_p50_ms": s.p50_ms("lat"),
        "payload_mb_s": payload_mb_s,
        "ttfi_p50_ms": s.p50_ms("ttfi"),
        "within_limit_frac": sum(1 for x in s.ttfi if x <= limit_s) / s.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "disk_bytes_per_user_byte": w.disk_ratio,
    }


def run_workload(name, seed, seconds, scale, *, trace, trace_out=None) -> dict:
    """One contract run of one workload; returns its result document.

    ``trace`` false: three timed set-ups, one time-boxed phase, the
    end-to-end metrics. ``trace`` true: one set-up, then a fixed number of
    cycles twice — untraced and with the span wrappers installed — and the
    per-layer metrics.
    """
    from metrics import median
    from workloads import WORKLOADS

    repeats = 1 if trace or scale.quick else SETUP_REPEATS
    w, setup_times = _set_up(WORKLOADS[name], seed, scale, repeats)
    doc = {"workload": name, "load": w.load, "seed": seed, "seconds": seconds}
    try:
        doc["pins"] = w.check_pins()
        doc["digests"] = dict(w.digests)
        w.reset()
        if trace:
            phases = _traced_passes(w, doc, seed, seconds, scale, trace_out)
        else:
            s = w.measure(seconds=seconds)
            phases = [s]
            if s.lat:
                doc["end_to_end"] = end_to_end(w, s, setup_times)
                doc["samples"] = {
                    "ops": len(s.lat), "cycles": s.cycles, "busy_s": s.busy_s,
                    "wall_s": s.wall_s, "setup_s_each": setup_times,
                    "speed": median([c["speed"] for c in s.by_cycle()]),
                    "speed_readings": len(s.probe.times),
                }
        doc["attempted"] = sum(p.attempted for p in phases)
        doc["failed"] = sum(p.failed for p in phases)
        doc["failures"] = [why for p in phases for why in p.failures]
        if not all(p.lat for p in phases):
            raise SystemExit(f"run.py: {name}: no op completed: {doc['failures']}")
    finally:
        w.close()
        shutil.rmtree(w.workdir, ignore_errors=True)
    return doc


def _traced_passes(w, doc, seed, seconds, scale, trace_out) -> list:
    """The untraced and the traced pass over the same fixed cycles."""
    import layers
    from spans import Recorder
    from workloads import traced_cycles

    cycles = 2 if scale.quick else traced_cycles(w.name, seconds)
    extras = calibrate()
    extras["doc_roundtrip_us"] = layers.doc_roundtrip_us(w.requests())
    before = w.cache_stats()
    u = w.measure(cycles=cycles)
    after = w.cache_stats()
    if w.name == "shard2_closed":
        extras["serve.hashing.owner_imbalance"] = w.owner_imbalance()
        doc["ipc_probe"] = w.ipc_probe()
        extras["serve.shard.ipc_s"] = doc["ipc_probe"]["ipc_s"]
        extras["serve.shard.overhead_x"] = _overhead_x(u, seed, scale, cycles)
    rec = Recorder()
    w.reset()
    rec.install()
    try:
        t = w.measure(cycles=cycles, rec=rec)
    finally:
        rec.uninstall()
    if u.lat and t.lat:
        doc["self_times"] = rec.self_times()
        doc["per_layer"] = layers.derive(w, u, t, doc["self_times"], before, after, extras)
        doc["trace"] = {"cycles": cycles, "spans": len(rec.spans),
                        "orphans": rec.orphans(), "op_s": t.busy_s}
    if trace_out:
        rec.dump(trace_out, workload=w.name, seed=seed, cycles=cycles)
    return [u, t]


def _overhead_x(u, seed, scale, cycles) -> float:
    """``op_p50_ms`` sharded / unsharded: the same sessions and drivers
    through a plain ``QueryService``, on the same fixed cycles."""
    from workloads import ServeClosed

    workdir = _fresh_dir()
    ref = ServeClosed(seed, scale, workdir)
    try:
        ref.setup()
        return u.p50_ms() / ref.measure(cycles=cycles).p50_ms()
    finally:
        ref.close()
        shutil.rmtree(workdir, ignore_errors=True)


# -- printing -------------------------------------------------------------------------


def print_result(doc: dict) -> None:
    from metrics import END_TO_END, PER_LAYER

    print(f"\n== {doc['workload']}  (seed {doc['seed']}; {doc['load']}; pins {doc['pins']})")
    if "end_to_end" in doc:
        n = doc["samples"]
        print(f"   measured {n['wall_s']:.2f} s wall ({n['busy_s']:.2f} s inside ops), "
              f"{n['ops']} ops in {n['cycles']} cycles; machine speed x{n['speed']:.3f} "
              f"of reference ({n['speed_readings']} readings); times are at reference speed")
        for name, value in doc["end_to_end"].items():
            print(f"   {name:<34}{value:>14.4f} {END_TO_END[name][0]:<6} n={n['ops']}")
    if "per_layer" in doc:
        tr = doc["trace"]
        print(f"   traced {tr['cycles']} cycles: {tr['spans']} spans, {tr['orphans']} orphans")
        for name, value in doc["per_layer"].items():
            exact = " [x]" if PER_LAYER[name][2] else ""
            print(f"   {name:<40}{value:>16.4f} {PER_LAYER[name][0]}{exact}")
        print("   self-time table (traced pass; share of total op time)")
        op_s = max(tr["op_s"], 1e-12)
        rows = sorted(doc["self_times"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"     {name:<24}{row['count']:>9} calls {row['total_s']:>9.3f} s total"
                  f"{row['self_s']:>9.3f} s self {100 * row['self_s'] / op_s:>6.1f} %")
    print(f"   attempted {doc['attempted']}, failed {doc['failed']}")
    for why in doc["failures"]:
        print(f"   FAILED: {why}")


def contract_line(doc: dict, trace: bool) -> str:
    from metrics import END_TO_END, PER_LAYER

    values, units = (
        (doc["per_layer"], {k: v[0] for k, v in PER_LAYER.items()}) if trace
        else (doc["end_to_end"], {k: v[0] for k, v in END_TO_END.items()})
    )
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


# -- full sets and A/A ----------------------------------------------------------------


def run_set(names, seed, seconds, quick, trace, trace_out) -> dict:
    """Every workload as the driver runs it: one process per contract run.

    A fresh process per run keeps ``peak_rss_mb`` (a process-lifetime
    peak) and allocator state from leaking between workloads. With
    ``trace`` each workload's ``--trace 1`` run follows its ``--trace 0``
    run and the two documents are merged.
    """
    results = {}
    for name in names:
        doc = _contract_run(name, seed, seconds, quick, 0, None)
        if trace:
            traced = _contract_run(name, seed, seconds, quick, 1, trace_out)
            for key in ("attempted", "failed", "failures"):
                doc[key] += traced.pop(key)
            doc.update({k: traced[k] for k in ("per_layer", "self_times", "trace")})
        results[name] = doc
    return results


def _contract_run(name, seed, seconds, quick, trace, trace_out) -> dict:
    WORK.mkdir(exist_ok=True)
    fd, out = tempfile.mkstemp(prefix="result-", suffix=".json", dir=WORK)
    os.close(fd)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--json", out]
    cmd += ["--quick"] if quick else []
    cmd += ["--trace-out", str(trace_out)] if trace_out else []
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        written = Path(out).read_text()
        if not written:
            print(proc.stdout)
            raise SystemExit(f"run.py: {name} (trace {trace}) exited {proc.returncode} "
                             "without a result")
        print(proc.stdout.rsplit("\n", 2)[0])  # the child's table, without its result line
        return json.loads(written)["results"][name]
    finally:
        os.unlink(out)


def compare_sets(first: dict, second: dict) -> dict:
    """Per (metric, workload): both values, relative difference, verdict."""
    from metrics import END_TO_END, PER_LAYER
    from workloads import SINGLE_THREAD

    rows, exact_mismatch = [], []
    for name in first:
        a, b = first[name], second[name]
        for metric, (unit, better, bound) in END_TO_END.items():
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            rows.append({"workload": name, "metric": metric, "unit": unit, "first": x,
                         "second": y, "rel_diff": abs(y - x) / x, "bound": bound,
                         "within_bound": abs(worse) <= bound})
        if name in SINGLE_THREAD:
            for metric, (_unit, _better, exact) in PER_LAYER.items():
                if exact and a["per_layer"][metric] != b["per_layer"][metric]:
                    exact_mismatch.append(
                        {"workload": name, "metric": metric,
                         "first": a["per_layer"][metric], "second": b["per_layer"][metric]}
                    )
    return {"pairs": rows, "exact_mismatch": exact_mismatch,
            "diagnostic": [r for r in rows if not r["within_bound"]]}


def run_aa(names, seed, seconds, quick, trace_out) -> int:
    first = run_set(names, seed, seconds, quick, True, trace_out)
    second = run_set(list(reversed(names)), seed, seconds, quick, True, trace_out)
    cmp = compare_sets(first, second)
    print("\n== A/A: two sets of the same code")
    for r in cmp["pairs"]:
        flag = "" if r["within_bound"] else "  DIAGNOSTIC (misses its bound)"
        print(f"   {r['workload']:<14}{r['metric']:<28}{r['first']:>12.4f}{r['second']:>12.4f}"
              f" {r['unit']:<6} diff {100 * r['rel_diff']:>5.1f} %"
              f" bound {100 * r['bound']:.0f} %{flag}")
    for r in cmp["exact_mismatch"]:
        print(f"   [x] MISMATCH {r['workload']} {r['metric']}: {r['first']} != {r['second']}")
    if not quick:
        ref = {
            "seed": seed, "seconds": seconds, "environment": environment(),
            # the first set doubles as this commit's reference numbers
            "reference": {
                name: {k: doc[k] for k in ("end_to_end", "per_layer", "self_times", "samples")}
                for name, doc in first.items()
            },
            "aa": cmp,
        }
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"   recorded in {REFERENCE.relative_to(ROOT)}")
    failed = sum(d["failed"] for d in (*first.values(), *second.values()))
    return 1 if failed or cmp["exact_mismatch"] else 0


# -- pins and schema ------------------------------------------------------------------


def write_pins(n_seeds: int) -> None:
    """Regenerate ``pins.json``: input digests for seeds 0..n-1 + environment."""
    import inputs
    from workloads import HERD_SESSION_RATE, WORKLOADS

    pins = {"inputs": {}, "environment": environment(), "calibration": calibrate(),
            "stream_herd_session_rate": HERD_SESSION_RATE}
    for seed in range(n_seeds):
        digests: dict = {}
        for cls in WORKLOADS.values():
            workdir = _fresh_dir()
            w = cls(seed, inputs.FULL, workdir)
            try:
                w.setup()
                digests.update(w.digests)
            finally:
                w.close()
                shutil.rmtree(workdir, ignore_errors=True)
        pins["inputs"][str(seed)] = digests
        print(f"pinned seed {seed}: {len(digests)} digests")
    inputs.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def check_schema() -> None:
    """``BENCHMARK.json`` names exactly the metrics and workloads coded here."""
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    bench = load_benchmark_json()
    coded = {
        "keys": sorted(["command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"]),
        "workloads": list(WORKLOADS),
        "end_to_end": END_TO_END,
        "per_layer": {k: v[:2] for k, v in PER_LAYER.items()},
    }
    listed = {
        "keys": sorted(bench),
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: (m["unit"], m["better"], m["bound"])
                       for m in bench["end_to_end"]},
        "per_layer": {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
    }
    differing = [part for part in coded if coded[part] != listed[part]]
    if differing:
        sys.exit(f"run.py: BENCHMARK.json differs from the coded registry in: {differing}")
    print("BENCHMARK.json matches the coded metric registry")


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (contract form)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measured phase per workload "
                    "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="with --workload: 1 = per-layer metrics instead of end-to-end; "
                         "without: also run the traced pass")
    ap.add_argument("--trace-out", help="append every span as a JSON line to this file")
    ap.add_argument("--json", help="write the full result document to this path")
    ap.add_argument("--quick", action="store_true", help="smoke-test size (never a reference)")
    ap.add_argument("--aa", action="store_true", help="two full sets back to back, compared")
    ap.add_argument("--pin", type=int, metavar="N", help="regenerate pins.json for seeds 0..N-1")
    ap.add_argument("--check-schema", action="store_true")
    args = ap.parse_args(argv)

    if args.json and Path(args.json).name == "BENCHMARK.json":
        reason = ("quick results are never reference numbers" if args.quick else
                  "its schema is fixed; reference numbers live in reference.json")
        sys.exit(f"run.py: refusing to write results to BENCHMARK.json: {reason}")
    _bootstrap()
    # a polite kill unwinds through every ``finally`` below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import inputs
    from workloads import WORKLOADS

    if args.check_schema:
        check_schema()
        return 0
    if args.pin:
        write_pins(args.pin)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.quick else float(load_benchmark_json()["run_seconds"])
    if args.workload and args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    try:
        if args.aa:
            return run_aa(list(WORKLOADS), args.seed, seconds, args.quick, args.trace_out)
        if args.workload:
            doc = run_workload(
                args.workload, args.seed, seconds, inputs.QUICK if args.quick else inputs.FULL,
                trace=bool(args.trace), trace_out=args.trace_out,
            )
            results = {args.workload: doc}
            print_result(doc)
            last = contract_line(doc, bool(args.trace))
        else:
            results = run_set(list(WORKLOADS), args.seed, seconds, args.quick,
                              bool(args.trace), args.trace_out)
            last = json.dumps({
                "correct": all(d["failed"] == 0 for d in results.values()),
                "attempted": sum(d["attempted"] for d in results.values()),
                "failed": sum(d["failed"] for d in results.values()),
                "metrics": {
                    f"{name}.{k}": v for name, d in results.items()
                    for k, v in {**d["end_to_end"], **d.get("per_layer", {})}.items()
                },
            })
        if args.json:
            Path(args.json).write_text(json.dumps(
                {"quick": args.quick, "seed": args.seed, "seconds": seconds,
                 "environment": environment(), "results": results}, indent=1) + "\n")
        print(last)
        return 0 if all(d["failed"] == 0 for d in results.values()) else 1
    finally:
        stop_children()
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
