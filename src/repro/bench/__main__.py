"""Benchmark entry point recording BENCH_*.json perf data points.

Usage::

    python -m repro.bench --record BENCH_ci.json
    python -m repro.bench --executors serial,process:4 --ranks 64 \
        --particles 50000 --record BENCH_pr1.json
    python -m repro.bench --suite serve --capacity 2 --record BENCH_pr3.json

``--suite write`` (default) runs the real wall-clock multi-aggregator
write+query benchmark once per executor, cross-checking that every
executor produced byte-identical files and identical query answers.
``--suite serve`` replays concurrent
zoom/pan/filter session traces through the admission-controlled query
service at 2× capacity (by default), reporting throughput, p50/p99
latency, queue depth, degradation activity, and cache hit rates, with a
sample of served responses byte-checked against direct dataset queries.
``--suite stream`` replays an asyncio thundering herd — an order of
magnitude more sessions than ``serve``, all piling onto a few shared hot
views and consuming streamed increments — twice, with the in-flight
request-collapse table off and on, reporting collapse hit rate, decode
work saved, time-to-first-increment, and p50/p99 latency, with responses
byte-checked against direct queries in both runs.
``--suite faults`` repeats the write under injected faults (torn writes,
bit flips, dropped/duplicated aggregator messages, aggregator death) and
proves recovery: the faulted run must publish byte-identical files to a
fault-free run, scrub clean, and — after a deliberate post-hoc
corruption — localize the damage to the exact section and serve a
degraded partial response. ``--suite compress`` writes one structured
workload as plain v3 and as v4 with automatic per-column codecs,
reporting the on-disk reduction, per-column codec choices, and the
lazy-decode savings of single-column reads, with every v4 query
byte-checked against the v3 baseline and a v2/v3/v4 single-file compat
sweep. Either way, ``--record`` writes the JSON data point every PR is
expected to leave behind.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from .harness import (
    compression_benchmark,
    fault_injection_benchmark,
    neighbors_benchmark,
    parallel_write_query_benchmark,
    record_benchmark,
    reorg_benchmark,
    serve_benchmark,
    shard_benchmark,
    stream_benchmark,
)


def _run_write(args) -> dict:
    executors = [s.strip() for s in args.executors.split(",") if s.strip()]

    def run(out_dir):
        return parallel_write_query_benchmark(
            out_dir,
            executors=executors,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            n_attributes=args.attributes,
            target_size=args.target_kb * 1024,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    rows = payload["results"]
    print(
        f"parallel write+query: {args.ranks} ranks x {args.particles} particles, "
        f"{rows[0]['n_files']} files"
    )
    for r in rows:
        print(
            f"  {r['executor']:<12} write {r['write_seconds']:7.3f}s "
            f"({r['write_speedup_vs_serial']:4.2f}x)   "
            f"query {r['query_seconds']:7.3f}s ({r['query_speedup_vs_serial']:4.2f}x)"
        )
    print("  all executors byte-identical: ok")
    return payload


def _run_serve(args) -> dict:
    def run(out_dir):
        return serve_benchmark(
            out_dir,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            n_attributes=args.attributes,
            target_size=args.target_kb * 1024,
            capacity=args.capacity,
            concurrency=args.concurrency,
            sessions=args.sessions,
            ops_per_session=args.ops,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    r = payload["results"]
    sched = r["service"]["scheduler"]
    degr = r["service"]["degradation"]
    caches = r["service"]["caches"]
    print(
        f"serve: {payload['sessions']} sessions x {payload['ops_per_session']} ops, "
        f"{payload['concurrency']} clients over capacity {payload['capacity']} "
        f"({payload['n_files']} files)"
    )
    print(
        f"  throughput {r['throughput_rps']:7.1f} req/s   "
        f"p50 {r['latency_ms']['p50']:7.2f} ms   p99 {r['latency_ms']['p99']:7.2f} ms"
    )
    print(
        f"  queue depth max {sched['max_queue_depth']} (bound {sched['max_queued']})   "
        f"rejected {r['rejected']}   in-flight cap {sched['capacity']}"
    )
    print(
        f"  degradation: {degr['downgrades']} downgrades, "
        f"{degr['engagements']} engagements, {degr['releases']} releases "
        f"(cap now {degr['cap']:.2f})"
    )
    print(
        f"  caches: results {caches['results']['hit_rate']:.0%} hit, "
        f"plans {caches['plans']['hits']}/{caches['plans']['hits'] + caches['plans']['misses']} hit, "
        f"files {caches['files']['hit_rate']:.0%} hit"
    )
    print(f"  identity samples byte-checked vs direct queries: {r['identity_samples_checked']} ok")
    return payload


def _run_stream(args) -> dict:
    def run(out_dir):
        return stream_benchmark(
            out_dir,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            n_attributes=args.attributes,
            target_size=args.target_kb * 1024,
            capacity=args.capacity,
            sessions=args.sessions,
            ops_per_session=args.ops,
            n_views=args.views,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    r = payload["results"]
    base, coll = r["variants"]["no-collapse"], r["variants"]["collapse"]
    print(
        f"stream: {payload['sessions']} asyncio sessions x "
        f"{payload['ops_per_session']} ops over {payload['n_views']} hot views, "
        f"capacity {payload['capacity']} ({payload['n_files']} files)"
    )
    for name, v in r["variants"].items():
        print(
            f"  {name:<12} p50 {v['latency_ms']['p50']:8.2f} ms   "
            f"p99 {v['latency_ms']['p99']:8.2f} ms   "
            f"ttfi p50 {v['ttfi_ms']['p50']:7.2f} ms   "
            f"decoded {v['decoded_bytes'] / 1e6:7.2f} MB   "
            f"collapsed {v['collapsed']:>4}   shed {v['shed']:>3}"
        )
    print(
        f"  collapse hit rate {r['collapse_hit_rate']:.1%}; decode work saved "
        f"{r['decoded_bytes_saved'] / 1e6:.2f} MB "
        f"({r['decoded_bytes_saved_frac']:.1%} of baseline)"
    )
    print(
        f"  identity samples byte-checked vs direct queries: "
        f"{base['identity_samples_checked']} + {coll['identity_samples_checked']} ok"
    )
    return payload


def _run_shard(args) -> dict:
    def run(out_dir):
        return shard_benchmark(
            out_dir,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            n_attributes=args.attributes,
            target_size=args.target_kb * 1024,
            capacity=args.capacity,
            concurrency=args.concurrency,
            sessions=args.sessions,
            ops_per_session=args.ops,
            n_views=args.views,
            n_shards=args.shards,
            n_jobs=args.jobs,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    r = payload["results"]
    print(
        f"shard: {payload['sessions']} sessions x {payload['ops_per_session']} ops "
        f"over {payload['n_views']} hot views, {payload['n_shards']} shard "
        f"processes vs one ({payload['n_files']} files, capacity "
        f"{payload['capacity']})"
    )
    for name, v in r["variants"].items():
        print(
            f"  {name:<8} {v['throughput_rps']:7.1f} req/s   "
            f"p50 {v['latency_ms']['p50']:8.2f} ms   "
            f"p99 {v['latency_ms']['p99']:8.2f} ms   "
            f"rejected {v['rejected']:>4}"
        )
    for w in r["per_shard"]:
        print(
            f"    shard {w['shard']}: {w['completed']} scattered windows over "
            f"{w['owned_leaves']} owned leaves, "
            f"p50 {w['latency_ms']['p50']:.2f} ms, p99 {w['latency_ms']['p99']:.2f} ms"
        )
    fan = r["variants"]["sharded"]["fanout"]
    job = r["job"]
    print(
        f"  scatter-gather overhead {r['scatter_gather_overhead_x']:.2f}x p50; "
        f"fanout mean {fan['fanout_mean']:.2f} "
        f"({fan['fanout_multi']} multi-shard scatters)"
    )
    print(
        f"  job drill: {job['counts']['done']}/{job['tasks']} done after "
        f"runner+worker kill, {job['counts']['duplicate_acks']} duplicate acks, "
        f"{job['worker_restarts']} worker restarts, resume correctness ok"
    )
    print("  identity samples byte-checked vs direct queries: "
          f"{r['variants']['single']['identity_samples_checked']} + "
          f"{r['variants']['sharded']['identity_samples_checked']} ok")
    return payload


def _run_faults(args) -> dict:
    def run(out_dir):
        return fault_injection_benchmark(
            out_dir,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            n_attributes=args.attributes,
            target_size=args.target_kb * 1024,
            fault_seed=args.fault_seed,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    r = payload["results"]
    inj = r["injected"]
    print(
        f"fault injection: {args.ranks} ranks x {args.particles} particles, "
        f"{payload['n_files']} files"
    )
    print(
        f"  injected: {inj['injected_torn']} torn, {inj['injected_bit_flips']} bit flips, "
        f"{inj['dropped_messages']} dropped, {inj['duplicated_messages']} duplicated msgs, "
        f"{len(inj['dead_aggregators'])} dead aggregators "
        f"({inj['reassigned_leaves']} leaves reassigned)"
    )
    print(
        f"  recovery: {inj['retried_writes']} writes retried "
        f"({inj['write_attempts']} attempts total); files byte-identical to "
        f"fault-free run: ok; scrub clean: ok"
    )
    print(
        f"  deliberate corruption localized to section(s) {r['flagged_sections']}; "
        f"service degraded to {r['degraded_response']['points']} points "
        f"({r['degraded_response']['quarantined_files']} leaf quarantined)"
    )
    return payload


def _run_neighbors(args) -> dict:
    def run(out_dir):
        return neighbors_benchmark(out_dir)

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    s = payload["summary"]
    print(
        f"neighbors: {payload['total_particles']:,} particles in "
        f"{payload['n_files']} files; knn + sph + fof workloads"
    )
    for name, row in payload["results"].items():
        t, b = row["tree"], row["brute"]
        print(
            f"  {name}: {row['n_centers']} centers, {row['n_neighbors']:,} "
            f"neighbors; tree {t['seconds']:.3f}s/{t['files_opened']} files "
            f"({t['ghost_files_opened']} ghost) vs brute "
            f"{b['seconds']:.3f}s/{b['files_opened']} files; "
            f"identical: {'ok' if row['identical'] else 'MISMATCH'}"
        )
    print(
        f"  files opened: {s['tree_files_opened']} vs {s['brute_files_opened']} "
        f"naive ({s['files_opened_ratio']:.1f}x fewer), "
        f"{s['ghost_points']:,} ghost candidates exchanged "
        f"(naive halo read: {s['naive_halo_points']:,} points); "
        f"byte identity: {'ok' if s['byte_identity_ok'] else 'FAILED'}"
    )
    return payload


def _run_reorg(args) -> dict:
    def run(out_dir):
        return reorg_benchmark(
            out_dir,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            target_size=args.target_kb * 1024,
            rounds=args.rounds,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    r = payload["results"]
    b, a = r["before"], r["after"]
    print(
        f"reorg: {args.ranks} ranks x {args.particles} particles, "
        f"{payload['n_files']} files, {b['requests']} requests per phase"
    )
    print(
        f"  generation {b['generation']} -> {a['generation']}: "
        f"{r['reorg']['leaves_before']} -> {r['reorg']['leaves_after']} leaves "
        f"({len(r['reorg']['files_written'])} files rewritten, "
        f"{r['reorg']['verified_points']} points verified)"
    )
    print(
        f"  files opened: {b['files_opened']} -> {a['files_opened']} "
        f"({100 * r['files_opened_reduction']:.1f}% fewer)"
    )
    print(
        f"  decoded bytes: {b['decoded_bytes']} -> {a['decoded_bytes']} "
        f"({100 * r['decoded_bytes_reduction']:.1f}% fewer)"
    )
    print(
        f"  p99 latency: {b['latency_ms']['p99']:.2f} -> "
        f"{a['latency_ms']['p99']:.2f} ms (ratio {r['p99_ratio']:.2f}); "
        f"identity samples checked: {b['identity_samples_checked']}"
        f" + {a['identity_samples_checked']}"
    )
    return payload


def _run_compress(args) -> dict:
    def run(out_dir):
        return compression_benchmark(
            out_dir,
            nranks=args.ranks,
            particles_per_rank=args.particles,
            target_size=args.target_kb * 1024,
            lossy_bits=args.lossy_bits,
        )

    if args.out_dir is not None:
        payload = run(args.out_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            payload = run(tmp)

    r = payload["results"]
    v3, v4 = r["variants"]["v3"], r["variants"]["v4-auto"]
    print(
        f"compression: {payload['nranks']} ranks x {payload['particles_per_rank']} "
        f"particles"
    )
    print(
        f"  on disk: v3 {v3['disk_bytes'] / 1e6:7.2f} MB -> "
        f"v4 {v4['disk_bytes'] / 1e6:7.2f} MB  ({r['disk_reduction_x']:.2f}x smaller)"
    )
    for col, codec in sorted(v4["codec_table"].items()):
        print(f"    column {col:<10} codec {codec}")
    print(
        f"  full read: v3 {v3['query_seconds']:6.3f}s   v4 {v4['query_seconds']:6.3f}s"
    )
    print(
        f"  one-column read decoded {r['lazy_decode_fraction']:.1%} of the payload "
        f"({v4['decoded_bytes_one_column']:,} B)"
    )
    if "lossy" in r:
        lossy = r["lossy"]
        print(
            f"  lossy {lossy['codec']}: temp {lossy['temp_raw_nbytes']:,} -> "
            f"{lossy['temp_enc_nbytes']:,} B, max error "
            f"{lossy['max_observed_error']:g} <= bound {lossy['recorded_error_bound']:g}"
        )
    print("  codec kernels (measured, best-of-3):")
    for name, t in r["codec_throughput_mb_per_s"].items():
        print(
            f"    {name:<12} encode {t['encode_mb_per_s']:8.1f} MB/s   "
            f"decode {t['decode_mb_per_s']:8.1f} MB/s"
        )
    print("  v4 queries byte-identical to v3; v2/v3/v4 compat sweep identical: ok")
    return payload


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument(
        "--suite",
        choices=("write", "parallel", "serve", "stream", "shard",
                 "faults", "compress", "reorg", "neighbors"),
        default="write",
        help="write (alias: parallel): multi-executor write+query; "
             "serve: concurrent service under "
             "load; stream: asyncio streaming herd, collapse on vs off; "
             "shard: N worker processes vs one, plus the job-queue "
             "crash-resume drill; faults: write under injected faults, "
             "prove recovery + degraded reads; compress: v4 column codecs "
             "vs the v3 baseline; reorg: hot-view trace before vs after "
             "telemetry-driven layout reorganization; neighbors: k-NN and "
             "fixed-radius neighbor lists, tree engine vs brute-force "
             "oracle with ghost-region exchange",
    )
    p.add_argument(
        "--executors",
        default="serial,thread,process",
        help="comma-separated executor specs (see repro.parallel; write suite)",
    )
    p.add_argument("--ranks", type=int, default=32, help="writing ranks")
    p.add_argument("--particles", type=int, default=20_000, help="particles per rank")
    p.add_argument("--attributes", type=int, default=4, help="attributes per particle")
    p.add_argument(
        "--target-kb", type=int, default=256, help="aggregation target size (KiB)"
    )
    p.add_argument(
        "--capacity", type=int, default=2,
        help="serve suite: concurrent in-flight query limit (worker threads)",
    )
    p.add_argument(
        "--concurrency", type=int, default=None,
        help="serve suite: load-generator client threads (default 2x capacity)",
    )
    p.add_argument(
        "--sessions", type=int, default=None,
        help="serve/stream suites: session traces to replay "
             "(default 12 for serve, 120 for stream)",
    )
    p.add_argument(
        "--views", type=int, default=4,
        help="stream suite: shared hot views the sessions pile onto",
    )
    p.add_argument(
        "--shards", type=int, default=2,
        help="shard suite: worker processes behind the router",
    )
    p.add_argument(
        "--jobs", type=int, default=48,
        help="shard suite: sweep size of the job-queue crash-resume drill",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0,
        help="faults suite: RNG seed of the injected fault plan",
    )
    p.add_argument(
        "--ops", type=int, default=6, help="serve suite: requests per session trace"
    )
    p.add_argument(
        "--rounds", type=int, default=40,
        help="reorg suite: hot-view trace rounds replayed per phase",
    )
    p.add_argument(
        "--lossy-bits", type=int, default=12,
        help="compress suite: also demonstrate quantize<N> on one column "
             "(0 disables the lossy leg)",
    )
    p.add_argument("--out-dir", default=None, help="keep written files here (default: temp)")
    p.add_argument("--record", default=None, help="write the BENCH_<tag>.json data point here")
    args = p.parse_args(argv)

    if args.sessions is None:
        if args.suite == "stream":
            args.sessions = 120
        elif args.suite == "shard":
            args.sessions = 480
        else:
            args.sessions = 12

    if args.suite == "serve":
        payload = _run_serve(args)
    elif args.suite == "stream":
        payload = _run_stream(args)
    elif args.suite == "shard":
        payload = _run_shard(args)
    elif args.suite == "faults":
        payload = _run_faults(args)
    elif args.suite == "compress":
        if args.lossy_bits == 0:
            args.lossy_bits = None
        payload = _run_compress(args)
    elif args.suite == "reorg":
        payload = _run_reorg(args)
    elif args.suite == "neighbors":
        payload = _run_neighbors(args)
    else:
        payload = _run_write(args)

    if args.record:
        doc = record_benchmark(args.record, payload)
        print(f"recorded {args.record} (cores={doc['environment']['cpu_count']})")
    else:
        json.dump(payload, sys.stdout, indent=1)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
