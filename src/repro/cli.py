"""Command-line tools: inspect, query, and benchmark BAT data.

Usage::

    python -m repro info out/ts0000.meta.json        # dataset manifest
    python -m repro info out/ts0000.00003.bat        # one leaf file
    python -m repro query out/ts0000.meta.json --quality 0.2 \
        --box 0,0,0,1,1,1 --filter temperature:300:400 --stats
    python -m repro serve out/ts0000.meta.json --capacity 4 --concurrency 8
    python -m repro bench weak-scaling --machine stampede2 --ranks 96,384,1536
    python -m repro scrub out/ts0000.meta.json --deep  # checksums, then structure

Every subcommand prints plain text; nothing is modified on disk.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import machines
from .api import NeighborRequest, QueryRequest, open_dataset
from .bat.file import BATFile
from .bat.query import AttributeFilter
from .core.metadata import DatasetMetadata
from .types import Box

__all__ = ["main"]


def _parse_box(spec: str) -> Box:
    vals = [float(x) for x in spec.split(",")]
    if len(vals) != 6:
        raise argparse.ArgumentTypeError("box must be 'x0,y0,z0,x1,y1,z1'")
    return Box(tuple(vals[:3]), tuple(vals[3:]))


def _parse_filter(spec: str) -> AttributeFilter:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("filter must be 'name:lo:hi'")
    return AttributeFilter(parts[0], float(parts[1]), float(parts[2]))


def _parse_point(spec: str) -> tuple:
    vals = [float(x) for x in spec.split(",")]
    if len(vals) != 3:
        raise argparse.ArgumentTypeError("point must be 'x,y,z'")
    return tuple(vals)


def _machine(name: str):
    try:
        return getattr(machines, name)()
    except AttributeError:
        raise argparse.ArgumentTypeError(f"unknown machine {name!r}") from None


def _cmd_info(args) -> int:
    path = Path(args.path)
    if path.suffix == ".json":
        meta = DatasetMetadata.load(path)
        print(f"dataset: {path}")
        print(f"  written by {meta.nranks} ranks into {meta.n_files} leaf files")
        print(f"  particles: {meta.total_particles:,}")
        print(f"  bounds: {meta.bounds.lower} .. {meta.bounds.upper}")
        for name, (lo, hi) in meta.attr_ranges.items():
            print(f"  attribute {name}: [{lo:g}, {hi:g}]")
        sizes = np.array([l.nbytes for l in meta.leaves], dtype=np.float64)
        if len(sizes):
            print(
                f"  leaf payloads: mean {sizes.mean() / 1e6:.1f} MB, "
                f"std {sizes.std() / 1e6:.1f} MB, max {sizes.max() / 1e6:.1f} MB"
            )
        return 0
    with BATFile(path) as f:
        h = f.header
        print(f"BAT file: {path}")
        print(f"  points: {f.n_points:,}  treelets: {f.n_treelets}  "
              f"max depth: {f.max_treelet_depth}")
        print(f"  bounds: {f.bounds.lower} .. {f.bounds.upper}")
        print(f"  dictionary: {h.dict_entries} bitmaps  "
              f"flags: quantized={f.quantized} compressed={f.compressed}")
        for name in f.attr_names:
            lo, hi = f.attr_ranges[name]
            kind = type(f.binnings[name]).__name__ if name in f.binnings else "?"
            print(f"  attribute {name} ({f.attr_dtypes[name]}): [{lo:g}, {hi:g}] {kind}")
        if f.column_encoded:
            print("  column codecs (v4):")
            for name, col in f.column_summary().items():
                ratio = col["raw_nbytes"] / col["enc_nbytes"] if col["enc_nbytes"] else 0.0
                bound = (
                    f"  max error {col['error_bound']:g}"
                    if col.get("error_bound") is not None else ""
                )
                print(f"    {name}: {col['codec']}  "
                      f"{col['enc_nbytes']:,} / {col['raw_nbytes']:,} B "
                      f"({ratio:.2f}x){bound}")
    return 0


def _cmd_query(args) -> int:
    if args.knn is not None or args.radius is not None or args.at:
        return _cmd_neighbor_query(args)
    request = QueryRequest(
        quality=args.quality,
        box=args.box,
        filters=tuple(args.filter or ()),
        columns=tuple(args.columns.split(",")) if args.columns else None,
    )
    with open_dataset(args.metadata) as ds:
        batch, stats = ds.query(request)
        print(f"matched {len(batch):,} of {ds.total_particles:,} particles "
              f"(tested {stats.points_tested:,}, "
              f"pruned {stats.pruned_spatial} spatial / {stats.pruned_bitmap} bitmap subtrees)")
        print(f"files: {stats.files_opened} opened, "
              f"{stats.pruned_files} skipped by the planner")
        if args.stats and len(batch):
            for name, arr in batch.attributes.items():
                print(f"  {name}: mean {arr.mean():g}  min {arr.min():g}  max {arr.max():g}")
        if args.output:
            np.savez(args.output, positions=batch.positions, **batch.attributes)
            print(f"wrote {args.output}")
    return 0


def _cmd_neighbor_query(args) -> int:
    """The neighbor-mode branch of ``repro query`` (--knn / --radius)."""
    request = NeighborRequest(
        center_box=None if args.at else args.box,
        points=tuple(args.at) if args.at else None,
        k=args.knn,
        radius=args.radius,
        filters=tuple(args.filter or ()),
        columns=tuple(args.columns.split(",")) if args.columns else None,
    )
    with open_dataset(args.metadata) as ds:
        res = ds.neighbors(request)
        s = res.stats
        mode = f"k={args.knn}" if args.knn is not None else f"radius={args.radius:g}"
        print(f"{res.n_centers:,} centers ({mode}): {len(res):,} neighbors "
              f"(tested {s.points_tested:,} candidates, "
              f"visited {s.nodes_visited:,} nodes)")
        print(f"files: {s.files_opened} opened "
              f"({s.ghost_files_opened} ghost, {s.ghost_points:,} ghost candidates), "
              f"{s.pruned_files} skipped by the planner")
        if args.stats and len(res):
            counts = res.counts
            print(f"  list sizes: mean {counts.mean():.2f}  "
                  f"min {counts.min()}  max {counts.max()}")
            print(f"  distances: mean {res.distances.mean():g}  "
                  f"max {res.distances.max():g}")
            for name, arr in res.batch.attributes.items():
                print(f"  {name}: mean {arr.mean():g}  min {arr.min():g}  max {arr.max():g}")
        if args.output:
            out = {
                "centers": res.centers,
                "offsets": res.offsets,
                "distances": res.distances,
                "keys": res.keys,
            }
            if res.center_keys is not None:
                out["center_keys"] = res.center_keys
            if res.batch.positions is not None:
                out["positions"] = res.batch.positions
            np.savez(args.output, **out, **res.batch.attributes)
            print(f"wrote {args.output}")
    return 0


def _cmd_serve(args) -> int:
    """Replay load-generator traces through the concurrent query service;
    ``-v`` logs the ``repro`` loggers' INFO and up to stderr meanwhile."""
    if not args.verbose:
        return _serve(args)
    root = logging.getLogger("repro")
    handler, level = logging.StreamHandler(), root.level
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        return _serve(args)
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def _serve(args) -> int:
    import json

    from .core.dataset import BATDataset
    from .serve import (
        QueryService,
        ServeConfig,
        ShardedQueryService,
        make_hot_traces,
        make_traces,
        run_load,
        verify_identity_samples,
    )

    config = ServeConfig(
        capacity=args.capacity,
        max_queued=args.max_queued,
        degradation=not args.no_degradation,
    )
    concurrency = args.concurrency or 2 * args.capacity
    if args.shards:
        service = ShardedQueryService(args.source, config, n_shards=args.shards)
    else:
        service = QueryService(args.source, config)
    with service:
        step = service.steps[0]
        with BATDataset(service.manifest_path(step)) as ds:
            if args.hot_views:
                traces = make_hot_traces(
                    args.sessions, ds.bounds, n_views=args.hot_views,
                    ops_per_session=args.ops, seed=args.seed,
                )
            else:
                traces = make_traces(
                    args.sessions, ds.bounds, ds.attr_ranges,
                    ops_per_session=args.ops, seed=args.seed,
                )
            load = run_load(
                service, traces, concurrency, stream=args.stream,
                arrival=args.arrival, rate_hz=args.rate_hz,
                arrival_seed=args.arrival_seed, step=step,
            )
            checked = verify_identity_samples(ds, load.identity_samples)
        snapshot = service.snapshot()
    lat = snapshot["latency_ms"]
    if args.arrival == "open":
        mode = f"open loop at {args.rate_hz:g} Hz"
    else:
        mode = f"{concurrency} clients"
    if args.stream:
        mode += ", streamed"
    if args.shards:
        mode += f", {args.shards} shard processes"
    print(
        f"served {load.requests} requests from {args.sessions} sessions "
        f"({mode}, capacity {args.capacity}): "
        f"{load.throughput_rps:.1f} req/s, p50 {lat['p50']:.2f} ms, "
        f"p99 {lat['p99']:.2f} ms, {load.rejected} rejected, "
        f"{snapshot['requests']['degraded']} degraded, "
        f"{snapshot['caches']['collapse']['collapsed_hits']} result joins, "
        f"{snapshot['caches']['decoded_columns']['joins']} decode joins, "
        f"{checked} responses byte-verified"
    )
    if args.stream:
        streaming = snapshot["streaming"]
        print(
            f"  streaming: {streaming['increments']} increments, "
            f"ttfi p50 {streaming['ttfi_ms']['p50']:.2f} ms, "
            f"{streaming['shed']} shed"
        )
    if args.shards:
        shards = snapshot["shards"]
        print(
            f"  shards: fanout mean {shards['fanout_mean']:.2f} "
            f"({shards['fanout_multi']} multi-shard scatters), "
            f"{shards['restarts']} worker restarts"
        )
    if args.json:
        print(json.dumps(snapshot, indent=1, sort_keys=True))
    return 0


def _cmd_jobs(args) -> int:
    """Durable batch sweeps: submit to, inspect, and resume a job store."""
    import json

    from .serve import JobConfig, JobRunner, JobStore, make_sweep

    with JobStore(args.store) as store:
        if args.jobs_command == "submit":
            from .core.dataset import BATDataset

            with BATDataset(args.source) as ds:
                sweep = make_sweep(
                    ds.bounds, args.n, seed=args.seed,
                    qualities=tuple(float(q) for q in args.qualities.split(",")),
                )
            added = store.submit(
                args.job_id, sweep, source=str(args.source), step=args.step,
            )
            c = store.counts(args.job_id)
            print(f"job {args.job_id}: {added} tasks added "
                  f"({c['total']} total, {c['done']} already done)")
            return 0

        if args.jobs_command == "status":
            job_ids = [args.job_id] if args.job_id else store.jobs()
            for job_id in job_ids:
                c = store.counts(job_id)
                if args.json:
                    print(json.dumps({"job_id": job_id, **c}, sort_keys=True))
                else:
                    print(f"{job_id}: {c['done']}/{c['total']} done, "
                          f"{c['pending']} pending, {c['leased']} leased, "
                          f"{c['dead']} dead, "
                          f"{c['duplicate_acks']} duplicate acks, "
                          f"{c['points']:,} points")
                for idx, error in store.dead(job_id):
                    print(f"  dead task {idx}: {error}")
            return 0

        # resume (alias: run) — drain whatever the store says is left
        from .serve import QueryService, ServeConfig, ShardedQueryService

        job = store.job(args.job_id)
        source = args.source or job["source"]
        if not source:
            print("error: job records no source; pass one explicitly",
                  file=sys.stderr)
            return 2
        config = ServeConfig(
            capacity=args.capacity,
            degradation=False,
        )
        if args.shards:
            service = ShardedQueryService(source, config, n_shards=args.shards)
        else:
            service = QueryService(source, config)
        with service:
            runner = JobRunner(
                store, service, args.job_id, worker=args.worker,
                config=JobConfig(
                    lease_seconds=args.lease_seconds,
                    max_attempts=args.max_attempts,
                ),
            )
            counts = runner.run(max_tasks=args.max_tasks)
        print(f"job {args.job_id}: {counts['done']}/{counts['total']} done, "
              f"{counts['pending']} pending, {counts['dead']} dead, "
              f"{counts['completions']} completion records, "
              f"{counts['duplicate_acks']} duplicate acks")
        return 0 if counts["pending"] == counts["leased"] == 0 else 1


def _cmd_bench(args) -> int:
    from .bench import format_series, weak_scaling

    machine = args.machine
    ranks = [int(r) for r in args.ranks.split(",")]
    pts = weak_scaling(machine, ranks)
    print(format_series(pts, "nranks", "write_bandwidth",
                        title=f"write bandwidth (GB/s) on virtual {machine.name}"))
    print()
    print(format_series(pts, "nranks", "read_bandwidth",
                        title=f"read bandwidth (GB/s) on virtual {machine.name}"))
    return 0


def _cmd_scrub(args) -> int:
    """Check a dataset (or one file) for damage, per-file status."""
    import json

    from .bat.integrity import scrub_dataset, scrub_file

    path = Path(args.path)
    scrub = scrub_dataset if path.suffix == ".json" else scrub_file
    report = scrub(path, deep=args.deep)
    print(json.dumps(report.to_doc(), indent=1) if args.json else report.summary())
    return 0 if report.ok else 1


def _cmd_reorg(args) -> int:
    """One offline reorganization pass driven by a telemetry snapshot."""
    import json

    from .reorg import ReorgConfig, ReorgError, reorganize

    telemetry = json.loads(Path(args.telemetry).read_text())
    # accept a full service snapshot (what repro serve --json prints) as-is;
    # its "steps" is a step count, so only "telemetry" tells the two apart
    if "telemetry" in telemetry:
        telemetry = telemetry["telemetry"]
    config = ReorgConfig(
        min_queries=args.min_queries,
        cold_open_fraction=args.cold_open_fraction,
        remove_old=args.remove_old,
    )
    try:
        report = reorganize(
            Path(args.manifest), telemetry, step=args.step, config=config
        )
    except ReorgError as exc:
        print(f"reorg failed, nothing published: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_doc(), indent=1))
    else:
        if not report.changed:
            print("layout already aligned with observed access; no rewrite")
        else:
            print(
                f"generation {report.generation_from} -> {report.generation_to}: "
                f"{report.leaves_before} -> {report.leaves_after} leaves, "
                f"{len(report.files_written)} files written "
                f"({report.bytes_written} bytes), "
                f"{report.verified_points} points verified"
            )
            for action in report.actions:
                print(f"  {action.kind}: leaves {list(action.leaf_indices)}"
                      f" ({action.reason})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a .bat file or dataset manifest")
    info.add_argument("path")
    info.set_defaults(func=_cmd_info)

    query = sub.add_parser("query", help="query a dataset")
    query.add_argument("metadata", help="path to the .meta.json manifest")
    query.add_argument("--quality", type=float, default=1.0)
    query.add_argument("--box", type=_parse_box, default=None,
                       help="spatial filter: x0,y0,z0,x1,y1,z1 (in neighbor "
                            "mode: every particle in the box is a center)")
    query.add_argument("--filter", type=_parse_filter, action="append",
                       help="attribute filter: name:lo:hi (repeatable)")
    query.add_argument("--columns", default=None,
                       help="comma-separated attribute columns to materialize "
                            "(default: all; on v4 files, others never decode)")
    query.add_argument("--knn", type=int, default=None, metavar="K",
                       help="neighbor mode: K nearest neighbors per center")
    query.add_argument("--radius", type=float, default=None,
                       help="neighbor mode: all neighbors within this radius")
    query.add_argument("--at", type=_parse_point, action="append", default=None,
                       metavar="X,Y,Z",
                       help="neighbor-query center point (repeatable)")
    query.add_argument("--stats", action="store_true",
                       help="print per-attribute statistics of the result")
    query.add_argument("--output", help="write the result to an .npz file")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve",
        help="replay concurrent client traces through the query service",
    )
    serve.add_argument("source", help=".meta.json manifest or time-series directory")
    serve.add_argument("--capacity", type=int, default=4,
                       help="concurrent in-flight query limit (worker threads)")
    serve.add_argument("--concurrency", type=int, default=None,
                       help="closed-loop clients, one-shot or streamed "
                            "(default 2x capacity)")
    serve.add_argument("--sessions", type=int, default=12,
                       help="session traces to replay")
    serve.add_argument("--ops", type=int, default=6,
                       help="requests per session trace")
    serve.add_argument("--max-queued", type=int, default=64,
                       help="admission bound on the global queue")
    serve.add_argument("--seed", type=int, default=0, help="trace generator seed")
    serve.add_argument("--stream", action="store_true",
                       help="stream each response as per-rung increments "
                            "(time-to-first-increment); runs --concurrency "
                            "clients like one-shot mode (it used to start "
                            "every session at once: pass --concurrency = "
                            "--sessions for that)")
    serve.add_argument("--hot-views", type=int, default=0, metavar="N",
                       help="pile sessions onto N shared views (exercises "
                            "the single-flight caches; 0 = independent traces)")
    serve.add_argument("--arrival", choices=("closed", "open"), default="closed",
                       help="closed: each client waits for its response; open: "
                            "Poisson arrivals at --rate-hz")
    serve.add_argument("--rate-hz", type=float, default=200.0,
                       help="open-loop aggregate arrival rate")
    serve.add_argument("--arrival-seed", type=int, default=0,
                       help="open-loop interarrival RNG seed")
    serve.add_argument("--no-degradation", action="store_true",
                       help="disable adaptive quality degradation under load")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="serve through N shard worker processes "
                            "(each owns a run of leaves; 0 = in-process)")
    serve.add_argument("-v", "--verbose", action="store_true",
                       help="log the service's lifecycle events (INFO and up) to stderr")
    serve.add_argument("--json", action="store_true",
                       help="also print the full metrics surface as JSON")
    serve.set_defaults(func=_cmd_serve)

    jobs = sub.add_parser(
        "jobs",
        help="durable batch-query sweeps: submit, status, resume",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    j_submit = jobs_sub.add_parser(
        "submit", help="create (or idempotently re-create) a sweep job"
    )
    j_submit.add_argument("store", help="SQLite job-store path")
    j_submit.add_argument("job_id")
    j_submit.add_argument("source", help=".meta.json manifest or time-series directory")
    j_submit.add_argument("--n", type=int, default=100,
                          help="queries in the sweep (default 100)")
    j_submit.add_argument("--seed", type=int, default=0)
    j_submit.add_argument("--qualities", default="0.25,0.5,1.0",
                          help="comma-separated quality levels to sample")
    j_submit.add_argument("--step", type=int, default=0)

    j_status = jobs_sub.add_parser("status", help="per-state task counts")
    j_status.add_argument("store")
    j_status.add_argument("job_id", nargs="?", default=None,
                          help="one job (default: all jobs in the store)")
    j_status.add_argument("--json", action="store_true")

    for name, help_text in (
        ("resume", "drain the job's remaining tasks (safe after any crash)"),
        ("run", "alias of resume"),
    ):
        j_run = jobs_sub.add_parser(name, help=help_text)
        j_run.add_argument("store")
        j_run.add_argument("job_id")
        j_run.add_argument("source", nargs="?", default=None,
                           help="dataset (default: recorded at submit)")
        j_run.add_argument("--shards", type=int, default=0, metavar="N",
                           help="execute through N shard worker processes")
        j_run.add_argument("--capacity", type=int, default=4)
        j_run.add_argument("--worker", default="cli-runner")
        j_run.add_argument("--lease-seconds", type=float, default=30.0)
        j_run.add_argument("--max-attempts", type=int, default=4)
        j_run.add_argument("--max-tasks", type=int, default=None,
                           help="stop after this many executions (testing)")
    jobs.set_defaults(func=_cmd_jobs)

    bench = sub.add_parser("bench", help="run a benchmark experiment")
    bench.add_argument("experiment", choices=["weak-scaling"])
    bench.add_argument("--machine", type=_machine, default=machines.stampede2())
    bench.add_argument("--ranks", default="96,384,1536,6144")
    bench.set_defaults(func=_cmd_bench)

    scrub = sub.add_parser(
        "scrub",
        help="check a dataset (or one .bat file) for damage: every checksum, "
             "then the structure; reports per-file status and the exact bad section",
    )
    scrub.add_argument("path", help=".meta.json manifest or a single .bat file")
    scrub.add_argument("--deep", action="store_true",
                       help="also check every treelet of every leaf file")
    scrub.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    scrub.set_defaults(func=_cmd_scrub)

    reorg = sub.add_parser(
        "reorg",
        help="rewrite cold-but-touched leaves into a query-aligned layout "
             "using a serve-tier telemetry snapshot, bumping the manifest's "
             "layout generation",
    )
    reorg.add_argument("manifest", help=".meta.json manifest to reorganize")
    reorg.add_argument("telemetry",
                       help="JSON telemetry snapshot (AccessTelemetry.snapshot "
                            "or a full service snapshot containing one)")
    reorg.add_argument("--step", type=int, default=0,
                       help="which step's telemetry to apply (default 0)")
    reorg.add_argument("--min-queries", type=int, default=8,
                       help="do nothing below this much query evidence")
    reorg.add_argument("--cold-open-fraction", type=float, default=0.25,
                       help="leaves opened at most this fraction of the "
                            "hottest leaf's opens are merge candidates")
    reorg.add_argument("--remove-old", action="store_true",
                       help="unlink replaced leaf files after republish "
                            "(default keeps them for in-flight readers)")
    reorg.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    reorg.set_defaults(func=_cmd_reorg)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
