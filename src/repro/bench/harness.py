"""Sweep runners behind the ``benchmarks/`` targets.

Scaling and time-series experiments run counts-only on the virtual cluster
(DESIGN.md §5); the progressive-read experiments (Tables I–II) measure real
wall-clock time against real BAT files on local storage, matching the
paper's single-threaded desktop methodology.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..api import QueryRequest
from ..baselines import build_aug_plan, ior_benchmark
from ..core import AggTreeConfig, RankData, TwoPhaseReader, TwoPhaseWriter
from ..core.dataset import BATDataset
from ..machines import MachineSpec
from ..workloads import uniform_rank_data

__all__ = [
    "ScalingPoint",
    "weak_scaling",
    "two_phase_write_point",
    "two_phase_read_point",
    "timing_breakdown",
    "coal_boiler_series",
    "dam_break_series",
    "progressive_read_benchmark",
    "parallel_write_query_benchmark",
    "serve_benchmark",
    "shard_benchmark",
    "stream_benchmark",
    "fault_injection_benchmark",
    "neighbors_benchmark",
    "reorg_benchmark",
    "compression_benchmark",
    "codec_throughput_benchmark",
    "record_benchmark",
]

MB = 1 << 20

#: overfull settings used throughout the paper's evaluation (§VI-A2)
PAPER_AGG = dict(overfull_cost_ratio=4.0, overfull_factor=1.5)


def paper_agg_config(target_size: int) -> AggTreeConfig:
    return AggTreeConfig(target_size=target_size, **PAPER_AGG)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a weak-scaling curve."""

    label: str
    nranks: int
    total_bytes: float
    write_bandwidth: float
    read_bandwidth: float


def two_phase_write_point(
    machine: MachineSpec, data: RankData, target_size: int, strategy="adaptive"
):
    """Write one timestep with the two-phase pipeline; returns the report."""
    if strategy == "adaptive":
        writer = TwoPhaseWriter(
            machine, target_size=target_size, agg_config=paper_agg_config(target_size)
        )
    elif strategy == "aug":
        writer = TwoPhaseWriter(machine, target_size=target_size, strategy=build_aug_plan)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return writer.write(data)


def two_phase_read_point(machine: MachineSpec, write_report, data: RankData, shift: int = 1):
    """Restart-read the just-written data on shifted ranks (paper §VI-A).

    Reading rank r asks for the region writing rank (r+shift) owned, so no
    rank reads what it wrote (defeats OS caching in the paper's runs; here
    it exercises the cross-rank transfer path).
    """
    read_bounds = np.roll(data.bounds, -shift, axis=0)
    reader = TwoPhaseReader(machine)
    return reader.read(write_report.metadata, read_bounds)


def weak_scaling(
    machine: MachineSpec,
    rank_counts: list[int],
    target_sizes: list[int] = (8 * MB, 64 * MB, 256 * MB),
    ior_modes: list[str] = ("fpp", "shared", "hdf5"),
    particles_per_rank: int = 32_768,
) -> list[ScalingPoint]:
    """Figs 5 and 7: uniform weak scaling of writes and reads."""
    out: list[ScalingPoint] = []
    bpp = 3 * 4 + 14 * 8
    for nranks in rank_counts:
        block = particles_per_rank * bpp
        for mode in ior_modes:
            r = ior_benchmark(machine, nranks, block, mode)
            out.append(
                ScalingPoint(
                    label=f"ior-{mode}",
                    nranks=nranks,
                    total_bytes=r.total_bytes,
                    write_bandwidth=r.write_bandwidth,
                    read_bandwidth=r.read_bandwidth,
                )
            )
        data = uniform_rank_data(nranks, particles_per_rank)
        for target in target_sizes:
            wrep = two_phase_write_point(machine, data, target)
            rrep = two_phase_read_point(machine, wrep, data)
            out.append(
                ScalingPoint(
                    label=f"two-phase-{target // MB}MB",
                    nranks=nranks,
                    total_bytes=data.total_bytes,
                    write_bandwidth=wrep.bandwidth,
                    read_bandwidth=rrep.bandwidth,
                )
            )
    return out


def timing_breakdown(
    machine: MachineSpec, rank_counts: list[int], target_size: int
) -> list[dict]:
    """Fig 6: per-phase makespan fractions of the uniform write."""
    rows = []
    for nranks in rank_counts:
        data = uniform_rank_data(nranks)
        rep = two_phase_write_point(machine, data, target_size)
        total = sum(rep.breakdown.values())
        rows.append(
            {
                "nranks": nranks,
                "elapsed": rep.elapsed,
                "phases": dict(rep.breakdown),
                "fractions": {k: v / total for k, v in rep.breakdown.items()} if total else {},
            }
        )
    return rows


def _series(machine, workload_rank_data, timesteps, target_sizes, strategies, read_shift=1):
    rows = []
    for ts in timesteps:
        data = workload_rank_data(ts)
        for target in target_sizes:
            for strategy in strategies:
                wrep = two_phase_write_point(machine, data, target, strategy)
                rrep = two_phase_read_point(machine, wrep, data, shift=read_shift)
                rows.append(
                    {
                        "timestep": ts,
                        "target_mb": target // MB,
                        "strategy": strategy,
                        "total_particles": data.total_particles,
                        "write_seconds": wrep.elapsed,
                        "write_bandwidth": wrep.bandwidth,
                        "read_seconds": rrep.elapsed,
                        "read_bandwidth": rrep.bandwidth,
                        "n_files": wrep.n_files,
                        "file_sizes": wrep.file_sizes,
                        "write_breakdown": wrep.breakdown,
                        "read_breakdown": rrep.breakdown,
                        "imbalance": wrep.imbalance,
                    }
                )
    return rows


def coal_boiler_series(
    machine: MachineSpec,
    nranks: int = 1536,
    timesteps=(501, 1501, 2501, 3501, 4501),
    target_sizes=(8 * MB, 16 * MB, 32 * MB, 64 * MB),
    strategies=("adaptive", "aug"),
    sample_size: int = 300_000,
) -> list[dict]:
    """Figs 9–10: adaptive vs AUG over the Coal Boiler time series."""
    from ..workloads import CoalBoiler

    boiler = CoalBoiler()
    return _series(
        machine,
        lambda ts: boiler.rank_data(ts, nranks, sample_size=sample_size),
        timesteps,
        target_sizes,
        strategies,
    )


def dam_break_series(
    machine: MachineSpec,
    total_particles: int = 2_000_000,
    nranks: int = 1536,
    timesteps=(0, 1001, 2001, 3001, 4001),
    target_sizes=(1 * MB, 3 * MB),
    strategies=("adaptive", "aug"),
    sample_size: int = 300_000,
) -> list[dict]:
    """Figs 11–12: adaptive vs AUG over the Dam Break time series."""
    from ..workloads import DamBreak

    dam = DamBreak(total=total_particles)
    return _series(
        machine,
        lambda ts: dam.rank_data(ts, nranks, sample_size=sample_size),
        timesteps,
        target_sizes,
        strategies,
    )


def parallel_write_query_benchmark(
    out_dir,
    executors=("serial", "thread", "process"),
    nranks: int = 32,
    particles_per_rank: int = 20_000,
    n_attributes: int = 4,
    target_size: int = 256 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
) -> dict:
    """Real wall-clock multi-aggregator write+query, one row per executor.

    One materialized workload is written through the two-phase pipeline
    and then queried (full read, box read, filtered read) once per
    executor spec. Besides the timings, every run's file hashes and query
    results are compared against the serial run — the benchmark fails
    loudly if an executor is fast but wrong. This backs the BENCH_*.json
    perf trajectory: every PR records a point via ``--record``.
    """
    from ..machines import stampede2
    from ..bat.query import AttributeFilter
    from ..types import Box

    executors = [str(s) for s in executors]
    if not executors:
        raise ValueError("at least one executor spec is required")
    machine = machine or stampede2()
    out_dir = Path(out_dir)
    data = uniform_rank_data(
        nranks, particles_per_rank, n_attributes=n_attributes,
        materialize=True, seed=seed,
    )
    filt = AttributeFilter("attr00", 0.25, 0.5)
    box = Box((0.1, 0.1, 0.1), (0.6, 0.6, 0.6))

    rows = []
    reference: dict | None = None
    for spec in executors:
        run_dir = out_dir / str(spec).replace(":", "_")
        run_dir.mkdir(parents=True, exist_ok=True)
        writer = TwoPhaseWriter(
            machine, target_size=target_size,
            agg_config=paper_agg_config(target_size), executor=spec,
        )
        t0 = time.perf_counter()
        report = writer.write(data, out_dir=run_dir, name="bench")
        write_seconds = time.perf_counter() - t0
        writer.executor.close()

        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.glob("bench.*.bat"))
        }

        with BATDataset(report.metadata_path, executor=spec) as ds:
            t0 = time.perf_counter()
            full, _ = ds.query(QueryRequest())
            boxed, _ = ds.query(QueryRequest(box=box))
            filtered, _ = ds.query(QueryRequest(filters=(filt,)))
            query_seconds = time.perf_counter() - t0
            ds.executor.close()
        answers = (len(full), len(boxed), len(filtered))

        if reference is None:
            reference = {"hashes": hashes, "answers": answers}
        else:
            if hashes != reference["hashes"]:
                raise AssertionError(f"executor {spec!r} wrote different file bytes")
            if answers != reference["answers"]:
                raise AssertionError(f"executor {spec!r} returned different query results")

        rows.append(
            {
                "executor": str(spec),
                "write_seconds": write_seconds,
                "query_seconds": query_seconds,
                "n_files": report.n_files,
                "total_bytes": float(report.total_bytes),
                "points": (
                    {"full": answers[0], "box": answers[1], "filtered": answers[2]}
                ),
            }
        )

    serial = next((r for r in rows if r["executor"].startswith("serial")), rows[0])
    for r in rows:
        r["write_speedup_vs_serial"] = (
            serial["write_seconds"] / r["write_seconds"] if r["write_seconds"] else 0.0
        )
        r["query_speedup_vs_serial"] = (
            serial["query_seconds"] / r["query_seconds"] if r["query_seconds"] else 0.0
        )
    return {
        "benchmark": "parallel-write-query",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "n_attributes": n_attributes,
        "target_size": target_size,
        "results": rows,
    }


def serve_benchmark(
    out_dir,
    nranks: int = 32,
    particles_per_rank: int = 10_000,
    n_attributes: int = 4,
    target_size: int = 256 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
    capacity: int = 2,
    concurrency: int | None = None,
    sessions: int = 12,
    ops_per_session: int = 6,
    max_queued: int = 64,
) -> dict:
    """Concurrent serving benchmark: load generator vs the query service.

    Writes one materialized workload, then replays deterministic
    zoom/pan/filter session traces through a
    :class:`~repro.serve.service.QueryService` at ``concurrency`` client
    threads (default **2× the admission capacity**, so the scheduler
    queue actually builds and adaptive degradation engages). Records
    throughput, p50/p99 latency, queue-depth high-water mark, downgrade
    and engage/release counts, and every cache layer's hit rates. A
    sample of served responses is replayed against a direct
    :class:`BATDataset` and must match byte for byte — a fast-but-wrong
    serving layer fails the benchmark.
    """
    from ..serve import (
        DegradationConfig,
        QueryService,
        ServeConfig,
        make_traces,
        run_load,
        verify_identity_samples,
    )
    from ..machines import stampede2

    machine = machine or stampede2()
    if concurrency is None:
        concurrency = 2 * capacity
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = uniform_rank_data(
        nranks, particles_per_rank, n_attributes=n_attributes,
        materialize=True, seed=seed,
    )
    writer = TwoPhaseWriter(
        machine, target_size=target_size, agg_config=paper_agg_config(target_size)
    )
    report = writer.write(data, out_dir=out_dir, name="servebench")

    config = ServeConfig(
        capacity=capacity,
        max_queued=max_queued,
        degradation=DegradationConfig(),
    )
    with QueryService(report.metadata_path, config) as service:
        ds = service.dataset(0)
        traces = make_traces(
            sessions, ds.bounds, ds.attr_ranges,
            ops_per_session=ops_per_session, seed=seed,
        )
        load = run_load(service, traces, concurrency=concurrency)
        # cool-down: a few sequential requests at trivial load let the
        # degradation policy observe the drain and restore full quality
        sid = service.open_session()
        for q in (0.2, 0.4, 0.6):
            service.request(sid, QueryRequest(quality=q))
        service.close_session(sid)
        snapshot = service.snapshot()
        identity_checked = verify_identity_samples(ds, load.identity_samples)

    lat_sorted = sorted(load.latencies)
    from ..serve.metrics import percentile

    results = {
        "requests": load.requests,
        "rejected": load.rejected,
        "degraded": load.degraded,
        "cache_hits": load.cache_hits,
        "points_served": load.points,
        "bytes_served": load.nbytes,
        "elapsed_seconds": load.elapsed_seconds,
        "throughput_rps": load.throughput_rps,
        "latency_ms": {
            "p50": 1e3 * percentile(lat_sorted, 50),
            "p99": 1e3 * percentile(lat_sorted, 99),
            "max": 1e3 * max(lat_sorted) if lat_sorted else 0.0,
        },
        "identity_samples_checked": identity_checked,
        "service": snapshot,
    }
    return {
        "benchmark": "serve",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "n_attributes": n_attributes,
        "target_size": target_size,
        "n_files": report.n_files,
        "capacity": capacity,
        "concurrency": concurrency,
        "sessions": sessions,
        "ops_per_session": ops_per_session,
        "results": results,
    }


def stream_benchmark(
    out_dir,
    nranks: int = 24,
    particles_per_rank: int = 8_000,
    n_attributes: int = 4,
    target_size: int = 256 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
    capacity: int = 2,
    sessions: int = 120,
    ops_per_session: int = 4,
    n_views: int = 4,
    max_queued: int | None = None,
) -> dict:
    """Streaming-serve benchmark: request collapsing under a thundering herd.

    Writes one v4 (per-column codec) workload, then replays ``sessions``
    asyncio sessions — an order of magnitude more than the thread-based
    serve suite — all walking a shared set of ``n_views`` hot views
    (:func:`~repro.serve.loadgen.make_hot_traces`), each consuming
    streamed increments. The same traces run twice against fresh
    services: once with the in-flight collapse table disabled (the PR 3
    execution model: every request decodes for itself) and once enabled.
    The decoded-column cache is off and degradation disabled in **both**
    runs, so the only difference between the variants is pre-completion
    request collapsing, and ``decoded_bytes`` (real codec decode work,
    counted at the section layer) isolates exactly what collapsing saved.

    Per variant the benchmark records throughput, p50/p99 latency,
    time-to-first-increment percentiles (the latency a progressive viewer
    perceives), shed/collapse counts, and the collapse table's own
    accounting; a sample of responses is byte-checked against direct
    dataset queries at their served coordinates. The run *fails* — like
    every suite here, wrong answers are a benchmark failure, not a data
    point — if identity checks fail, if the collapse run never collapses,
    or if it does not decode strictly fewer bytes than the baseline.
    """
    from ..bat import BATBuildConfig
    from ..machines import stampede2
    from ..serve import (
        DegradationConfig,
        QueryService,
        ServeConfig,
        make_hot_traces,
        run_load_async,
        verify_identity_samples,
    )
    from ..serve.metrics import percentile

    machine = machine or stampede2()
    if max_queued is None:
        max_queued = max(64, sessions * ops_per_session)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = uniform_rank_data(
        nranks, particles_per_rank, n_attributes=n_attributes,
        materialize=True, seed=seed,
    )
    writer = TwoPhaseWriter(
        machine,
        target_size=target_size,
        agg_config=paper_agg_config(target_size),
        bat_config=BATBuildConfig(codecs="auto"),
    )
    report = writer.write(data, out_dir=out_dir, name="streambench")

    variants = {}
    for variant, collapse in (("no-collapse", False), ("collapse", True)):
        config = ServeConfig(
            capacity=capacity,
            max_queued=max_queued,
            collapse=collapse,
            column_cache_bytes=0,
            degradation=DegradationConfig(enabled=False),
        )
        with QueryService(report.metadata_path, config) as service:
            ds = service.dataset(0)
            traces = make_hot_traces(
                sessions, ds.bounds, n_views=n_views,
                ops_per_session=ops_per_session, seed=seed,
            )
            load = run_load_async(service, traces)
            snapshot = service.snapshot()
            identity_checked = verify_identity_samples(ds, load.identity_samples)

        lat = sorted(load.latencies)
        ttfi = sorted(load.ttfi)
        variants[variant] = {
            "requests": load.requests,
            "rejected": load.rejected,
            "collapsed": load.collapsed,
            "shed": load.shed,
            "cache_hits": load.cache_hits,
            "increments": load.increments,
            "points_served": load.points,
            "bytes_served": load.nbytes,
            "elapsed_seconds": load.elapsed_seconds,
            "throughput_rps": load.throughput_rps,
            "latency_ms": {
                "p50": 1e3 * percentile(lat, 50),
                "p99": 1e3 * percentile(lat, 99),
                "max": 1e3 * max(lat) if lat else 0.0,
            },
            "ttfi_ms": {
                "p50": 1e3 * percentile(ttfi, 50),
                "p99": 1e3 * percentile(ttfi, 99),
            },
            "decoded_bytes": snapshot["caches"]["files"]["decoded_bytes"],
            "collapse": snapshot["caches"]["collapse"],
            "identity_samples_checked": identity_checked,
        }
        if not identity_checked:
            raise AssertionError(f"{variant}: no identity samples were checked")

    base, coll = variants["no-collapse"], variants["collapse"]
    if coll["collapse"]["collapsed_hits"] + coll["collapse"]["derived_hits"] == 0:
        raise AssertionError("collapse run never collapsed a request")
    if coll["decoded_bytes"] >= base["decoded_bytes"]:
        raise AssertionError(
            f"collapsing did not reduce decode work: "
            f"{coll['decoded_bytes']} >= {base['decoded_bytes']}"
        )
    results = {
        "variants": variants,
        "collapse_hit_rate": coll["collapse"]["hit_rate"],
        "decoded_bytes_saved": base["decoded_bytes"] - coll["decoded_bytes"],
        "decoded_bytes_saved_frac": (
            1.0 - coll["decoded_bytes"] / base["decoded_bytes"]
        ),
        "byte_identity_ok": True,
    }
    return {
        "benchmark": "stream",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "n_attributes": n_attributes,
        "target_size": target_size,
        "n_files": report.n_files,
        "capacity": capacity,
        "sessions": sessions,
        "ops_per_session": ops_per_session,
        "n_views": n_views,
        "results": results,
    }


def shard_benchmark(
    out_dir,
    nranks: int = 24,
    particles_per_rank: int = 8_000,
    n_attributes: int = 4,
    target_size: int = 256 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
    capacity: int = 2,
    concurrency: int | None = None,
    sessions: int = 480,
    ops_per_session: int = 3,
    n_views: int = 6,
    n_shards: int = 2,
    n_jobs: int = 48,
) -> dict:
    """Sharded-serve benchmark: scatter-gather vs one process, plus resume.

    Writes one v4 workload, builds a shared hot-view trace set at a high
    session count, and replays it twice with identical service tuning:
    once through a single-process :class:`~repro.serve.QueryService` and
    once through a :class:`~repro.serve.ShardedQueryService` routing to
    ``n_shards`` worker processes. Collapse and degradation are off in
    both runs, so the only difference is the scatter-gather hop — the
    recorded ``scatter_gather_overhead_x`` (sharded p50 / single p50) is
    the price of crossing process boundaries, and the per-shard latency
    percentiles (from each worker's own metrics window) show how evenly
    the consistent-hash ring spread the load.

    The second leg is the durability drill: an ``n_jobs``-query sweep is
    submitted to a SQLite job store and drained through the sharded
    router's bulk path; a third of the way in the runner stops the way a
    SIGKILL would (leases left in hand) **and** shard 0's worker process
    is killed outright. A fresh runner on the same store must then finish
    the sweep — every task exactly once in the completion log, zero
    dead-letters, and every digest byte-identical to a direct
    single-process query. Identity or resume failures raise: wrong
    answers are a benchmark failure, not a data point.
    """
    from ..bat import BATBuildConfig
    from ..machines import stampede2
    from ..serve import (
        DegradationConfig,
        JobConfig,
        JobRunner,
        JobStore,
        QueryService,
        ServeConfig,
        ShardedQueryService,
        make_hot_traces,
        make_sweep,
        run_load,
        verify_identity_samples,
    )
    from ..serve.loadgen import _digest
    from ..serve.metrics import percentile

    machine = machine or stampede2()
    if concurrency is None:
        concurrency = 4 * capacity
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = uniform_rank_data(
        nranks, particles_per_rank, n_attributes=n_attributes,
        materialize=True, seed=seed,
    )
    writer = TwoPhaseWriter(
        machine,
        target_size=target_size,
        agg_config=paper_agg_config(target_size),
        bat_config=BATBuildConfig(codecs="auto"),
    )
    report = writer.write(data, out_dir=out_dir, name="shardbench")

    config = ServeConfig(
        capacity=capacity,
        max_queued=max(64, sessions * ops_per_session),
        collapse=False,
        degradation=DegradationConfig(enabled=False),
    )
    with BATDataset(report.metadata_path) as ds:
        traces = make_hot_traces(
            sessions, ds.bounds, n_views=n_views,
            ops_per_session=ops_per_session, seed=seed,
        )

        variants = {}
        per_shard = []
        restarts_during_load = 0
        for variant in ("single", "sharded"):
            if variant == "single":
                service = QueryService(report.metadata_path, config)
            else:
                service = ShardedQueryService(
                    report.metadata_path, config, n_shards=n_shards
                )
            with service:
                # steady state, not spawn cost: one bulk window warms every
                # worker's lazily opened dataset before the clock starts
                service.execute(QueryRequest(quality=0.2))
                load = run_load(
                    service, traces, concurrency=concurrency,
                    identity_sample_every=11,
                )
                snapshot = service.snapshot()
                identity_checked = verify_identity_samples(
                    ds, load.identity_samples
                )
            if not identity_checked:
                raise AssertionError(f"{variant}: no identity samples checked")
            lat = sorted(load.latencies)
            variants[variant] = {
                "requests": load.requests,
                "rejected": load.rejected,
                "cache_hits": load.cache_hits,
                "points_served": load.points,
                "bytes_served": load.nbytes,
                "elapsed_seconds": load.elapsed_seconds,
                "throughput_rps": load.throughput_rps,
                "latency_ms": {
                    "p50": 1e3 * percentile(lat, 50),
                    "p99": 1e3 * percentile(lat, 99),
                    "max": 1e3 * max(lat) if lat else 0.0,
                },
                "identity_samples_checked": identity_checked,
            }
            if variant == "sharded":
                variants[variant]["fanout"] = {
                    k: snapshot["shards"][k]
                    for k in ("fanout_single", "fanout_multi", "fanout_mean")
                }
                restarts_during_load = snapshot["shards"]["restarts"]
                for w in snapshot["shards"]["workers"]:
                    per_shard.append({
                        "shard": w["shard"],
                        "completed": w["requests"]["completed"],
                        "owned_leaves": sum(w["owned_leaves"].values()),
                        "latency_ms": {
                            "p50": w["latency_ms"]["p50"],
                            "p99": w["latency_ms"]["p99"],
                        },
                    })

        # -- durability drill: kill runner and worker mid-sweep, resume ----
        sweep = make_sweep(ds.bounds, n_jobs, seed=seed)
        job_cfg = JobConfig(lease_seconds=0.5, batch_size=4)
        store = JobStore(out_dir / "shardbench-jobs.db")
        try:
            store.submit("shardbench", sweep, source=str(report.metadata_path))
            with ShardedQueryService(
                report.metadata_path, config, n_shards=n_shards
            ) as svc:
                # first runner dies the SIGKILL way: leases stay in hand
                JobRunner(
                    store, svc, "shardbench", worker="bench-r0", config=job_cfg,
                ).run(max_tasks=n_jobs // 3, clean_stop=False)
                svc._shards[0].process.kill()  # and a shard dies with it
                time.sleep(job_cfg.lease_seconds + 0.1)  # leases expire
                counts = JobRunner(
                    store, svc, "shardbench", worker="bench-r1", config=job_cfg,
                ).run()
                job_restarts = sum(c.restarts for c in svc._shards)
            resume_ok = (
                counts["done"] == n_jobs
                and counts["dead"] == 0
                and counts["completions"] == n_jobs
            )
            if not resume_ok:
                raise AssertionError(f"sweep did not resume cleanly: {counts}")
            for idx, digest, _points, _dups in store.completions("shardbench"):
                batch, _ = ds.query(sweep[idx])
                if _digest(batch) != digest:
                    raise AssertionError(
                        f"task {idx}: digest diverged after crash-resume"
                    )
        finally:
            store.close()

    single, sharded = variants["single"], variants["sharded"]
    results = {
        "variants": variants,
        "per_shard": per_shard,
        "scatter_gather_overhead_x": (
            sharded["latency_ms"]["p50"] / single["latency_ms"]["p50"]
            if single["latency_ms"]["p50"] else 0.0
        ),
        "restarts_during_load": restarts_during_load,
        "job": {
            "tasks": n_jobs,
            "counts": counts,
            "worker_restarts": job_restarts,
            "resume_correctness_ok": True,
        },
        "byte_identity_ok": True,
    }
    return {
        "benchmark": "shard",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "n_attributes": n_attributes,
        "target_size": target_size,
        "n_files": report.n_files,
        "capacity": capacity,
        "concurrency": concurrency,
        "sessions": sessions,
        "ops_per_session": ops_per_session,
        "n_views": n_views,
        "n_shards": n_shards,
        "results": results,
    }


def fault_injection_benchmark(
    out_dir,
    nranks: int = 16,
    particles_per_rank: int = 10_000,
    n_attributes: int = 2,
    target_size: int = 128 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
    fault_seed: int = 0,
) -> dict:
    """End-to-end write-path integrity under injected faults.

    Proves the recovery story, not just the injection: a faulted write
    (torn writes, bit flips, dropped/duplicated aggregator messages,
    aggregator death) must publish files **byte-identical** to a
    fault-free reference run, ``repro scrub`` must pass afterwards, and a
    byte deliberately flipped in one leaf must then be localized to its
    exact section by the scrubber while the query service degrades to a
    partial result instead of failing the request.
    """
    from ..bat.format import HEADER_SIZE, Header
    from ..bat.integrity import scrub_dataset, scrub_file
    from ..iosim import FaultConfig
    from ..machines import stampede2
    from ..serve import QueryService

    machine = machine or stampede2()
    out_dir = Path(out_dir)

    def write(tag, faults):
        run_dir = out_dir / tag
        run_dir.mkdir(parents=True, exist_ok=True)
        data = uniform_rank_data(
            nranks, particles_per_rank, n_attributes=n_attributes,
            materialize=True, seed=seed,
        )
        writer = TwoPhaseWriter(
            machine, target_size=target_size,
            agg_config=paper_agg_config(target_size), faults=faults,
        )
        t0 = time.perf_counter()
        report = writer.write(data, out_dir=run_dir, name="faultbench")
        seconds = time.perf_counter() - t0
        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.glob("faultbench.*.bat"))
        }
        leftovers = [p.name for p in run_dir.iterdir() if ".tmp" in p.name]
        if leftovers:
            raise AssertionError(f"partially visible files left behind: {leftovers}")
        return report, hashes, seconds, run_dir

    reference, ref_hashes, ref_seconds, _ = write("reference", None)
    faults = FaultConfig(
        seed=fault_seed,
        torn_write=0.4,
        bit_flip=0.3,
        drop_message=0.2,
        duplicate_message=0.1,
        aggregator_death=0.25,
    )
    faulted, fault_hashes, fault_seconds, run_dir = write("faulted", faults)
    injected = faulted.faults.to_doc()
    if faulted.faults.total_injected == 0:
        raise AssertionError("fault config injected nothing; benchmark proves nothing")
    if faulted.faults.retried_writes == 0:
        raise AssertionError("no write was retried; recovery path not exercised")
    if fault_hashes != ref_hashes:
        raise AssertionError("faulted run published different bytes than fault-free run")

    scrub_clean = scrub_dataset(str(run_dir / "faultbench.meta.json"))
    if not scrub_clean.ok:
        raise AssertionError(f"scrub failed after faulted write:\n{scrub_clean.summary()}")

    # now corrupt one published leaf for real and prove detection +
    # degraded serving: flip a byte in the bitmap dictionary section
    victim = sorted(run_dir.glob("faultbench.*.bat"))[1]
    raw = bytearray(victim.read_bytes())
    header = Header.unpack(bytes(raw[:HEADER_SIZE]))
    dict_off, dict_len = header.section_extents()["dictionary"]
    raw[dict_off + dict_len // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))

    flagged = scrub_file(victim)
    if flagged.ok or flagged.bad_sections != ["dictionary"]:
        raise AssertionError(
            f"scrub did not localize the flipped byte: {flagged.summary()}"
        )
    scrub_after = scrub_dataset(str(run_dir / "faultbench.meta.json"))
    if scrub_after.ok or scrub_after.counts.get("corrupt", 0) != 1:
        raise AssertionError("dataset scrub missed the corrupted leaf")

    with QueryService(run_dir / "faultbench.meta.json") as service:
        sid = service.open_session()
        response = service.request(sid, QueryRequest())
        snapshot = service.snapshot()
    if not response.partial or response.quarantined_files != 1:
        raise AssertionError("service did not degrade to a partial result")
    if len(response) == 0:
        raise AssertionError("degraded response is empty; surviving leaves not served")
    if snapshot["integrity"]["quarantined_leaves"] != 1:
        raise AssertionError("quarantine counter missing from metrics snapshot")

    return {
        "benchmark": "fault-injection",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "n_attributes": n_attributes,
        "target_size": target_size,
        "n_files": reference.n_files,
        "fault_config": {
            "seed": faults.seed,
            "torn_write": faults.torn_write,
            "bit_flip": faults.bit_flip,
            "drop_message": faults.drop_message,
            "duplicate_message": faults.duplicate_message,
            "aggregator_death": faults.aggregator_death,
            "max_write_attempts": faults.max_write_attempts,
        },
        "results": {
            "injected": injected,
            "reference_write_seconds": ref_seconds,
            "faulted_write_seconds": fault_seconds,
            "files_byte_identical": True,
            "scrub_after_faulted_write": scrub_clean.counts,
            "scrub_after_corruption": scrub_after.counts,
            "flagged_sections": flagged.bad_sections,
            "degraded_response": {
                "partial": response.partial,
                "quarantined_files": response.quarantined_files,
                "points": len(response),
            },
            "integrity_snapshot": snapshot["integrity"],
        },
    }


def codec_throughput_benchmark(
    n: int = 1 << 18, repeats: int = 3, seed: int = 0
) -> dict:
    """Measured (not declared) encode/decode MB/s per codec.

    Times each registered codec family on a representative synthetic
    column — monotone int64 ids for the integer codecs, smooth float64
    temperatures for the float codecs — and reports best-of-``repeats``
    throughput in MB/s of *raw* column bytes. These numbers feed the
    compression report so codec-selection floors can be sanity-checked
    against what the kernels actually deliver on this machine.
    """
    from ..bat.codecs import get_codec

    rng = np.random.default_rng(seed)
    ids = np.cumsum(rng.integers(1, 9, size=n).astype(np.int64))
    temps = 300.0 + 8.0 * rng.standard_normal(n)
    cases = {
        "raw": temps,
        "zlib": ids,
        "delta": ids,
        "quantize12": temps,
        "qauto": temps,
    }
    out = {}
    for name, col in cases.items():
        codec = get_codec(name)
        raw_mb = col.nbytes / MB
        payload = b""
        best_enc = best_dec = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            payload, p0, p1 = codec.encode(col)
            enc_dt = time.perf_counter() - t0
            t0 = time.perf_counter()
            codec.decode(payload, col.dtype, col.size, p0, p1)
            dec_dt = time.perf_counter() - t0
            if best_enc is None or enc_dt < best_enc:
                best_enc = enc_dt
            if best_dec is None or dec_dt < best_dec:
                best_dec = dec_dt
        out[name] = {
            "column_mb": raw_mb,
            "encode_mb_per_s": raw_mb / best_enc if best_enc else 0.0,
            "decode_mb_per_s": raw_mb / best_dec if best_dec else 0.0,
            "encoded_fraction": len(payload) / col.nbytes,
        }
    return out


def compression_benchmark(
    out_dir,
    nranks: int = 16,
    particles_per_rank: int = 16_384,
    target_size: int = 256 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
    lossy_bits: int | None = None,
) -> dict:
    """BAT v4 column codecs vs the uncompressed v3 baseline.

    Writes one structured, realistically compressible workload twice —
    once as plain v3, once as v4 with ``codecs="auto"`` — and measures
    the on-disk reduction, per-column codec choices, full-read time, and
    the lazy-decode savings of a single-column read. Correctness is part
    of the benchmark: every v4 query must return byte-identical data to
    the v3 build, v2/v3 single files built from the same particles must
    still open and query byte-identically, and (when ``lossy_bits`` is
    set) quantized columns must stay within their recorded error bound.
    """
    from ..api import open_dataset
    from ..bat import build_bat
    from ..bat.builder import BATBuildConfig
    from ..bat.file import BATFile
    from ..bat.query import AttributeFilter, query_file
    from ..machines import stampede2
    from ..types import Box
    from ..workloads import compressible_rank_data

    machine = machine or stampede2()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = compressible_rank_data(nranks, particles_per_rank, seed=seed)

    def digest(batch) -> str:
        h = hashlib.sha256(batch.positions.tobytes())
        for name in sorted(batch.attributes):
            h.update(batch.attributes[name].tobytes())
        return h.hexdigest()

    requests = {
        "full": QueryRequest(),
        "box": QueryRequest(box=Box((0.1, 0.1, 0.1), (0.6, 0.6, 0.6))),
        "filtered": QueryRequest(filters=(AttributeFilter("temp", 290.0, 330.0),)),
        "progressive-0.3-0.7": QueryRequest(quality=0.7, prev_quality=0.3),
    }

    variants = {
        "v3": BATBuildConfig(),
        "v4-auto": BATBuildConfig(codecs="auto"),
    }
    rows = {}
    digests = {}
    for label, cfg in variants.items():
        run_dir = out_dir / label
        run_dir.mkdir(parents=True, exist_ok=True)
        writer = TwoPhaseWriter(
            machine, target_size=target_size,
            agg_config=paper_agg_config(target_size), bat_config=cfg,
        )
        t0 = time.perf_counter()
        report = writer.write(data, out_dir=run_dir, name="compbench")
        write_seconds = time.perf_counter() - t0
        disk_bytes = sum(p.stat().st_size for p in run_dir.glob("compbench.*.bat"))
        with open_dataset(report.metadata_path) as ds:
            t0 = time.perf_counter()
            answers = {name: ds.query(req) for name, req in requests.items()}
            query_seconds = time.perf_counter() - t0
            digests[label] = {n: digest(r.batch) for n, r in answers.items()}
            # one-column read on a fresh handle set: how many column bytes
            # does lazy decode actually materialize? (the counter survives
            # close(), so measure the delta)
            ds.file_cache.close()
            decoded_before = ds.file_cache.stats()["decoded_bytes"]
            ds.query(QueryRequest(columns=("temp",)))
            decoded_one_column = (
                ds.file_cache.stats()["decoded_bytes"] - decoded_before
            )
        rows[label] = {
            "file_version": 4 if cfg.codecs is not None else 3,
            "disk_bytes": disk_bytes,
            "payload_raw_bytes": report.payload_raw_bytes,
            "payload_encoded_bytes": report.payload_encoded_bytes,
            "write_seconds": write_seconds,
            "query_seconds": query_seconds,
            "decoded_bytes_one_column": int(decoded_one_column),
            "codec_table": dict(report.codec_table),
            "points": {n: len(r.batch) for n, r in answers.items()},
        }

    if digests["v4-auto"] != digests["v3"]:
        raise AssertionError("v4 lossless queries diverged from the v3 baseline")
    ratio = rows["v3"]["disk_bytes"] / rows["v4-auto"]["disk_bytes"]
    if ratio < 2.0:
        raise AssertionError(
            f"lossless codecs reached only {ratio:.2f}x on-disk reduction (< 2x)"
        )
    full_decoded = rows["v3"]["payload_raw_bytes"]
    if not 0 < rows["v4-auto"]["decoded_bytes_one_column"] < full_decoded:
        raise AssertionError("lazy decode materialized as much as a full read")

    # format-compatibility sweep: the same particles as one v2, v3, and v4
    # file must answer every request byte-identically
    first = data.batches[0]
    compat_digests = {}
    for label, cfg in (
        ("v2", BATBuildConfig(checksums=False)),
        ("v3", BATBuildConfig()),
        ("v4", BATBuildConfig(codecs="auto")),
    ):
        path = out_dir / f"compat-{label}.bat"
        path.write_bytes(build_bat(first, cfg).data)
        with BATFile(path) as f:
            batch, _ = query_file(f, quality=1.0)
            box_batch, _ = query_file(f, quality=1.0, box=requests["box"].box)
            compat_digests[label] = (digest(batch), digest(box_batch))
    if len(set(compat_digests.values())) != 1:
        raise AssertionError(f"v2/v3/v4 compat sweep diverged: {compat_digests}")

    results = {
        "variants": rows,
        "disk_reduction_x": ratio,
        "queries_byte_identical": True,
        "compat_v2_v3_v4_identical": True,
        "lazy_decode_fraction": (
            rows["v4-auto"]["decoded_bytes_one_column"] / full_decoded
            if full_decoded else 0.0
        ),
        "codec_throughput_mb_per_s": codec_throughput_benchmark(seed=seed),
    }

    if lossy_bits is not None:
        lossy_cfg = BATBuildConfig(
            codecs={"*": "auto", "temp": f"quantize{lossy_bits}"}
        )
        path = out_dir / "lossy.bat"
        path.write_bytes(build_bat(first, lossy_cfg).data)
        with BATFile(path) as f:
            summary = f.column_summary()
            bound = summary["temp"]["error_bound"]
            got, _ = query_file(f, quality=1.0)
        ref_cfg = BATBuildConfig()
        ref_path = out_dir / "lossy-ref.bat"
        ref_path.write_bytes(build_bat(first, ref_cfg).data)
        with BATFile(ref_path) as f:
            ref, _ = query_file(f, quality=1.0)
        err = float(np.max(np.abs(
            got.attributes["temp"].astype(np.float64)
            - ref.attributes["temp"].astype(np.float64)
        )))
        if err > bound:
            raise AssertionError(
                f"quantize{lossy_bits} error {err:g} exceeds recorded bound {bound:g}"
            )
        results["lossy"] = {
            "codec": f"quantize{lossy_bits}",
            "recorded_error_bound": float(bound),
            "max_observed_error": err,
            "temp_enc_nbytes": int(summary["temp"]["enc_nbytes"]),
            "temp_raw_nbytes": int(summary["temp"]["raw_nbytes"]),
        }

    return {
        "benchmark": "compression",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "target_size": target_size,
        "results": results,
    }


def reorg_benchmark(
    out_dir,
    nranks: int = 32,
    particles_per_rank: int = 10_000,
    target_size: int = 128 * 1024,
    machine: MachineSpec | None = None,
    seed: int = 0,
    rounds: int = 40,
    identity_samples: int = 8,
) -> dict:
    """Replay a hot-view trace before and after online reorganization.

    Writes one v4 workload (the structured
    :func:`~repro.workloads.compressible_rank_data`, so per-column codec
    choice matters), replays a deterministic trace (three recurring hot
    views plus an occasional full sweep) through a fresh
    :class:`~repro.serve.service.QueryService`, reorganizes the layout
    from the telemetry that replay produced, then replays the identical
    trace through a second, identically configured service. Reported per
    phase: total planned file opens (from access telemetry), codec decode
    work (file-cache ``decoded_bytes``), and latency percentiles. A sample
    of responses from each phase is re-run directly against the manifest
    generation that phase observed and must match byte for byte.

    Both phases run with a 1-entry result cache and the decoded-column
    cache off, so recurring hot views actually reach the I/O layer and
    every request pays the decode work its layout induces (the point of
    the benchmark) — the configuration is identical on both sides, so
    the comparison isolates the layout change.
    """
    from ..bat.builder import BATBuildConfig
    from ..reorg import ReorgConfig, reorganize
    from ..serve import QueryService, ServeConfig
    from ..serve.metrics import percentile
    from ..machines import stampede2
    from ..types import Box
    from ..workloads import compressible_rank_data

    machine = machine or stampede2()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = compressible_rank_data(nranks, particles_per_rank, seed=seed)
    writer = TwoPhaseWriter(
        machine, target_size=target_size,
        agg_config=paper_agg_config(target_size),
        bat_config=BATBuildConfig(codecs="auto"),
    )
    report = writer.write(data, out_dir=out_dir, name="reorgbench")
    manifest = report.metadata_path

    from ..core.metadata import DatasetMetadata

    md = DatasetMetadata.load(manifest)
    lo = np.array(md.bounds.lower)
    hi = np.array(md.bounds.upper)
    ext = hi - lo
    attr = sorted(md.attr_dtypes)[0] if md.attr_dtypes else None

    def _view(frac_lo, frac_hi):
        return Box(tuple(lo + frac_lo * ext), tuple(lo + frac_hi * ext))

    # one shared dashboard view plus two zoom-ins nested inside it — the
    # recurring-exact-box pattern the serve telemetry's box census is
    # built to recognize
    hot_views = [
        _view(np.array([0.30, 0.30, 0.30]), np.array([0.58, 0.58, 0.58])),
        _view(np.array([0.34, 0.34, 0.34]), np.array([0.52, 0.52, 0.52])),
        _view(np.array([0.38, 0.36, 0.35]), np.array([0.50, 0.48, 0.47])),
    ]
    # hot views only: the trace is the access pattern reorganization
    # optimizes for. Decode work is memoized per open handle, so a full
    # sweep would add a large identical unique-bytes constant to both
    # phases and drown the hot-path signal in the reduction metrics.
    trace: list[QueryRequest] = []
    for _ in range(rounds):
        for box in hot_views:
            cols = ("positions", attr) if attr else None
            trace.append(QueryRequest(box=box, quality=1.0, columns=cols))

    config = ServeConfig(
        capacity=1, result_cache_entries=1, collapse=False,
        column_cache_bytes=0,
    )

    def _phase(label: str) -> dict:
        latencies = []
        samples = []
        with QueryService(manifest, config) as service:
            generation = service.generation(0)
            every = max(1, len(trace) // identity_samples)
            for i, req in enumerate(trace):
                t0 = time.perf_counter()
                resp = service.execute(req)
                latencies.append(time.perf_counter() - t0)
                if i % every == 0:
                    samples.append((req, resp.batch))
            tele = service.telemetry.snapshot()
            cache_stats = service.dataset(0).file_cache.stats()
            opens = service.telemetry.files_opened(0)
        # identity: every sampled response must equal a direct query
        # against the same manifest generation the service observed
        checked = 0
        with BATDataset(manifest) as ds:
            if ds.metadata.generation != generation:
                raise RuntimeError(
                    f"{label}: manifest generation moved mid-phase"
                )
            for req, batch in samples:
                direct = ds.query(req)
                if direct.batch.positions.tobytes() != batch.positions.tobytes():
                    raise RuntimeError(f"{label}: positions differ from direct")
                for k, v in batch.attributes.items():
                    if direct.batch.attributes[k].tobytes() != v.tobytes():
                        raise RuntimeError(f"{label}: column {k} differs")
                checked += 1
        lat = sorted(latencies)
        decoded = sum(
            t["decoded_bytes"]
            for t in tele["steps"].get("0", {}).get("leaves", {}).values()
        )
        return {
            "generation": generation,
            "requests": len(trace),
            "files_opened": opens,
            "decoded_bytes": decoded,
            "column_cache": cache_stats.get("column_cache", {}),
            "latency_ms": {
                "p50": 1e3 * percentile(lat, 50),
                "p99": 1e3 * percentile(lat, 99),
            },
            "identity_samples_checked": checked,
            "telemetry": tele,
        }

    before = _phase("before")
    reorg_report = reorganize(
        manifest,
        before.pop("telemetry"),
        step=0,
        config=ReorgConfig(min_queries=8, min_box_queries=4),
    )
    after = _phase("after")
    after.pop("telemetry")

    def _reduction(metric: str) -> float:
        b = before[metric]
        return (b - after[metric]) / b if b else 0.0

    results = {
        "before": before,
        "after": after,
        "reorg": reorg_report.to_doc(),
        "files_opened_reduction": _reduction("files_opened"),
        "decoded_bytes_reduction": _reduction("decoded_bytes"),
        "p99_ratio": (
            after["latency_ms"]["p99"] / before["latency_ms"]["p99"]
            if before["latency_ms"]["p99"]
            else 1.0
        ),
    }
    return {
        "benchmark": "reorg",
        "nranks": nranks,
        "particles_per_rank": particles_per_rank,
        "target_size": target_size,
        "n_files": report.n_files,
        "rounds": rounds,
        "results": results,
    }


def neighbors_benchmark(
    out_dir,
    nranks: int = 128,
    scale: float = 0.015,
    target_size: int = 8 * 1024,
    timestep: int = 600,
    knn_centers: int = 24,
    k: int = 16,
    sph_h: float = 0.05,
    fof_link: float = 0.015,
    seed: int = 0,
) -> dict:
    """Neighbor queries on the dam-break workload: tree vs brute oracle.

    Writes one dam-break timestep as a v4 multi-file dataset, then runs
    three neighbor workloads with both engines:

    - **knn** — k-NN lists at point centers clustered inside one
      interior leaf (the zoom-in analysis pattern);
    - **sph** — fixed-radius lists (SPH cubic-spline smoothing of the
      pressure field) over a slab hugging one leaf's bounds, so every
      boundary ball needs ghost strips from the adjacent files;
    - **fof** — a friends-of-friends pass over the same slab.

    For every workload the tree engine's lists must be byte-identical to
    the brute-force reference; reported alongside the timings are the
    files each engine opened (brute == the naive halo-full-read plan:
    every candidate file, read fully) and the ghost-exchange volume, the
    quantities the regression gate thresholds.
    """
    from ..analysis import cubic_spline_kernel
    from ..api import NeighborRequest
    from ..bat.builder import BATBuildConfig
    from ..machines import testing_machine
    from ..types import Box
    from ..workloads import DamBreak

    out_dir = Path(out_dir)
    dam = DamBreak(seed=seed)
    data = dam.rank_data(timestep, nranks, scale=scale, materialize=True)
    writer = TwoPhaseWriter(
        testing_machine(),
        target_size=target_size,
        bat_config=BATBuildConfig(quantize_positions=True, compress=True),
    )
    writer.write(data, out_dir=out_dir, name="neigh")

    rng = np.random.default_rng(seed)
    results: dict = {}
    identity_ok = True

    with BATDataset(out_dir / "neigh.meta.json") as ds:
        n_files = ds.metadata.n_files
        leaves = sorted(ds.metadata.leaves, key=lambda l: l.count)
        mid = leaves[len(leaves) // 2].bounds
        eps = 1e-4
        slab = Box(
            tuple(v + eps for v in mid.lower),
            tuple(v - eps for v in mid.upper),
        )
        lo = np.asarray(mid.lower)
        hi = np.asarray(mid.upper)
        pts = tuple(
            tuple(float(v) for v in p)
            for p in lo + rng.random((knn_centers, 3)) * (hi - lo)
        )

        workloads = {
            "knn": NeighborRequest(points=pts, k=k),
            "sph": NeighborRequest(center_box=slab, radius=sph_h),
            "fof": NeighborRequest(center_box=slab, radius=fof_link, columns=()),
        }
        for name, req in workloads.items():
            row: dict = {}
            for engine in ("tree", "brute"):
                t0 = time.perf_counter()
                res = ds.neighbors(replace(req, engine=engine))
                seconds = time.perf_counter() - t0
                s = res.stats
                row[engine] = {
                    "seconds": seconds,
                    "files_opened": s.files_opened,
                    "ghost_files_opened": s.ghost_files_opened,
                    "ghost_points": s.ghost_points,
                    "pruned_files": s.pruned_files,
                    "pairs_tested": s.pairs_tested,
                    "points_returned": s.points_returned,
                    "decoded_bytes": s.decoded_bytes,
                }
                row.setdefault("_res", {})[engine] = res
            a, b = row["_res"]["tree"], row["_res"]["brute"]
            if a.batch.positions is None or b.batch.positions is None:
                pos_same = a.batch.positions is None and b.batch.positions is None
            else:
                pos_same = a.batch.positions.tobytes() == b.batch.positions.tobytes()
            same = (
                np.array_equal(a.offsets, b.offsets)
                and np.array_equal(a.keys, b.keys)
                and np.array_equal(a.distances, b.distances)
                and pos_same
                and sorted(a.batch.attributes) == sorted(b.batch.attributes)
                and all(
                    a.batch.attributes[n2].tobytes() == b.batch.attributes[n2].tobytes()
                    for n2 in a.batch.attributes
                )
            )
            row["identical"] = bool(same)
            identity_ok = identity_ok and bool(same)
            row["n_centers"] = a.n_centers
            row["n_neighbors"] = len(a)
            del row["_res"]
            results[name] = row

        # the SPH smoothing consumes the fixed-radius lists end to end
        sph = ds.neighbors(
            NeighborRequest(center_box=slab, radius=sph_h, columns=("pressure",))
        )
        w = cubic_spline_kernel(sph.distances, sph_h)
        c = np.concatenate([[0.0], np.cumsum(w, dtype=np.float64)])
        den = c[sph.offsets[1:]] - c[sph.offsets[:-1]]
        results["sph"]["kernel_pairs"] = int(len(w))
        results["sph"]["covered_centers"] = int((den > 0).sum())

        # naive halo-full-read volume: every file the halo touches, in full
        halo = Box(
            tuple(v - sph_h for v in slab.lower),
            tuple(v + sph_h for v in slab.upper),
        )
        naive_points = sum(
            l.count for l in ds.metadata.leaves if l.bounds.intersects(halo)
        )
        total_particles = ds.total_particles

    tree_files = sum(r["tree"]["files_opened"] for r in results.values())
    brute_files = sum(r["brute"]["files_opened"] for r in results.values())
    tree_seconds = sum(r["tree"]["seconds"] for r in results.values())
    brute_seconds = sum(r["brute"]["seconds"] for r in results.values())
    ghost_points = results["sph"]["tree"]["ghost_points"]
    return {
        "benchmark": "neighbors",
        "config": {
            "nranks": nranks,
            "scale": scale,
            "target_size": target_size,
            "timestep": timestep,
            "knn_centers": knn_centers,
            "k": k,
            "sph_h": sph_h,
            "fof_link": fof_link,
            "seed": seed,
        },
        "n_files": n_files,
        "total_particles": int(total_particles),
        "results": results,
        "summary": {
            "byte_identity_ok": bool(identity_ok),
            "tree_files_opened": int(tree_files),
            "brute_files_opened": int(brute_files),
            #: the headline: how many fewer file opens than the naive
            #: open-everything baseline across the whole workload mix
            "files_opened_ratio": (
                brute_files / tree_files if tree_files else float("inf")
            ),
            "tree_seconds": tree_seconds,
            "brute_seconds": brute_seconds,
            "speedup_vs_brute": (
                brute_seconds / tree_seconds if tree_seconds else float("inf")
            ),
            "ghost_points": int(ghost_points),
            #: points a halo-full-read plan would decode for the SPH slab
            "naive_halo_points": int(naive_points),
        },
    }


def record_benchmark(path, payload: dict) -> dict:
    """Write one BENCH_*.json perf data point with environment context.

    The JSON is self-describing (core count, versions, platform) so later
    PRs can compare points across machines honestly.
    """
    doc = {
        "schema": "repro-bench/1",
        "recorded_unix": time.time(),
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        **payload,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def progressive_read_benchmark(
    metadata_path, steps: int = 10, start_quality: float = 0.1
) -> dict:
    """Tables I–II: real single-threaded progressive read timing.

    Starting at ``start_quality``, requests successively higher quality in
    equal increments until the full data set is loaded, timing traversal
    plus per-point processing — the paper's desktop methodology.
    """
    with BATDataset(metadata_path) as ds:
        qualities = np.linspace(start_quality, 1.0, steps)
        prev = 0.0
        times = []
        points = []
        for q in qualities:
            t0 = time.perf_counter()
            batch, _ = ds.query(QueryRequest(quality=float(q), prev_quality=prev))
            dt = time.perf_counter() - t0
            times.append(dt)
            points.append(len(batch))
            prev = float(q)
        total_pts = int(np.sum(points))
        total_time = float(np.sum(times))
        return {
            "avg_read_ms": 1e3 * total_time / len(times),
            "throughput_pts_per_ms": total_pts / (1e3 * total_time) if total_time else 0.0,
            "total_points": total_pts,
            "per_step_ms": [1e3 * t for t in times],
            "per_step_points": points,
        }
