"""Metric registry of the baseline benchmark: names, units, direction.

``BENCHMARK.json`` lists exactly these names (``run.py --check-schema``
asserts it). End-to-end metrics are what a user of the system sees and
are gated by a bound; per-layer metrics attribute the end-to-end figure
to modules and carry no bound. ``[x]`` marks counts that must repeat
exactly between two runs of the single-threaded workloads.
"""

from __future__ import annotations

import statistics

from inputs import READ_CLASSES

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "payload_mb_s": ("MB/s", "higher", 0.25),
    "ttfi_p50_ms": ("ms", "lower", 0.25),
    "within_limit_frac": ("ratio", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "disk_bytes_per_user_byte": ("ratio", "lower", 0.02),
}

#: name -> (unit, better, exact)
PER_LAYER = {
    # diagnostics: end-to-end quantities reported but not gated (the tail
    # has too few samples in one contract-length run; failures are the
    # result line's ``failed`` / ``attempted``)
    "op_p90_ms": ("ms", "lower", False),
    "failed_frac": ("ratio", "lower", False),
    "core.aggtree.build_ms": ("ms", "lower", False),
    "core.aggtree.imbalance": ("ratio", "lower", True),
    "core.aggtree.leaves": ("count", "lower", True),
    "core.writer.self_ms": ("ms", "lower", False),
    "core.writer.v3_mb_s": ("MB/s", "higher", False),
    "core.writer.v4_mb_s": ("MB/s", "higher", False),
    "core.writer.files_written": ("count", "lower", True),
    "bat.builder.build_ms": ("ms", "lower", False),
    "bat.builder.mb_s": ("MB/s", "higher", False),
    "bat.builder.overhead_frac": ("ratio", "lower", True),
    "bat.codecs.encode_s": ("s", "lower", False),
    "bat.codecs.encode_mb_s": ("MB/s", "higher", False),
    "bat.codecs.compression_ratio": ("ratio", "higher", True),
    "bat.codecs.decode_s": ("s", "lower", False),
    "bat.codecs.decode_calls": ("count", "lower", True),
    "bat.codecs.decoded_bytes": ("B", "lower", True),
    "bat.codecs.decode_mb_s": ("MB/s", "higher", False),
    "bat.codecs.decode_share": ("ratio", "lower", False),
    "atomic.publish_ms": ("ms", "lower", False),
    "atomic.publishes": ("count", "lower", True),
    "bat.file.open_ms": ("ms", "lower", False),
    "bat.file.opens": ("count", "lower", True),
    "bat.file.treelet_ms": ("ms", "lower", False),
    "bat.file.treelets_materialized": ("count", "lower", True),
    "bat.filecache.hit_rate": ("ratio", "higher", False),
    "bat.filecache.evictions": ("count", "lower", False),
    "bat.filecache.stale_reopens": ("count", "lower", False),
    "bat.colcache.hit_rate": ("ratio", "higher", False),
    "bat.colcache.evictions": ("count", "lower", False),
    "bat.colcache.resident_mb": ("MB", "lower", False),
    "core.planner.plan_ms": ("ms", "lower", False),
    "core.planner.cache_hit_rate": ("ratio", "higher", False),
    "core.planner.files_pruned_frac": ("ratio", "higher", True),
    "core.planner.neighbor_plan_ms": ("ms", "lower", False),
    "core.planner.ghost_files_frac": ("ratio", "lower", True),
    "bat.query.traverse_s": ("s", "lower", False),
    "bat.query.nodes_visited": ("count", "lower", True),
    "bat.query.treelets_visited": ("count", "lower", True),
    "bat.query.points_tested": ("count", "lower", True),
    "bat.query.useful_frac": ("ratio", "higher", True),
    "core.dataset.self_ms": ("ms", "lower", False),
    "core.dataset.files_opened": ("count", "lower", True),
    **{f"core.dataset.op_p50_ms.{c}": ("ms", "lower", False) for c in READ_CLASSES},
    "api.reassemble_ms": ("ms", "lower", False),
    "api.doc_roundtrip_us": ("us", "lower", False),
    "serve.scheduler.wait_p50_ms": ("ms", "lower", False),
    "serve.scheduler.wait_p90_ms": ("ms", "lower", False),
    "serve.scheduler.queue_depth_max": ("count", "lower", False),
    "serve.scheduler.rejected": ("count", "lower", False),
    "serve.service.plan_s": ("s", "lower", False),
    "serve.service.traverse_s": ("s", "lower", False),
    "serve.service.gather_s": ("s", "lower", False),
    "serve.service.self_ms": ("ms", "lower", False),
    "serve.cache.hit_rate": ("ratio", "higher", False),
    "serve.cache.evictions": ("count", "lower", False),
    "serve.cache.expirations": ("count", "lower", False),
    "serve.collapse.hit_rate": ("ratio", "higher", False),
    "serve.collapse.saved_bytes": ("B", "higher", False),
    "serve.collapse.fallbacks": ("count", "lower", False),
    "serve.streaming.increments_per_request": ("ratio", "higher", False),
    "serve.streaming.shed": ("count", "lower", False),
    "serve.aio.loop_lag_p90_ms": ("ms", "lower", False),
    "serve.degrade.downgraded_frac": ("ratio", "lower", False),
    "serve.degrade.engagements": ("count", "lower", False),
    "serve.shard.rpc_s": ("s", "lower", False),
    "serve.shard.worker_busy_s": ("s", "lower", False),
    "serve.shard.ipc_s": ("s", "lower", False),
    "serve.shard.gathered_mb": ("MB", "lower", False),
    "serve.shard.fanout_mean": ("ratio", "lower", False),
    "serve.shard.restarts": ("count", "lower", False),
    "serve.shard.overhead_x": ("ratio", "lower", False),
    "serve.hashing.owner_imbalance": ("ratio", "lower", True),
    "bat.neighbors.search_ms": ("ms", "lower", False),
    "bat.neighbors.pairs_tested": ("count", "lower", True),
    "bat.neighbors.ghost_points": ("count", "lower", True),
    "bat.neighbors.useful_frac": ("ratio", "higher", True),
    "machine.memcpy_mb_s": ("MB/s", "higher", False),
    "machine.zlib_mb_s": ("MB/s", "higher", False),
    "machine.pickle_mb_s": ("MB/s", "higher", False),
    "loadgen.lag_p90_ms": ("ms", "lower", False),
    "trace.overhead_frac": ("ratio", "lower", False),
    "trace.ops": ("count", "higher", True),
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    vals = sorted(values)
    rank = max(1, -(-len(vals) * p // 100))
    return float(vals[int(min(rank, len(vals))) - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
