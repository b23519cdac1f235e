"""Per-layer metrics: span self times + public counters → named numbers.

Inputs are the two fixed-cycle phases of a traced run — ``u`` untraced,
``t`` traced, same ops — plus the recorder's self-time table, the public
cache counters sampled before and after ``u``, and a few probe results.
A metric a workload cannot observe (its layer did no work, or the number
lives in a process the benchmark cannot see into) reads 0.

Conventions: ``*_s`` are totals over the traced phase; ``*_ms`` are per
call for entry points with one obvious call (build, publish, open, plan,
treelet) and per op for the ``self_ms`` / ``search_ms`` / ``reassemble_ms``
attributions; counts are totals over the phase, whose cycle count is a
pure function of ``--seconds`` (so ``[x]`` counts repeat exactly).
"""

from __future__ import annotations

import time

from inputs import READ_CLASSES
from metrics import PER_LAYER, median, percentile


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _delta(before: dict, after: dict, tier: str, key: str) -> float:
    return float(after.get(tier, {}).get(key, 0) or 0) - float(
        before.get(tier, {}).get(key, 0) or 0
    )


def doc_roundtrip_us(requests, repeats: int = 200) -> float:
    """Median µs of ``request_from_doc(request_to_doc(r))`` over ``requests``."""
    from repro.api import request_from_doc, request_to_doc

    if not requests:
        return 0.0
    samples = []
    for _ in range(repeats):
        for r in requests:
            t0 = time.perf_counter()
            request_from_doc(request_to_doc(r))
            samples.append(time.perf_counter() - t0)
    return 1e6 * median(samples)


def derive(workload, u, t, self_times: dict, before: dict, after: dict, extras: dict) -> dict:
    """Every name in :data:`metrics.PER_LAYER` → value (0 where unobserved)."""
    c = u.counters
    n_ops = max(len(t.lat), 1)

    def st(name, field="self_s"):
        return self_times.get(name, {}).get(field, 0.0)

    def per_call_ms(name, field="total_s"):
        return 1e3 * _ratio(st(name, field), st(name, "count"))

    def per_op_ms(name):
        return 1e3 * st(name) / n_ops

    def hit_rate(tier):
        hits = _delta(before, after, tier, "hits")
        return _ratio(hits, hits + _delta(before, after, tier, "misses"))

    writes = c.get("writes", 0)
    user_mb = workload.user_bytes / 1e6
    decoded = c.get("decoded_bytes", 0) or _delta(before, after, "files", "decoded_bytes")
    served = c.get("served", 0)
    collapse_hits = _delta(before, after, "collapse", "collapsed_hits") + _delta(
        before, after, "collapse", "derived_hits"
    )
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "op_p90_ms": 1e3 * percentile(u.lat, 90),
        "failed_frac": _ratio(u.failed + t.failed, u.attempted + t.attempted),
        # write side
        "core.aggtree.build_ms": per_call_ms("core.aggtree"),
        "core.aggtree.imbalance": _ratio(c.get("imbalance_sum", 0), writes),
        "core.aggtree.leaves": _ratio(c.get("leaves", 0), writes),
        "core.writer.self_ms": per_op_ms("core.writer"),
        "core.writer.v3_mb_s": _ratio(user_mb * writes / 2, c.get("v3_s", 0)),
        "core.writer.v4_mb_s": _ratio(user_mb * writes / 2, c.get("v4_s", 0)),
        "core.writer.files_written": c.get("files_written", 0),
        "bat.builder.build_ms": per_call_ms("bat.builder"),
        "bat.builder.mb_s": _ratio(user_mb * writes, st("bat.builder", "total_s")),
        "bat.builder.overhead_frac": (
            _ratio(c.get("v3_disk_bytes", 0), workload.user_bytes * writes / 2) - 1.0
            if writes else 0.0
        ),
        "bat.codecs.encode_s": st("bat.codecs.encode"),
        "bat.codecs.encode_mb_s": _ratio(
            c.get("payload_raw_bytes", 0) / 1e6, st("bat.codecs.encode")
        ),
        "bat.codecs.compression_ratio": _ratio(
            c.get("payload_raw_bytes", 0), c.get("payload_encoded_bytes", 0)
        ),
        "atomic.publish_ms": per_call_ms("atomic"),
        "atomic.publishes": st("atomic", "count"),
        # read side
        "bat.codecs.decode_s": st("bat.codecs.decode"),
        "bat.codecs.decode_calls": st("bat.codecs.decode", "count"),
        "bat.codecs.decoded_bytes": decoded,
        "bat.codecs.decode_mb_s": _ratio(decoded / 1e6, st("bat.codecs.decode")),
        "bat.codecs.decode_share": _ratio(st("bat.codecs.decode"), t.busy_s),
        "bat.file.open_ms": per_call_ms("bat.file.open"),
        "bat.file.opens": st("bat.file.open", "count"),
        "bat.file.treelet_ms": per_call_ms("bat.file.treelet", "self_s"),
        "bat.file.treelets_materialized": st("bat.file.treelet", "count"),
        "bat.filecache.hit_rate": hit_rate("files"),
        "bat.filecache.evictions": _delta(before, after, "files", "evictions"),
        "bat.filecache.stale_reopens": _delta(before, after, "files", "stale_reopens"),
        "bat.colcache.hit_rate": hit_rate("decoded_columns"),
        "bat.colcache.evictions": _delta(before, after, "decoded_columns", "evictions"),
        "bat.colcache.resident_mb": float(
            after.get("decoded_columns", {}).get("bytes", 0) or 0
        ) / 1e6,
        "core.planner.plan_ms": per_call_ms("core.planner"),
        "core.planner.cache_hit_rate": hit_rate("plans"),
        "core.planner.files_pruned_frac": _ratio(
            c.get("pruned_files", 0) + c.get("n_pruned_files", 0),
            c.get("pruned_files", 0) + c.get("n_pruned_files", 0)
            + c.get("files_opened", 0) + c.get("n_files_opened", 0),
        ),
        "core.planner.neighbor_plan_ms": per_call_ms("core.planner.neighbor"),
        "core.planner.ghost_files_frac": _ratio(
            c.get("ghost_files_opened", 0), c.get("n_files_opened", 0)
        ),
        "bat.query.traverse_s": st("bat.query"),
        "bat.query.nodes_visited": c.get("nodes_visited", 0),
        "bat.query.treelets_visited": c.get("treelets_visited", 0),
        "bat.query.points_tested": c.get("points_tested", 0),
        "bat.query.useful_frac": _ratio(c.get("points_returned", 0), c.get("points_tested", 0)),
        "core.dataset.self_ms": per_op_ms("core.dataset"),
        "core.dataset.files_opened": c.get("files_opened", 0) + c.get("n_files_opened", 0),
        "api.reassemble_ms": per_op_ms("api.reassemble"),
        "api.doc_roundtrip_us": extras.get("doc_roundtrip_us", 0.0),
        # serve side
        "serve.scheduler.wait_p50_ms": 1e3 * median(u.waits),
        "serve.scheduler.wait_p90_ms": 1e3 * percentile(u.waits, 90),
        "serve.scheduler.queue_depth_max": float(
            after.get("scheduler", {}).get("max_queue_depth", 0)
        ),
        "serve.scheduler.rejected": _delta(before, after, "scheduler", "rejected_queue_full")
        + _delta(before, after, "scheduler", "rejected_session_full"),
        "serve.service.plan_s": c.get("plan_s", 0.0),
        "serve.service.traverse_s": c.get("traverse_s", 0.0),
        "serve.service.gather_s": c.get("gather_s", 0.0),
        "serve.service.self_ms": 1e3 * _ratio(
            c.get("total_s", 0.0) - c.get("wait_s", 0.0) - c.get("plan_s", 0.0)
            - c.get("traverse_s", 0.0) - c.get("gather_s", 0.0),
            served,
        ),
        "serve.cache.hit_rate": hit_rate("results"),
        "serve.cache.evictions": _delta(before, after, "results", "evictions"),
        "serve.cache.expirations": _delta(before, after, "results", "expirations"),
        "serve.collapse.hit_rate": _ratio(
            collapse_hits, collapse_hits + _delta(before, after, "collapse", "leaders")
        ),
        "serve.collapse.saved_bytes": _delta(before, after, "collapse", "saved_bytes"),
        "serve.collapse.fallbacks": _delta(before, after, "collapse", "fallbacks"),
        "serve.streaming.increments_per_request": (
            _ratio(c.get("increments", 0), served) if workload.name == "stream_herd" else 0.0
        ),
        "serve.streaming.shed": c.get("shed", 0),
        "serve.aio.loop_lag_p90_ms": 1e3 * percentile(u.loop_lags, 90),
        "serve.degrade.downgraded_frac": _ratio(c.get("degraded", 0), served),
        "serve.degrade.engagements": _delta(before, after, "degradation", "engagements"),
        "serve.shard.worker_busy_s": _delta(before, after, "shards", "worker_busy_s"),
        "serve.shard.fanout_mean": _ratio(
            _delta(before, after, "shards", "fanout_shards"),
            _delta(before, after, "shards", "fanout_single")
            + _delta(before, after, "shards", "fanout_multi"),
        ),
        "serve.shard.restarts": _delta(before, after, "shards", "restarts"),
        # neighbors
        "bat.neighbors.search_ms": per_op_ms("bat.neighbors"),
        "bat.neighbors.pairs_tested": c.get("pairs_tested", 0),
        "bat.neighbors.ghost_points": c.get("ghost_points", 0),
        "bat.neighbors.useful_frac": _ratio(
            c.get("n_points_returned", 0), c.get("pairs_tested", 0)
        ),
        # context
        "loadgen.lag_p90_ms": 1e3 * percentile(u.lags, 90),
        "trace.overhead_frac": _ratio(t.p50_ms(), u.p50_ms()) - 1.0,
        "trace.ops": len(t.lat),
    })
    if "shards" in after:
        m["serve.shard.rpc_s"] = c.get("traverse_s", 0.0)
        m["serve.shard.gathered_mb"] = c.get("gathered_bytes", 0) / 1e6
    by_class: dict = {}
    if workload.name.startswith("read_"):
        for cls, lat in zip(u.cls, u.lat):
            by_class.setdefault(cls, []).append(lat)
    for cls in READ_CLASSES:
        m[f"core.dataset.op_p50_ms.{cls}"] = 1e3 * median(by_class.get(cls, []))
    for key in (
        "serve.shard.ipc_s", "serve.shard.overhead_x", "serve.hashing.owner_imbalance",
        "machine.memcpy_mb_s", "machine.zlib_mb_s", "machine.pickle_mb_s",
    ):
        m[key] = extras.get(key, 0.0)
    return {k: float(v) for k, v in m.items()}
