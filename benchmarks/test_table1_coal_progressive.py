"""Table I: progressive single-thread read times on the Coal Boiler.

Real measurements (not simulated): BAT files are written to local storage
and read back through mmap, single-threaded, stepping quality 0.1 -> 1.0
in increments of 0.1 — the paper's desktop methodology. The paper's
finding: performance is similar across aggregation target sizes, and the
dominant cost factor is the number of points returned.
"""

import numpy as np

from benchmarks.paper import format_table, progressive_read_benchmark
from conftest import emit


def test_table1_progressive_reads(coal_dataset):
    data, paths = coal_dataset

    results = {t: progressive_read_benchmark(paths[t], steps=10) for t in sorted(paths)}
    emit(
        format_table(
            ["target size", "avg read (ms)", "throughput (pts/ms)"],
            [
                [f"{t}MB", f"{r['avg_read_ms']:.1f}", f"{r['throughput_pts_per_ms']:.0f}"]
                for t, r in results.items()
            ],
            title="Table I: Coal Boiler progressive single-thread reads (scaled dataset)",
        )
    )

    # every sweep returns the whole data set exactly once
    for r in results.values():
        assert r["total_points"] == data.total_particles

    # paper: similar performance across target sizes (within ~2x here; the
    # paper saw <10% on a much larger dataset where constants amortize)
    throughputs = [r["throughput_pts_per_ms"] for r in results.values()]
    assert max(throughputs) / min(throughputs) < 2.5
    assert min(throughputs) > 0


def test_table1_cost_tracks_points_returned(coal_dataset):
    """Paper: 'The largest factor determining performance is the number of
    points queried.'"""
    _, paths = coal_dataset

    r = progressive_read_benchmark(paths[2], steps=10)
    ms = np.array(r["per_step_ms"])
    pts = np.array(r["per_step_points"], dtype=np.float64)
    mask = pts > 0
    corr = np.corrcoef(ms[mask], pts[mask])[0, 1]
    emit(f"per-step time vs points correlation: {corr:.2f}")
    # positive coupling; at this scaled-down size the constant per-step
    # traversal overhead adds noise the paper's 40M-point runs don't see
    assert corr > 0.2
