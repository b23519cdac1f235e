"""Table II: progressive single-thread reads on the Dam Break (2M and 8M).

Real measurements against real BAT files, as for Table I. Paper findings:
similar throughput across target sizes; the (relatively) smaller
configuration achieves higher throughput thanks to OS caching.
"""

from benchmarks.paper import format_table, progressive_read_benchmark
from conftest import emit


def test_table2_progressive_reads(dam_datasets):
    results = {}
    for label, (data, paths) in dam_datasets.items():
        results[label] = {
            t: progressive_read_benchmark(paths[t], steps=10) for t in sorted(paths)
        }

    rows = []
    for label, per_target in results.items():
        for t, r in per_target.items():
            rows.append(
                [
                    label,
                    f"{t}MB",
                    f"{r['avg_read_ms']:.1f}",
                    f"{r['throughput_pts_per_ms']:.0f}",
                ]
            )
    emit(
        format_table(
            ["dataset", "target", "avg read (ms)", "throughput (pts/ms)"],
            rows,
            title="Table II: Dam Break progressive single-thread reads (scaled datasets)",
        )
    )

    for label, (data, _) in dam_datasets.items():
        for r in results[label].values():
            assert r["total_points"] == data.total_particles

    # similar throughput across targets within each dataset
    for label in results:
        tp = [r["throughput_pts_per_ms"] for r in results[label].values()]
        assert max(tp) / min(tp) < 2.5

    # the larger dataset takes longer per sweep step overall
    avg_2m = sum(r["avg_read_ms"] for r in results["2M"].values()) / len(results["2M"])
    avg_8m = sum(r["avg_read_ms"] for r in results["8M"].values()) / len(results["8M"])
    assert avg_8m > avg_2m
