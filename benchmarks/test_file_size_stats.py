"""§VI-A2 text: file count/size statistics, adaptive vs AUG.

Paper numbers at the 8 MB target, Coal Boiler timestep 4501, 1536 ranks:
AUG wrote 296 files (mean 10.2 MB, std 13.9 MB, max 72.9 MB); adaptive
wrote 327 files (mean 9.2 MB, std 8.4 MB, max 36.6 MB). The claim to
reproduce: adaptive writes somewhat more, slightly smaller files with a
markedly lower standard deviation and roughly half the maximum size.
"""

from benchmarks.paper import format_table
from conftest import MB, emit
from repro.baselines import build_aug_plan
from repro.core import AggTreeConfig, build_aggregation_tree
from repro.workloads import CoalBoiler


def test_file_size_stats():
    rd = CoalBoiler().rank_data(4501, 1536, sample_size=400_000)
    adp = build_aggregation_tree(
        rd.bounds, rd.counts, rd.bytes_per_particle,
        AggTreeConfig(target_size=8 * MB, overfull_cost_ratio=4.0, overfull_factor=1.5),
    ).file_sizes() / MB
    aug = build_aug_plan(rd.bounds, rd.counts, rd.bytes_per_particle, 8 * MB).file_sizes() / MB

    def stats(s):
        return [len(s), f"{s.mean():.1f}", f"{s.std():.1f}", f"{s.max():.1f}"]

    emit(
        format_table(
            ["strategy", "files", "mean MB", "std MB", "max MB"],
            [
                ["adaptive"] + stats(adp),
                ["AUG"] + stats(aug),
                ["paper adaptive", 327, 9.2, 8.4, 36.6],
                ["paper AUG", 296, 10.2, 13.9, 72.9],
            ],
            title="File statistics: Coal Boiler ts 4501, 8MB target, 1536 ranks",
        )
    )

    # the qualitative relations the paper reports
    assert len(adp) > len(aug)  # adaptive writes more files
    assert adp.mean() < aug.mean()  # ... of smaller mean size
    assert adp.std() < 0.75 * aug.std()  # ... much more uniform
    assert adp.max() < 0.75 * aug.max()  # ... and avoids huge outliers
