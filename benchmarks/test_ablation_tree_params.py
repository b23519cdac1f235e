"""Ablations over the Aggregation Tree's design choices (§III-A, §VII).

Two knobs the paper calls out:
- overfull leaves (cost threshold + size factor): trade occasional larger
  files for avoiding badly imbalanced splits;
- split-axis policy: longest-axis only (default) vs best across all axes.
"""

from benchmarks.paper import format_table
from conftest import MB, emit
from repro.core import AggTreeConfig, build_aggregation_tree
from repro.workloads import CoalBoiler


def _plan_stats(tree):
    sizes = tree.file_sizes() / MB
    return {
        "files": tree.n_leaves,
        "std": float(sizes.std()),
        "max": float(sizes.max()),
        "overfull": sum(1 for l in tree.leaves if l.overfull),
        "imbalance": tree.imbalance(),
    }


def test_overfull_leaves_reduce_bad_splits():
    rd = CoalBoiler().rank_data(4501, 1536, sample_size=300_000)
    base = _plan_stats(build_aggregation_tree(
        rd.bounds, rd.counts, rd.bytes_per_particle, AggTreeConfig(target_size=8 * MB)
    ))
    overfull = _plan_stats(build_aggregation_tree(
        rd.bounds, rd.counts, rd.bytes_per_particle,
        AggTreeConfig(target_size=8 * MB, overfull_cost_ratio=4.0, overfull_factor=1.5),
    ))
    emit(
        format_table(
            ["config", "files", "size std MB", "max MB", "overfull leaves"],
            [
                ["no overfull", base["files"], f"{base['std']:.1f}", f"{base['max']:.1f}", base["overfull"]],
                ["overfull 4.0/1.5x", overfull["files"], f"{overfull['std']:.1f}", f"{overfull['max']:.1f}", overfull["overfull"]],
            ],
            title="Ablation: overfull leaf rule (Coal Boiler ts 4501, 8MB)",
        )
    )
    assert base["overfull"] == 0
    assert overfull["overfull"] > 0
    # fewer files (merged bad splits) at a bounded max size
    assert overfull["files"] <= base["files"]
    assert overfull["max"] <= max(base["max"], 1.5 * 8 * 1.05)


def test_split_all_axes_vs_longest():
    rd = CoalBoiler().rank_data(2501, 1536, sample_size=300_000)
    longest = _plan_stats(build_aggregation_tree(
        rd.bounds, rd.counts, rd.bytes_per_particle, AggTreeConfig(target_size=8 * MB)
    ))
    allax = _plan_stats(build_aggregation_tree(
        rd.bounds, rd.counts, rd.bytes_per_particle,
        AggTreeConfig(target_size=8 * MB, split_all_axes=True),
    ))
    emit(
        format_table(
            ["policy", "files", "size std MB", "max MB", "leaf imbalance"],
            [
                ["longest axis", longest["files"], f"{longest['std']:.1f}", f"{longest['max']:.1f}", f"{longest['imbalance']:.2f}"],
                ["best of all axes", allax["files"], f"{allax['std']:.1f}", f"{allax['max']:.1f}", f"{allax['imbalance']:.2f}"],
            ],
            title="Ablation: split-axis policy (Coal Boiler ts 2501, 8MB)",
        )
    )
    # searching all axes can only improve (or match) leaf balance
    assert allax["imbalance"] <= longest["imbalance"] * 1.1
