"""Placement of leaf files on shard workers: contiguous leaf runs.

The sharded serve tier partitions a dataset's leaf files across N worker
processes so every shard owns a disjoint slice of the spatial domain —
its own file handles, decoded-column budget, plan memo, and quarantine
state. Ownership must be a *pure function of the manifest*: the router
and every worker compute it independently (they only share the manifest
path and the shard count), so there is no ownership table to ship,
version, or repair after a worker restart.

The writer's leaves are the Aggregation Tree's leaves, listed depth
first, so manifest leaf order is a walk of the tree's k-d partition:
neighbouring leaves in the list are neighbouring regions in space. Cutting
that list into ``n_shards`` contiguous runs — the paper's read path hands
whole files to aggregators from the metadata alone in the same way, and a
space-filling-curve partition of a forest is cut the same way — gives each
shard a compact region, so a box query meets as few shards as it can.
The runs are cut by the leaves' ``nbytes``: leaf ``i`` goes to the shard
whose equal byte share holds the midpoint of its byte range, so every
shard's byte total is within one leaf of the mean.

A manifest without a tree (an online reorganization splices rewritten
leaves in at their first source's position and drops the tree) has no
spatially coherent leaf order; its runs are cut along the Morton order
of the leaf centres instead.
"""

from __future__ import annotations

import numpy as np

from ..morton import encode_positions

__all__ = ["assign_leaves", "placement_order"]


def placement_order(metadata) -> np.ndarray:
    """The leaf indices in the order runs are cut along: manifest order
    when the manifest holds its Aggregation Tree, else the Morton order of
    the leaf centres (stable, so ties keep manifest order)."""
    n = len(metadata.leaves)
    if metadata.tree_nodes or n < 2:
        return np.arange(n)
    centers = np.array([leaf.bounds.center for leaf in metadata.leaves], dtype=np.float64)
    return np.argsort(encode_positions(centers, metadata.bounds), kind="stable")


def assign_leaves(metadata, n_shards: int) -> tuple:
    """Per-leaf shard owners, positionally aligned with ``metadata.leaves``.

    Shard ``s`` owns one contiguous run of :func:`placement_order`, and
    shard ``s``'s run comes before shard ``s + 1``'s. Deterministic given
    (manifest, shard count) — integer arithmetic only — so the router and
    every worker call this independently and agree, which the shard test
    suite asserts directly. More shards than leaves leave some shards
    owning nothing.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    order = placement_order(metadata)
    weights = np.array([metadata.leaves[i].nbytes for i in order], dtype=np.int64)
    if weights.sum() <= 0:  # no sizes recorded: cut by leaf count
        weights = np.ones(len(order), dtype=np.int64)
    # twice each leaf's byte midpoint, scaled by n_shards / total: the run
    # is the equal share the midpoint falls in (a trailing empty leaf's
    # midpoint is the total itself: it joins the last run)
    mid2 = 2 * np.cumsum(weights) - weights
    runs = np.minimum(mid2 * n_shards // (2 * int(weights.sum())), n_shards - 1)
    owners = np.empty(len(order), dtype=np.int64)
    owners[order] = runs
    return tuple(owners.tolist())
