"""Consistent hashing of leaf-file regions onto shard workers.

The sharded serve tier partitions a dataset's leaf files across N worker
processes so every shard owns a disjoint slice of the spatial domain —
its own file handles, decoded-column budget, plan memo, and quarantine
state. Ownership must be a *pure function of the manifest*: the router
and every worker compute it independently (they only share the manifest
path and the shard count), so there is no ownership table to ship,
version, or repair after a worker restart.

A classic consistent-hash ring does that: each shard contributes
:data:`VNODES` virtual points at ``sha1("shard-<s>:<vnode>")``, a leaf hashes
its region key — ``dataset / step / leaf bounding box`` — onto the ring,
and the first shard point clockwise owns it. Keying on the *region*
rather than the leaf index keeps ownership stable across rewrites that
renumber leaves but preserve geometry, and gives spatially meaningful
placement diagnostics (a shard owns boxes, not arbitrary ints). With
virtual nodes in the dozens the assignment is balanced to a few percent, and
changing the shard count moves only ~1/N of the leaves — the property
that makes elastic resizing cheap later.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "region_key", "assign_leaves"]

#: virtual ring points per shard. A constant, not a parameter: router and
#: workers must agree on it, and it fixes every leaf's owner
VNODES = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash of a text key (sha1 prefix; not security)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


def region_key(dataset: str, step: int, bounds) -> str:
    """The canonical ring key of one leaf region.

    ``bounds`` is the leaf's :class:`~repro.types.Box`; ``repr`` of the
    float coordinates is exact and stable across processes, so router
    and workers derive identical keys from identical manifests.
    """
    lo = ",".join(repr(float(v)) for v in bounds.lower)
    hi = ",".join(repr(float(v)) for v in bounds.upper)
    return f"{dataset}/{step}/{lo}/{hi}"


class HashRing:
    """``n_shards`` shards, each as :data:`VNODES` virtual ring points."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        points = []
        for shard in range(self.n_shards):
            for vnode in range(VNODES):
                points.append((_hash64(f"shard-{shard}:{vnode}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def owner(self, key: str) -> int:
        """The shard owning ``key`` (first ring point clockwise)."""
        h = _hash64(key)
        i = bisect.bisect_right(self._hashes, h)
        if i == len(self._hashes):
            i = 0
        return self._owners[i]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashRing(n_shards={self.n_shards})"


def assign_leaves(metadata, dataset: str, step: int, ring: HashRing) -> tuple:
    """Per-leaf shard owners, positionally aligned with ``metadata.leaves``.

    Deterministic given (manifest, shard count): the router and
    every worker call this independently and must agree, which the shard
    test suite asserts directly.
    """
    return tuple(
        ring.owner(region_key(dataset, step, leaf.bounds))
        for leaf in metadata.leaves
    )
