"""Top-level metadata file (paper §III-D).

Rank 0 writes one small file per timestep describing the whole data set:
the Aggregation Tree (so readers can route spatial queries to leaf files),
each leaf's file name, bounds and particle count, and per-attribute value
ranges plus root bitmaps remapped from each aggregator's local range to the
global range. With it, the data set reads as if it were a single file.

The format is JSON — the metadata is a few hundred entries of structural
information, and a human-inspectable manifest is worth more than saved
microseconds here. (The bulk data lives in the binary BAT files.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import publish_bytes
from ..bitmaps import bin_intervals, remap_bitmaps
from ..types import AttributeSpec, Box
from .aggtree import AggLeaf, AggregationTree

__all__ = ["LeafMetadata", "DatasetMetadata", "build_metadata", "remap_to_global"]

FORMAT_VERSION = 1


@dataclass
class LeafMetadata:
    """One leaf file of the data set."""

    leaf_index: int
    file_name: str
    bounds: Box
    count: int
    nbytes: int
    aggregator: int
    rank_ids: list[int]
    #: per-attribute (lo, hi) as stored in the leaf's BAT file
    attr_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: per-attribute root bitmap remapped to the global attribute range
    global_bitmaps: dict[str, int] = field(default_factory=dict)


@dataclass
class DatasetMetadata:
    """The parsed top-level metadata file."""

    nranks: int
    bounds: Box
    leaves: list[LeafMetadata]
    #: global per-attribute value ranges (union of leaf ranges)
    attr_ranges: dict[str, tuple[float, float]]
    #: serialized Aggregation Tree: list of dicts mirroring AggInner/AggLeaf
    tree_nodes: list[dict] = field(default_factory=list)
    #: per-inner-node global-range bitmaps, merged bottom-up
    inner_bitmaps: list[dict[str, int]] = field(default_factory=list)
    #: name of the leaf-file layout (see :mod:`repro.layouts`)
    layout: str = "bat"
    #: per-attribute numpy dtype strings (empty for manifests written
    #: before this field existed; readers then fall back to a leaf file)
    attr_dtypes: dict[str, str] = field(default_factory=dict)
    #: layout generation counter, bumped by every online reorganization
    #: republish. Caches that derive anything from the *leaf set* (plans,
    #: results, in-flight windows) key on it so entries built against a
    #: pre-reorg layout are never served afterwards. Write-time manifests
    #: start at 0; older manifests without the field load as 0.
    generation: int = 0

    @property
    def n_files(self) -> int:
        return len(self.leaves)

    @property
    def json_size(self) -> int:
        """Serialized size in bytes (cached, and recorded by :meth:`save` —
        used by the write and read cost models)."""
        size = getattr(self, "_json_size", None)
        if size is None:
            size = len(self.to_json().encode())
            object.__setattr__(self, "_json_size", size)
        return size

    def leaf_bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, 3) lower and upper bounds of every leaf (cached)."""
        cached = getattr(self, "_leaf_bounds", None)
        if cached is None:
            lo = np.array([l.bounds.lower for l in self.leaves], dtype=np.float64).reshape(-1, 3)
            hi = np.array([l.bounds.upper for l in self.leaves], dtype=np.float64).reshape(-1, 3)
            cached = (lo, hi)
            object.__setattr__(self, "_leaf_bounds", cached)
        return cached

    def leaf_bitmaps_array(self, name: str) -> np.ndarray:
        """(L,) uint32 global-range root bitmap of every leaf (cached).

        Leaves without a stored bitmap for ``name`` get the full bitmap —
        "may contain anything" — matching the conservative per-leaf
        lookups this replaces.
        """
        cached = getattr(self, "_leaf_bitmaps", None)
        if cached is None:
            cached = {}
            object.__setattr__(self, "_leaf_bitmaps", cached)
        arr = cached.get(name)
        if arr is None:
            arr = np.array(
                [l.global_bitmaps.get(name, 0xFFFFFFFF) for l in self.leaves],
                dtype=np.uint32,
            )
            cached[name] = arr
        return arr

    def attribute_specs(self) -> list[AttributeSpec] | None:
        """Attribute specs from the manifest, or ``None`` if not recorded."""
        if not self.attr_dtypes:
            return None
        return [AttributeSpec(n, np.dtype(dt)) for n, dt in self.attr_dtypes.items()]

    @property
    def total_particles(self) -> int:
        return sum(l.count for l in self.leaves)

    # -- queries -----------------------------------------------------------

    def query_box(self, box: Box) -> list[int]:
        """Leaf indices whose bounds intersect ``box``."""
        if not self.tree_nodes:
            return [l.leaf_index for l in self.leaves if l.bounds.intersects(box)]
        out: list[int] = []
        stack = [0]
        while stack:
            nd = self.tree_nodes[stack.pop()]
            nb = Box(tuple(nd["bounds"][0]), tuple(nd["bounds"][1]))
            if not nb.intersects(box):
                continue
            if nd["type"] == "leaf":
                out.append(nd["leaf_index"])
            else:
                stack.append(nd["right"])
                stack.append(nd["left"])
        return sorted(out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "format": "bat-dataset",
            "version": FORMAT_VERSION,
            "layout": self.layout,
            "generation": self.generation,
            "nranks": self.nranks,
            "bounds": [list(self.bounds.lower), list(self.bounds.upper)],
            "attr_ranges": {k: list(v) for k, v in self.attr_ranges.items()},
            "attr_dtypes": dict(self.attr_dtypes),
            "tree_nodes": self.tree_nodes,
            "inner_bitmaps": [
                {k: int(v) for k, v in bm.items()} for bm in self.inner_bitmaps
            ],
            "leaves": [
                {
                    "leaf_index": l.leaf_index,
                    "file": l.file_name,
                    "bounds": [list(l.bounds.lower), list(l.bounds.upper)],
                    "count": l.count,
                    "nbytes": l.nbytes,
                    "aggregator": l.aggregator,
                    "ranks": l.rank_ids,
                    "attr_ranges": {k: list(v) for k, v in l.attr_ranges.items()},
                    "global_bitmaps": {k: int(v) for k, v in l.global_bitmaps.items()},
                }
                for l in self.leaves
            ],
        }
        return json.dumps(doc, indent=1)

    def save(self, path) -> int:
        """Publish the metadata file atomically; returns its size in bytes.

        The manifest is what makes a dataset *visible*: publishing it via
        tmp-file + fsync + read-back check + rename means a crash mid-write
        can never leave a half-written manifest pointing at the (already
        published) leaves.
        """
        data = self.to_json().encode()
        publish_bytes(path, data)
        object.__setattr__(self, "_json_size", len(data))
        return len(data)

    @staticmethod
    def load(path) -> "DatasetMetadata":
        doc = json.loads(Path(path).read_text())
        if doc.get("format") != "bat-dataset":
            raise ValueError(f"{path} is not a BAT dataset metadata file")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported metadata version {doc.get('version')}")
        leaves = [
            LeafMetadata(
                leaf_index=d["leaf_index"],
                file_name=d["file"],
                bounds=Box(tuple(d["bounds"][0]), tuple(d["bounds"][1])),
                count=d["count"],
                nbytes=d["nbytes"],
                aggregator=d["aggregator"],
                rank_ids=list(d["ranks"]),
                attr_ranges={k: (v[0], v[1]) for k, v in d["attr_ranges"].items()},
                global_bitmaps={k: int(v) for k, v in d["global_bitmaps"].items()},
            )
            for d in doc["leaves"]
        ]
        return DatasetMetadata(
            nranks=doc["nranks"],
            bounds=Box(tuple(doc["bounds"][0]), tuple(doc["bounds"][1])),
            leaves=leaves,
            attr_ranges={k: (v[0], v[1]) for k, v in doc["attr_ranges"].items()},
            tree_nodes=doc["tree_nodes"],
            inner_bitmaps=[{k: int(v) for k, v in bm.items()} for bm in doc["inner_bitmaps"]],
            layout=doc.get("layout", "bat"),
            attr_dtypes=dict(doc.get("attr_dtypes", {})),
            generation=int(doc.get("generation", 0)),
        )


def remap_to_global(
    leaf_root_bitmaps: list[dict[str, int]],
    leaf_attr_ranges: list[dict[str, tuple[float, float]]],
    leaf_binnings: list[dict] | None,
    global_ranges: dict[str, tuple[float, float]],
) -> list[dict[str, int]]:
    """Every leaf's root bitmaps re-expressed on the global equi-width bins.

    Rank 0's serial part of the write, so it is one vectorized pass over
    every ``(leaf, attribute, set bin)`` (:func:`~repro.bitmaps.remap_bitmaps`)
    instead of a call per bin. A leaf's bins are those of its binning
    scheme when ``leaf_binnings`` records one, else equi-width over its
    local range.
    """
    keys = [(i, name) for i, bms in enumerate(leaf_root_bitmaps) for name in bms]
    out: list[dict[str, int]] = [{} for _ in leaf_root_bitmaps]
    if not keys:
        return out
    intervals = []
    for i, name in keys:
        binning = (leaf_binnings[i] or {}).get(name) if leaf_binnings else None
        intervals.append(
            binning.bin_intervals() if binning is not None
            else bin_intervals(*leaf_attr_ranges[i][name])
        )
    glo, ghi = np.array([global_ranges[name] for _, name in keys], dtype=np.float64).T
    remapped = remap_bitmaps(
        [leaf_root_bitmaps[i][name] for i, name in keys],
        np.stack([blo for blo, _ in intervals]),
        np.stack([bhi for _, bhi in intervals]),
        glo, ghi,
    )
    for (i, name), bm in zip(keys, remapped.tolist()):
        out[i][name] = bm
    return out


def build_metadata(
    plan,
    nranks: int,
    file_names: list[str],
    leaf_attr_ranges: list[dict[str, tuple[float, float]]],
    leaf_root_bitmaps: list[dict[str, int]],
    leaf_binnings: list[dict] | None = None,
    layout: str = "bat",
    attr_dtypes: dict[str, str] | None = None,
) -> DatasetMetadata:
    """Populate the top-level metadata from an aggregation plan.

    ``plan`` is an :class:`AggregationTree` or any object exposing
    ``leaves`` (AUG produces a flat plan). The per-leaf local attribute
    ranges and root bitmaps come from each aggregator's BAT build; rank 0
    unions the ranges, remaps each leaf bitmap to the global range, and
    merges inner-node bitmaps bottom-up. ``leaf_binnings`` carries each
    leaf's binning scheme when files use non-equi-width bins; the global
    metadata bitmaps are always expressed against equi-width global bins.
    """
    leaves_in = list(plan.leaves)
    if not (len(leaves_in) == len(file_names) == len(leaf_attr_ranges) == len(leaf_root_bitmaps)):
        raise ValueError("per-leaf argument length mismatch")
    if leaf_binnings is not None and len(leaf_binnings) != len(leaves_in):
        raise ValueError("per-leaf argument length mismatch")

    # Global ranges: union of leaf-local ranges.
    attr_ranges: dict[str, tuple[float, float]] = {}
    for ranges in leaf_attr_ranges:
        for name, (lo, hi) in ranges.items():
            if name in attr_ranges:
                glo, ghi = attr_ranges[name]
                attr_ranges[name] = (min(glo, lo), max(ghi, hi))
            else:
                attr_ranges[name] = (lo, hi)

    leaves: list[LeafMetadata] = []
    bounds = Box.empty()
    leaf_global_bitmaps = remap_to_global(
        leaf_root_bitmaps, leaf_attr_ranges, leaf_binnings, attr_ranges
    )
    for leaf, fname, ranges, global_bms in zip(
        leaves_in, file_names, leaf_attr_ranges, leaf_global_bitmaps
    ):
        leaves.append(
            LeafMetadata(
                leaf_index=leaf.leaf_index,
                file_name=fname,
                bounds=leaf.bounds,
                count=leaf.count,
                nbytes=leaf.nbytes,
                aggregator=leaf.aggregator,
                rank_ids=[int(r) for r in leaf.rank_ids],
                attr_ranges=dict(ranges),
                global_bitmaps=global_bms,
            )
        )
        bounds = bounds.union(leaf.bounds)

    # Serialize the tree (if the plan has one) and merge inner bitmaps up.
    tree_nodes: list[dict] = []
    inner_bitmaps: list[dict[str, int]] = []
    if isinstance(plan, AggregationTree) and plan.nodes:
        merged: dict[int, dict[str, int]] = {}

        def merge(node_id: int) -> dict[str, int]:
            node = plan.nodes[node_id]
            if isinstance(node, AggLeaf):
                return leaves[node.leaf_index].global_bitmaps
            out: dict[str, int] = {}
            for child in (node.left, node.right):
                for name, bm in merge(child).items():
                    out[name] = out.get(name, 0) | bm
            merged[node_id] = out
            return out

        merge(0)
        for node in plan.nodes:
            b = node.bounds
            rec = {"bounds": [list(b.lower), list(b.upper)]}
            if isinstance(node, AggLeaf):
                rec.update(type="leaf", leaf_index=node.leaf_index)
                inner_bitmaps.append({})
            else:
                rec.update(type="inner", axis=int(node.axis), position=float(node.position),
                           left=int(node.left), right=int(node.right))
                inner_bitmaps.append(merged.get(node.node_id, {}))
            tree_nodes.append(rec)

    return DatasetMetadata(
        nranks=nranks,
        bounds=bounds,
        leaves=leaves,
        attr_ranges=attr_ranges,
        tree_nodes=tree_nodes,
        inner_bitmaps=inner_bitmaps,
        layout=layout,
        attr_dtypes=dict(attr_dtypes) if attr_dtypes else {},
    )
