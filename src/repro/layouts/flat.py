"""A minimal Morton-sorted flat layout — the reference "user layout".

Demonstrates the §VII pluggable-layout hook with the simplest useful
design: particles sorted by Morton code, stored as flat arrays behind a
small header. Sorting buys two things for free:

- spatial queries narrow to a code range before scanning (coarse
  pruning; exactness comes from the final per-point test);
- any prefix-strided subsample is spatially stratified, so crude LOD
  reads work even without a hierarchy.

Compared to the BAT it has no treelets, no bitmaps, and no per-node LOD —
it is deliberately the "flat arrays" strawman the paper's introduction
describes, upgraded only by the sort.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..atomic import publish_bytes
from ..bat.format import check_attr_names
from ..binning import EquiWidthBinning
from ..bitmaps import bitmap_of_values
from ..morton import MAX_BITS, encode_positions
from ..types import Box, ParticleBatch

__all__ = ["BuiltFlat", "build_flat", "FlatFile"]

_MAGIC = b"FLT1"
_HEADER_FMT = "<4sI Q I 6d"
_NAME_BYTES = 40
_ATTR_FMT = f"<{_NAME_BYTES}s8s2d"


@dataclass
class BuiltFlat:
    """Serialized flat-layout leaf (same summary contract as BuiltBAT)."""

    data: bytes
    n_points: int
    bounds: Box
    attr_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    root_bitmaps: dict[str, int] = field(default_factory=dict)
    attr_binnings: dict = field(default_factory=dict)
    raw_bytes: int = 0

    @property
    def nbytes(self) -> int:
        return len(self.data)

    @property
    def overhead_bytes(self) -> int:
        return self.nbytes - self.raw_bytes

    def write(self, path) -> None:
        """Publish the image atomically (tmp file, fsync, read-back check, rename)."""
        publish_bytes(path, self.data)


def build_flat(batch: ParticleBatch, config=None) -> BuiltFlat:
    """Serialize a leaf as Morton-sorted flat arrays (``config`` unused)."""
    n = len(batch)
    if n == 0:
        raise ValueError("cannot build a flat layout over zero particles")
    check_attr_names(batch.attributes, _NAME_BYTES)
    bounds = batch.bounds
    order = np.argsort(encode_positions(batch.positions, bounds, bits=MAX_BITS))
    positions = np.ascontiguousarray(batch.positions[order])
    names = list(batch.attributes.keys())
    attrs = {k: np.ascontiguousarray(batch.attributes[k][order]) for k in names}

    attr_ranges = {k: (float(v.min()), float(v.max())) for k, v in attrs.items()}
    binnings = {k: EquiWidthBinning(*attr_ranges[k]) for k in names}
    root_bitmaps = {
        k: int(bitmap_of_values(v, *attr_ranges[k])) for k, v in attrs.items()
    }

    header = struct.pack(
        _HEADER_FMT, _MAGIC, 1, n, len(names), *bounds.as_array().reshape(6).tolist()
    )
    atab = b"".join(
        struct.pack(
            _ATTR_FMT, k.encode(), attrs[k].dtype.str.encode(), *attr_ranges[k]
        )
        for k in names
    )
    parts = [header, atab, positions.tobytes()]
    parts += [attrs[k].tobytes() for k in names]
    data = b"".join(parts)
    return BuiltFlat(
        data=data,
        n_points=n,
        bounds=bounds,
        attr_ranges=attr_ranges,
        root_bitmaps=root_bitmaps,
        attr_binnings=binnings,
        raw_bytes=batch.nbytes,
    )


class FlatFile:
    """Reader for the flat layout (restart-reader contract + crude LOD)."""

    def __init__(self, path):
        self.path = str(path)
        with open(self.path, "rb") as f:
            data = f.read()
        self._init(data)

    @classmethod
    def from_bytes(cls, data: bytes, name: str = "<memory>") -> "FlatFile":
        self = cls.__new__(cls)
        self.path = name
        self._init(bytes(data))
        return self

    def _init(self, data: bytes) -> None:
        head = struct.calcsize(_HEADER_FMT)
        magic, version, n, n_attrs, *b = struct.unpack(_HEADER_FMT, data[:head])
        if magic != _MAGIC:
            raise ValueError(f"not a flat-layout file (magic {magic!r})")
        if version != 1:
            raise ValueError(f"unsupported flat-layout version {version}")
        self.n_points = n
        self.bounds = Box(tuple(b[:3]), tuple(b[3:]))
        cursor = head
        self.attr_names: list[str] = []
        self.attr_dtypes: dict[str, np.dtype] = {}
        self.attr_ranges: dict[str, tuple[float, float]] = {}
        asize = struct.calcsize(_ATTR_FMT)
        for _ in range(n_attrs):
            name_b, dt_b, lo, hi = struct.unpack(_ATTR_FMT, data[cursor : cursor + asize])
            name = name_b.rstrip(b"\0").decode()
            self.attr_names.append(name)
            self.attr_dtypes[name] = np.dtype(dt_b.rstrip(b"\0").decode())
            self.attr_ranges[name] = (lo, hi)
            cursor += asize
        self.positions = np.frombuffer(data, dtype=np.float32, count=3 * n, offset=cursor).reshape(n, 3)
        cursor += self.positions.nbytes
        self.attributes: dict[str, np.ndarray] = {}
        for name in self.attr_names:
            dt = self.attr_dtypes[name]
            self.attributes[name] = np.frombuffer(data, dtype=dt, count=n, offset=cursor)
            cursor += n * dt.itemsize

    def close(self) -> None:
        pass  # plain buffer; nothing to release eagerly

    def __enter__(self) -> "FlatFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -------------------------------------------------------------

    def query_box(self, box: Box | None = None) -> ParticleBatch:
        """Exact spatial query by linear scan (flat layouts have no tree)."""
        if box is None:
            mask = slice(None)
        else:
            mask = box.contains_points(self.positions)
        return ParticleBatch(
            self.positions[mask], {k: v[mask] for k, v in self.attributes.items()}
        )

    def sample(self, quality: float) -> ParticleBatch:
        """Strided LOD subsample — valid because the file is Morton-sorted."""
        if not 0.0 <= quality <= 1.0:
            raise ValueError("quality must be in [0, 1]")
        if quality == 0.0:
            from ..types import AttributeSpec

            return ParticleBatch.empty(
                [AttributeSpec(k, self.attr_dtypes[k]) for k in self.attr_names]
            )
        stride = max(int(round(1.0 / quality)), 1)
        idx = np.arange(0, self.n_points, stride)
        return ParticleBatch(
            self.positions[idx], {k: v[idx] for k, v in self.attributes.items()}
        )
