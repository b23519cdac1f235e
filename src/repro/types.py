"""Shared value types used across the library.

The storage model mirrors HDF5/ADIOS-style array-per-attribute layouts:
a :class:`ParticleBatch` holds an ``(N, 3)`` float32 position array plus a
named set of per-particle attribute arrays (typically float64), exactly the
data each simulation rank hands to the I/O layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Box", "AttributeSpec", "ParticleBatch", "points_in_box", "boxes_meet", "boxes_within"]


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounding box in 3D.

    ``lower`` and ``upper`` are length-3 float64 tuples. An *empty* box is
    represented by ``lower > upper`` on every axis (see :meth:`empty`).
    """

    lower: tuple[float, float, float]
    upper: tuple[float, float, float]

    @staticmethod
    def empty() -> "Box":
        inf = float("inf")
        return Box((inf, inf, inf), (-inf, -inf, -inf))

    @staticmethod
    def of_points(points: np.ndarray) -> "Box":
        """Tight bounds of an ``(N, 3)`` array; empty box for ``N == 0``."""
        pts = np.asarray(points).reshape(-1, 3)
        if len(pts) == 0:
            return Box.empty()
        # one contiguous row per coordinate: numpy reduces a C-ordered
        # (n, 3) array along its long axis without SIMD, ~20x slower
        cols = np.ascontiguousarray(pts.T, dtype=np.float64)
        return Box(tuple(cols.min(axis=1).tolist()), tuple(cols.max(axis=1).tolist()))

    @property
    def is_empty(self) -> bool:
        return any(l > u for l, u in zip(self.lower, self.upper))

    @property
    def extents(self) -> np.ndarray:
        """Edge lengths; zeros for an empty box."""
        if self.is_empty:
            return np.zeros(3)
        return np.asarray(self.upper) - np.asarray(self.lower)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.upper) + np.asarray(self.lower)) * 0.5

    def longest_axis(self) -> int:
        return int(np.argmax(self.extents))

    def union(self, other: "Box") -> "Box":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = np.minimum(self.lower, other.lower)
        hi = np.maximum(self.upper, other.upper)
        return Box(tuple(lo.tolist()), tuple(hi.tolist()))

    def intersects(self, other: "Box") -> bool:
        if self.is_empty or other.is_empty:
            return False
        return all(
            sl <= ou and su >= ol
            for sl, su, ol, ou in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def contains_box(self, other: "Box") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return all(
            sl <= ol and su >= ou
            for sl, su, ol, ou in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which rows of an ``(N, 3)`` array fall inside."""
        pts = np.asarray(points).reshape(-1, 3)
        if self.is_empty:
            return np.zeros(len(pts), dtype=bool)
        return points_in_box(pts, np.asarray(self.lower), np.asarray(self.upper))

    def split(self, axis: int, position: float) -> tuple["Box", "Box"]:
        """Split into (left, right) halves at ``position`` along ``axis``."""
        lo = list(self.lower)
        hi = list(self.upper)
        left_hi = list(hi)
        left_hi[axis] = position
        right_lo = list(lo)
        right_lo[axis] = position
        return Box(tuple(lo), tuple(left_hi)), Box(tuple(right_lo), tuple(hi))

    def as_array(self) -> np.ndarray:
        """``(2, 3)`` float64 array ``[lower, upper]``."""
        return np.array([self.lower, self.upper], dtype=np.float64)

    @staticmethod
    def from_array(arr: np.ndarray) -> "Box":
        arr = np.asarray(arr, dtype=np.float64).reshape(2, 3)
        return Box(tuple(arr[0].tolist()), tuple(arr[1].tolist()))


# -- per-row box tests, axis-major: ~10x faster than ``(pts >= lo) & (pts <=
# hi)`` reduced over its length-3 axis. Query bounds are float64, ``(3,)``
# or ``(n, 3)`` (one box per row); points and boxes are ``(n, 3)``.


def _rows_le(*pairs) -> np.ndarray:
    """Rows where ``x <= y`` on every axis, for every ``(x, y)`` of ``pairs``:
    an ``(n, 3)`` side transposed, a ``(3,)`` bound as a ``(3, 1)`` float64
    column — never scalars, which numpy 1.x compares in the other side's
    float32, flipping points on float32-rounded bounds. Each comparison
    writes one contiguous row per axis; the three rows are AND-ed last."""
    mask = None
    for pair in pairs:
        x, y = (v.T if v.ndim == 2 else v[:, None] for v in pair)
        le = np.less_equal(x, y, order="C")
        mask = le if mask is None else np.logical_and(mask, le, out=mask)
    return mask[0] & mask[1] & mask[2]


def points_in_box(pts: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """Which rows of ``pts`` lie in the closed box ``[qlo, qhi]``."""
    return _rows_le((qlo, pts), (pts, qhi))


def boxes_meet(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """Which boxes ``[lo, hi]`` are non-empty and meet ``[qlo, qhi]`` (no NaN box does)."""
    return _rows_le((lo, qhi), (qlo, hi), (lo, hi))


def boxes_within(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """Which boxes ``[lo, hi]`` lie inside ``[qlo, qhi]``."""
    return _rows_le((qlo, lo), (hi, qhi))


@dataclass(frozen=True)
class AttributeSpec:
    """Name and dtype of one per-particle attribute array."""

    name: str
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


class ParticleBatch:
    """A set of particles: positions plus named attribute arrays.

    Positions are stored as ``(N, 3)`` float32 (matching the paper's three
    single-precision coordinates); attributes are 1D arrays of length N,
    float64 by default.

    Column-projected reads (a :class:`QueryRequest` whose ``columns`` does
    not name ``"positions"``) produce *positions-free* batches:
    ``positions`` is ``None`` and the row count comes from ``count``.
    Such batches still support ``len``, ``nbytes``, ``select``, and
    ``concatenate``; ``bounds`` reports an empty box.
    """

    def __init__(
        self,
        positions: np.ndarray | None,
        attributes: dict[str, np.ndarray] | None = None,
        count: int | None = None,
    ):
        if positions is None:
            if count is None:
                raise ValueError("a positions-free batch needs an explicit count")
            n = int(count)
        else:
            positions = np.ascontiguousarray(positions, dtype=np.float32).reshape(-1, 3)
            n = len(positions)
            if count is not None and int(count) != n:
                raise ValueError(f"count {count} != len(positions) {n}")
        self.positions = positions
        self._count = n
        self.attributes: dict[str, np.ndarray] = {}
        for name, arr in (attributes or {}).items():
            arr = np.ascontiguousarray(arr)
            if arr.shape != (n,):
                raise ValueError(
                    f"attribute {name!r} has shape {arr.shape}, expected ({n},)"
                )
            self.attributes[name] = arr

    @staticmethod
    def empty(
        attribute_specs: list[AttributeSpec] | None = None,
        with_positions: bool = True,
    ) -> "ParticleBatch":
        attrs = {
            spec.name: np.empty(0, dtype=spec.dtype) for spec in (attribute_specs or [])
        }
        positions = np.empty((0, 3), dtype=np.float32) if with_positions else None
        return ParticleBatch(positions, attrs, count=0)

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Raw payload size: positions (when present) plus attribute arrays."""
        pos_nbytes = self.positions.nbytes if self.positions is not None else 0
        return pos_nbytes + sum(a.nbytes for a in self.attributes.values())

    @property
    def bounds(self) -> Box:
        if self.positions is None:
            return Box.empty()
        return Box.of_points(self.positions)

    def digest(self) -> str:
        """Order-sensitive sha256 of the payload: positions (when present),
        then each attribute column in name order.

        Stored in the durable job log and compared by the load generators,
        so the hex output for a given batch must never change.
        """
        h = hashlib.sha256()
        if self.positions is not None:
            h.update(self.positions.tobytes())
        for name in sorted(self.attributes):
            h.update(self.attributes[name].tobytes())
        return h.hexdigest()

    def attribute_specs(self) -> list[AttributeSpec]:
        return [AttributeSpec(name, arr.dtype) for name, arr in self.attributes.items()]

    def select(self, index: np.ndarray) -> "ParticleBatch":
        """New batch containing rows picked by an index or boolean mask."""
        attrs = {name: arr[index] for name, arr in self.attributes.items()}
        if self.positions is None:
            # the row count survives projection: size the selection against
            # an index over [0, count)
            n = int(np.arange(self._count)[index].size)
            return ParticleBatch(None, attrs, count=n)
        return ParticleBatch(self.positions[index], attrs)

    @staticmethod
    def concatenate(batches: list["ParticleBatch"]) -> "ParticleBatch":
        batches = [b for b in batches if b is not None]
        if not batches:
            return ParticleBatch.empty()
        names = list(batches[0].attributes.keys())
        with_positions = batches[0].positions is not None
        for b in batches:
            if list(b.attributes.keys()) != names:
                raise ValueError("cannot concatenate batches with mismatched attributes")
            if (b.positions is not None) != with_positions:
                raise ValueError(
                    "cannot concatenate positions-free and positioned batches"
                )
        attrs = {
            name: np.concatenate([b.attributes[name] for b in batches]) for name in names
        }
        if not with_positions:
            return ParticleBatch(None, attrs, count=sum(b.count for b in batches))
        positions = np.concatenate([b.positions for b in batches], axis=0)
        return ParticleBatch(positions, attrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParticleBatch(n={len(self)}, attrs={list(self.attributes)}, "
            f"bytes={self.nbytes})"
        )
