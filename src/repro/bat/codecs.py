"""Pluggable per-column codecs for BAT treelet payloads (format v4).

Each treelet column (the node records, the position block, and every
attribute column) can be encoded independently through a codec picked at
write time. The registry ships four families:

``raw``
    Identity. Always available; the fallback when nothing else wins.
``zlib``
    DEFLATE over the column's bytes. Dtype-agnostic, lossless. Read back
    by :func:`repro._inflate.inflate`: the system's libdeflate when it
    is present, else ``zlib``.
``delta``
    Delta + bit-packing for integer columns. Values are differenced in
    wrapping 64-bit arithmetic, zigzag-mapped, and packed at the minimum
    bit width that holds the largest delta. Morton-ordered data (sorted
    ids, quantized positions) has tiny deltas, so this routinely beats
    DEFLATE on those columns at several times the throughput.
``quantize{bits}``
    Error-bounded lossy quantization of float columns onto a uniform
    ``2**bits``-step grid over the column's range. The scale (and with it
    the worst-case absolute error, ``scale / 2``) is recorded in the
    column directory, so readers can surface the bound. Never chosen
    automatically — only when a build config names it explicitly.
``quantize_auto:<bound>`` (directory name ``qauto``)
    Bound-driven variant of ``quantize``: the caller supplies an absolute
    error bound and the encoder picks the *minimum* bit width (1–32) whose
    worst-case error stays under it, per region. The achieved worst-case
    bound is recorded in the directory's first parameter slot; the grid
    origin and scale travel in a 16-byte payload header so the two
    directory floats stay free for the bound.

The integer ``delta`` wire format is the historical
``np.packbits(..., bitorder="little")`` stream of each value's low
``width`` bits, so files written by earlier versions decode unchanged.
:func:`_pack_bits_le` builds it from the values' little-endian bytes
(``np.unpackbits`` → slice to ``width`` → ``np.packbits``);
:func:`_unpack_bits_le` reads it back through word-aligned uint64 lanes.

``"auto"`` selection (:func:`select_codecs`) runs no encoder. On a
deterministic strided sample of each column it computes the ``delta``
size exactly — header plus ``(n - 1) * width`` bits, ``width`` being the
bit length of the largest zigzag delta — and estimates the ``zlib`` size
from the order-0 entropy of the sample's bytes, padded by
:data:`ZLIB_ENTROPY_SLACK` and :data:`ZLIB_BLOCK_OVERHEAD` because plain
entropy is optimistic on noisy floats. The smaller wins if it beats raw
by :data:`RAW_MARGIN`. Codec choice must be a pure function of the
column bytes: the same input has to produce the same file no matter
which thread built which leaf, or when (the byte-identity invariant the
whole write path is property-tested on), so nothing here measures
wall-clock.
"""

from __future__ import annotations

import re
import struct
import zlib

import numpy as np

from .._inflate import inflate
from ..errors import CodecError

__all__ = [
    "Codec",
    "CODEC_RAW",
    "CODEC_ZLIB",
    "CODEC_DELTA",
    "available_codecs",
    "get_codec",
    "register_codec",
    "select_codecs",
    "encode_column",
    "decode_column",
]

CODEC_RAW = "raw"
CODEC_ZLIB = "zlib"
CODEC_DELTA = "delta"

#: elements sampled per column when auto-selecting (deterministic stride, no RNG)
SAMPLE_ELEMENTS = 16384
#: an encoder must beat raw by this factor on the sample to displace it
RAW_MARGIN = 0.9
#: the zlib size estimate is the sample's byte entropy times this ...
ZLIB_ENTROPY_SLACK = 1.01
#: ... plus this many bytes of Deflate block and stream overhead
ZLIB_BLOCK_OVERHEAD = 64


class Codec:
    """One column codec: a name, a loss class, and encode/decode."""

    name: str = "?"
    lossless: bool = True

    def can_encode(self, dtype: np.dtype) -> bool:
        raise NotImplementedError

    def encode(self, arr: np.ndarray) -> tuple[bytes, float, float]:
        """Return ``(payload, p0, p1)``; params land in the column directory."""
        raise NotImplementedError

    def encode_segments(self, arr: np.ndarray, starts) -> list[tuple[bytes, float, float]]:
        """Encode ``arr[starts[i]:starts[i+1]]`` for every segment.

        The base implementation is a plain loop over :meth:`encode`; codecs
        whose per-call setup dominates small segments (delta) override it to
        share work across the whole column. Must produce byte-identical
        payloads to segment-at-a-time :meth:`encode`.
        """
        return [
            self.encode(arr[int(starts[i]) : int(starts[i + 1])])
            for i in range(len(starts) - 1)
        ]

    def decode(self, buf, dtype: np.dtype, n_elems: int, p0: float, p1: float) -> np.ndarray:
        """Inverse of :meth:`encode`; returns a flat array of ``n_elems``."""
        raise NotImplementedError

    def error_bound(self, p0: float, p1: float, dtype=np.float64) -> float:
        """Worst-case absolute error of a decoded value (0 for lossless)."""
        return 0.0


class _RawCodec(Codec):
    name = CODEC_RAW
    lossless = True

    def can_encode(self, dtype):
        return True

    def encode(self, arr):
        return np.ascontiguousarray(arr).tobytes(), 0.0, 0.0

    def decode(self, buf, dtype, n_elems, p0, p1):
        return np.frombuffer(buf, dtype=dtype, count=n_elems)


class _ZlibCodec(Codec):
    name = CODEC_ZLIB
    lossless = True

    # level 4 encodes float columns 3-4x faster than the old default of 6
    # for about a 1% ratio loss, and *decode* speed is level-independent —
    # the read path never sees the difference
    def __init__(self, level: int = 4):
        self.level = int(level)

    def can_encode(self, dtype):
        return True

    def encode(self, arr):
        return zlib.compress(np.ascontiguousarray(arr).tobytes(), self.level), 0.0, 0.0

    def decode(self, buf, dtype, n_elems, p0, p1):
        return inflate(buf, n_elems * dtype.itemsize).view(dtype)


# delta payload: u8 first-value bits | u1 bit width | packed zigzag deltas
_DELTA_HEADER = struct.Struct("<QB")

_U64_1 = np.uint64(1)
_U64_6 = np.uint64(6)
_U64_63 = np.uint64(63)

#: values packed per ``_pack_bits_le`` step; a multiple of 8, so every
#: step's bit stream ends on a byte boundary and the steps concatenate
_PACK_CHUNK = 1 << 14


def _pack_bits_le(zig: np.ndarray, width: int) -> bytes:
    """Pack each value's low ``width`` bits LSB-first into a byte stream.

    Byte-identical to ``np.packbits(bit_matrix, bitorder="little")`` over
    the historical ``n × width`` bit matrix, which is what it builds: the
    values' little-endian bytes unpacked LSB-first give each value's bits
    in order, and slicing to ``width`` columns drops the high ones. Done
    :data:`_PACK_CHUNK` values at a time so the 64-byte-per-value bit
    matrix stays small.
    """
    n = int(zig.size)
    if n == 0 or width == 0:
        return b""
    lanes = np.ascontiguousarray(zig, dtype="<u8").view(np.uint8).reshape(n, 8)
    return b"".join(
        np.packbits(
            np.unpackbits(lanes[i : i + _PACK_CHUNK], axis=1, bitorder="little")[:, :width],
            bitorder="little",
        ).tobytes()
        for i in range(0, n, _PACK_CHUNK)
    )


def _unpack_bits_le(buf, offset: int, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits_le`; returns ``n`` uint64 values."""
    if n == 0 or width == 0:
        return np.zeros(n, dtype=np.uint64)
    needed = (n * width + 7) // 8
    nwords = needed // 8 + 2  # slack so words[wi + 1] is always in range
    padded = np.zeros(nwords * 8, dtype=np.uint8)
    padded[:needed] = np.frombuffer(buf, dtype=np.uint8, count=needed, offset=offset)
    words = padded.view("<u8")
    start = np.arange(n, dtype=np.uint64) * np.uint64(width)
    wi = (start >> _U64_6).astype(np.int64)
    sh = start & _U64_63
    # (x << 1) << (63 - sh) is x << (64 - sh) with both shifts in range, so
    # the sh == 0 lanes (whole value in one word) need no special case: the
    # high word's contribution self-cancels instead of tripping shift-by-64
    vals = (words[wi] >> sh) | ((words[wi + 1] << _U64_1) << (_U64_63 - sh))
    if width >= 64:
        return vals
    return vals & ((_U64_1 << np.uint64(width)) - _U64_1)


def _zigzag(vals: np.ndarray) -> np.ndarray:
    """Zigzag-map int64 deltas of ``vals`` to uint64 (wrapping arithmetic)."""
    # All arithmetic wraps mod 2**64, so the decode cumsum is exact even
    # when deltas of extreme uint64 values overflow the signed range.
    with np.errstate(over="ignore"):
        deltas = np.diff(vals)
        return ((deltas << 1) ^ (deltas >> 63)).view(np.uint64)


def _bit_width(zig: np.ndarray) -> int:
    """Bits needed for the largest zigzag delta (0 when there is none)."""
    return int(zig.max()).bit_length() if zig.size else 0


def _delta_nbytes(flat: np.ndarray) -> int:
    """Exact size of the ``delta`` payload of integer array ``flat``."""
    if flat.size == 0:
        return _DELTA_HEADER.size
    width = _bit_width(_zigzag(flat.astype(np.int64, copy=False)))
    return _DELTA_HEADER.size + ((flat.size - 1) * width + 7) // 8


class _DeltaBitpackCodec(Codec):
    """Delta + minimal-width bit-packing for integer columns."""

    name = CODEC_DELTA
    lossless = True

    def can_encode(self, dtype):
        dtype = np.dtype(dtype)
        return dtype.kind in "iu" and dtype.itemsize <= 8

    @staticmethod
    def _pack_one(vals: np.ndarray, zig: np.ndarray) -> bytes:
        first = int(vals[0].view(np.uint64))
        width = _bit_width(zig)
        header = _DELTA_HEADER.pack(first, width)
        if width == 0 or zig.size == 0:
            return header
        return header + _pack_bits_le(zig, width)

    def encode(self, arr):
        flat = np.ascontiguousarray(arr).ravel()
        if not self.can_encode(flat.dtype):
            raise CodecError(f"delta codec cannot encode dtype {flat.dtype}", codec=self.name)
        if flat.size == 0:
            return _DELTA_HEADER.pack(0, 0), 0.0, 0.0
        vals = flat.astype(np.int64, copy=False)
        return self._pack_one(vals, _zigzag(vals)), 0.0, 0.0

    def encode_segments(self, arr, starts):
        """Batched encode: one global diff/zigzag pass shared by all segments.

        Segment boundaries fall on contiguous slices of the whole-column
        delta stream (``zig[s : e - 1]`` covers exactly the in-segment
        deltas), so each payload is byte-identical to encoding the segment
        alone.
        """
        flat = np.ascontiguousarray(arr)
        if not self.can_encode(flat.dtype):
            return super().encode_segments(arr, starts)
        # row segments of a C-contiguous 2-D column ravel to contiguous
        # slices of the raveled whole, so starts just scale by the row width
        row = 1
        if flat.ndim > 1:
            row = int(np.prod(flat.shape[1:]))
            flat = flat.reshape(-1)
        vals = flat.astype(np.int64, copy=False)
        gzig = _zigzag(vals)
        out = []
        for i in range(len(starts) - 1):
            s, e = int(starts[i]) * row, int(starts[i + 1]) * row
            if e <= s:
                out.append((_DELTA_HEADER.pack(0, 0), 0.0, 0.0))
                continue
            out.append((self._pack_one(vals[s:e], gzig[s : e - 1]), 0.0, 0.0))
        return out

    def decode(self, buf, dtype, n_elems, p0, p1):
        dtype = np.dtype(dtype)
        if len(buf) < _DELTA_HEADER.size:
            raise CodecError("delta payload truncated", codec=self.name)
        first, width = _DELTA_HEADER.unpack_from(buf)
        if n_elems == 0:
            return np.empty(0, dtype=dtype)
        if width > 64:
            raise CodecError(f"delta payload corrupt: width {width}", codec=self.name)
        n_deltas = n_elems - 1
        if width == 0 or n_deltas == 0:
            zig = np.zeros(n_deltas, dtype=np.uint64)
        else:
            if len(buf) - _DELTA_HEADER.size < (n_deltas * width + 7) // 8:
                raise CodecError("delta payload truncated", codec=self.name)
            zig = _unpack_bits_le(buf, _DELTA_HEADER.size, n_deltas, width)
        deltas = ((zig >> np.uint64(1)).view(np.int64)) ^ -((zig & np.uint64(1)).view(np.int64))
        out = np.empty(n_elems, dtype=np.int64)
        out[0] = np.uint64(first).view(np.int64)
        with np.errstate(over="ignore"):
            out[1:] = np.cumsum(deltas) + out[0]
        if dtype.kind == "u":
            return out.view(np.uint64).astype(dtype, copy=False)
        return out.astype(dtype, copy=False)


class _QuantizeCodec(Codec):
    """Error-bounded lossy quantization onto a ``2**bits``-level grid."""

    lossless = False

    def __init__(self, bits: int):
        if not 1 <= bits <= 32:
            raise CodecError(f"quantize bits must be in [1, 32], got {bits}")
        self.bits = int(bits)
        self.name = f"quantize{bits}"
        self._container = (
            np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
        )

    def can_encode(self, dtype):
        return np.dtype(dtype).kind == "f"

    def encode(self, arr):
        flat = np.ascontiguousarray(arr).ravel()
        if not self.can_encode(flat.dtype):
            raise CodecError(
                f"{self.name} requires a float column, got {flat.dtype}", codec=self.name
            )
        if flat.size == 0:
            return b"", 0.0, 0.0
        lo = float(np.min(flat))
        hi = float(np.max(flat))
        levels = (1 << self.bits) - 1
        scale = (hi - lo) / levels if hi > lo else 0.0
        if scale == 0.0:
            q = np.zeros(flat.size, dtype=self._container)
        else:
            q = np.clip(
                np.rint((flat.astype(np.float64) - lo) / scale), 0, levels
            ).astype(self._container)
        return q.tobytes(), lo, scale

    def decode(self, buf, dtype, n_elems, p0, p1):
        q = np.frombuffer(buf, dtype=self._container, count=n_elems)
        return (q.astype(np.float64) * p1 + p0).astype(np.dtype(dtype), copy=False)

    def error_bound(self, p0, p1, dtype=np.float64):
        # half a quantization step, plus the rounding the decode cast into
        # the column's own float dtype can add on top
        levels = (1 << self.bits) - 1
        maxmag = max(abs(p0), abs(p0 + p1 * levels))
        finfo = np.finfo(np.dtype(dtype))
        return 0.5 * p1 + finfo.eps * maxmag + float(finfo.tiny)


# quantize_auto payload: f8 grid origin | f8 grid scale | container ints
_QAUTO_HEADER = struct.Struct("<dd")

#: bound used by the registered ``qauto`` singleton when none is supplied
QAUTO_DEFAULT_BOUND = 1e-6


class _QuantizeAutoCodec(Codec):
    """Bound-driven quantization: minimum bit width meeting a caller bound.

    Unlike ``quantize{bits}`` the wire name is always ``qauto`` and the
    directory's first parameter records the *achieved worst-case bound*
    (``error_bound`` simply returns it); the grid origin and scale live in
    a 16-byte payload header instead. The container width (1, 2, or 4
    bytes) is recovered at decode time from the payload size, so decoding
    needs no knowledge of the bound the writer was given.
    """

    name = "qauto"
    lossless = False

    def __init__(self, bound: float | None = None):
        if bound is not None and not (float(bound) > 0.0):
            raise CodecError(f"quantize_auto bound must be > 0, got {bound!r}")
        self.bound = float(bound) if bound is not None else None

    def can_encode(self, dtype):
        return np.dtype(dtype).kind == "f"

    @staticmethod
    def _worst_case(scale: float, lo: float, hi: float, dtype) -> float:
        finfo = np.finfo(np.dtype(dtype))
        maxmag = max(abs(lo), abs(hi))
        return 0.5 * scale + finfo.eps * maxmag + float(finfo.tiny)

    def encode(self, arr):
        flat = np.ascontiguousarray(arr).ravel()
        if not self.can_encode(flat.dtype):
            raise CodecError(
                f"{self.name} requires a float column, got {flat.dtype}", codec=self.name
            )
        bound = self.bound if self.bound is not None else QAUTO_DEFAULT_BOUND
        if flat.size == 0:
            return _QAUTO_HEADER.pack(0.0, 0.0), 0.0, 0.0
        lo = float(np.min(flat))
        hi = float(np.max(flat))
        span = hi - lo
        bits = None
        for b in range(1, 33):
            scale = span / ((1 << b) - 1) if span > 0 else 0.0
            if self._worst_case(scale, lo, hi, flat.dtype) <= bound:
                bits = b
                break
        if bits is None:
            raise CodecError(
                f"error bound {bound:g} unachievable for column range "
                f"[{lo:g}, {hi:g}] at <= 32 bits",
                codec=self.name,
            )
        levels = (1 << bits) - 1
        scale = span / levels if span > 0 else 0.0
        container = np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
        if scale == 0.0:
            q = np.zeros(flat.size, dtype=container)
        else:
            q = np.clip(
                np.rint((flat.astype(np.float64) - lo) / scale), 0, levels
            ).astype(container)
        achieved = self._worst_case(scale, lo, hi, flat.dtype)
        return _QAUTO_HEADER.pack(lo, scale) + q.tobytes(), achieved, 0.0

    def decode(self, buf, dtype, n_elems, p0, p1):
        if n_elems == 0:
            return np.empty(0, dtype=np.dtype(dtype))
        body = len(buf) - _QAUTO_HEADER.size
        if body < n_elems or body % n_elems:
            raise CodecError("quantize_auto payload truncated", codec=self.name)
        itemsize = body // n_elems
        if itemsize not in (1, 2, 4):
            raise CodecError(
                f"quantize_auto payload corrupt: container width {itemsize}",
                codec=self.name,
            )
        lo, scale = _QAUTO_HEADER.unpack_from(buf)
        container = {1: np.uint8, 2: np.uint16, 4: np.uint32}[itemsize]
        q = np.frombuffer(buf, dtype=container, count=n_elems, offset=_QAUTO_HEADER.size)
        return (q.astype(np.float64) * scale + lo).astype(np.dtype(dtype), copy=False)

    def error_bound(self, p0, p1, dtype=np.float64):
        return float(p0)


_REGISTRY: dict[str, Codec] = {}


def register_codec(codec: Codec) -> None:
    """Add (or replace) a codec in the global registry."""
    if not codec.name or len(codec.name.encode()) > 15:
        raise CodecError(f"codec name {codec.name!r} must be 1-15 bytes")
    _REGISTRY[codec.name] = codec


register_codec(_RawCodec())
register_codec(_ZlibCodec())
register_codec(_DeltaBitpackCodec())
for _bits in (8, 12, 16):
    register_codec(_QuantizeCodec(_bits))
register_codec(_QuantizeAutoCodec())

_QUANTIZE_RE = re.compile(r"^quantize(\d{1,2})$")
_QUANTIZE_AUTO_RE = re.compile(r"^quantize_auto:(.+)$")


def get_codec(name: str) -> Codec:
    """Look up a codec by id; ``quantize<N>`` registers itself on demand.

    ``quantize_auto:<bound>`` specs resolve to an unregistered instance
    parameterized by the bound; its wire name stays ``qauto``, which maps
    back to the registered (decode-capable) singleton.
    """
    codec = _REGISTRY.get(name)
    if codec is None:
        m = _QUANTIZE_RE.match(name)
        if m:
            codec = _QuantizeCodec(int(m.group(1)))
            register_codec(codec)
            return codec
        m = _QUANTIZE_AUTO_RE.match(name)
        if m:
            try:
                bound = float(m.group(1))
            except ValueError:
                raise CodecError(
                    f"bad quantize_auto bound in spec {name!r}", codec=name
                ) from None
            return _QuantizeAutoCodec(bound)
        if name == "quantize_auto":
            return _REGISTRY["qauto"]
        raise CodecError(f"unknown codec {name!r}", codec=name)
    return codec


def available_codecs() -> tuple[str, ...]:
    """Names of every registered codec, in registration order."""
    return tuple(_REGISTRY)


def encode_column(codec_name: str, arr: np.ndarray) -> tuple[bytes, float, float]:
    return get_codec(codec_name).encode(arr)


def decode_column(codec_name: str, buf, dtype, n_elems: int, p0: float, p1: float) -> np.ndarray:
    return get_codec(codec_name).decode(buf, np.dtype(dtype), int(n_elems), p0, p1)


def _sample(arr: np.ndarray) -> np.ndarray:
    """A deterministic strided sample of up to SAMPLE_ELEMENTS elements.

    The stride runs over the raveled column, so on a row-major ``(n, 3)``
    block whose size is ``3 * SAMPLE_ELEMENTS`` to ``4 * SAMPLE_ELEMENTS - 1``
    (a 20 000-point position block: stride 3) every sampled element is an
    ``x``.
    """
    flat = np.ascontiguousarray(arr).ravel()
    if flat.size <= SAMPLE_ELEMENTS:
        return flat
    stride = flat.size // SAMPLE_ELEMENTS
    return np.ascontiguousarray(flat[:: stride][:SAMPLE_ELEMENTS])


def _zlib_nbytes_estimate(sample: np.ndarray) -> float:
    """``zlib`` payload size of ``sample`` from its order-0 byte entropy."""
    octets = sample.reshape(-1).view(np.uint8)
    counts = np.bincount(octets)
    counts = counts[counts > 0].astype(np.float64)
    entropy_bytes = -float(np.sum(counts * np.log2(counts / octets.size))) / 8.0
    return entropy_bytes * ZLIB_ENTROPY_SLACK + ZLIB_BLOCK_OVERHEAD


def _auto_pick(arr: np.ndarray) -> str:
    """The best *lossless* codec for one column, sized on its sample.

    ``delta`` (integer columns) is sized exactly and ``zlib`` estimated; no
    encoder runs. Candidates are tried in a fixed order (``delta``, then
    ``zlib``; a tie keeps the earlier), and a winner must beat raw by
    :data:`RAW_MARGIN` on the sample or raw is kept.
    """
    sample = _sample(arr)
    raw_nbytes = sample.nbytes
    if raw_nbytes == 0:
        return CODEC_RAW
    best_name, best_nbytes = CODEC_RAW, raw_nbytes
    candidates = [(CODEC_ZLIB, _zlib_nbytes_estimate)]
    if _REGISTRY[CODEC_DELTA].can_encode(sample.dtype):
        candidates.insert(0, (CODEC_DELTA, _delta_nbytes))
    for name, size_of in candidates:
        nbytes = size_of(sample)
        if nbytes < best_nbytes:
            best_name, best_nbytes = name, nbytes
    if best_name != CODEC_RAW and best_nbytes > RAW_MARGIN * raw_nbytes:
        return CODEC_RAW
    return best_name


def select_codecs(columns: dict[str, np.ndarray], spec) -> dict[str, str]:
    """Resolve a codec spec to one concrete codec name per column.

    ``spec`` is either the string ``"auto"`` (size every column's sample,
    pick the smallest lossless codec) or a mapping of column name to codec
    name, where the value ``"auto"`` defers to sampling and the key ``"*"``
    provides a default for unnamed columns. Columns a mapping leaves
    completely unspecified stay ``raw``.
    """
    if isinstance(spec, str):
        if spec != "auto":
            raise CodecError(f"codec spec must be 'auto' or a mapping, got {spec!r}")
        mapping = {name: "auto" for name in columns}
    else:
        mapping = dict(spec)
        default = mapping.pop("*", CODEC_RAW)
        unknown = set(mapping) - set(columns)
        if unknown:
            raise CodecError(f"codec spec names unknown column(s) {sorted(unknown)}")
        mapping = {name: mapping.get(name, default) for name in columns}

    resolved: dict[str, str] = {}
    for name, arr in columns.items():
        choice = mapping[name]
        if choice == "auto":
            resolved[name] = _auto_pick(arr)
        else:
            codec = get_codec(choice)
            if not codec.can_encode(arr.dtype):
                raise CodecError(
                    f"codec {choice!r} cannot encode column {name!r} ({arr.dtype})",
                    codec=choice,
                    column=name,
                )
            # parameterized specs (quantize_auto:<bound>) keep their params;
            # the builder records the codec's wire name in the directory
            resolved[name] = choice if ":" in str(choice) else codec.name
    return resolved
