"""Property tests for the word-aligned bit-packing kernels and qauto.

The v4 ``delta`` wire format predates the vectorized kernels, so the
kernels must stay byte-identical to the historical per-bit matrix
(``np.packbits(..., bitorder="little")``) at every width — that identity
is what lets files written by earlier versions decode unchanged. These
tests pin it with a reference implementation, drive the kernels through
hypothesis at the dtype extremes (uint64-max deltas, widths 0/1/64,
empty and single-element columns), and property-test that
``quantize_auto`` never exceeds the caller's error bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.codecs import (
    _DELTA_HEADER,
    _PACK_CHUNK,
    _pack_bits_le,
    _unpack_bits_le,
    _zigzag,
    get_codec,
)
from repro.errors import CodecError


def reference_pack(zig: np.ndarray, width: int) -> bytes:
    """The historical n x width bit-matrix packer the kernels replaced."""
    if width == 0 or zig.size == 0:
        return b""
    bits = (
        (zig[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def masked(values: list[int], width: int) -> np.ndarray:
    arr = np.array(values, dtype=np.uint64)
    if width < 64:
        arr &= (np.uint64(1) << np.uint64(width)) - np.uint64(1)
    return arr


class TestPackKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 64),
        values=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=300),
    )
    def test_byte_identical_to_reference_packer(self, width, values):
        zig = masked(values, width)
        assert _pack_bits_le(zig, width) == reference_pack(zig, width)

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 64),
        values=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=300),
    )
    def test_round_trip(self, width, values):
        zig = masked(values, width)
        packed = _pack_bits_le(zig, width)
        out = _unpack_bits_le(packed, 0, zig.size, width)
        np.testing.assert_array_equal(out, zig)

    @pytest.mark.parametrize("width", [1, 63, 64])
    def test_all_ones_at_extreme_widths(self, width):
        zig = masked([2**64 - 1] * 129, width)
        packed = _pack_bits_le(zig, width)
        assert packed == reference_pack(zig, width)
        np.testing.assert_array_equal(
            _unpack_bits_le(packed, 0, zig.size, width), zig
        )

    @pytest.mark.parametrize("width", [1, 7, 13, 64])
    def test_packed_chunks_concatenate(self, width):
        """Past one ``_PACK_CHUNK`` the per-chunk streams join seamlessly."""
        rng = np.random.default_rng(width)
        zig = masked(
            rng.integers(0, 2**64, 2 * _PACK_CHUNK + 5, dtype=np.uint64).tolist(), width
        )
        packed = _pack_bits_le(zig, width)
        assert packed == reference_pack(zig, width)
        np.testing.assert_array_equal(_unpack_bits_le(packed, 0, zig.size, width), zig)

    def test_empty_and_width_zero(self):
        assert _pack_bits_le(np.zeros(0, dtype=np.uint64), 7) == b""
        assert _unpack_bits_le(b"", 0, 0, 7).size == 0
        assert _unpack_bits_le(b"", 0, 0, 0).size == 0
        np.testing.assert_array_equal(
            _unpack_bits_le(b"\x00", 0, 3, 0), np.zeros(3, dtype=np.uint64)
        )

    def test_unpack_reads_at_offset(self):
        zig = masked([5, 6, 7, 1023], 10)
        buf = b"\xaa\xbb\xcc" + _pack_bits_le(zig, 10)
        np.testing.assert_array_equal(_unpack_bits_le(buf, 3, 4, 10), zig)


#: columns that stress the delta path's 64-bit wrapping arithmetic
EXTREME_COLUMNS = [
    np.array([], dtype=np.uint64),
    np.array([0], dtype=np.uint64),
    np.array([2**64 - 1], dtype=np.uint64),
    np.array([0, 2**64 - 1], dtype=np.uint64),  # max positive delta
    np.array([2**64 - 1, 0], dtype=np.uint64),  # max negative delta
    np.array([0, 2**64 - 1, 0, 2**64 - 1, 1], dtype=np.uint64),
    np.array([2**63 - 1, -(2**63), 2**63 - 1], dtype=np.int64),
    np.array([-(2**63), 2**63 - 1], dtype=np.int64),
    np.array([7] * 100, dtype=np.uint32),  # width-0 deltas
    np.arange(1000, dtype=np.uint16),  # width-1 deltas
]


class TestDeltaCodecExtremes:
    @pytest.mark.parametrize("col", EXTREME_COLUMNS, ids=range(len(EXTREME_COLUMNS)))
    def test_round_trip(self, col):
        codec = get_codec("delta")
        payload, p0, p1 = codec.encode(col)
        out = codec.decode(payload, col.dtype, col.size, p0, p1)
        np.testing.assert_array_equal(out, col)

    @pytest.mark.parametrize("col", EXTREME_COLUMNS, ids=range(len(EXTREME_COLUMNS)))
    def test_payload_matches_legacy_encoder(self, col):
        """Payloads written by the pre-kernel encoder decode unchanged."""
        codec = get_codec("delta")
        payload, _, _ = codec.encode(col)
        if col.size == 0:
            assert payload == _DELTA_HEADER.pack(0, 0)
            return
        vals = col.astype(np.int64, copy=False)
        zig = _zigzag(vals)
        width = int(zig.max()).bit_length() if zig.size else 0
        legacy = _DELTA_HEADER.pack(int(vals[0].view(np.uint64)), width)
        if width and zig.size:
            legacy += reference_pack(zig, width)
        assert payload == legacy
        out = codec.decode(legacy, col.dtype, col.size, 0.0, 0.0)
        np.testing.assert_array_equal(out, col)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=200),
    )
    def test_round_trip_random_uint64(self, values):
        col = np.array(values, dtype=np.uint64)
        codec = get_codec("delta")
        payload, p0, p1 = codec.encode(col)
        out = codec.decode(payload, col.dtype, col.size, p0, p1)
        np.testing.assert_array_equal(out, col)

    def test_decode_accepts_memoryview(self):
        col = np.arange(37, dtype=np.int64) * 13
        codec = get_codec("delta")
        payload, _, _ = codec.encode(col)
        out = codec.decode(memoryview(payload), col.dtype, col.size, 0.0, 0.0)
        np.testing.assert_array_equal(out, col)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=400),
        cuts=st.lists(st.integers(0, 400), min_size=0, max_size=6),
    )
    def test_encode_segments_identical_to_per_segment_encode(self, values, cuts):
        col = np.array(values, dtype=np.int64)
        starts = np.array(sorted([0, *[min(c, col.size) for c in cuts], col.size]))
        codec = get_codec("delta")
        batched = codec.encode_segments(col, starts)
        singles = [
            codec.encode(col[int(starts[i]) : int(starts[i + 1])])
            for i in range(len(starts) - 1)
        ]
        assert batched == singles

    def test_encode_segments_multidim_rows(self):
        col = (np.arange(60, dtype=np.uint32) * 7).reshape(20, 3)
        starts = np.array([0, 4, 4, 11, 20])
        codec = get_codec("delta")
        batched = codec.encode_segments(col, starts)
        singles = [
            codec.encode(col[int(starts[i]) : int(starts[i + 1])])
            for i in range(len(starts) - 1)
        ]
        assert batched == singles


class TestQuantizeAuto:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
            min_size=1,
            max_size=300,
        ),
        bound_exp=st.integers(-6, 2),
    )
    def test_caller_bound_respected(self, values, bound_exp):
        col = np.array(values, dtype=np.float64)
        bound = 10.0**bound_exp
        codec = get_codec(f"quantize_auto:{bound}")
        try:
            payload, p0, p1 = codec.encode(col)
        except CodecError:
            # bound unachievable at <= 32 bits for this range: legal outcome
            return
        out = codec.decode(payload, col.dtype, col.size, p0, p1)
        err = float(np.max(np.abs(out - col))) if col.size else 0.0
        # recorded p0 is the achieved worst-case bound; both orderings hold
        assert err <= p0 <= bound

    def test_decodes_through_registered_singleton(self):
        col = np.linspace(250.0, 350.0, 97)
        payload, p0, p1 = get_codec("quantize_auto:0.5").encode(col)
        out = get_codec("qauto").decode(payload, col.dtype, col.size, p0, p1)
        assert float(np.max(np.abs(out - col))) <= p0 <= 0.5

    def test_tighter_bound_spends_more_bits(self):
        col = np.linspace(0.0, 1.0, 1000)
        loose, _, _ = get_codec("quantize_auto:0.1").encode(col)
        tight, _, _ = get_codec("quantize_auto:1e-6").encode(col)
        assert len(tight) > len(loose)

    def test_unachievable_bound_raises(self):
        col = np.array([0.0, 1e30])
        with pytest.raises(CodecError):
            get_codec("quantize_auto:1e-12").encode(col)

    def test_constant_column_is_exact(self):
        col = np.full(64, 3.25)
        payload, p0, p1 = get_codec("quantize_auto:1e-9").encode(col)
        out = get_codec("qauto").decode(payload, col.dtype, col.size, p0, p1)
        np.testing.assert_array_equal(out, col)
