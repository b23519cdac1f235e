"""The one zlib inflate kernel, ``repro._inflate``.

Every test runs under both kernels: the system's libdeflate (skipped
where it is not installed) and the ``zlib`` fallback, forced by clearing
the module's handle. Either must read every zlib payload the writer
makes (the v4 ``zlib`` columns, a legacy compressed treelet) to the same
read-only arrays as ``zlib.decompress``, turn every bad payload into a
:class:`~repro.errors.CodecError`, and leave the pinned read counters
and result bytes of ``tests/test_read_counters.py`` where they are.
"""

import ctypes
import ctypes.util
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import _inflate
from repro.bat import BATFile
from repro.bat.codecs import decode_column
from repro.bat.file import _TREELET_HEADER
from repro.errors import CodecError
from tests.test_read_counters import PINNED, dataset, observe


@pytest.fixture(params=["libdeflate", "zlib"])
def kernel(request, monkeypatch):
    if request.param == "zlib":
        monkeypatch.setattr(_inflate, "_libdeflate", None)
    elif _inflate._libdeflate is None:
        pytest.skip("libdeflate is not installed: only the zlib fallback runs")
    assert _inflate.kernel() == request.param
    return request.param


def leaf_files(meta):
    return sorted(Path(meta).parent.glob("*.bat"))


@pytest.fixture(scope="module")
def v4_payloads(tmp_path_factory):
    """``(payload, dtype, count, p0, p1)`` of every zlib column of the
    pinned v4 ``codecs="auto"`` dataset, the payloads copied out."""
    meta = dataset(tmp_path_factory.mktemp("v4"), 4)
    out = []
    for path in leaf_files(meta):
        with BATFile(path) as f:
            for leaf in range(len(f.shallow_leaves)):
                d = f.treelet(leaf).column_dir
                for slot, codec in enumerate(d.codecs):
                    if codec == "zlib":
                        out.append((
                            bytes(d.buf[d.starts[slot] : d.starts[slot + 1]]),
                            f._slot_dtypes[slot], d.counts[slot], d.p0[slot], d.p1[slot],
                        ))
    assert {dt.kind for _, dt, *_ in out} >= {"V", "f"}  # node records and floats
    return out


@pytest.fixture(scope="module")
def legacy_treelets(tmp_path_factory):
    """``(leaf file, leaf, zlib stream, raw_nbytes)`` of every treelet of
    the pinned one-zlib-stream-per-treelet image (v2qc)."""
    meta = dataset(tmp_path_factory.mktemp("v2qc"), "v2qc")
    out = []
    for path in leaf_files(meta):
        with BATFile(path) as f:
            assert f.compressed and not f.column_encoded
            for leaf, rec in enumerate(f.shallow_leaves):
                off, nbytes = int(rec["treelet_offset"]), int(rec["treelet_nbytes"])
                raw_nbytes = _TREELET_HEADER.unpack_from(f._buf, off)[3]
                out.append((path, leaf, bytes(f._buf[off + _TREELET_HEADER.size : off + nbytes]),
                            raw_nbytes))
    return out


def same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable and not want.flags.writeable


def test_v4_zlib_columns_decode_as_zlib_does(kernel, v4_payloads):
    for payload, dtype, count, p0, p1 in v4_payloads:
        want = np.frombuffer(zlib.decompress(payload), dtype=dtype, count=count)
        same_array(decode_column("zlib", memoryview(payload), dtype, count, p0, p1), want)


def test_legacy_treelets_inflate_as_zlib_does(kernel, legacy_treelets):
    for path, leaf, stream, raw_nbytes in legacy_treelets:
        same_array(
            _inflate.inflate(memoryview(stream), raw_nbytes),
            np.frombuffer(zlib.decompress(stream), dtype=np.uint8),
        )
        # a treelet's columns are read-only views of the inflated payload,
        # but for dequantized positions, a fresh array
        with BATFile(path) as f:
            for slot in range(len(f.treelet(leaf).column_dir.codecs)):
                fresh = slot == 1 and f.quantized
                assert f._decode_slot(leaf, slot).flags.writeable == fresh


@pytest.mark.parametrize(
    "fault",
    ["truncated", "half", "empty", "garbage", "bad_adler", "short_size", "long_size", "zero_size"],
)
def test_bad_payload_is_a_codec_error(kernel, v4_payloads, fault):
    payload, dtype, count, *_ = max(v4_payloads, key=lambda p: len(p[0]))
    nbytes = count * dtype.itemsize
    stream = {
        "truncated": payload[:-4],
        "half": payload[: len(payload) // 2],
        "empty": b"",
        "garbage": np.random.default_rng(0).bytes(len(payload)),
        "bad_adler": payload[:-1] + bytes([payload[-1] ^ 0xFF]),
    }.get(fault, payload)
    nbytes += {"short_size": -1, "long_size": 1, "zero_size": -nbytes}.get(fault, 0)
    with pytest.raises(CodecError) as exc:
        _inflate.inflate(memoryview(stream), nbytes)
    assert exc.value.codec == "zlib"


@pytest.mark.parametrize("version", [4, "v2qc"])
def test_read_counters_stay_pinned(kernel, version, tmp_path):
    assert observe(dataset(tmp_path, version)) == PINNED[version]


class TestSelection:
    """The only selection is whether libdeflate is there and loads."""

    def test_no_library_found_means_zlib(self, monkeypatch):
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert _inflate._load() is None

    @pytest.mark.parametrize("error", [OSError, AttributeError])
    def test_a_library_that_will_not_load_means_zlib(self, monkeypatch, error):
        def refuse(*_):
            raise error("refused")

        monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libdeflate.so.0")
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert _inflate._load() is None
