"""Tests for the pluggable per-column codec layer (BAT v4)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bat import AttributeFilter, BATBuildConfig, BATFile, build_bat
from repro.bat.codecs import (
    RAW_MARGIN,
    ZLIB_BLOCK_OVERHEAD,
    _auto_pick,
    _delta_nbytes,
    _sample,
    available_codecs,
    decode_column,
    encode_column,
    get_codec,
    select_codecs,
)
from repro.bat.format import CODEC_VERSION, LEGACY_VERSION, VERSION
from repro.bat.query import query_file
from repro.errors import CodecError, ReproError
from repro.types import Box, ParticleBatch
from repro.workloads import compressible_rank_data
from tests.reference_codec_select import auto_pick_probe


# -- registry ---------------------------------------------------------------


def test_registry_contains_core_codecs():
    names = available_codecs()
    for name in ("raw", "zlib", "delta"):
        assert name in names


def test_quantize_self_registers():
    c = get_codec("quantize10")
    assert not c.lossless
    assert "quantize10" in available_codecs()


def test_unknown_codec_raises_codec_error():
    with pytest.raises(CodecError):
        get_codec("nope")
    # CodecError is part of the unified hierarchy
    assert issubclass(CodecError, ReproError)
    assert issubclass(CodecError, ValueError)


# -- round trips ------------------------------------------------------------

_INT_DTYPES = [np.int32, np.int64, np.uint32, np.uint64, np.int16, np.uint8]
_FLOAT_DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", _INT_DTYPES)
def test_delta_round_trip_extremes(dtype):
    info = np.iinfo(dtype)
    arr = np.array([info.min, info.min, 0, 1, info.max, info.max - 1], dtype=dtype)
    buf, p0, p1 = encode_column("delta", arr)
    out = decode_column("delta", buf, dtype, len(arr), p0, p1)
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        dtype=st.sampled_from([np.int64, np.uint64, np.int32, np.float32, np.float64]),
        shape=st.integers(min_value=1, max_value=300),
    ),
    st.sampled_from(["raw", "zlib", "delta"]),
)
def test_lossless_codecs_round_trip_exactly(arr, name):
    codec = get_codec(name)
    if not codec.can_encode(arr.dtype):
        return
    buf, p0, p1 = codec.encode(arr)
    out = codec.decode(buf, arr.dtype, arr.size, p0, p1)
    assert out.tobytes() == np.ascontiguousarray(arr).ravel().tobytes()


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        dtype=st.sampled_from(_FLOAT_DTYPES),
        shape=st.integers(min_value=1, max_value=200),
        elements=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, width=32
        ),
    ),
    st.sampled_from(["quantize8", "quantize12", "quantize16"]),
)
def test_quantize_round_trip_within_recorded_bound(arr, name):
    codec = get_codec(name)
    buf, p0, p1 = codec.encode(arr)
    out = codec.decode(buf, arr.dtype, arr.size, p0, p1)
    bound = codec.error_bound(p0, p1, arr.dtype)
    err = np.max(np.abs(out.astype(np.float64) - arr.astype(np.float64)))
    assert err <= bound


def test_every_registered_codec_round_trips_a_plain_column():
    """Contract check across the whole registry, including future codecs."""
    rng = np.random.default_rng(0)
    for name in available_codecs():
        codec = get_codec(name)
        if codec.can_encode(np.dtype(np.float64)):
            arr = np.round(rng.random(512) * 100, 2)
        elif codec.can_encode(np.dtype(np.int64)):
            arr = rng.integers(0, 1000, 512).astype(np.int64)
        else:
            continue
        buf, p0, p1 = codec.encode(arr)
        out = codec.decode(buf, arr.dtype, arr.size, p0, p1)
        if codec.lossless:
            assert out.tobytes() == arr.tobytes(), name
        else:
            bound = codec.error_bound(p0, p1, arr.dtype)
            assert np.max(np.abs(out - arr)) <= bound, name


# -- selection --------------------------------------------------------------


def test_select_codecs_auto_leaves_noise_raw():
    rng = np.random.default_rng(1)
    cols = {
        "seq": np.arange(100_000, dtype=np.int64),
        "noise": rng.random(100_000),
    }
    chosen = select_codecs(cols, "auto")
    assert chosen["seq"] == "delta"
    assert chosen["noise"] == "raw"


def test_select_codecs_is_deterministic():
    rng = np.random.default_rng(2)
    cols = {"a": rng.integers(0, 50, 64_000).astype(np.int64)}
    assert select_codecs(cols, "auto") == select_codecs(cols, "auto")


def test_select_codecs_rejects_unknown_column():
    with pytest.raises(CodecError):
        select_codecs({"a": np.arange(4)}, {"b": "zlib"})


def test_select_codecs_explicit_mapping_with_default():
    cols = {"a": np.arange(64, dtype=np.int64), "b": np.arange(64, dtype=np.int64)}
    chosen = select_codecs(cols, {"*": "raw", "a": "zlib"})
    assert chosen == {"a": "zlib", "b": "raw"}


# -- selection without trial encodes ----------------------------------------

_ALL_INT_DTYPES = ["i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8"]


def _extremes(dtype) -> list:
    info = np.iinfo(dtype)
    return [info.min, info.max, 0, info.max, info.min, 1, info.min]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_ALL_INT_DTYPES).flatmap(
        lambda dt: hnp.arrays(dtype=np.dtype(dt), shape=st.integers(0, 300))
    )
)
@example(np.zeros(0, dtype=np.uint64))
@example(np.array([7], dtype=np.int8))
@example(np.array([2**64 - 1, 0], dtype=np.uint64))
@example(np.array([-(2**63), 2**63 - 1], dtype=np.int64))
def test_delta_size_formula_is_the_encoded_size(arr):
    assert _delta_nbytes(arr) == len(get_codec("delta").encode(arr)[0])


@pytest.mark.parametrize("dtype", _ALL_INT_DTYPES)
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_delta_size_formula_at_dtype_extremes(dtype, n):
    """Extreme values wrap their int64 deltas; every prefix length is exact."""
    arr = np.array(_extremes(dtype)[:n], dtype=dtype)
    assert _delta_nbytes(arr) == len(get_codec("delta").encode(arr)[0])


def _compressible_file_columns(monkeypatch, seed: int) -> list[dict]:
    """The whole-file columns ``build_bat`` hands to selection, per leaf."""
    import repro.bat.builder as builder

    seen: list[dict] = []

    def record(columns, spec):
        seen.append(dict(columns))
        return select_codecs(columns, spec)

    monkeypatch.setattr(builder, "select_codecs", record)
    # the benchmark's D_main geometry: 32 ranks of 20 000 particles, one
    # rank per leaf, so the position block is sampled at stride 3 and the
    # attribute columns at stride 1
    batches = compressible_rank_data(32, 20_000, seed=seed).batches
    for rank in (0, 9, 22, 31):
        build_bat(batches[rank], BATBuildConfig(codecs="auto"))
    return seen


@pytest.mark.parametrize("seed", [0, 1])
def test_picks_equal_the_trial_encode_reference_on_compressible_leaves(monkeypatch, seed):
    files = _compressible_file_columns(monkeypatch, seed)
    assert len(files) == 4
    for columns in files:
        for name, arr in columns.items():
            assert _auto_pick(arr) == auto_pick_probe(arr), name


def test_compressible_codec_table_is_pinned():
    """The table ``compressible_rank_data`` was built to produce."""
    batch = compressible_rank_data(32, 20_000, seed=0).batches[5]
    built = build_bat(batch, BATBuildConfig(codecs="auto"))
    assert built.codec_table == {
        "nodes": "zlib",
        "positions": "zlib",
        "temp": "zlib",
        "id": "delta",
        "species": "delta",
        "rho": "raw",
    }


#: how far apart two picks may be when the estimate and the probe disagree
#: on an i.i.d. random column, sized as the file would hold them: each
#: codec's own encode of the sample (``zlib`` at the codec's level, not
#: the probe's level 1; raw counts as ``RAW_MARGIN * raw``, the size it
#: must be beaten by); on columns of a few hundred bytes the estimate's
#: fixed block overhead decides instead
NEAR_TIE = 0.02


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40_000),
    kind=st.sampled_from(["int", "float", "grid"]),
    dtype_ix=st.integers(0, 7),
    bits=st.integers(1, 63),
    exp=st.integers(-3, 6),
)
# a two-valued int16 column: the estimate ties zlib with delta (296.9 against
# 297 B) and picks zlib, which writes 291 B; the probe's level-1 zlib is 381 B
@example(seed=658, n=1150, kind="int", dtype_ix=2, bits=1, exp=0)
def test_disagreements_with_the_reference_are_near_ties(seed, n, kind, dtype_ix, bits, exp):
    """On i.i.d. columns the estimate only differs from the probe on a near tie.

    Random integers of a random bit range (any dtype, wrapping), uniform
    floats of a random scale and offset, and floats on a power-of-two grid.
    """
    rng = np.random.default_rng(seed)
    if kind == "int":
        offset = rng.integers(0, 2**63, dtype=np.uint64)
        with np.errstate(over="ignore"):
            words = rng.integers(0, 2**bits, n, dtype=np.uint64) + offset
        col = words.astype(_ALL_INT_DTYPES[dtype_ix])
    else:
        ftype = np.float32 if dtype_ix % 2 else np.float64
        if kind == "float":
            col = rng.random(n) * 10.0**exp + rng.normal() * 10.0 ** (exp - dtype_ix)
        else:
            col = np.floor(rng.random(n) * 2.0 ** (bits % 24 + 1)) / 2.0 ** (exp + 3)
        col = col.astype(ftype)
    new, ref = _auto_pick(col), auto_pick_probe(col)
    if new == ref:
        return
    sample = _sample(col)

    def measured(name):
        return RAW_MARGIN * sample.nbytes if name == "raw" else len(encode_column(name, sample)[0])

    slack = NEAR_TIE * measured(ref) + ZLIB_BLOCK_OVERHEAD
    assert measured(new) <= measured(ref) + slack, (new, ref)


# -- file-level behavior ----------------------------------------------------


def _batch(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3)).astype(np.float32)
    return ParticleBatch(
        pos,
        {
            "id": np.arange(n, dtype=np.int64),
            "rho": rng.random(n),
        },
    )


def test_v4_build_queries_byte_identical_to_v3(tmp_path):
    """One batch built as v2, v3 and v4 answers every query byte-identically."""
    batch = _batch()
    builds = {
        LEGACY_VERSION: BATBuildConfig(checksums=False),
        VERSION: BATBuildConfig(),
        CODEC_VERSION: BATBuildConfig(codecs="auto"),
    }
    files = []
    for version, cfg in builds.items():
        path = tmp_path / f"a{version}.bat"
        path.write_bytes(build_bat(batch, cfg).data)
        files.append(BATFile(path))
        assert files[-1].header.version == version
    try:
        for kwargs in (
            dict(quality=1.0),
            dict(quality=0.4),
            dict(quality=0.7, prev_quality=0.3),
            dict(quality=1.0, filters=(AttributeFilter("rho", 0.2, 0.6),)),
            dict(quality=1.0, box=Box((0.1, 0.1, 0.1), (0.6, 0.6, 0.6))),
        ):
            answers = [query_file(f, **kwargs)[0] for f in files]
            assert len(answers[0]) > 0
            assert len({a.digest() for a in answers}) == 1, kwargs
    finally:
        for f in files:
            f.close()


def test_v2_files_still_readable(tmp_path):
    batch = _batch(seed=3)
    v2 = build_bat(batch, BATBuildConfig(checksums=False))
    p = tmp_path / "legacy.bat"
    p.write_bytes(v2.data)
    with BATFile(p) as f:
        assert f.header.version == LEGACY_VERSION
        b, _ = query_file(f, quality=1.0)
        assert len(b) == len(batch)


def test_lazy_decode_skips_unselected_columns(tmp_path):
    batch = _batch(seed=4)
    built = build_bat(batch, BATBuildConfig(codecs="auto"))
    p = tmp_path / "lazy.bat"
    p.write_bytes(built.data)
    with BATFile(p) as f:
        full_raw = sum(c["raw_nbytes"] for c in f.column_summary().values())
        query_file(f, quality=1.0, attributes=["id"])
        assert 0 < f.decoded_bytes < full_raw
        decoded_after_one = f.decoded_bytes
        query_file(f, quality=1.0)
        assert f.decoded_bytes > decoded_after_one


def test_codec_table_and_sizes_in_summary(tmp_path):
    batch = _batch(seed=5)
    built = build_bat(batch, BATBuildConfig(codecs="auto"))
    assert built.codec_table["id"] == "delta"
    assert built.payload_encoded_bytes < built.payload_raw_bytes
    p = tmp_path / "sum.bat"
    p.write_bytes(built.data)
    with BATFile(p) as f:
        summary = f.column_summary()
        assert summary["id"]["codec"] == "delta"
        assert summary["id"]["enc_nbytes"] < summary["id"]["raw_nbytes"]
        assert summary["rho"]["error_bound"] == 0.0


def test_lossy_bound_recorded_and_honored(tmp_path):
    batch = _batch(seed=6)
    built = build_bat(batch, BATBuildConfig(codecs={"*": "raw", "rho": "quantize12"}))
    p = tmp_path / "lossy.bat"
    p.write_bytes(built.data)
    with BATFile(p) as f:
        bound = f.column_summary()["rho"]["error_bound"]
        assert bound > 0
        got, _ = query_file(f, quality=1.0)
    # file order differs from input order; sorting both sides preserves the
    # per-element error bound (sorting is 1-Lipschitz in the max norm)
    ref = batch.attributes["rho"]
    assert np.max(np.abs(np.sort(got.attributes["rho"]) - np.sort(ref))) <= bound


def test_codecs_require_checksums():
    with pytest.raises(ValueError):
        BATBuildConfig(codecs="auto", checksums=False)


def test_corrupt_v4_treelet_detected(tmp_path):
    from repro.bat.integrity import scrub_file

    batch = _batch(seed=7)
    built = build_bat(batch, BATBuildConfig(codecs="auto"))
    p = tmp_path / "corrupt.bat"
    p.write_bytes(built.data)
    with BATFile(p) as f:
        off = int(f.shallow_leaves["treelet_offset"][0])
    # flip a byte inside the first treelet (column directory or payload):
    # the v4 directory sits under the same per-treelet CRC as the payload
    raw = bytearray(built.data)
    raw[off + 20] ^= 0xFF
    p.write_bytes(bytes(raw))
    report = scrub_file(p)
    assert not report.ok
    assert any("treelet" in s for s in report.bad_sections)
