"""Ablations over the §VII layout extensions.

The paper's §VII names compression/quantization ("would reduce memory use
further") and advanced binning schemes as future work; these benchmarks
quantify what each buys on realistic data:

- file size: plain vs quantized vs compressed vs both, against the raw
  payload (quantization and compression are the v4 column codecs
  ``quantize16`` and ``zlib``);
- query cost: equi-width vs equi-depth bitmap pruning on a skewed,
  spatially correlated attribute;
- read cost: compressed columns trade file size for decompression time.
"""

import time

import numpy as np

from benchmarks.paper import format_table
from conftest import emit
from repro.bat import AttributeFilter, BATBuildConfig, BATFile, build_bat
from repro.bat.query import query_file
from repro.types import ParticleBatch
from repro.workloads import CoalBoiler

N = 400_000

#: the §VII space extensions as v4 column-codec specs
QUANTIZED = BATBuildConfig(codecs={"positions": "quantize16", "*": "raw"})
COMPRESSED = BATBuildConfig(codecs={"*": "zlib"})
QUANT_COMP = BATBuildConfig(codecs={"positions": "quantize16", "*": "zlib"})


def _boiler_batch():
    return CoalBoiler().sample(3501, N)


def test_size_ablation():
    batch = _boiler_batch()
    rows = []
    for label, cfg in (
        ("plain", BATBuildConfig()),
        ("quantized", QUANTIZED),
        ("compressed", COMPRESSED),
        ("quant+comp", QUANT_COMP),
    ):
        built = build_bat(batch, cfg)
        with BATFile.from_bytes(built.data) as f:
            pos = f.column_summary()["positions"]["enc_nbytes"]
        rows.append((label, built.nbytes, built.raw_bytes, pos))
    raw = rows[0][2]
    emit(
        format_table(
            ["variant", "file MB", "overhead vs raw"],
            [[l, f"{n / 1e6:.1f}", f"{n / raw - 1:+.1%}"] for l, n, _, _ in rows],
            title=f"Layout-size ablation (Coal Boiler sample, {N:,} particles, raw {raw / 1e6:.1f} MB)",
        )
    )
    sizes = {l: n for l, n, _, _ in rows}
    assert sizes["quantized"] < sizes["plain"]
    assert sizes["compressed"] < sizes["plain"]
    assert sizes["quant+comp"] < min(sizes["quantized"], sizes["compressed"])
    # quantization alone removes 6 B/particle of the 12 B positions (the
    # whole-file difference is a little less: the v4 column directory)
    pos = {l: p for l, _, _, p in rows}
    assert pos["plain"] - pos["quantized"] == 6 * N


def test_binning_ablation():
    """Equi-depth bins prune a bottom-tail query on skewed data far better.

    The indexed attribute must be both *skewed* (to defeat equi-width bins)
    and *spatially coherent* (the paper's stated requirement for bitmap
    pruning, §VII); we use an exponential function of particle height, the
    shape of e.g. reaction-progress variables.
    """

    base = _boiler_batch()
    z = base.positions[:, 2].astype(np.float64)
    znorm = (z - z.min()) / max(z.max() - z.min(), 1e-9)
    rng = np.random.default_rng(7)
    progress = np.exp(6.0 * znorm) * (1.0 + 0.02 * rng.normal(size=len(z)))
    batch = ParticleBatch(base.positions, {"progress": progress})
    cut = float(np.quantile(progress, 0.1))
    out = {}
    for label, cfg in (
        ("equiwidth", BATBuildConfig()),
        ("equidepth", BATBuildConfig(attribute_binning="equidepth")),
    ):
        built = build_bat(batch, cfg)
        with built.open() as f:
            res, st = query_file(f, filters=[AttributeFilter("progress", 0.0, cut)])
            out[label] = (len(res), st.points_tested, st.pruned_bitmap)
    expected = int((progress <= cut).sum())
    emit(
        format_table(
            ["binning", "matched", "tested", "pruned subtrees"],
            [[l, m, t, p] for l, (m, t, p) in out.items()],
            title="Bitmap-binning ablation: bottom-decile progress query",
        )
    )
    for matched, _, _ in out.values():
        assert matched == expected
    assert out["equidepth"][1] < 0.8 * out["equiwidth"][1]


def test_compression_read_cost():
    """Compressed columns cost decompression on first touch, then cache."""

    batch = _boiler_batch()
    out = {}
    for label, cfg in (("plain", BATBuildConfig()), ("compressed", COMPRESSED)):
        built = build_bat(batch, cfg)
        with built.open() as f:
            t0 = time.perf_counter()
            query_file(f, quality=1.0)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            query_file(f, quality=1.0)
            warm = time.perf_counter() - t0
        out[label] = (cold, warm)
    emit(
        format_table(
            ["variant", "cold read ms", "warm read ms"],
            [[l, f"{c * 1e3:.1f}", f"{w * 1e3:.1f}"] for l, (c, w) in out.items()],
            title="Compressed-column read cost (full-quality sweep)",
        )
    )
    # decompression makes the first touch slower; the cache hides it after
    assert out["compressed"][0] > out["plain"][0]
    assert out["compressed"][1] < out["compressed"][0]
