"""Tests for the §VII BAT extensions: quantization, compression,
equi-depth binning, and in-memory (in-transit) access.

The builder writes quantization and compression as v4 column codecs
(``tests/test_codecs.py``); the legacy header-flag layouts are read from
pinned images here."""

from pathlib import Path

import numpy as np
import pytest

from repro.bat import AttributeFilter, BATBuildConfig, BATFile, build_bat
from repro.bat.query import query_file
from repro.errors import IntegrityError
from repro.types import Box, ParticleBatch
from tests.test_read_counters import LEGACY, legacy_copy, write_legacy_particles

N = 40_000


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(21)
    pos = (rng.random((N, 3)) * np.array([3.0, 2.0, 1.0])).astype(np.float32)
    return ParticleBatch(
        pos,
        {
            "skew": np.exp(rng.normal(0.0, 2.0, N)),  # log-normal
            "u": rng.random(N),
        },
    )


def roundtrip(batch, cfg, tmp_path, name):
    built = build_bat(batch, cfg)
    p = tmp_path / f"{name}.bat"
    built.write(p)
    return built, BATFile(p)


def leaf_files(meta):
    return sorted(meta.parent.glob("*.bat"))


def treelet_bytes(meta) -> int:
    """Treelet block bytes of a dataset (page padding excluded)."""
    total = 0
    for path in leaf_files(meta):
        with BATFile(path) as f:
            total += int(f.shallow_leaves["treelet_nbytes"].sum())
    return total


def read_all(meta):
    """Every leaf file's full read, concatenated in file order."""
    parts = []
    for path in leaf_files(meta):
        with BATFile(path) as f:
            parts.append(query_file(f)[0])
    return ParticleBatch.concatenate(parts)


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """The pinned legacy-flag images and a fresh raw v3 write of their
    particles (``tests/test_read_counters.py`` documents both)."""
    out = tmp_path_factory.mktemp("legacy")
    metas = {key: legacy_copy(out, key) for key in LEGACY}
    metas["raw"] = Path(write_legacy_particles(out / "raw"))
    return metas


class TestQuantizedPositions:
    """Header flag bit 0, read from the pinned ``v3q`` image."""

    def test_flag_recorded(self, images):
        for path in leaf_files(images["v3q"]):
            with BATFile(path) as f:
                assert f.quantized and not f.compressed

    def test_smaller_file(self, images):
        # positions shrink from 12 to 6 bytes/particle
        n = len(read_all(images["raw"]))
        assert treelet_bytes(images["raw"]) - treelet_bytes(images["v3q"]) == 6 * n

    def test_positions_accurate_to_quantum(self, images):
        res, raw = read_all(images["v3q"]), read_all(images["raw"])
        assert len(res) == len(raw)
        # worst case error: one treelet extent / 65535; treelets cover a
        # small fraction of the domain, so 1e-4 absolute is generous
        a = np.sort(res.positions, axis=0)
        b = np.sort(raw.positions, axis=0)
        assert 0 < np.abs(a - b).max() < 1e-4

    def test_attributes_lossless(self, images):
        res, raw = read_all(images["v3q"]), read_all(images["raw"])
        for name in raw.attributes:
            np.testing.assert_array_equal(res.attributes[name], raw.attributes[name])

    def test_spatial_query_consistent_with_decoded_positions(self, images):
        box = Box((0.1, 0.2, 0.2), (0.7, 0.6, 0.8))
        for path in leaf_files(images["v3q"]):
            with BATFile(path) as f:
                full, _ = query_file(f)
                res, _ = query_file(f, box=box)
                assert len(res) == box.contains_points(full.positions).sum() > 0
                assert box.contains_points(res.positions).all()


class TestCompressedTreelets:
    """Header flag bit 1, read from the pinned ``v3c`` and ``v2qc`` images."""

    def test_flag_and_roundtrip(self, images):
        for path in leaf_files(images["v3c"]):
            with BATFile(path) as f:
                assert f.compressed and not f.quantized
        assert read_all(images["v3c"]).digest() == read_all(images["raw"]).digest()

    def test_compression_shrinks_file(self, images):
        assert treelet_bytes(images["v3c"]) < treelet_bytes(images["raw"])

    def test_queries_on_compressed(self, images):
        temp = read_all(images["raw"]).attributes["temp"]
        flt = [AttributeFilter("temp", 281.125, 290.125)]
        got = 0
        for path in leaf_files(images["v3c"]):
            with BATFile(path) as f:
                got += len(query_file(f, filters=flt)[0])
        assert got == ((temp >= 281.125) & (temp <= 290.125)).sum() > 0

    def test_combined_with_quantization(self, images):
        for path in leaf_files(images["v2qc"]):
            with BATFile(path) as f:
                assert f.quantized and f.compressed and not f.checksummed
        assert read_all(images["v2qc"]).digest() == read_all(images["v3q"]).digest()
        # the combination gives the smallest treelets
        assert treelet_bytes(images["v2qc"]) < treelet_bytes(images["v3c"])

    def test_corrupted_compressed_treelet_detected(self, images):
        # damage a compressed payload: inflating must fail loudly, as an
        # IntegrityError naming the treelet, rather than return garbage
        data = bytearray(leaf_files(images["v2qc"])[0].read_bytes())
        with BATFile.from_bytes(bytes(data)) as ref:
            off = int(ref.shallow_leaves[0]["treelet_offset"])
        data[off + 16 + 10] ^= 0xFF
        with BATFile.from_bytes(bytes(data)) as bad:
            with pytest.raises(IntegrityError, match="treelet 0"):
                bad.treelet(0)


class TestEquiDepthBitmaps:
    def test_binning_recorded(self, batch, tmp_path):
        cfg = BATBuildConfig(attribute_binning="equidepth")
        _, f = roundtrip(batch, cfg, tmp_path, "ed")
        with f:
            from repro.binning import EquiDepthBinning

            assert isinstance(f.binnings["skew"], EquiDepthBinning)

    def test_invalid_binning_name(self):
        with pytest.raises(ValueError):
            BATBuildConfig(attribute_binning="magic")

    def test_filters_exact(self, batch, tmp_path):
        cfg = BATBuildConfig(attribute_binning="equidepth")
        _, f = roundtrip(batch, cfg, tmp_path, "edf")
        with f:
            s = batch.attributes["skew"]
            for lo, hi in ((0.0, 1.0), (50.0, 1e9), (0.5, 2.0)):
                res, _ = query_file(f, filters=[AttributeFilter("skew", lo, hi)])
                assert len(res) == ((s >= lo) & (s <= hi)).sum()

    def test_better_pruning_on_skewed_tail_query(self, tmp_path):
        """A top-of-distribution query on a spatially correlated, skewed
        attribute prunes far better with quantile bins."""
        rng = np.random.default_rng(5)
        pos = rng.random((N, 3)).astype(np.float32)
        skew = np.exp(6.0 * pos[:, 0].astype(np.float64))  # correlated + skewed
        batch = ParticleBatch(pos, {"s": skew})
        # bottom decile: a single equi-width bin swallows ~40% of the
        # values here, while quantile bins stay selective
        cut = float(np.quantile(skew, 0.10))
        tested = {}
        for label, cfg in (
            ("equiwidth", BATBuildConfig()),
            ("equidepth", BATBuildConfig(attribute_binning="equidepth")),
        ):
            built = build_bat(batch, cfg)
            p = tmp_path / f"{label}.bat"
            built.write(p)
            with BATFile(p) as f:
                res, st = query_file(f, filters=[AttributeFilter("s", 0.0, cut)])
                assert len(res) == (skew <= cut).sum()
                tested[label] = st.points_tested
        assert tested["equidepth"] < 0.7 * tested["equiwidth"]


class TestInMemoryBAT:
    def test_open_without_disk(self, batch):
        built = build_bat(batch)
        with built.open() as f:
            assert f.path == "<memory>"
            res, _ = query_file(f, quality=0.3)
            assert 0 < len(res) < N

    def test_from_bytes_equals_disk(self, batch, tmp_path):
        built = build_bat(batch)
        p = tmp_path / "disk.bat"
        built.write(p)
        box = Box((0.2, 0.2, 0.2), (1.5, 1.0, 0.8))
        with BATFile(p) as on_disk, BATFile.from_bytes(built.data) as in_mem:
            a, _ = query_file(on_disk, box=box)
            b, _ = query_file(in_mem, box=box)
            np.testing.assert_array_equal(a.positions, b.positions)

    def test_close_is_safe(self, batch):
        f = build_bat(batch).open()
        res, _ = query_file(f)
        f.close()
        f.close()  # idempotent
