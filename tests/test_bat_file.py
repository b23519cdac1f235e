"""Tests for BAT building, serialization, and the mmap reader."""

import numpy as np
import pytest

from repro.bat import BATBuildConfig, BATFile, build_bat
from repro.bat.format import PAGE_SIZE, Header
from repro.types import ParticleBatch


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(11)
    n = 50_000
    pos = rng.random((n, 3)).astype(np.float32) * np.array([4.0, 2.0, 1.0], dtype=np.float32)
    return ParticleBatch(
        pos,
        {
            "mass": rng.random(n),
            "temp": rng.normal(300.0, 40.0, n),
            "id": rng.integers(0, 1000, n).astype(np.float64),
        },
    )


@pytest.fixture(scope="module")
def bat_path(batch, tmp_path_factory):
    built = build_bat(batch)
    path = tmp_path_factory.mktemp("bat") / "test.bat"
    built.write(path)
    return path


class TestBuildBAT:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_bat(ParticleBatch.empty())

    def test_summary_fields(self, batch):
        built = build_bat(batch)
        assert built.n_points == len(batch)
        assert built.raw_bytes == batch.nbytes
        assert built.nbytes == built.raw_bytes + built.overhead_bytes
        assert set(built.attr_ranges) == {"mass", "temp", "id"}
        lo, hi = built.attr_ranges["mass"]
        assert lo == pytest.approx(batch.attributes["mass"].min())
        assert hi == pytest.approx(batch.attributes["mass"].max())

    def test_root_bitmap_full_for_uniform_attr(self, batch):
        built = build_bat(batch)
        # mass spans its own range uniformly -> root bitmap saturates
        assert built.root_bitmaps["mass"] == 0xFFFFFFFF

    def test_overhead_small(self, batch):
        built = build_bat(batch)
        assert built.overhead_fraction < 0.10

    def test_no_attributes(self):
        rng = np.random.default_rng(0)
        b = ParticleBatch(rng.random((1000, 3)))
        built = build_bat(b)
        assert built.attr_ranges == {}
        assert built.root_bitmaps == {}

    def test_single_point(self):
        built = build_bat(ParticleBatch(np.array([[1.0, 2.0, 3.0]]), {"a": np.array([5.0])}))
        assert built.n_points == 1

    def test_clustered_points(self):
        """Degenerate clustering (all Morton codes equal) must still build."""
        pos = np.full((500, 3), 0.25, dtype=np.float32)
        built = build_bat(ParticleBatch(pos, {"v": np.arange(500, dtype=np.float64)}))
        assert built.n_treelets == 1

    @pytest.mark.parametrize(
        "name",
        [
            "temperature_of_the_gas_phase_in_kelvin_at_cell_centre",  # 53 bytes
            "é" * 21,  # 21 characters, 42 bytes
            "rho\0",  # the table strips trailing NULs: would read back as "rho"
        ],
        ids=["53-bytes", "21-chars-42-bytes", "trailing-nul"],
    )
    def test_attribute_name_that_does_not_fit_the_table_is_rejected(self, name):
        """The S40 attribute table used to store ``name.encode()[:40]`` while
        the manifest kept the full name: filters and projections on it then
        raised KeyError at read time, and two names sharing a 40-byte prefix
        collided in the file."""
        b = ParticleBatch(np.zeros((4, 3), dtype=np.float32), {name: np.arange(4.0)})
        with pytest.raises(ValueError, match="40") as err:
            build_bat(b)
        assert repr(name) in str(err.value)

    def test_attribute_name_of_exactly_40_bytes_round_trips(self):
        name = "n" * 40
        b = ParticleBatch(np.zeros((4, 3), dtype=np.float32), {name: np.arange(4.0)})
        with build_bat(b).open() as f:
            assert f.attr_names == [name]
            assert f.attr_index(name) == 0

    def test_explicit_subprefix(self, batch):
        built = build_bat(batch, BATBuildConfig(subprefix_bits=6))
        assert built.n_treelets <= 64

    def test_adaptive_subprefix_scales(self):
        rng = np.random.default_rng(1)
        small = build_bat(ParticleBatch(rng.random((500, 3))))
        big = build_bat(ParticleBatch(rng.random((300_000, 3))))
        assert big.n_treelets > small.n_treelets


class TestHeaderRoundtrip:
    def test_pack_unpack(self):
        h = Header(
            n_points=123, n_attrs=2, morton_bits=21, subprefix_bits=12,
            lod_per_node=8, max_leaf_points=128, n_shallow_inner=7,
            n_shallow_leaves=8, dict_entries=42, max_treelet_depth=5,
            bounds=np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
            attr_table_offset=256, shallow_inner_offset=384,
            shallow_leaf_offset=500, dict_offset=900, treelets_offset=4096,
            file_size=100_000,
        )
        h2 = Header.unpack(h.pack())
        assert h2.n_points == 123
        assert h2.dict_entries == 42
        np.testing.assert_array_equal(h2.bounds, h.bounds)
        assert h2.file_size == 100_000

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            Header.unpack(b"JUNK" + b"\0" * 252)

    def test_truncated(self):
        with pytest.raises(ValueError, match="truncated"):
            Header.unpack(b"BATF")


class TestBATFile:
    def test_open_and_metadata(self, bat_path, batch):
        with BATFile(bat_path) as bat:
            assert bat.n_points == len(batch)
            assert bat.attr_names == ["mass", "temp", "id"]
            assert bat.attr_dtypes["mass"] == np.float64
            lo, hi = bat.attr_ranges["temp"]
            assert lo == pytest.approx(batch.attributes["temp"].min())
            assert bat.bounds.contains_points(batch.positions).all()

    def test_treelets_page_aligned(self, bat_path):
        with BATFile(bat_path) as bat:
            offs = bat.shallow_leaves["treelet_offset"]
            assert (offs % PAGE_SIZE == 0).all()

    def test_treelet_views(self, bat_path, batch):
        with BATFile(bat_path) as bat:
            total = 0
            for k in range(bat.n_treelets):
                tv = bat.treelet(k)
                assert tv.positions.shape[1] == 3
                assert set(tv.attributes) == {"mass", "temp", "id"}
                assert len(tv.attributes["mass"]) == tv.n_points
                total += tv.n_points
            assert total == len(batch)

    def test_treelet_cached(self, bat_path):
        with BATFile(bat_path) as bat:
            assert bat.treelet(0) is bat.treelet(0)

    def test_leaf_points_inside_leaf_box(self, bat_path):
        with BATFile(bat_path) as bat:
            for k in range(min(bat.n_treelets, 8)):
                tv = bat.treelet(k)
                box = bat.leaf_box(k)
                lo = np.asarray(box.lower, dtype=np.float32) - 1e-5
                hi = np.asarray(box.upper, dtype=np.float32) + 1e-5
                assert ((tv.positions >= lo) & (tv.positions <= hi)).all()

    def test_children_decode(self, bat_path):
        with BATFile(bat_path) as bat:
            root, is_leaf = bat.root()
            if is_leaf:
                pytest.skip("single-treelet file")
            seen_leaves = set()
            stack = [(root, False)]
            inner_count = 0
            while stack:
                idx, leaf = stack.pop()
                if leaf:
                    seen_leaves.add(idx)
                else:
                    inner_count += 1
                    stack.extend(bat.children(idx))
            assert seen_leaves == set(range(bat.n_treelets))
            assert inner_count == bat.header.n_shallow_inner

    def test_dictionary_resolves(self, bat_path):
        with BATFile(bat_path) as bat:
            for k in range(min(bat.n_treelets, 4)):
                ids = bat.shallow_leaves[k]["bitmap_ids"]
                for i in ids:
                    bm = bat.bitmap(int(i))
                    assert 0 <= bm <= 0xFFFFFFFF

    def test_size_mismatch_detected(self, bat_path, tmp_path):
        data = bat_path.read_bytes()
        bad = tmp_path / "bad.bat"
        bad.write_bytes(data + b"extra")
        with pytest.raises(ValueError, match="mismatch"):
            BATFile(bad)

    def test_attr_index_unknown(self, bat_path):
        with BATFile(bat_path) as bat:
            with pytest.raises(KeyError):
                bat.attr_index("nope")

    def test_roundtrip_content(self, bat_path, batch):
        """Every particle and attribute value survives the roundtrip."""
        with BATFile(bat_path) as bat:
            parts = [bat.treelet(k) for k in range(bat.n_treelets)]
            pos = np.concatenate([t.positions for t in parts])
            mass = np.concatenate([t.attributes["mass"] for t in parts])
        order_a = np.lexsort(pos.T)
        order_b = np.lexsort(batch.positions.T)
        np.testing.assert_allclose(pos[order_a], batch.positions[order_b])
        np.testing.assert_allclose(
            np.sort(mass), np.sort(batch.attributes["mass"])
        )
