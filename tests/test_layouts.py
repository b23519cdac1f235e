"""Tests for the pluggable layout registry and the flat reference layout."""

import numpy as np
import pytest

from repro.core import TwoPhaseReader, TwoPhaseWriter
from repro.layouts import LayoutSpec, available_layouts, get_layout, register_layout
from repro.layouts.flat import FlatFile, build_flat
from repro.machines import testing_machine as make_test_machine
from repro.types import Box, ParticleBatch
from tests.test_pipeline import make_rank_data


@pytest.fixture
def batch():
    rng = np.random.default_rng(55)
    return ParticleBatch(
        rng.random((5000, 3)).astype(np.float32),
        {"m": rng.random(5000), "v": rng.normal(0, 1, 5000)},
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert "bat" in available_layouts()
        assert "flat" in available_layouts()

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="unknown layout"):
            get_layout("xyz")

    def test_custom_registration(self):
        spec = LayoutSpec(name="custom-test", build=build_flat, open=FlatFile, extension=".x")
        register_layout(spec)
        try:
            assert get_layout("custom-test") is spec
        finally:
            from repro.layouts import _REGISTRY

            _REGISTRY.pop("custom-test")


class TestFlatLayout:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_flat(ParticleBatch.empty())

    LONG = "temperature_of_the_gas_phase_in_kelvin_at_cell_centre"  # 53 bytes

    @pytest.mark.parametrize(
        "names",
        [(LONG,), (LONG, LONG[:-6] + "face"), ("rho\0",)],
        ids=["53-bytes", "shared-40-byte-prefix", "trailing-nul"],
    )
    def test_attribute_name_that_does_not_fit_the_table_is_rejected(self, names):
        """The 40-byte name field used to store ``name.encode()[:40]``: two
        names sharing that prefix read back as one attribute, and a column's
        data was silently lost."""
        b = ParticleBatch(
            np.zeros((4, 3), dtype=np.float32), {n: np.arange(4.0) for n in names}
        )
        with pytest.raises(ValueError, match="40") as err:
            build_flat(b)
        assert repr(names[0]) in str(err.value)

    def test_attribute_name_of_exactly_40_bytes_round_trips(self):
        name = "n" * 40
        b = ParticleBatch(np.zeros((4, 3), dtype=np.float32), {name: np.arange(4.0)})
        f = FlatFile.from_bytes(build_flat(b).data)
        assert f.attr_names == [name]
        assert np.array_equal(f.query_box().attributes[name], np.arange(4.0))

    def test_roundtrip(self, batch, tmp_path):
        built = build_flat(batch)
        assert built.n_points == len(batch)
        assert built.overhead_bytes < 1024  # header + attr table only
        p = tmp_path / "x.flat"
        built.write(p)
        with FlatFile(p) as f:
            assert f.n_points == len(batch)
            full = f.query_box(None)
            np.testing.assert_array_equal(
                np.sort(full.positions[:, 0]), np.sort(batch.positions[:, 0])
            )
            np.testing.assert_array_equal(
                np.sort(full.attributes["m"]), np.sort(batch.attributes["m"])
            )

    def test_spatial_query_exact(self, batch, tmp_path):
        built = build_flat(batch)
        p = tmp_path / "s.flat"
        built.write(p)
        box = Box((0.2, 0.2, 0.2), (0.7, 0.6, 0.9))
        with FlatFile(p) as f:
            res = f.query_box(box)
            assert len(res) == box.contains_points(batch.positions).sum()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.flat"
        p.write_bytes(b"JUNKJUNKJUNK" * 10)
        with pytest.raises(ValueError, match="magic"):
            FlatFile(p)

    def test_from_bytes(self, batch):
        built = build_flat(batch)
        f = FlatFile.from_bytes(built.data)
        assert f.n_points == len(batch)

    def test_summary_contract(self, batch):
        """The writer consumes these fields from any layout's build."""
        built = build_flat(batch)
        assert set(built.attr_ranges) == {"m", "v"}
        assert set(built.root_bitmaps) == {"m", "v"}
        assert built.nbytes == len(built.data)
        lo, hi = built.attr_ranges["m"]
        assert lo == pytest.approx(batch.attributes["m"].min())

    def test_morton_sorted_sampling_is_stratified(self, batch):
        built = build_flat(batch)
        f = FlatFile.from_bytes(built.data)
        sub = f.sample(0.05)
        assert 0 < len(sub) < len(batch) // 10
        ext = sub.positions.max(axis=0) - sub.positions.min(axis=0)
        assert (ext > 0.8).all()

    def test_sample_validation(self, batch):
        f = FlatFile.from_bytes(build_flat(batch).data)
        with pytest.raises(ValueError):
            f.sample(1.5)
        assert len(f.sample(0.0)) == 0
        assert len(f.sample(1.0)) == len(batch)


class TestPipelineWithFlatLayout:
    def test_write_and_restart_read(self, tmp_path):
        m = make_test_machine()
        data = make_rank_data(nranks=9, seed=66)
        writer = TwoPhaseWriter(m, target_size=128 * 1024, layout="flat")
        rep = writer.write(data, out_dir=tmp_path, name="flat0")
        assert rep.metadata.layout == "flat"
        assert all(l.file_name.endswith(".flat") for l in rep.metadata.leaves)

        reader = TwoPhaseReader(m)
        rrep = reader.read(rep.metadata, np.roll(data.bounds, -1, axis=0), data_dir=tmp_path)
        assert sum(len(b) for b in rrep.batches) == data.total_particles

    def test_overlong_attribute_name_publishes_nothing(self, tmp_path):
        name = TestFlatLayout.LONG
        data = make_rank_data(4)
        data.batches = [
            ParticleBatch(b.positions, {name: b.attributes["temp"]})
            for b in data.batches
        ]
        out = tmp_path / "out"
        writer = TwoPhaseWriter(make_test_machine(), target_size=64 * 1024, layout="flat")
        with pytest.raises(ValueError, match="temperature_of_the_gas_phase"):
            writer.write(data, out_dir=out, name="t")
        assert list(out.iterdir()) == []

    def test_metadata_roundtrip_keeps_layout(self, tmp_path):
        from repro.core import DatasetMetadata

        m = make_test_machine()
        data = make_rank_data(nranks=4, seed=67)
        rep = TwoPhaseWriter(m, target_size=256 * 1024, layout="flat").write(
            data, out_dir=tmp_path, name="f1"
        )
        meta = DatasetMetadata.load(rep.metadata_path)
        assert meta.layout == "flat"

    def test_bat_config_rejected_for_flat(self):
        from repro.bat import BATBuildConfig

        with pytest.raises(ValueError, match="bat_config"):
            TwoPhaseWriter(
                make_test_machine(), layout="flat", bat_config=BATBuildConfig()
            )

    def test_bat_dataset_rejects_flat(self, tmp_path):
        from repro.core.dataset import BATDataset

        m = make_test_machine()
        data = make_rank_data(nranks=4, seed=68)
        rep = TwoPhaseWriter(m, target_size=256 * 1024, layout="flat").write(
            data, out_dir=tmp_path, name="f2"
        )
        with pytest.raises(ValueError, match="layout"):
            BATDataset(rep.metadata_path)
