"""Integration tests: the two-phase write/read pipelines end to end."""

import numpy as np
import pytest

from repro.baselines import build_aug_plan
from repro.core import (
    DatasetMetadata,
    RankData,
    TwoPhaseReader,
    TwoPhaseWriter,
)
from repro.core.writer import PHASE_NAMES
from repro.machines import testing_machine as make_test_machine
from repro.types import Box, ParticleBatch
from repro.workloads import grid_decompose


def make_rank_data(nranks=16, seed=0, min_n=200, max_n=3000, domain=None):
    """Materialized RankData on a rank grid with nonuniform counts."""
    rng = np.random.default_rng(seed)
    domain = domain or Box((0.0, 0.0, 0.0), (4.0, 4.0, 1.0))
    bounds = grid_decompose(domain, nranks, ndims=3)
    batches = []
    for r in range(nranks):
        n = int(rng.integers(min_n, max_n))
        lo, hi = bounds[r]
        pos = lo + rng.random((n, 3)) * (hi - lo)
        batches.append(
            ParticleBatch(
                pos.astype(np.float32),
                {"mass": rng.random(n), "temp": rng.normal(300, 30, n)},
            )
        )
    return RankData(
        bounds=bounds, counts=np.array([len(b) for b in batches]), batches=batches
    )


@pytest.fixture(scope="module")
def machine():
    return make_test_machine()


@pytest.fixture(scope="module")
def written(machine, tmp_path_factory):
    data = make_rank_data()
    out = tmp_path_factory.mktemp("pipeline")
    writer = TwoPhaseWriter(machine, target_size=256 * 1024)
    report = writer.write(data, out_dir=out, name="ts0")
    return data, out, report


class TestWritePipeline:
    def test_report_sanity(self, written):
        data, _, report = written
        assert report.elapsed > 0
        assert report.bandwidth > 0
        assert report.total_bytes == pytest.approx(data.total_bytes)
        assert report.n_files == len(report.file_sizes)
        assert set(report.breakdown) == set(PHASE_NAMES)

    def test_files_written(self, written):
        _, out, report = written
        bats = sorted(out.glob("*.bat"))
        assert len(bats) == report.n_files
        assert report.metadata_path is not None

    def test_metadata_roundtrip(self, written):
        data, _, report = written
        meta = DatasetMetadata.load(report.metadata_path)
        assert meta.total_particles == data.total_particles
        assert meta.nranks == data.nranks
        assert set(meta.attr_ranges) == {"mass", "temp"}
        # global range covers every leaf-local range
        for leaf in meta.leaves:
            for name, (lo, hi) in leaf.attr_ranges.items():
                glo, ghi = meta.attr_ranges[name]
                assert glo <= lo and hi <= ghi

    def test_file_sizes_near_target(self, written):
        _, _, report = written
        # most files near the target; none wildly above (uniform-ish data)
        assert report.file_sizes.max() < 4 * 256 * 1024

    def test_aggregators_spread(self, written):
        _, _, report = written
        aggs = [l.aggregator for l in report.metadata.leaves]
        assert len(set(aggs)) == len(aggs)

    def test_counts_only_write(self, machine):
        data = make_rank_data()
        counts_only = RankData(
            bounds=data.bounds, counts=data.counts, bytes_per_particle=data.bytes_per_particle
        )
        writer = TwoPhaseWriter(machine, target_size=256 * 1024)
        rep_m = writer.write(data)
        rep_c = writer.write(counts_only)
        assert rep_c.n_files == rep_m.n_files
        # modeled elapsed identical: timing never depends on materialization
        assert rep_c.elapsed == pytest.approx(rep_m.elapsed, rel=0.05)

    def test_aug_strategy_plugs_in(self, machine, tmp_path):
        data = make_rank_data()
        writer = TwoPhaseWriter(machine, target_size=256 * 1024, strategy=build_aug_plan)
        report = writer.write(data, out_dir=tmp_path, name="aug0")
        assert report.n_files > 0
        meta = DatasetMetadata.load(tmp_path / "aug0.meta.json")
        assert meta.total_particles == data.total_particles

    def test_overlong_attribute_name_publishes_nothing(self, machine, tmp_path):
        """A name the leaf files cannot hold fails the write before any leaf
        or the manifest lands (it used to write cleanly, truncated, and fail
        filtered reads with KeyError)."""
        name = "temperature_of_the_gas_phase_in_kelvin_at_cell_centre"
        data = make_rank_data(4)
        batches = [ParticleBatch(b.positions, {name: b.attributes["temp"]}) for b in data.batches]
        data = RankData(bounds=data.bounds, counts=data.counts, batches=batches)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="temperature_of_the_gas_phase"):
            TwoPhaseWriter(machine, target_size=64 * 1024).write(data, out_dir=out, name="t")
        assert list(out.iterdir()) == []

    def test_unknown_strategy(self, machine):
        with pytest.raises(ValueError, match="strategy"):
            TwoPhaseWriter(machine, strategy="bogus").write(make_rank_data(4))

    def test_config_disagreement(self, machine):
        from repro.core import AggTreeConfig

        with pytest.raises(ValueError, match="disagrees"):
            TwoPhaseWriter(machine, target_size=1024, agg_config=AggTreeConfig(target_size=2048))


class TestReadPipeline:
    def test_restart_read_recovers_everything(self, written, machine):
        data, out, report = written
        reader = TwoPhaseReader(machine)
        rep = reader.read(report.metadata, np.roll(data.bounds, -1, axis=0), data_dir=out)
        assert sum(len(b) for b in rep.batches) == data.total_particles
        assert rep.elapsed > 0
        assert rep.bandwidth > 0

    def test_each_rank_gets_its_region(self, written, machine):
        data, out, report = written
        reader = TwoPhaseReader(machine)
        rep = reader.read(report.metadata, data.bounds, data_dir=out)
        for r in range(data.nranks):
            box = Box.from_array(data.bounds[r])
            got = rep.batches[r]
            assert box.contains_points(got.positions).all()
            # the rank's own particles all come back
            expected = box.contains_points(
                np.concatenate([b.positions for b in data.batches])
            ).sum()
            assert len(got) == expected

    def test_read_at_different_scale(self, written, machine):
        """Data written at 16 ranks restarts on 4 and on 64 ranks."""
        data, out, report = written
        reader = TwoPhaseReader(machine)
        domain = Box((0.0, 0.0, 0.0), (4.0, 4.0, 1.0))
        for nranks in (4, 64):
            rb = grid_decompose(domain, nranks, ndims=3)
            rep = reader.read(report.metadata, rb, data_dir=out)
            assert sum(len(b) for b in rep.batches) == data.total_particles

    def test_counts_only_read_estimates_bytes(self, written, machine):
        data, _, report = written
        reader = TwoPhaseReader(machine)
        rep = reader.read(report.metadata, data.bounds)
        assert rep.batches is None
        assert rep.total_bytes > 0

    def test_partial_region_read(self, written, machine):
        data, out, report = written
        reader = TwoPhaseReader(machine)
        rb = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        rep = reader.read(report.metadata, rb, data_dir=out)
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        allpos = np.concatenate([b.positions for b in data.batches])
        assert len(rep.batches[0]) == box.contains_points(allpos).sum()

    def test_read_more_files_than_ranks(self, machine, tmp_path):
        data = make_rank_data(nranks=32, seed=3)
        writer = TwoPhaseWriter(machine, target_size=64 * 1024)  # many small files
        report = writer.write(data, out_dir=tmp_path, name="many")
        assert report.n_files > 4
        reader = TwoPhaseReader(machine)
        rb = grid_decompose(Box((0, 0, 0), (4, 4, 1)), 4, ndims=3)
        rep = reader.read(report.metadata, rb, data_dir=tmp_path)
        assert sum(len(b) for b in rep.batches) == data.total_particles


class TestSharedFaces:
    """A particle on the face two reading boxes share goes to exactly one
    of them; where two requests overlap, each gets the overlap."""

    # x of the marked particles; y, z stay inside every box below
    MARKED = (0.5, 1.0, 1.5)

    @pytest.fixture(scope="class")
    def dataset(self, machine, tmp_path_factory):
        rng = np.random.default_rng(7)
        pos = (rng.random((400, 3)) * [2.0, 1.0, 1.0]).astype(np.float32)
        pos[np.isin(pos[:, 0], [1.0, 1.5]), 0] = 0.25  # the rest stay off the faces
        pos[: len(self.MARKED)] = [[x, 0.5, 0.5] for x in self.MARKED]
        ident = np.arange(len(pos), dtype=np.float64)
        data = RankData(
            bounds=np.array([[[0.0, 0.0, 0.0], [2.0, 1.0, 1.0]]]),
            counts=np.array([len(pos)]),
            batches=[ParticleBatch(pos, {"ident": ident})],
        )
        out = tmp_path_factory.mktemp("faces")
        report = TwoPhaseWriter(machine, target_size=1 << 20).write(data, out_dir=out, name="f")
        return report.metadata, out

    @staticmethod
    def _idents(rep):
        return [set(b.attributes["ident"].astype(int).tolist()) if len(b) else set()
                for b in rep.batches]

    def test_particle_on_a_shared_face_goes_to_one_rank(self, dataset, machine):
        meta, out = dataset
        boxes = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                          [[1.0, 0.0, 0.0], [2.0, 1.0, 1.0]]])
        left, right = self._idents(TwoPhaseReader(machine).read(meta, boxes, data_dir=out))
        assert not left & right
        assert len(left) + len(right) == 400
        assert 1 in right and 1 not in left  # the particle at x = 1.0

    def test_overlapping_requests_each_get_the_overlap(self, dataset, machine):
        meta, out = dataset
        boxes = np.array([[[0.0, 0.0, 0.0], [1.5, 1.0, 1.0]],
                          [[0.5, 0.0, 0.0], [2.0, 1.0, 1.0]]])
        left, right = self._idents(TwoPhaseReader(machine).read(meta, boxes, data_dir=out))
        # x = 0.5 and 1.5 sit on a face of one box inside the other: not a
        # face the two boxes share, so both keep them, as they keep x = 1.0
        assert {0, 1, 2} <= left & right
        assert left | right == set(range(400))


class TestEventNetworkModel:
    def test_write_read_with_event_model(self, machine, tmp_path):
        """The full pipeline runs under the discrete-event network model
        and produces timings close to the phase model on balanced data."""
        data = make_rank_data(nranks=12, seed=21)
        rep_phase = TwoPhaseWriter(machine, target_size=256 * 1024).write(data)
        rep_event = TwoPhaseWriter(
            machine, target_size=256 * 1024, network_model="event"
        ).write(data, out_dir=tmp_path, name="ev")
        assert rep_event.n_files == rep_phase.n_files
        assert rep_event.elapsed == pytest.approx(rep_phase.elapsed, rel=0.3)

        reader = TwoPhaseReader(machine, network_model="event")
        rrep = reader.read(rep_event.metadata, data.bounds, data_dir=tmp_path)
        assert sum(len(b) for b in rrep.batches) == data.total_particles

    def test_invalid_model_rejected(self, machine):
        with pytest.raises(ValueError, match="network_model"):
            TwoPhaseWriter(machine, network_model="warp").write(make_rank_data(2))
