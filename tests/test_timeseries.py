"""Tests for the time-series catalog API."""

import numpy as np
import pytest

from repro import QueryRequest
from repro.core.timeseries import TimeSeriesDataset, TimeSeriesWriter
from repro.machines import testing_machine as make_test_machine
from repro.types import Box
from repro.workloads import DamBreak


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("series")
    dam = DamBreak(total=400_000)
    writer = TimeSeriesWriter(make_test_machine(), out, target_size=256 * 1024)
    for ts in (0, 1001, 2001):
        data = dam.rank_data(ts, nranks=16, scale=0.05, materialize=True)
        writer.write_step(ts, data)
    return out, dam


class TestWriter:
    def test_catalog_written(self, series_dir):
        out, _ = series_dir
        assert (out / "series.json").exists()

    def test_steps_recorded(self, series_dir):
        out, _ = series_dir
        with TimeSeriesDataset(out) as ts:
            assert ts.steps == [0, 1001, 2001]
            assert len(ts) == 3

    def test_negative_step_rejected(self, tmp_path):
        w = TimeSeriesWriter(make_test_machine(), tmp_path)
        with pytest.raises(ValueError):
            w.write_step(-1, None)

    def test_counts_only_rejected(self, tmp_path):
        from repro.core import RankData

        w = TimeSeriesWriter(make_test_machine(), tmp_path)
        data = RankData(
            bounds=np.zeros((2, 2, 3)), counts=[1, 1], bytes_per_particle=10.0
        )
        with pytest.raises(ValueError, match="materialized"):
            w.write_step(0, data)

    def test_resume_appends_to_catalog(self, series_dir, tmp_path):
        import shutil

        out, dam = series_dir
        clone = tmp_path / "resumed"
        shutil.copytree(out, clone)
        writer = TimeSeriesWriter(make_test_machine(), clone, target_size=256 * 1024)
        assert writer.steps == [0, 1001, 2001]  # picked up the existing catalog
        data = dam.rank_data(3001, nranks=16, scale=0.05, materialize=True)
        writer.write_step(3001, data)
        with TimeSeriesDataset(clone) as ts:
            assert 3001 in ts.steps

    def test_rewrite_replaces_step(self, tmp_path):
        dam = DamBreak(total=100_000)
        w = TimeSeriesWriter(make_test_machine(), tmp_path, target_size=256 * 1024)
        w.write_step(5, dam.rank_data(0, nranks=8, scale=0.05, materialize=True))
        first = TimeSeriesDataset(tmp_path).record(5).n_particles
        w.write_step(5, dam.rank_data(0, nranks=8, scale=0.1, materialize=True))
        second = TimeSeriesDataset(tmp_path).record(5).n_particles
        assert second > first


class TestDataset:
    def test_open_step(self, series_dir):
        out, _ = series_dir
        with TimeSeriesDataset(out) as ts:
            ds = ts.step(1001)
            assert ds.total_particles == ts.record(1001).n_particles
            assert ts.step(1001) is ds  # cached

    def test_fixed_particle_counts(self, series_dir):
        out, _ = series_dir
        with TimeSeriesDataset(out) as ts:
            counts = [rec.n_particles for rec in ts.records.values()]
            # the dam break has a fixed population; sampled counts stay close
            assert max(counts) - min(counts) < 0.02 * max(counts)

    def test_query_over_time_tracks_surge(self, series_dir):
        out, dam = series_dir
        # count particles past the dam over time: must grow as water spreads
        past_dam = Box((2.0, 0.0, 0.0), tuple(dam.domain.upper))
        with TimeSeriesDataset(out) as ts:
            counts = [len(b) for _, b, _ in ts.query_over_time(QueryRequest(box=past_dam))]
        assert counts[0] == 0  # initial column is behind the dam
        assert counts[-1] > counts[1] >= counts[0]

    def test_a_manifest_is_not_a_series(self, series_dir):
        out, _ = series_dir
        with TimeSeriesDataset(out) as ts:
            manifest = out / ts.record(0).metadata_file
        with pytest.raises(NotADirectoryError):
            TimeSeriesDataset(manifest)

    def test_bad_catalog(self, tmp_path):
        (tmp_path / "series.json").write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="not a BAT series"):
            TimeSeriesDataset(tmp_path)
