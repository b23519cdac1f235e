"""Deep column projection: reads that skip the position block entirely.

``QueryRequest.columns`` may name the pseudo-column ``"positions"``; an
explicit selection that omits it returns a positions-free batch
(``positions=None``, count-based length) and — on v4 files — never runs
the position payload through its codec unless a box test needs it. These
tests pin the semantics (values identical to a full read, attribute
order preserved), and the decode accounting
that makes one-column reads actually cheap.
"""

import numpy as np
import pytest

from repro.analysis import region_stats
from repro.api import QueryRequest
from repro.bat import BATBuildConfig, BATFile, build_bat
from repro.bat.query import QueryStats, default_quality_ladder, query_file, stream_query_file
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine
from repro.types import Box, ParticleBatch
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def v4_dataset(tmp_path_factory):
    data = make_rank_data(nranks=8, seed=5)
    out = tmp_path_factory.mktemp("proj")
    writer = TwoPhaseWriter(
        testing_machine(), target_size=96 * 1024,
        bat_config=BATBuildConfig(codecs="auto"),
    )
    report = writer.write(data, out_dir=out, name="proj")
    with BATDataset(report.metadata_path) as ds:
        yield ds


class TestDatasetProjection:
    def test_one_column_batch_is_positions_free(self, v4_dataset):
        full, _ = v4_dataset.query(QueryRequest())
        one, _ = v4_dataset.query(QueryRequest(columns=("temp",)))
        assert one.positions is None
        assert set(one.attributes) == {"temp"}
        assert len(one) == len(full)
        np.testing.assert_array_equal(one.attributes["temp"], full.attributes["temp"])

    def test_positions_pseudo_column_opts_back_in(self, v4_dataset):
        full, _ = v4_dataset.query(QueryRequest())
        both, _ = v4_dataset.query(QueryRequest(columns=("temp", "positions")))
        assert both.positions is not None
        np.testing.assert_array_equal(both.positions, full.positions)
        np.testing.assert_array_equal(both.attributes["temp"], full.attributes["temp"])
        assert set(both.attributes) == {"temp"}

    def test_positions_only_projection(self, v4_dataset):
        full, _ = v4_dataset.query(QueryRequest())
        pos_only, _ = v4_dataset.query(QueryRequest(columns=("positions",)))
        assert pos_only.attributes == {}
        np.testing.assert_array_equal(pos_only.positions, full.positions)

    def test_box_query_under_projection_still_filters(self, v4_dataset):
        box = Box((0.25, 0.25, 0.0), (1.5, 2.0, 1.0))
        boxed, _ = v4_dataset.query(QueryRequest(box=box))
        projected, _ = v4_dataset.query(QueryRequest(box=box, columns=("temp",)))
        assert projected.positions is None
        assert len(projected) == len(boxed)
        np.testing.assert_array_equal(
            projected.attributes["temp"], boxed.attributes["temp"]
        )

    def test_filter_column_outside_projection_still_applies(self, v4_dataset):
        from repro.bat import AttributeFilter

        filt = AttributeFilter("mass", 0.3, 0.8)
        ref, _ = v4_dataset.query(QueryRequest(filters=(filt,)))
        got, _ = v4_dataset.query(QueryRequest(filters=(filt,), columns=("temp",)))
        assert got.positions is None
        assert "mass" not in got.attributes
        np.testing.assert_array_equal(got.attributes["temp"], ref.attributes["temp"])

    def test_one_column_read_decodes_exactly_its_column(self, v4_dataset):
        ds = v4_dataset
        ds.file_cache.close()  # cold handles and cold column cache
        before = ds.file_cache.stats()["decoded_bytes"]
        batch, _ = ds.query(QueryRequest(columns=("temp",)))
        one_col = ds.file_cache.stats()["decoded_bytes"] - before
        ds.file_cache.close()
        before = ds.file_cache.stats()["decoded_bytes"]
        full_batch, _ = ds.query(QueryRequest())
        full = ds.file_cache.stats()["decoded_bytes"] - before
        # no box, no filters: neither nodes nor positions decode, so the
        # read materialized exactly the temp column's raw bytes and nothing
        # else — the whole point of deep projection
        assert one_col == full_batch.attributes["temp"].nbytes
        assert one_col < full

    def test_empty_projected_result(self, v4_dataset):
        got, _ = v4_dataset.query(
            QueryRequest(box=Box((50.0, 50.0, 50.0), (60.0, 60.0, 60.0)),
                         columns=("temp",))
        )
        assert len(got) == 0
        assert got.positions is None
        assert got.attributes["temp"].size == 0


class TestQueryFileProjection:
    @pytest.fixture(scope="class")
    def v4_file(self, tmp_path_factory):
        rng = np.random.default_rng(2)
        n = 4000
        batch = ParticleBatch(
            rng.random((n, 3)).astype(np.float32),
            {
                "id": np.arange(n, dtype=np.int64),
                "temp": (300 + 5 * rng.standard_normal(n)),
            },
        )
        path = tmp_path_factory.mktemp("projf") / "p.bat"
        path.write_bytes(build_bat(batch, BATBuildConfig(codecs="auto")).data)
        with BATFile(path) as f:
            yield f

    def test_with_positions_false(self, v4_file):
        full, _ = query_file(v4_file, quality=1.0)
        bare, _ = query_file(
            v4_file, quality=1.0, attributes=["temp"], with_positions=False
        )
        assert bare.positions is None
        assert len(bare) == len(full)
        np.testing.assert_array_equal(bare.attributes["temp"], full.attributes["temp"])

    def test_projected_increments_carry_no_positions(self, v4_file):
        """A positions-free stream's increments carry ``None`` rung after
        rung, and the analysis reductions, which reduce over such a
        stream, see exactly its rows."""
        stats = QueryStats()
        incs = list(stream_query_file(
            v4_file, default_quality_ladder(1.0), attributes=["temp"],
            with_positions=False, stats=stats,
        ))
        assert len(incs) > 1
        assert all(inc.positions is None for inc in incs)
        temps = np.concatenate([inc.attributes["temp"] for inc in incs])
        assert len(temps) == stats.points_returned == 4000
        summary = region_stats(v4_file, ["temp"])["temp"]
        assert summary.count == len(temps)
        assert summary.mean == pytest.approx(temps.mean())

    def test_box_still_applies_without_positions(self, v4_file):
        box = Box((0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
        ref, _ = query_file(v4_file, quality=1.0, box=box)
        got, _ = query_file(
            v4_file, quality=1.0, box=box, attributes=["temp"], with_positions=False
        )
        assert got.positions is None
        assert len(got) == len(ref)
        np.testing.assert_array_equal(got.attributes["temp"], ref.attributes["temp"])


class TestPositionsFreeBatch:
    def test_requires_count(self):
        with pytest.raises(Exception):
            ParticleBatch(None, {"a": np.arange(3.0)})
        b = ParticleBatch(None, {"a": np.arange(3.0)}, count=3)
        assert len(b) == 3

    def test_empty_and_bounds(self):
        from repro.types import AttributeSpec

        b = ParticleBatch.empty(
            [AttributeSpec("a", np.float64)], with_positions=False
        )
        assert b.positions is None and len(b) == 0
        assert b.bounds.is_empty

    def test_select_and_concatenate(self):
        a = ParticleBatch(None, {"x": np.arange(5.0)}, count=5)
        sel = a.select(np.array([0, 2, 4]))
        assert len(sel) == 3
        np.testing.assert_array_equal(sel.attributes["x"], [0.0, 2.0, 4.0])
        both = ParticleBatch.concatenate([a, a])
        assert len(both) == 10 and both.positions is None

    def test_concatenate_rejects_mixed(self):
        a = ParticleBatch(None, {"x": np.arange(2.0)}, count=2)
        b = ParticleBatch(np.zeros((2, 3), dtype=np.float32), {"x": np.arange(2.0)})
        with pytest.raises(Exception):
            ParticleBatch.concatenate([a, b])
