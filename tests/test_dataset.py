"""Tests for whole-dataset visualization reads (BATDataset)."""

import multiprocessing
import threading

import numpy as np
import pytest

from repro import QueryRequest, open_dataset
from repro.bat import AttributeFilter
from repro.bat.filecache import BATFileCache
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine as make_test_machine
from repro.serve import QueryService, ServeConfig
from repro.types import Box
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = make_rank_data(nranks=16, seed=7)
    out = tmp_path_factory.mktemp("ds")
    writer = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024)
    report = writer.write(data, out_dir=out, name="vis")
    ds = BATDataset(report.metadata_path)
    allpos = np.concatenate([b.positions for b in data.batches])
    allmass = np.concatenate([b.attributes["mass"] for b in data.batches])
    alltemp = np.concatenate([b.attributes["temp"] for b in data.batches])
    yield ds, allpos, allmass, alltemp
    ds.close()


class TestStructure:
    def test_counts(self, dataset):
        ds, allpos, _, _ = dataset
        assert ds.total_particles == len(allpos)
        assert ds.n_files > 1

    def test_global_ranges(self, dataset):
        ds, _, allmass, alltemp = dataset
        lo, hi = ds.attr_ranges["mass"]
        assert lo <= allmass.min() and hi >= allmass.max()
        lo, hi = ds.attr_ranges["temp"]
        assert lo == pytest.approx(alltemp.min())
        assert hi == pytest.approx(alltemp.max())

    def test_files_cached(self, dataset):
        ds = dataset[0]
        assert ds.file(0) is ds.file(0)


class TestQueries:
    def test_full_query(self, dataset):
        ds, allpos, _, _ = dataset
        batch, stats = ds.query()
        assert len(batch) == len(allpos)
        assert stats.points_returned == len(allpos)

    def test_spatial_across_files(self, dataset):
        ds, allpos, _, _ = dataset
        box = Box((0.5, 0.5, 0.0), (2.5, 3.5, 1.0))
        batch, _ = ds.query(QueryRequest(box=box))
        assert len(batch) == box.contains_points(allpos).sum()
        assert box.contains_points(batch.positions).all()

    def test_metadata_prunes_files(self, dataset):
        ds, _, _, _ = dataset
        # a tiny corner box should touch few leaf files
        box = Box((0.0, 0.0, 0.0), (0.3, 0.3, 0.3))
        assert len(ds.plan(box).files) < ds.n_files

    def test_attribute_filter_global(self, dataset):
        ds, _, allmass, _ = dataset
        batch, _ = ds.query(QueryRequest(filters=[AttributeFilter("mass", 0.8, 1.0)]))
        assert len(batch) == (allmass >= 0.8).sum()
        assert (batch.attributes["mass"] >= 0.8).all()

    def test_filter_pruning_via_global_bitmaps(self, dataset):
        ds, _, _, alltemp = dataset
        # temperatures are ~N(300, 30); a far-out range matches nothing and
        # should prune every leaf without opening files
        plan = ds.plan(None, (AttributeFilter("temp", 10_000.0, 20_000.0),))
        assert plan.files == ()
        batch, stats = ds.query(QueryRequest(filters=[AttributeFilter("temp", 10_000.0, 20_000.0)]))
        assert len(batch) == 0

    def test_progressive_partition(self, dataset):
        ds, allpos, _, _ = dataset
        total, prev = 0, 0.0
        for q in (0.25, 0.5, 0.75, 1.0):
            batch, _ = ds.query(QueryRequest(quality=q, prev_quality=prev))
            total += len(batch)
            prev = q
        assert total == len(allpos)

    def test_coarse_query_spans_domain(self, dataset):
        ds, allpos, _, _ = dataset
        batch, _ = ds.query(QueryRequest(quality=0.1))
        assert 0 < len(batch) < len(allpos)
        ext = batch.positions.max(axis=0) - batch.positions.min(axis=0)
        full = allpos.max(axis=0) - allpos.min(axis=0)
        assert (ext > 0.6 * full).all()

    def test_combined_query(self, dataset):
        ds, allpos, allmass, _ = dataset
        box = Box((1.0, 1.0, 0.0), (3.0, 3.0, 1.0))
        batch, _ = ds.query(QueryRequest(box=box, filters=[AttributeFilter("mass", 0.0, 0.5)]))
        mask = box.contains_points(allpos) & (allmass <= 0.5)
        assert len(batch) == mask.sum()

    def test_empty_result_keeps_specs(self, dataset):
        ds, _, _, _ = dataset
        batch, _ = ds.query(QueryRequest(box=Box((50, 50, 50), (51, 51, 51))))
        assert len(batch) == 0
        assert set(batch.attributes) == {"mass", "temp"}

    def test_context_manager(self, dataset, tmp_path):
        ds = dataset[0]
        with BATDataset(ds.metadata_path) as d2:
            b, _ = d2.query(QueryRequest(quality=0.2))
            assert len(b) > 0


class TestOneCopyAcrossFiles:
    """A read hands every file's row chunks — a whole treelet as a view of
    the mapped file — to one concatenation at the end of its step. A
    one-handle cache holds every planned handle for the step and evicts
    (closes) them as it ends; the result is still exact, and it shares no
    memory with any mapping."""

    def test_handles_closed_mid_read(self, dataset):
        ds = dataset[0]
        requests = (
            QueryRequest(),
            QueryRequest(quality=0.8, box=Box((0.5, 0.5, 0.0), (2.5, 3.5, 1.0))),
            QueryRequest(columns=("temp",)),
        )
        with BATFileCache(capacity=1) as tight:
            with BATDataset(ds.metadata_path, file_cache=tight) as small:
                for req in requests:
                    want, _ = ds.query(req)
                    got, stats = small.query(req)
                    assert stats.files_opened > 1
                    assert got.digest() == want.digest()
                    for column in [got.positions, *got.attributes.values()]:
                        if column is not None:
                            # the array under the column owns its memory: a
                            # mapping's would have the mapping as its base
                            while isinstance(column.base, np.ndarray):
                                column = column.base
                            assert column.base is None and column.flags.owndata
            assert tight.stats()["evictions"] >= ds.n_files


class TestResourcesReturnToBaseline:
    """A read is one reader walking the leaf files it planned: it starts no
    thread and no process, so there is nothing for ``close()`` to leak."""

    @staticmethod
    def _live():
        return threading.active_count(), len(multiprocessing.active_children())

    def test_open_dataset(self, dataset):
        before = self._live()
        with open_dataset(dataset[0].metadata_path) as ds:
            batch, stats = ds.query(QueryRequest(quality=0.5))
            assert stats.files_opened > 1 and len(batch) > 0
            assert self._live() == before
        assert self._live() == before

    def test_query_service(self, dataset):
        before = self._live()
        svc = QueryService(dataset[0].metadata_path, ServeConfig(capacity=3))
        sid = svc.open_session()
        assert len(svc.request(sid, QueryRequest(quality=0.5))) > 0
        assert len(svc.execute(QueryRequest())) == dataset[0].total_particles
        svc.close()
        assert self._live() == before


class TestFilterBoundOnABinEdge:
    """Regression: a filter bound equal to stored values that sit on a
    bitmap-bin edge used to drop exactly those rows (5 of 161 935 in the
    baseline's ``D_main``): the query mask and the stored bitmaps were
    binned by two different float expressions."""

    @pytest.fixture(scope="class")
    def gridded(self, tmp_path_factory):
        """``temp`` on a 0.25 K grid over exactly [251, 300] in every file."""
        data = make_rank_data(nranks=4, seed=5, min_n=1500, max_n=2500)
        rng = np.random.default_rng(5)
        for b in data.batches:
            temp = 251.0 + 0.25 * rng.integers(0, 197, len(b))
            temp[:2] = 251.0, 300.0
            b.attributes["temp"] = temp
        out = tmp_path_factory.mktemp("edge")
        report = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024).write(
            data, out_dir=out, name="edge"
        )
        alltemp = np.concatenate([b.attributes["temp"] for b in data.batches])
        with BATDataset(report.metadata_path) as ds:
            yield ds, alltemp

    def test_bounds_on_data_values_lose_no_rows(self, gridded):
        ds, alltemp = gridded
        assert ds.n_files > 1
        lost = {}
        for lo in np.arange(251.0, 300.0, 0.25):
            for width in (0.0, 0.25):  # a point query and one grid step
                hi = min(lo + width, 300.0)
                batch, _ = ds.query(
                    QueryRequest(
                        filters=[AttributeFilter("temp", lo, hi)], columns=("temp",)
                    )
                )
                want = int(((alltemp >= lo) & (alltemp <= hi)).sum())
                if len(batch) != want:
                    lost[lo, hi] = want - len(batch)
        assert not lost


class TestLeafMaximumOnAGlobalBinEdge:
    """Regression: a leaf whose ``temp`` range is cut on global bin edges
    lost the global bin of its own maximum when rank 0 remapped its root
    bitmap, so the planner pruned the file and a point query at that
    maximum returned 0 of the 2 rows holding it — not marked partial."""

    LEAF = (-44.50664819475477, -32.38358615693685)
    REST = (-88.14967153089927, -10.562074488864596)

    @pytest.fixture(scope="class")
    def aligned(self, tmp_path_factory):
        data = make_rank_data(nranks=8, seed=3, min_n=1500, max_n=2500)
        rng = np.random.default_rng(0)
        for rank, b in enumerate(data.batches):
            # ranks 0 and 2 share leaf 0; both ends of each range are present
            lo, hi = self.LEAF if rank in (0, 2) else self.REST
            temp = rng.uniform(lo, hi, len(b))
            temp[:2] = lo, hi
            b.attributes["temp"] = temp
        out = tmp_path_factory.mktemp("aligned")
        report = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024).write(
            data, out_dir=out, name="aligned"
        )
        alltemp = np.concatenate([b.attributes["temp"] for b in data.batches])
        with BATDataset(report.metadata_path) as ds:
            yield ds, alltemp

    def test_point_query_at_the_leaf_maximum(self, aligned):
        ds, alltemp = aligned
        assert ds.n_files == 4
        top = self.LEAF[1]
        res = ds.query(QueryRequest(filters=[AttributeFilter("temp", top, top)], columns=("temp",)))
        assert int((alltemp == top).sum()) == 2
        assert len(res.batch) == 2
        assert (res.stats.pruned_files, res.stats.quarantined_files) == (0, 0)
