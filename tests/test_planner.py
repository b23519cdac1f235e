"""Tests for the metadata query planner, plan cache, and cache hygiene."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import QueryRequest
from repro.bat import AttributeFilter
from repro.bat.filecache import BATFileCache
from repro.bat.query import QueryStats
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.core.metadata import DatasetMetadata
from repro.core.planner import PlanCache, leaves_for_boxes, plan_query
from repro.machines import testing_machine as make_test_machine
from repro.types import Box
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=16, seed=5)
    out = tmp_path_factory.mktemp("plan")
    writer = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024)
    report = writer.write(data, out_dir=out, name="plan")
    return report, data


@pytest.fixture()
def dataset(written):
    report, _ = written
    with BATDataset(report.metadata_path) as ds:
        yield ds


class TestPlanQuery:
    def test_no_shape_keeps_all_files_full(self, dataset):
        plan = plan_query(dataset.metadata)
        assert len(plan.files) == dataset.n_files
        assert plan.pruned_files == 0
        assert all(fp.action == "full" and fp.box is None for fp in plan.files)

    def test_spatial_pruning_matches_metadata_walk(self, dataset):
        box = Box((0.0, 0.0, 0.0), (1.2, 1.2, 1.0))
        plan = plan_query(dataset.metadata, box=box)
        assert [fp.leaf_index for fp in plan.files] == dataset.metadata.query_box(box)
        assert plan.pruned_spatial_files == dataset.n_files - len(plan.files)
        assert plan.pruned_files > 0

    def test_contained_leaf_gets_no_residual_box(self, dataset):
        plan = plan_query(dataset.metadata, box=dataset.metadata.bounds)
        assert len(plan.files) == dataset.n_files
        assert all(fp.box is None and fp.action == "full" for fp in plan.files)

    def test_partial_overlap_keeps_residual_box(self, dataset):
        box = Box((0.5, 0.5, 0.2), (1.5, 1.5, 0.8))
        plan = plan_query(dataset.metadata, box=box)
        assert plan.files
        assert all(fp.box == box for fp in plan.files if fp.action == "filtered")

    def test_empty_query_box_prunes_everything(self, dataset):
        plan = plan_query(dataset.metadata, box=Box((1, 1, 1), (0, 0, 0)))
        assert not plan.files
        assert plan.pruned_spatial_files == dataset.n_files

    def test_bitmap_pruning_is_conservative(self, dataset, written):
        _, data = written
        # a narrow band prunes some files but never one holding a match
        filt = AttributeFilter("mass", 0.0, 0.05)
        plan = plan_query(dataset.metadata, filters=(filt,))
        batch, _ = dataset.query(QueryRequest(filters=(filt,)))
        allmass = np.concatenate([b.attributes["mass"] for b in data.batches])
        assert len(batch) == ((allmass >= filt.lo) & (allmass <= filt.hi)).sum()

    def test_impossible_filter_prunes_all(self, dataset):
        lo, hi = dataset.attr_ranges["mass"]
        filt = AttributeFilter("mass", hi + 10.0, hi + 11.0)
        plan = plan_query(dataset.metadata, filters=(filt,))
        assert not plan.files
        assert plan.pruned_bitmap_files == dataset.n_files

    def test_unknown_attribute_raises(self, dataset):
        with pytest.raises(KeyError):
            plan_query(dataset.metadata, filters=(AttributeFilter("nope", 0, 1),))

    def test_degenerate_point_box(self, dataset):
        """A zero-volume box is a valid query, not a crash."""
        point = (1.0, 1.0, 0.5)
        box = Box(point, point)
        plan = plan_query(dataset.metadata, box=box)
        assert len(plan.files) + plan.pruned_files == dataset.n_files
        batch, _ = dataset.query(QueryRequest(box=box))
        full, _ = dataset.query()
        assert len(batch) == box.contains_points(full.positions).sum()

    def test_zero_leaf_overlap_box(self, dataset):
        """A well-formed box beyond every leaf prunes the whole plan."""
        upper = dataset.metadata.bounds.upper
        box = Box(tuple(u + 1.0 for u in upper), tuple(u + 2.0 for u in upper))
        plan = plan_query(dataset.metadata, box=box)
        assert not plan.files
        assert plan.pruned_spatial_files == dataset.n_files

    def test_planner_agrees_with_query_results(self, dataset):
        """No pruned file could have contributed: planned == unplanned."""
        box = Box((0.0, 0.0, 0.0), (1.0, 4.0, 1.0))
        filt = AttributeFilter("temp", 280.0, 310.0)
        planned, _ = dataset.query(QueryRequest(box=box, filters=(filt,)))
        parts = []
        for leaf in dataset.metadata.leaves:  # brute force: every file
            from repro.bat.query import query_file

            res, _ = query_file(dataset.file(leaf.leaf_index), box=box, filters=(filt,))
            if len(res):
                parts.append(res)
        brute = np.concatenate([p.positions for p in parts])
        assert planned.positions.tobytes() == brute.tobytes()


class TestPlanCache:
    def test_memoized_identity(self, dataset):
        box = Box((0, 0, 0), (1, 1, 1))
        filt = (AttributeFilter("mass", 0.2, 0.8),)
        p1 = dataset.plan(box, filt)
        p2 = dataset.plan(box, filt)
        assert p1 is p2
        assert dataset._plan_cache.hits >= 1

    def test_quality_independent_reuse(self, dataset):
        box = Box((0, 0, 0), (2, 2, 1))
        plan = dataset.plan(box)
        before = dataset._plan_cache.hits
        dataset.query(QueryRequest(quality=0.3, box=box))
        dataset.query(QueryRequest(quality=0.9, prev_quality=0.3, box=box))
        assert dataset._plan_cache.hits >= before + 2
        assert dataset.plan(box) is plan

    def test_lru_eviction(self, dataset):
        cache = PlanCache(capacity=2)
        a = cache.get_or_build(dataset.metadata, None, ())
        cache.get_or_build(dataset.metadata, Box((0, 0, 0), (1, 1, 1)), ())
        cache.get_or_build(dataset.metadata, Box((0, 0, 0), (2, 2, 1)), ())
        assert len(cache) == 2
        assert cache.get_or_build(dataset.metadata, None, ()) is not a  # evicted

    def test_mismatched_plan_rejected(self, dataset):
        plan = dataset.plan(Box((0, 0, 0), (1, 1, 1)))
        with pytest.raises(ValueError, match="plan"):
            dataset.query(QueryRequest(box=Box((0, 0, 0), (2, 2, 1))), plan=plan)


class TestCacheHygiene:
    def test_skipped_files_not_faulted_into_cache(self, written):
        report, _ = written
        with BATDataset(report.metadata_path) as ds:
            box = Box((0.0, 0.0, 0.0), (0.9, 0.9, 1.0))  # touches few files
            _, stats = ds.query(QueryRequest(box=box))
            assert stats.pruned_files > 0
            assert stats.files_opened == len(ds.plan(box).files)
            assert len(ds._cache) == stats.files_opened

    def test_empty_result_opens_no_files(self, written):
        report, _ = written
        with BATDataset(report.metadata_path) as ds:
            box = Box((50.0, 50.0, 50.0), (51.0, 51.0, 51.0))  # outside domain
            batch, stats = ds.query(QueryRequest(box=box))
            assert len(batch) == 0
            assert stats.pruned_files == ds.n_files
            assert stats.files_opened == 0
            assert len(ds._cache) == 0  # satellite: no cache faulting
            assert sorted(batch.attributes) == ["mass", "temp"]

    def test_legacy_manifest_specs_without_caching(self, written, tmp_path):
        """Manifests without attr_dtypes fall back to a transient open."""
        report, _ = written
        meta_path = Path(report.metadata_path)
        doc = json.loads(meta_path.read_text())
        doc.pop("attr_dtypes")
        legacy = tmp_path / "legacy.meta.json"
        legacy.write_text(json.dumps(doc))
        for leaf in doc["leaves"]:
            src = meta_path.parent / leaf["file"]
            (tmp_path / leaf["file"]).write_bytes(src.read_bytes())
        with BATDataset(legacy) as ds:
            assert ds.metadata.attribute_specs() is None
            batch, _ = ds.query(QueryRequest(box=Box((50.0,) * 3, (51.0,) * 3)))
            assert sorted(batch.attributes) == ["mass", "temp"]
            assert len(ds._cache) == 0

    def test_all_pruned_filter_opens_no_handle(self, dataset):
        """An impossible filter must never touch the file-handle cache."""
        _, hi = dataset.attr_ranges["mass"]
        batch, stats = dataset.query(QueryRequest(filters=(AttributeFilter("mass", hi + 5.0, hi + 6.0),)))
        assert len(batch) == 0
        assert stats.files_opened == 0
        s = dataset.file_cache.stats()
        assert s["open"] == 0
        assert s["misses"] == 0  # not even a miss: the planner never asked

    def test_peek_does_not_perturb_counters(self, written):
        """peek() is pure introspection: no hit/miss/eviction accounting."""
        report, _ = written
        meta_path = Path(report.metadata_path)
        leaves = DatasetMetadata.load(meta_path).leaves[:3]
        paths = [meta_path.parent / leaf.file_name for leaf in leaves]
        with BATFileCache(capacity=2) as cache:
            fa = cache.get(paths[0])
            cache.get(paths[1])
            before = cache.stats()
            assert cache.peek(paths[0]) is fa
            assert cache.peek(paths[2]) is None  # absent: must not open it
            after = cache.stats()
            counters = ("hits", "misses", "evictions", "open", "hit_rate")
            assert {k: after[k] for k in counters} == {k: before[k] for k in counters}
            # and LRU order was left alone: a third insert evicts paths[0]
            cache.get(paths[2])
            assert cache.peek(paths[0]) is None
            assert cache.peek(paths[1]) is not None

    def test_filecache_stats_accounting(self, written):
        report, _ = written
        meta_path = Path(report.metadata_path)
        leaf = DatasetMetadata.load(meta_path).leaves[0]
        with BATFileCache(capacity=2) as cache:
            cache.get(meta_path.parent / leaf.file_name)
            cache.get(meta_path.parent / leaf.file_name)
            s = cache.stats()
        assert s["hits"] == 1
        assert s["misses"] == 1
        assert s["evictions"] == 0
        assert s["hit_rate"] == pytest.approx(0.5)

    def test_eviction_order_regression(self, written):
        """peek() must not refresh LRU order; get() must."""
        report, _ = written
        meta_path = Path(report.metadata_path)
        meta_leaves = DatasetMetadata.load(meta_path).leaves[:4]
        assert len(meta_leaves) == 4
        paths = [meta_path.parent / leaf.file_name for leaf in meta_leaves]
        cache = BATFileCache(capacity=2)
        fa, fb = cache.get(paths[0]), cache.get(paths[1])
        assert cache.peek(paths[0]) is fa  # no LRU refresh
        cache.get(paths[2])  # evicts paths[0], not paths[1]
        assert cache.peek(paths[0]) is None
        assert cache.peek(paths[1]) is fb
        cache.get(paths[1])  # refresh b
        cache.get(paths[3])  # now evicts paths[2]
        assert cache.peek(paths[2]) is None
        assert cache.peek(paths[1]) is fb
        assert cache.evictions == 2
        cache.close()


class TestLeavesForBoxes:
    def test_matches_brute_force(self, dataset):
        rng = np.random.default_rng(9)
        lo = rng.uniform(0, 3, (20, 3))
        bounds = np.stack([lo, lo + rng.uniform(0.1, 1.5, (20, 3))], axis=1)
        hits = leaves_for_boxes(dataset.metadata, bounds)
        assert len(hits) == 20
        for r in range(20):
            box = Box(tuple(bounds[r, 0]), tuple(bounds[r, 1]))
            expect = [
                i for i, leaf in enumerate(dataset.metadata.leaves)
                if leaf.bounds.intersects(box)
            ]
            assert hits[r].tolist() == expect

    def test_chunked_equals_unchunked(self, dataset):
        rng = np.random.default_rng(10)
        lo = rng.uniform(0, 3, (7, 3))
        bounds = np.stack([lo, lo + 0.5], axis=1)
        a = leaves_for_boxes(dataset.metadata, bounds, chunk=2)
        b = leaves_for_boxes(dataset.metadata, bounds)
        assert all(x.tolist() == y.tolist() for x, y in zip(a, b))


class TestStats:
    def test_merge_includes_new_fields(self):
        a = QueryStats(pruned_files=2, files_opened=1)
        b = QueryStats(pruned_files=3, files_opened=4)
        a.merge(b)
        assert a.pruned_files == 5
        assert a.files_opened == 5

    def test_merge_covers_every_field(self):
        names = [f.name for f in dataclasses.fields(QueryStats)]
        total = QueryStats(**{n: 1 for n in names})
        total.merge(QueryStats(**{n: i + 2 for i, n in enumerate(names)}))
        assert total == QueryStats(**{n: i + 3 for i, n in enumerate(names)})

    def test_attr_dtypes_round_trip(self, written):
        report, data = written
        with BATDataset(report.metadata_path) as ds:
            specs = {sp.name: sp.dtype for sp in ds.metadata.attribute_specs()}
        expect = {n: a.dtype for n, a in data.batches[0].attributes.items()}
        assert specs == expect
