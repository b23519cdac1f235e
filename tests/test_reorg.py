"""Stale-cache invalidation under file replacement + online reorganization.

Covers the two halves of the bugfix PR:

- the **staleness layer**: a leaf file replaced on disk (the atomic
  rename every publisher here uses) must never be served from a stale
  mmap, a stale decoded column, a stale plan, a stale result, or a stale
  in-flight window — while streams that pinned the old handle finish on the
  exact bytes they planned against;
- the **reorganizer** (:mod:`repro.reorg`): telemetry-driven rewrites
  must preserve the particle multiset exactly, publish under a bumped
  manifest generation, leave the old generation readable, and make hot
  queries open fewer files.
"""

import json
import logging
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import QueryRequest, reassemble_stream
from repro.bat.builder import BATBuildConfig, build_bat
from repro.bat.file import BATFile
from repro.bat.filecache import BATFileCache
from repro.bat.query import query_file
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.core.metadata import DatasetMetadata
from repro.core.planner import PlanCache
from repro.machines import testing_machine
from repro.reorg import (
    MERGE_MAX_POINTS,
    ReorgAction,
    ReorgConfig,
    ReorgDaemon,
    ReorgError,
    apply_reorg,
    plan_reorg,
    reorganize,
)
from repro.serve import (
    QueryService,
    ServeConfig,
    ShardedQueryService,
)
from repro.serve.metrics import AccessTelemetry, merge_telemetry
from repro.types import Box, ParticleBatch
from tests.test_pipeline import make_rank_data
from tests.test_query_engines import recursive_query

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def write_dataset(out, nranks=9, seed=21, codecs=None, target=128 * 1024):
    bat_config = BATBuildConfig(codecs=codecs) if codecs else None
    report = TwoPhaseWriter(
        testing_machine(), target_size=target, bat_config=bat_config
    ).write(make_rank_data(nranks=nranks, seed=seed), out_dir=out, name="reorg")
    return Path(report.metadata_path)


def canon(batch):
    """Order-independent multiset key of a batch."""
    cols = [batch.positions[:, i] for i in range(3)]
    cols += [batch.attributes[k] for k in sorted(batch.attributes)]
    order = np.lexsort(cols)
    return tuple(np.ascontiguousarray(c[order]).tobytes() for c in cols)


def exact(batch):
    """Order-sensitive byte identity of a batch."""
    out = [None if batch.positions is None else batch.positions.tobytes()]
    for k, v in batch.attributes.items():
        out.append((k, str(v.dtype), v.tobytes()))
    return out


def replace_leaf(directory, leaf, bump=1.0):
    """Atomically replace one leaf file with a rebuilt, value-shifted copy.

    Positions are unchanged (bounds/planning stay valid); every attribute
    is shifted by ``bump`` so stale reads are detectable by value.
    """
    path = directory / leaf.file_name
    with BATFile(path) as f:
        batch, _ = query_file(f, quality=1.0)
    shifted = ParticleBatch(
        batch.positions,
        {k: v + np.asarray(bump, dtype=v.dtype) for k, v in batch.attributes.items()},
    )
    built = build_bat(shifted, BATBuildConfig())
    tmp = path.with_suffix(".replacement")
    built.write(tmp)
    os.replace(tmp, path)  # what every atomic publisher here does
    return shifted


def lossy_build_bat(monkeypatch, at=1):
    """Make the reorganizer's ``at``-th rebuilt piece lose one particle.

    Returns the list of pieces built so far (one entry per call), so a
    test can check the lossy piece was reached.
    """
    import repro.reorg

    real = repro.reorg.build_bat
    calls = []

    def build_bat_dropping_one(batch, *args, **kwargs):
        if len(calls) == at:
            batch = ParticleBatch(
                batch.positions[1:], {k: v[1:] for k, v in batch.attributes.items()}
            )
        calls.append(len(batch))
        return real(batch, *args, **kwargs)

    monkeypatch.setattr(repro.reorg, "build_bat", build_bat_dropping_one)
    return calls


def reorg_events(caplog, field: str) -> list:
    """The ``repro.reorg`` records carrying ``field`` in their extra: a
    plan's record (``action_counts``) or an apply's (``generation_to``)."""
    return [r for r in caplog.records if r.name == "repro.reorg" and hasattr(r, field)]


def hot_box(metadata, frac_lo=0.30, frac_hi=0.60):
    lo = np.array(metadata.bounds.lower)
    ext = np.array(metadata.bounds.upper) - lo
    return Box(tuple(lo + frac_lo * ext), tuple(lo + frac_hi * ext))


def synth_telemetry(metadata, box, queries=20, columns=None):
    """A telemetry snapshot as if ``box`` had been queried ``queries`` times."""
    leaves = {}
    for i, leaf in enumerate(metadata.leaves):
        hot = leaf.bounds.intersects(box)
        leaves[str(i)] = {
            "opens": queries if hot else 0,
            "points": 100 * queries if hot else 0,
            "decoded_bytes": 1000 * queries if hot else 0,
        }
    cols = dict.fromkeys(columns or ("positions",), queries)
    return {
        "queries": queries,
        "steps": {
            "0": {
                "leaves": leaves,
                "boxes": [[list(box.lower), list(box.upper), queries]],
                "columns": cols,
            }
        },
    }


# ---------------------------------------------------------------------------
# satellite: BATFileCache staleness under os.replace


class TestStaleFileCache:
    def test_replaced_leaf_served_fresh(self, tmp_path):
        """Regression: pre-fix, the cached mmap served the old bytes."""
        meta = write_dataset(tmp_path)
        with BATDataset(meta) as ds:
            before = ds.query(QueryRequest(quality=1.0))
            attr = sorted(before.batch.attributes)[0]
            shifted = replace_leaf(ds.directory, ds.metadata.leaves[0])
            assert ds.file_cache.stale_reopens == 0
            after = ds.query(QueryRequest(quality=1.0))
            assert ds.file_cache.stale_reopens == 1
            # the replaced leaf's rows must show the shifted values
            assert canon(after.batch) != canon(before.batch)
            assert len(after.batch) == len(before.batch)
            assert np.isin(
                shifted.attributes[attr], after.batch.attributes[attr]
            ).all()

    def test_decoded_columns_not_reused_across_replacement(self, tmp_path):
        """v4 decoded-column cache entries are keyed by inode, not path."""
        meta = write_dataset(tmp_path, codecs="auto")
        with BATDataset(meta) as ds:
            before = ds.query(QueryRequest(quality=1.0))
            attr = sorted(before.batch.attributes)[0]
            shifted = replace_leaf(ds.directory, ds.metadata.leaves[0])
            after = ds.query(QueryRequest(quality=1.0))
            assert np.isin(
                shifted.attributes[attr],
                after.batch.attributes[attr],
            ).all()

    def test_walk_tables_not_reused_across_replacement(self, tmp_path):
        """A replaced leaf's walk table dies with its handle's columns."""
        from repro.bat.file import WALK_TABLE_SLOT

        meta = write_dataset(tmp_path, codecs="auto")
        with BATDataset(meta) as ds:
            colcache = ds.file_cache.column_cache

            def tables_of(key):
                return [k for k in colcache._entries if k[0] == key and k[2] == WALK_TABLE_SLOT]

            # below full quality inside a box: every treelet is walked
            req = QueryRequest(box=hot_box(ds.metadata, 0.1, 0.9), quality=0.6)
            ds.query(req)
            path = ds.directory / ds.metadata.leaves[0].file_name
            old_key = ds.file_cache.peek(path).cache_key
            assert tables_of(old_key)
            # same particles, another tree shape: the old table's rows would
            # address the wrong nodes and slots of the new file
            with BATFile(path) as f:
                batch, _ = query_file(f, quality=1.0)
            tmp = path.with_suffix(".replacement")
            build_bat(batch, BATBuildConfig(lod_per_node=4, max_leaf_points=32)).write(tmp)
            os.replace(tmp, path)
            after = ds.query(req)
            new_key = ds.file_cache.peek(path).cache_key
            assert new_key != old_key
            assert not tables_of(old_key) and tables_of(new_key)
            want, want_stats = recursive_query(ds, req)
            assert exact(after.batch) == exact(want)
            assert after.stats.points_tested == want_stats.points_tested

    def test_stale_reopen_is_logged_with_its_lease(self, tmp_path, caplog):
        """One INFO record per replaced path, saying whether a lease
        defers the old handle's close."""
        meta = write_dataset(tmp_path)
        md = DatasetMetadata.load(meta)
        leased, unleased = (meta.parent / leaf.file_name for leaf in md.leaves[:2])
        cache = BATFileCache()
        try:
            cache.get(leased), cache.get(unleased)
            with cache.lease([leased]), caplog.at_level(
                logging.INFO, logger="repro.bat.filecache"
            ):
                for leaf in md.leaves[:2]:
                    replace_leaf(meta.parent, leaf)
                cache.get(leased), cache.get(unleased)
        finally:
            cache.close()
        assert cache.stale_reopens == 2
        records = [r for r in caplog.records if r.name == "repro.bat.filecache"]
        assert [(r.levelno, r.path, r.deferred) for r in records] == [
            (logging.INFO, str(leased), True), (logging.INFO, str(unleased), False),
        ]

    def test_peek_discards_stale_handle(self, tmp_path):
        meta = write_dataset(tmp_path)
        with BATDataset(meta) as ds:
            ds.query(QueryRequest(quality=1.0))
            path = ds.directory / ds.metadata.leaves[0].file_name
            assert ds.file_cache.peek(path) is not None
            replace_leaf(ds.directory, ds.metadata.leaves[0])
            assert ds.file_cache.peek(path) is None

    def test_stat_signature_captured_from_open_fd(self, tmp_path):
        meta = write_dataset(tmp_path)
        md = DatasetMetadata.load(meta)
        with BATFile(meta.parent / md.leaves[0].file_name) as f:
            st = os.stat(meta.parent / md.leaves[0].file_name)
            assert f.stat_signature == (st.st_mtime_ns, st.st_size, st.st_ino)
            assert str(st.st_ino) in f.cache_key


# ---------------------------------------------------------------------------
# satellite: lease keeps a replaced leaf's old handle alive for streams


class TestLeaseDuringReplace:
    def test_stream_finishes_on_old_bytes_new_queries_see_new(self, tmp_path):
        meta = write_dataset(tmp_path)
        with BATDataset(meta) as ds:
            req = QueryRequest(quality=1.0)
            reference = ds.query(req)
            attr = sorted(reference.batch.attributes)[0]

            stream = ds.stream(req)
            increments = [next(stream)]  # handles now open and leased
            shifted = replace_leaf(ds.directory, ds.metadata.leaves[0])
            increments += list(stream)

            # the stream completes on the handle it pinned: byte-identical
            # to the pre-replacement direct query
            reassembled = reassemble_stream(increments)
            assert exact(reassembled.batch) == exact(reference.batch)

            # a fresh query observes the replacement
            fresh = ds.query(req)
            assert np.isin(
                shifted.attributes[attr], fresh.batch.attributes[attr]
            ).all()
            # and the deferred old handle was closed at lease release
            assert not ds.file_cache._deferred


# ---------------------------------------------------------------------------
# satellite: PlanCache keys on the manifest layout generation


class TestPlanCacheGeneration:
    def test_generation_in_key(self, tmp_path):
        meta = write_dataset(tmp_path)
        md = DatasetMetadata.load(meta)
        cache = PlanCache()
        box = hot_box(md)
        p0 = cache.get_or_build(md, box, ())
        assert cache.get_or_build(md, box, ()) is p0
        assert cache.hits == 1
        md.generation += 1  # what a reorg republish does
        p1 = cache.get_or_build(md, box, ())
        assert p1 is not p0
        assert cache.misses == 2

    def test_metadata_generation_round_trip(self, tmp_path):
        meta = write_dataset(tmp_path)
        md = DatasetMetadata.load(meta)
        assert md.generation == 0
        md.generation = 7
        md.save(meta)
        assert DatasetMetadata.load(meta).generation == 7
        # manifests written before the field existed load as generation 0
        doc = json.loads(meta.read_text())
        del doc["generation"]
        meta.write_text(json.dumps(doc))
        assert DatasetMetadata.load(meta).generation == 0


# ---------------------------------------------------------------------------
# access telemetry


class TestAccessTelemetry:
    def test_snapshot_shape_and_json_clean(self):
        t = AccessTelemetry()
        bound = t.bind(0)
        bound.view(Box((0, 0, 0), (1, 1, 1)), (), ["positions", "temp"])
        bound.leaf(3, points=10, decoded_bytes=100)
        bound.view(None, (), None)
        doc = t.snapshot()
        json.dumps(doc, allow_nan=False)  # strict JSON
        step = doc["steps"]["0"]
        assert step["leaves"]["3"] == {
            "opens": 1, "points": 10, "decoded_bytes": 100,
        }
        assert step["columns"]["temp"] == 1
        assert any(entry[0] is None for entry in step["boxes"])

    def test_box_census_is_bounded(self):
        t = AccessTelemetry()
        bound = t.bind(0)
        for i in range(AccessTelemetry.BOX_CENSUS_CAP * 2):
            bound.view(Box((0, 0, float(i)), (1, 1, float(i + 1))), (), None)
        doc = t.snapshot()
        assert len(doc["steps"]["0"]["boxes"]) <= 64  # snapshot reports top-N
        json.dumps(doc, allow_nan=False)

    def test_merge_telemetry_sums(self):
        a, b = AccessTelemetry(), AccessTelemetry()
        box = Box((0, 0, 0), (1, 1, 1))
        a.bind(0).view(box, (), ["positions"])
        a.bind(0).leaf(1, points=5, decoded_bytes=50)
        b.bind(0).view(box, (), ["positions"])
        b.bind(0).leaf(1, points=7, decoded_bytes=70)
        merged = merge_telemetry([a.snapshot(), b.snapshot()])
        step = merged["steps"]["0"]
        assert step["leaves"]["1"] == {
            "opens": 2, "points": 12, "decoded_bytes": 120,
        }
        assert step["columns"]["positions"] == 2
        assert [e[2] for e in step["boxes"]] == [2]

    def test_dataset_records_per_leaf_decode_work(self, tmp_path):
        meta = write_dataset(tmp_path, codecs="auto")
        t = AccessTelemetry()
        with BATDataset(meta) as ds:
            ds.telemetry = t.bind(0)
            res = ds.query(QueryRequest(quality=1.0))
        doc = t.snapshot()
        leaves = doc["steps"]["0"]["leaves"]
        assert sum(x["points"] for x in leaves.values()) == len(res.batch)
        assert t.files_opened(0) == res.stats.files_opened


# ---------------------------------------------------------------------------
# planning


class TestPlanReorg:
    def test_below_evidence_floor_plans_nothing(self, tmp_path):
        meta = write_dataset(tmp_path)
        md = DatasetMetadata.load(meta)
        tele = synth_telemetry(md, hot_box(md), queries=3)
        assert plan_reorg(md, tele, config=ReorgConfig(min_queries=8)) == []
        assert plan_reorg(md, {}, config=ReorgConfig()) == []

    def test_carve_claims_only_partially_cut_leaves(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        tele = synth_telemetry(md, box)
        actions = plan_reorg(
            md, tele, config=ReorgConfig(min_queries=8, carve_min_points=1)
        )
        carves = [a for a in actions if a.kind == "carve"]
        assert carves, "a hot box cutting leaves must produce a carve"
        for a in carves:
            assert a.hot_box == box
            for i in a.leaf_indices:
                leaf = md.leaves[i]
                assert leaf.bounds.intersects(box)
                assert not box.contains_box(leaf.bounds)

    def test_each_leaf_claimed_at_most_once(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        tele = synth_telemetry(md, hot_box(md))
        actions = plan_reorg(
            md, tele, config=ReorgConfig(min_queries=8, carve_min_points=1)
        )
        seen = [i for a in actions for i in a.leaf_indices]
        assert len(seen) == len(set(seen))

    def test_plan_logged_once_with_counts_per_kind(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro.reorg")
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        actions = plan_reorg(
            md, synth_telemetry(md, hot_box(md)), step=0,
            config=ReorgConfig(min_queries=8, carve_min_points=1),
        )
        (record,) = [r for r in caplog.records if r.name == "repro.reorg"]
        assert record.levelno == logging.INFO
        assert record.step == 0
        kinds = {a.kind for a in actions}
        assert record.action_counts == {
            kind: sum(a.kind == kind for a in actions) for kind in kinds
        }
        assert sum(record.action_counts.values()) == len(actions) > 0

    def test_empty_plan_logs_nothing(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro.reorg")
        md = DatasetMetadata.load(write_dataset(tmp_path))
        assert plan_reorg(md, synth_telemetry(md, hot_box(md), queries=3),
                          config=ReorgConfig(min_queries=8)) == []
        assert plan_reorg(md, {}, config=ReorgConfig()) == []
        assert [r for r in caplog.records if r.name == "repro.reorg"] == []

    def test_merge_groups_cold_leaves(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        tele = synth_telemetry(md, hot_box(md))
        actions = plan_reorg(md, tele, config=ReorgConfig(min_queries=8))
        merges = [a for a in actions if a.kind == "merge"]
        assert merges
        for a in merges:
            assert len(a.leaf_indices) >= 2
            total = sum(md.leaves[i].count for i in a.leaf_indices)
            assert total <= MERGE_MAX_POINTS


# ---------------------------------------------------------------------------
# applying


class TestApplyReorg:
    def test_multiset_preserved_generation_bumped_old_files_kept(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        with BATDataset(meta) as ds:
            before, _ = recursive_query(ds, QueryRequest(quality=1.0))
        old_files = [leaf.file_name for leaf in md.leaves]
        tele = synth_telemetry(md, hot_box(md))

        report = reorganize(meta, tele, config=ReorgConfig(min_queries=8))
        assert report.changed
        assert report.generation_from == 0
        assert report.generation_to == 1
        assert report.verified_points > 0

        md2 = DatasetMetadata.load(meta)
        assert md2.generation == 1
        assert md2.tree_nodes == []  # reorganized manifests go flat
        assert [leaf.leaf_index for leaf in md2.leaves] == list(
            range(len(md2.leaves))
        )
        # old generation's files remain readable for in-flight readers
        for name in old_files:
            assert (meta.parent / name).exists()
        with BATDataset(meta) as ds:
            after, _ = recursive_query(ds, QueryRequest(quality=1.0))
        assert canon(after) == canon(before)

    def test_piece_that_loses_a_particle_is_never_published(
        self, tmp_path, monkeypatch
    ):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        before = meta.read_bytes()
        tele = synth_telemetry(md, hot_box(md))
        calls = lossy_build_bat(monkeypatch)
        with pytest.raises(ReorgError, match="does not round-trip"):
            reorganize(meta, tele, config=ReorgConfig(min_queries=8))
        assert len(calls) >= 2  # the lossy piece was built
        assert meta.read_bytes() == before
        assert DatasetMetadata.load(meta).generation == md.generation
        assert not list(tmp_path.glob(f"*.g{md.generation + 1}.r*.bat"))

    def test_remove_old_unlinks_replaced_files(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        tele = synth_telemetry(md, hot_box(md))
        report = reorganize(
            meta, tele, config=ReorgConfig(min_queries=8, remove_old=True)
        )
        assert report.files_removed
        for name in report.files_removed:
            assert not (meta.parent / name).exists()
        with BATDataset(meta) as ds:
            ds.query(QueryRequest(quality=1.0))  # still fully readable

    def test_no_actions_is_a_no_op(self, tmp_path):
        meta = write_dataset(tmp_path)
        before = meta.read_text()
        report = apply_reorg(meta, [], config=ReorgConfig())
        assert not report.changed
        assert report.generation_from == report.generation_to == 0
        assert meta.read_text() == before

    def test_publish_logged_once(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro.reorg")
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        report = reorganize(meta, synth_telemetry(md, hot_box(md)),
                            config=ReorgConfig(min_queries=8))
        (record,) = reorg_events(caplog, "generation_to")
        assert record.levelno == logging.INFO
        assert (record.generation_from, record.generation_to) == (0, 1)
        assert record.actions == len(report.actions) > 0
        assert record.files_written == report.files_written

    def test_failed_verification_logged_once(self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="repro.reorg")
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        lossy_build_bat(monkeypatch)
        with pytest.raises(ReorgError):
            reorganize(meta, synth_telemetry(md, hot_box(md)), config=ReorgConfig(min_queries=8))
        (record,) = reorg_events(caplog, "generation_to")
        assert record.levelno == logging.WARNING
        assert (record.generation_from, record.generation_to) == (0, 1)
        assert record.leaf_indices

    def test_no_actions_logs_nothing(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro.reorg")
        apply_reorg(write_dataset(tmp_path), [], config=ReorgConfig())
        assert [r for r in caplog.records if r.name == "repro.reorg"] == []

    def test_double_claimed_leaf_rejected(self, tmp_path):
        meta = write_dataset(tmp_path)
        actions = [
            ReorgAction(kind="merge", leaf_indices=(0, 1)),
            ReorgAction(kind="recodec", leaf_indices=(1,)),
        ]
        with pytest.raises(ReorgError, match="claimed"):
            apply_reorg(meta, actions, config=ReorgConfig())

    def test_unknown_leaf_rejected(self, tmp_path):
        meta = write_dataset(tmp_path)
        with pytest.raises(ReorgError, match="unknown leaf"):
            apply_reorg(
                meta,
                [ReorgAction(kind="recodec", leaf_indices=(999,))],
                config=ReorgConfig(),
            )

    def test_hot_query_opens_fewer_files(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3, codecs="auto")
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        with BATDataset(meta) as ds:
            before = ds.query(QueryRequest(box=box, quality=1.0))
        tele = synth_telemetry(md, box, columns=("positions",))
        reorganize(
            meta, tele,
            config=ReorgConfig(min_queries=8, carve_min_points=1),
        )
        with BATDataset(meta) as ds:
            after = ds.query(QueryRequest(box=box, quality=1.0))
        assert canon(after.batch) == canon(before.batch)
        assert after.stats.files_opened < before.stats.files_opened

    @SETTINGS
    @given(
        seed=st.integers(0, 5),
        frac=st.tuples(
            st.floats(0.1, 0.5), st.floats(0.55, 0.9),
        ),
        quality=st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_queries_byte_identical_across_generations(
        self, tmp_path_factory, seed, frac, quality
    ):
        """Property: whichever generation a reader observes, its result
        equals the recursive reference walk of that generation."""
        out = tmp_path_factory.mktemp("reorg-prop")
        meta = write_dataset(out, nranks=9, seed=seed)
        md = DatasetMetadata.load(meta)
        box = hot_box(md, *frac)
        req = QueryRequest(box=box, quality=quality)
        with BATDataset(meta) as ds:
            g0 = ds.query(req)
            g0_ref, _ = recursive_query(ds, req)
        assert exact(g0.batch) == exact(g0_ref)
        reorganize(
            meta, synth_telemetry(md, box),
            config=ReorgConfig(min_queries=8, carve_min_points=1),
        )
        with BATDataset(meta) as ds:
            g1 = ds.query(req)
            g1_ref, _ = recursive_query(ds, req)
        # within the new generation: frontier == recursive, byte for byte
        assert exact(g1.batch) == exact(g1_ref)
        # across generations the full-quality multiset is invariant;
        # partial-quality samples legitimately follow the layout
        if quality == 1.0:
            assert canon(g1.batch) == canon(g0.batch)


# ---------------------------------------------------------------------------
# service reload


def serve_config(**kw):
    kw.setdefault("capacity", 2)
    kw.setdefault("degradation", False)
    return ServeConfig(**kw)


class TestServiceReload:
    def test_reload_serves_new_generation_coherently(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        req = QueryRequest(box=box, quality=1.0)
        with QueryService(meta, serve_config()) as svc:
            r0 = svc.execute(req)
            assert svc.generation(0) == 0

            reorganize(meta, synth_telemetry(md, box),
                       config=ReorgConfig(min_queries=8, carve_min_points=1))
            # not reloaded yet: still the old generation, caches intact
            r_cached = svc.execute(req)
            assert r_cached.cache_hit
            assert exact(r_cached.batch) == exact(r0.batch)

            assert svc.maybe_reload(0) is True
            assert svc.generation(0) == 1
            assert svc.maybe_reload(0) is False  # idempotent

            # the new generation's result key misses the old entry and the
            # response is byte-identical to a direct query against it
            r1 = svc.execute(req)
            assert not r1.cache_hit
            with BATDataset(meta) as ds:
                direct = ds.query(req)
            assert exact(r1.batch) == exact(direct.batch)
            assert canon(r1.batch) == canon(r0.batch)
            assert svc.snapshot()["generations"]["0"] == 1

    def test_reload_logged_once_with_results_evicted(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="repro.serve.service")
        meta = write_dataset(tmp_path)
        with QueryService(meta, serve_config()) as svc:
            for q in (0.4, 0.8):
                svc.execute(QueryRequest(quality=q))
            generation = svc.reload_step(0)
            (record,) = [r for r in caplog.records if r.name == "repro.serve.service"]
            assert record.levelno == logging.INFO
            assert (record.step, record.generation, record.evicted) == (0, generation, 2)
            svc.reload_step(0)  # nothing cached any more
            assert [r.evicted for r in caplog.records
                    if r.name == "repro.serve.service"] == [2, 0]

    def test_snapshot_exports_telemetry(self, tmp_path):
        meta = write_dataset(tmp_path)
        with QueryService(meta, serve_config()) as svc:
            svc.execute(QueryRequest(quality=0.5))
            doc = svc.snapshot()
        tele = doc["telemetry"]
        json.dumps(tele, allow_nan=False)
        assert tele["queries"] >= 1
        assert "0" in tele["steps"]

    def test_daemon_run_once_reorganizes_and_reloads(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        req = QueryRequest(box=box, quality=1.0)
        with QueryService(meta, serve_config()) as svc:
            baseline = svc.execute(req)
            # distinct qualities defeat the result cache so every query
            # reaches the dataset and records box-census evidence
            for i in range(12):
                svc.execute(QueryRequest(box=box, quality=0.5 + i * 0.04))
            daemon = ReorgDaemon(
                svc,
                config=ReorgConfig(min_queries=8, min_box_queries=4,
                                   carve_min_points=1),
            )
            reports = daemon.run_once()
            assert [r.changed for r in reports] == [True]
            assert svc.generation(0) == 1
            fresh = svc.execute(req)
            assert canon(fresh.batch) == canon(baseline.batch)

    def test_replayed_hot_trace_costs_less_after_reorg(self, tmp_path):
        """Reorganizing from a service's *own* telemetry makes the identical
        trace open fewer files and decode fewer bytes (counters only)."""
        meta = write_dataset(tmp_path, nranks=16, seed=3, codecs="auto")
        md = DatasetMetadata.load(meta)
        attr = sorted(md.attr_dtypes)[0]
        # one shared view plus two zoom-ins nested inside it: the
        # recurring-exact-box pattern the telemetry's box census recognizes
        views = [
            hot_box(md, 0.30, 0.58), hot_box(md, 0.34, 0.52), hot_box(md, 0.38, 0.50)
        ]
        trace = [
            QueryRequest(box=box, quality=1.0, columns=("positions", attr))
            for _ in range(6)
            for box in views
        ]
        # no memory budget (no result or column is cached), one worker (so
        # no window overlaps another): every hot view reaches the I/O layer
        # and pays the decode work its layout induces
        config = serve_config(capacity=1, memory_bytes=0)

        def replay():
            with QueryService(meta, config) as svc:
                generation = svc.generation(0)
                responses = [svc.execute(req) for req in trace]
                tele = svc.telemetry.snapshot()
                opens = svc.telemetry.files_opened(0)
            # sampled responses equal a direct query on the generation
            # this phase observed
            with BATDataset(meta) as ds:
                assert ds.metadata.generation == generation
                for req, resp in list(zip(trace, responses))[::4]:
                    assert exact(resp.batch) == exact(ds.query(req).batch)
            decoded = sum(
                leaf["decoded_bytes"] for leaf in tele["steps"]["0"]["leaves"].values()
            )
            return generation, tele, opens, decoded

        gen0, tele, opens0, decoded0 = replay()
        report = reorganize(
            meta, tele, step=0, config=ReorgConfig(min_queries=8, min_box_queries=4)
        )
        assert report.changed
        gen1, _, opens1, decoded1 = replay()
        assert (gen0, gen1) == (0, 1)
        assert 0 < opens1 < opens0
        assert 0 < decoded1 < decoded0

    def test_daemon_below_evidence_is_a_no_op(self, tmp_path):
        meta = write_dataset(tmp_path)
        with QueryService(meta, serve_config()) as svc:
            daemon = ReorgDaemon(svc, config=ReorgConfig(min_queries=8))
            reports = daemon.run_once()
            assert [r.changed for r in reports] == [False]
            assert svc.generation(0) == 0


# ---------------------------------------------------------------------------
# satellite: sharded invalidation — reload RPC fan-out + crash respawn


class TestShardedReload:
    def test_reload_broadcast_reaches_every_worker(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        req = QueryRequest(box=box, quality=1.0)
        with ShardedQueryService(meta, serve_config(), n_shards=2) as svc:
            r0 = svc.execute(req)
            reorganize(meta, synth_telemetry(md, box),
                       config=ReorgConfig(min_queries=8, carve_min_points=1))
            assert svc.generation(0) == 0  # nothing reloaded yet
            assert svc.reload_step(0) == 1
            assert svc.generation(0) == 1
            # every live worker reopened the new manifest
            for client in svc._shards:
                worker = client.call("snapshot")
                assert worker["generations"].get("0", 1) == 1
            r1 = svc.execute(req)
            with BATDataset(meta) as ds:
                direct = ds.query(req)
            assert exact(r1.batch) == exact(direct.batch)
            assert canon(r1.batch) == canon(r0.batch)

    def test_window_scattered_mid_broadcast_never_mixes_layouts(
        self, tmp_path, monkeypatch
    ):
        """The router has swapped to the new manifest but one worker has
        not had its ``reload`` yet: the scatter doc's generation makes
        that worker catch up before it answers, so the merged response is
        the new generation's bytes — never rows of superseded leaves."""
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        req = QueryRequest(quality=1.0)  # spans every leaf, hence both shards
        with ShardedQueryService(meta, serve_config(), n_shards=2) as svc:
            svc.execute(req)  # both workers hold generation 0
            reorganize(meta, synth_telemetry(md, hot_box(md)),
                       config=ReorgConfig(min_queries=8, carve_min_points=1))
            late = svc._shards[1]
            call = late.call
            monkeypatch.setattr(
                late, "call",
                lambda kind, *a, **kw: None if kind == "reload" else call(kind, *a, **kw),
            )
            assert svc.reload_step(0) == 1
            assert late.call("snapshot")["generations"]["0"] == 0  # withheld
            got = svc.execute(req)
            with QueryService(meta, serve_config()) as single:
                want = single.execute(req)
            assert not got.partial
            assert exact(got.batch) == exact(want.batch)
            assert late.call("snapshot")["generations"]["0"] == 1

    def test_worker_ahead_of_the_router_fails_the_request(self, tmp_path, caplog):
        """A worker already on a newer layout than the request was planned
        against refuses it with a typed error, logged once at the router;
        nothing is merged or cached."""
        from repro.serve import StaleGeneration

        caplog.set_level(logging.WARNING, logger="repro.serve.shard")
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        req = QueryRequest(quality=1.0)
        with ShardedQueryService(meta, serve_config(), n_shards=2) as svc:
            assert svc.generation(0) == 0
            reorganize(meta, synth_telemetry(md, hot_box(md)),
                       config=ReorgConfig(min_queries=8, carve_min_points=1))
            svc._shards[0].call("reload", {"step": 0})  # one worker moves on
            with pytest.raises(StaleGeneration):
                svc.execute(req)
            assert svc.snapshot(include_workers=False)["caches"]["results"]["entries"] == 0
            (stale,) = [r for r in caplog.records if r.name == "repro.serve.shard"]
            assert (stale.shard_id, stale.step, stale.generation) == (0, 0, 0)
            assert stale.levelno == logging.WARNING
            svc.reload_step(0)
            with BATDataset(meta) as ds:
                assert exact(svc.execute(req).batch) == exact(ds.query(req).batch)

    def test_respawned_worker_reads_new_manifest(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        req = QueryRequest(box=box, quality=1.0)
        with ShardedQueryService(meta, serve_config(), n_shards=2) as svc:
            r0 = svc.execute(req)
            reorganize(meta, synth_telemetry(md, box),
                       config=ReorgConfig(min_queries=8, carve_min_points=1))
            svc.reload_step(0)
            # a worker that dies after the republish respawns straight
            # onto the new manifest — no broadcast needed for it
            svc._shards[0].process.kill()
            svc._shards[0].process.join(5.0)
            r1 = svc.execute(req)
            with BATDataset(meta) as ds:
                direct = ds.query(req)
            assert exact(r1.batch) == exact(direct.batch)
            assert canon(r1.batch) == canon(r0.batch)

    def test_router_merges_worker_telemetry(self, tmp_path):
        meta = write_dataset(tmp_path, nranks=16, seed=3)
        md = DatasetMetadata.load(meta)
        box = hot_box(md)
        with ShardedQueryService(meta, serve_config(), n_shards=2) as svc:
            for i in range(6):
                svc.execute(QueryRequest(box=box, quality=0.5 + i * 0.05))
            doc = svc.telemetry_snapshot()
            json.dumps(doc, allow_nan=False)
            assert doc["queries"] >= 6
            leaves = doc["steps"]["0"]["leaves"]
            assert sum(t["opens"] for t in leaves.values()) > 0
            # the merged document drives the planner exactly like a
            # single-process snapshot does
            actions = plan_reorg(
                md, doc,
                config=ReorgConfig(min_queries=4, min_box_queries=4,
                                   carve_min_points=1),
            )
            assert actions
