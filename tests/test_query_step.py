"""A dataset read is one step: every planned file read as one forest.

:meth:`BATDataset.query` hands all its planned files to one
:func:`~repro.bat.query.stream_query_file` call (one rung, no order keys). The step must be
indistinguishable from reading the same plan one file at a time, in plan
order — the same bytes, the same ten :class:`QueryStats` fields
(``decoded_bytes`` included), and the same degraded-read contract — and
its rows must equal the recursive reference walk's. Hypothesis drives
boxes that contain, cut and miss files, bitmap-pruning filters, column
projections and progressive windows over datasets whose files reach
different treelet depths.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.bat.query as query_module
import repro.core.dataset as dataset_module
from repro import BATBuildConfig, Box, QueryRequest
from repro.bat import AttributeFilter, BATFile
from repro.bat.query import LEAF_ERRORS, QueryStats, StepPart, query_file
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset, empty_batch
from repro.errors import IntegrityError, InvalidRequestError, LeafUnavailableError
from repro.machines import testing_machine
from repro.types import ParticleBatch
from tests.test_pipeline import make_rank_data
from tests.test_query_engines import recursive_query

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: the rank grid's domain (``make_rank_data``'s default)
DOMAIN = Box((0.0, 0.0, 0.0), (4.0, 4.0, 1.0))


def write(out, version: int, name: str = "step", **cfg):
    """A multi-file dataset whose files reach different treelet depths."""
    config = BATBuildConfig(codecs="auto", **cfg) if version == 4 else BATBuildConfig(**cfg)
    writer = TwoPhaseWriter(testing_machine(), target_size=48 * 1024, bat_config=config)
    data = make_rank_data(nranks=6, seed=2, min_n=50, max_n=6000, domain=DOMAIN)
    return writer.write(data, out_dir=out, name=name).metadata_path


@pytest.fixture(scope="module", params=[3, 4], ids=["v3", "v4"])
def meta(request, tmp_path_factory):
    path = write(tmp_path_factory.mktemp(f"step{request.param}"), request.param)
    with BATDataset(path) as ds:
        assert ds.n_files >= 3
        assert ds.file(0).version == request.param
        depths = {ds.file(i).max_treelet_depth for i in range(ds.n_files)}
        assert len(depths) >= 2
    return path


def split_columns(columns):
    if columns is None:
        return None, True
    return [c for c in columns if c != "positions"], "positions" in columns


def per_file_loop(ds: BATDataset, req: QueryRequest):
    """``ds.query(req)`` as one ``query_file`` call per planned file.

    Same plan, same file order, same per-file boxes; a corrupt or missing
    file is skipped and counted, as ``on_error="degrade"`` reads count it.
    """
    attributes, with_positions = split_columns(req.columns)
    plan = ds.plan(req.box, req.filters)
    stats = QueryStats(pruned_files=plan.pruned_files, quarantined_files=plan.excluded_files)
    batches = []
    for fp in plan.files:
        try:
            f = ds.file(fp.leaf_index)
            before = f.decoded_bytes
            batch, s = query_file(
                f, quality=req.quality, prev_quality=req.prev_quality, box=fp.box,
                filters=req.filters, attributes=attributes, with_positions=with_positions,
            )
        except LEAF_ERRORS:
            stats.quarantined_files += 1
            continue
        s.decoded_bytes = f.decoded_bytes - before
        stats.merge(s)
        if len(batch):
            batches.append(batch)
    if not batches:
        return empty_batch(ds, req.columns), stats
    return ParticleBatch.concatenate(batches), stats


def assert_step_is_the_loop(meta, req):
    with BATDataset(meta) as ds:
        want, want_stats = per_file_loop(ds, req)
    with BATDataset(meta) as ds:
        got, got_stats = ds.query(req)
    assert got.digest() == want.digest()
    assert dataclasses.astuple(got_stats) == dataclasses.astuple(want_stats)
    return got, got_stats


def boxes():
    lo = st.tuples(
        *(st.floats(a - 0.5, b + 0.5, width=32) for a, b in zip(DOMAIN.lower, DOMAIN.upper))
    )
    return st.one_of(
        st.none(),
        st.builds(lambda a, b: Box(tuple(map(min, a, b)), tuple(map(max, a, b))), lo, lo),
    )


def filter_sets():
    temp = st.tuples(st.floats(200, 400), st.floats(0, 60)).map(
        lambda t: AttributeFilter("temp", t[0], t[0] + t[1])
    )
    mass = st.tuples(st.floats(0, 1), st.floats(0, 0.3)).map(
        lambda t: AttributeFilter("mass", t[0], t[0] + t[1])
    )
    return st.lists(st.one_of(temp, mass), max_size=2).map(tuple)


def windows():
    """``(prev_quality, quality)``: from 0, progressive, or empty."""
    q = st.floats(0.0, 1.0)
    return st.one_of(
        q.map(lambda b: (0.0, b)),
        st.tuples(q, q).map(lambda t: (min(t), max(t))),
        q.map(lambda a: (a, a)),
    )


COLUMNS = st.sampled_from([None, ("temp",), ("positions",), ("positions", "mass"), ()])


class _NaNEmpty:
    """``numpy``, but ``empty`` fills a floating array with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float, **kwargs):
        out = np.empty(shape, dtype, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out


class TestStepEqualsPerFileLoop:
    @SETTINGS
    @given(box=boxes(), filters=filter_sets(), qs=windows(), columns=COLUMNS)
    def test_batch_and_all_stats(self, meta, box, filters, qs, columns):
        prev, q = qs
        req = QueryRequest(quality=q, prev_quality=prev, box=box, filters=filters, columns=columns)
        got, stats = assert_step_is_the_loop(meta, req)
        if columns is None:
            with BATDataset(meta) as ds:
                ref, ref_stats = recursive_query(ds, req)
            assert got.digest() == ref.digest()
            assert stats.points_returned == ref_stats.points_returned
            assert stats.points_tested == ref_stats.points_tested
            assert stats.treelets_visited == ref_stats.treelets_visited

    @pytest.mark.parametrize("columns", [None, ("temp",), ("positions",)])
    def test_mixed_plan_boxes(self, meta, columns):
        """A box that contains some files whole and cuts others: plan boxes
        both ``None`` and set in one step, plus a bitmap-pruning filter."""
        box = Box((0.0, 0.0, 0.0), (2.0, 4.0, 1.0))
        with BATDataset(meta) as ds:
            plan = ds.plan(box)
            kinds = {fp.box is None for fp in plan.files}
            assert kinds == {True, False}
        for filters in ((), (AttributeFilter("temp", 300.0, 310.0),)):
            for prev, q in ((0.0, 1.0), (0.0, 0.4), (0.3, 0.8), (0.5, 0.5)):
                req = QueryRequest(
                    quality=q, prev_quality=prev, box=box, filters=filters, columns=columns
                )
                assert_step_is_the_loop(meta, req)

    @pytest.mark.parametrize("columns", [("temp",), None])
    @pytest.mark.parametrize("filters", [(), (AttributeFilter("temp", 300.0, 310.0),)])
    def test_box_test_compares_only_gathered_positions(self, meta, monkeypatch, filters, columns):
        """A step that mixes plan boxes and box-free parts gathers positions
        for the box test over the boxed parts only: the test must compare
        no row that was never gathered. Every fresh float array of the
        read core starts as NaN here, so an unset row shows."""
        monkeypatch.setattr(query_module, "np", _NaNEmpty())
        real = query_module._Step._inbox
        seen = []

        def spying(self, ranks, sizes):
            inbox = real(self, ranks, sizes)

            def check(pos):
                seen.append(pos)
                return inbox(pos)

            return None if inbox is None else check

        monkeypatch.setattr(query_module._Step, "_inbox", spying)
        box = Box((0.0, 0.0, 0.0), (2.0, 4.0, 1.0))
        for prev, q in ((0.0, 1.0), (0.0, 0.4), (0.3, 0.8)):
            req = QueryRequest(
                quality=q, prev_quality=prev, box=box, filters=filters, columns=columns
            )
            assert_step_is_the_loop(meta, req)
        assert any(pos is not None for pos in seen)
        assert not any(np.isnan(pos).any() for pos in seen if pos is not None)

    def test_filters_bitmap_prune_treelets(self, meta):
        req = QueryRequest(filters=(AttributeFilter("temp", 399.0, 400.0),))
        _, stats = assert_step_is_the_loop(meta, req)
        assert stats.pruned_bitmap > 0

    def test_one_stream_query_file_call_per_request(self, meta, monkeypatch):
        calls = []
        real = dataset_module.stream_query_file

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(dataset_module, "stream_query_file", counting)
        with BATDataset(meta) as ds:
            off = Box((9.0,) * 3, (10.0,) * 3)
            for req in (QueryRequest(), QueryRequest(quality=0.2), QueryRequest(box=off)):
                calls.clear()
                ds.query(req)
                assert len(calls) == 1
                assert len(calls[0]) == len(ds.plan(req.box, req.filters).files)

    def test_one_file_is_the_one_part_step(self, meta):
        with BATDataset(meta) as ds:
            f = ds.file(1)
            box = Box((0.5, 0.5, 0.0), (3.0, 3.5, 1.0))
            one, one_stats = query_file(f, quality=0.6, box=box)
            part = StepPart(f, box)
            step, step_stats = query_file([part], quality=0.6)
        assert step.digest() == one.digest()
        assert step_stats == one_stats == part.stats
        assert part.error is None

    def test_step_boxes_are_per_part(self, meta):
        with BATDataset(meta) as ds:
            with pytest.raises(InvalidRequestError):
                query_file([StepPart(ds.file(0))], box=DOMAIN)

    def test_empty_step(self):
        batch, stats = query_file([], quality=0.5)
        assert len(batch) == 0 and stats == QueryStats()


# -- degraded steps ------------------------------------------------------------


def flip_treelet(path, treelet: int = 0):
    """Flip one byte in the middle of treelet ``treelet`` of one leaf file."""
    with BATFile(path) as f:
        rec = f.shallow_leaves[treelet]
        at = int(rec["treelet_offset"]) + int(rec["treelet_nbytes"]) // 2
    raw = bytearray(path.read_bytes())
    raw[at] ^= 0xFF
    path.write_bytes(bytes(raw))


@pytest.fixture()
def damaged(tmp_path):
    """A v4 dataset with a CRC-failing treelet in leaf 1 and leaf 2 gone."""
    meta = write(tmp_path, 4, name="dmg")
    with BATDataset(meta) as ds:
        assert ds.n_files >= 4
        paths = [tmp_path / leaf.file_name for leaf in ds.metadata.leaves]
    flip_treelet(paths[1])
    paths[2].unlink()
    return meta


class TestDegradedSteps:
    REQS = (
        QueryRequest(on_error="degrade"),
        QueryRequest(quality=0.5, on_error="degrade"),
        QueryRequest(
            quality=0.8, prev_quality=0.2, box=Box((0.0, 0.0, 0.0), (3.0, 4.0, 1.0)),
            filters=(AttributeFilter("temp", 250.0, 320.0),), on_error="degrade",
        ),
        QueryRequest(columns=("temp",), on_error="degrade"),
    )

    @pytest.mark.parametrize("req", REQS, ids=["full", "lod", "refine", "onecol"])
    def test_same_rows_and_stats_as_the_loop(self, damaged, req):
        _, stats = assert_step_is_the_loop(damaged, req)
        assert stats.quarantined_files == 2
        with BATDataset(damaged) as ds:
            ds.query(req)
            assert sorted(ds.quarantined()) == [1, 2]

    def test_raise_names_the_first_failing_leaf(self, damaged):
        """A leaf that fails to open raises before the step runs, even
        where a leaf before it in plan order fails mid-step (the stream's
        rule); with the missing leaf set aside, the damaged one raises."""
        with BATDataset(damaged) as ds:
            with pytest.raises(LeafUnavailableError, match=r"dmg\.00002") as exc:
                ds.query()
            assert exc.value.leaf_index == 2
            assert ds.quarantined() == {}
            ds.quarantine_leaf(2, "known missing")
            with pytest.raises(IntegrityError, match=r"dmg\.00001"):
                ds.query()

    def test_failure_in_a_walk_table_build(self, tmp_path):
        """A v2 leaf (no checksums) whose treelet links a child outside
        itself fails in the walk-table build, after the other files'
        shallow passes: the window is redone without it."""
        from tests.test_walk_table import _bad_link_image

        meta = write(tmp_path, 3, name="v2", checksums=False)
        with BATDataset(meta) as ds:
            victim = tmp_path / ds.metadata.leaves[1].file_name
        victim.write_bytes(_bad_link_image(victim.read_bytes(), "n_nodes"))
        for req in (QueryRequest(quality=0.7, on_error="degrade"),
                    QueryRequest(quality=0.7, columns=("mass",), on_error="degrade")):
            _, stats = assert_step_is_the_loop(meta, req)
            assert stats.quarantined_files == 1

    @pytest.mark.parametrize("column", [None, "temp"])
    def test_failure_in_a_column_fetch(self, meta, monkeypatch, column):
        """A file that fails mid-gather, after every file's node tests:
        its rows never reach the result, the others count as without it."""
        with BATDataset(meta) as ds:
            bad = ds.metadata.leaves[1].file_name
        columns = BATFile.columns

        def failing(self, leaves, name):
            if self.path.endswith(bad) and name == column:
                raise IntegrityError(f"injected damage in {self.path}")
            return columns(self, leaves, name)

        monkeypatch.setattr(BATFile, "columns", failing)
        req = QueryRequest(
            quality=0.9, box=Box((0.0, 0.0, 0.0), (3.0, 4.0, 1.0)),
            filters=(AttributeFilter("temp", 250.0, 350.0),), on_error="degrade",
        )
        _, stats = assert_step_is_the_loop(meta, req)
        assert stats.quarantined_files == 1


def test_step_files_share_one_schema(tmp_path):
    a = write(tmp_path / "a", 3, name="a")
    with BATDataset(a) as ds:
        f = ds.file(0)
        other = np.random.default_rng(0)
        from repro.bat import build_bat

        pos = other.random((500, 3)).astype(np.float32)
        g = BATFile.from_bytes(build_bat(ParticleBatch(pos, {"rho": other.random(500)})).data)
        with pytest.raises(InvalidRequestError, match="attributes"):
            query_file([StepPart(f), StepPart(g)])
