"""A dataset stream is one step: every planned file, kept across rungs.

:meth:`BATDataset.stream` hands all its planned files to one
:func:`~repro.bat.query.stream_query_file` call. Rung by rung, the stepped
stream must be indistinguishable from the per-file loop it replaced
(``tests/reference_query.py``'s ``stream_per_file``: one generator per
file, stitched together) — the same batch bytes, order keys, qualities,
``partial`` flags and cumulative counters — except ``decoded_bytes``,
which the loop never set and the step sets from each handle's decode
counter, so the final rung's equals the direct query's. Hypothesis drives
boxes that contain, cut and miss files, bitmap-pruning filters, column
projections, progressive windows and 1–5-rung ladders over datasets whose
files reach different treelet depths; the degraded cases damage leaves
before the stream and mid-stream.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.dataset as dataset_module
from repro import Box, NeighborRequest, QueryRequest
from repro.bat import AttributeFilter, BATFile
from repro.bat.query import check_ladder
from repro.core.dataset import BATDataset
from repro.errors import IntegrityError, LeafUnavailableError
from tests.reference_query import stream_per_file
from tests.test_query_step import (
    COLUMNS, SETTINGS, boxes, filter_sets, flip_treelet, windows, write,
)


@pytest.fixture(scope="module", params=[3, 4], ids=["v3", "v4"])
def meta(request, tmp_path_factory):
    """``test_query_step``'s 6-file dataset, whose files reach different depths."""
    return write(tmp_path_factory.mktemp(f"stream{request.param}"), request.param)


@pytest.fixture()
def damaged(tmp_path):
    """A v4 dataset with a CRC-failing treelet in leaf 1 and leaf 2 gone."""
    meta = write(tmp_path, 4, name="dmg")
    with BATDataset(meta) as ds:
        paths = [tmp_path / leaf.file_name for leaf in ds.metadata.leaves]
    flip_treelet(paths[1])
    paths[2].unlink()
    return meta


def ladders(prev: float, q: float):
    """1–5 non-descending rungs from above ``prev``, ending at ``q``."""
    return st.lists(st.floats(prev, q), max_size=4).map(lambda r: (*sorted(r), q))


def rung(inc, keyed: bool = True) -> tuple:
    """Everything one increment carries, as comparable bytes; counters
    without ``decoded_bytes`` (the per-file loop never set them). With
    ``keyed=False`` the order keys are left out, as a one-rung stream
    builds none (the per-file loop always does)."""
    b = inc.batch
    order = inc.order if keyed else None
    return (
        inc.quality,
        inc.prev_quality,
        None if b.positions is None else (b.positions.dtype.str, b.positions.tobytes()),
        [(k, v.dtype.str, v.tobytes()) for k, v in b.attributes.items()],
        len(b),
        None if order is None else order.dtype.str,
        None if order is None else order.shape,
        None if order is None else order.tobytes(),
        inc.partial,
        dataclasses.astuple(inc.stats)[:-1],
    )


def lockstep(want_ds, got_ds, req, ladder, between=None):
    """Both streams of ``req``, one rung at a time: ``[(want, got), ...]``
    of :func:`rung` snapshots taken as each increment is yielded (the
    stats object is shared across a stream's increments). ``between(k)``
    runs after rung ``k`` of both. An error ends both: it is returned in
    place of the rung, as ``(type, message)``."""
    plan = want_ds.plan(req.box, req.filters)
    streams = [
        stream_per_file(want_ds, req, check_ladder(ladder, req.prev_quality), plan),
        got_ds.stream(req, ladder),
    ]
    out = []
    for k in range(len(ladder)):
        pair = []
        for gen, keyed in zip(streams, (len(ladder) > 1, True)):
            try:
                pair.append(rung(next(gen), keyed))
            except (IntegrityError, LeafUnavailableError) as exc:
                pair.append((type(exc), str(exc)))
        out.append(tuple(pair))
        if any(len(r) == 2 for r in pair):
            break
        if between is not None:
            between(k)
    for gen in streams:
        gen.close()
    return out


def assert_stream_is_the_loop(meta, req, ladder, between=None):
    with BATDataset(meta) as want_ds, BATDataset(meta) as got_ds:
        pairs = lockstep(want_ds, got_ds, req, ladder, between)
        assert want_ds.quarantined() == got_ds.quarantined()
    for k, (want, got) in enumerate(pairs):
        assert got == want, f"rung {k}"
    return [got for _, got in pairs]


class TestStepEqualsPerFileStream:
    @SETTINGS
    @given(
        box=boxes(), filters=filter_sets(), qs=windows(), columns=COLUMNS,
        data=st.data(),
    )
    def test_every_rung(self, meta, box, filters, qs, columns, data):
        prev, q = qs
        req = QueryRequest(quality=q, prev_quality=prev, box=box, filters=filters, columns=columns)
        ladder = data.draw(ladders(prev, q))
        assert_stream_is_the_loop(meta, req, ladder)
        if len(ladder) == 1:  # the one-shot read's work, decoded bytes too
            with BATDataset(meta) as ds:
                direct = ds.query(req).stats
            with BATDataset(meta) as ds:
                *_, last = ds.stream(req, ladder)
            assert dataclasses.astuple(last.stats) == dataclasses.astuple(direct)

    @pytest.mark.parametrize("columns", [None, ("temp",), ("positions",)])
    def test_mixed_plan_boxes(self, meta, columns):
        """Plan boxes both ``None`` and set in one step, with and without a
        bitmap-pruning filter."""
        box = Box((0.0, 0.0, 0.0), (2.0, 4.0, 1.0))
        for filters in ((), (AttributeFilter("temp", 300.0, 310.0),)):
            for prev, ladder in ((0.0, (1.0,)), (0.0, (0.1, 0.4)), (0.3, (0.5, 0.5, 0.8)),
                                 (0.0, (0.0, 0.2, 0.4, 0.7, 1.0))):
                req = QueryRequest(
                    quality=ladder[-1], prev_quality=prev, box=box, filters=filters,
                    columns=columns,
                )
                assert_stream_is_the_loop(meta, req, ladder)

    def test_one_stream_query_file_call_per_stream(self, meta, monkeypatch):
        calls = []
        real = dataset_module.stream_query_file

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(dataset_module, "stream_query_file", counting)
        with BATDataset(meta) as ds:
            off = Box((9.0,) * 3, (10.0,) * 3)
            for req, ladder in ((QueryRequest(), None), (QueryRequest(quality=0.2), (0.2,)),
                                (QueryRequest(box=off), (0.5, 1.0))):
                calls.clear()
                list(ds.stream(req, ladder))
                assert len(calls) == 1
                assert len(calls[0]) == len(ds.plan(req.box, req.filters).files)


def test_decoded_bytes_are_the_handles_decode_work(tmp_path):
    """A stream's ``decoded_bytes`` count its handles' decode work (they
    used to stay 0): a one-rung stream's equal the direct query's; a
    rung-split one walks — and decodes the node records of — the treelets
    the direct query emits whole, as its ``nodes_visited`` says."""
    meta = write(tmp_path, 4)
    req = QueryRequest(quality=0.6)
    with BATDataset(meta) as ds:
        direct = ds.query(req).stats
    with BATDataset(meta) as ds:
        *_, last = ds.stream(req, ladder=(0.6,))
    assert direct.decoded_bytes > 0
    assert last.stats.decoded_bytes == direct.decoded_bytes
    with BATDataset(meta) as ds:
        *_, last = ds.stream(req, ladder=(0.3, 0.6))
        decoded = sum(ds.file(i).decoded_bytes for i in range(ds.n_files))
    assert last.stats.nodes_visited > direct.nodes_visited
    assert last.stats.decoded_bytes == decoded > direct.decoded_bytes


def test_order_keys_name_the_treelets_visit_rank(meta):
    """A streamed row's key is ``(leaf, treelet visit rank in the file,
    slot)``, as documented: the key a ``center_box`` neighbor query gives
    the same particle, whichever treelets the box prunes."""
    with BATDataset(meta) as ds:
        lo, hi = np.asarray(ds.bounds.lower), np.asarray(ds.bounds.upper)
        box = Box(tuple(lo + 0.3 * (hi - lo)), tuple(lo + 0.55 * (hi - lo)))
        incs = list(ds.stream(QueryRequest(box=box), ladder=(0.5, 1.0)))
        members = ds.neighbors(NeighborRequest(center_box=box, k=1))
    keys = np.concatenate([inc.order for inc in incs])
    pos = np.concatenate([inc.batch.positions for inc in incs])
    at = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    assert len(keys) > 0
    np.testing.assert_array_equal(keys[at], members.center_keys)
    np.testing.assert_array_equal(pos[at].astype(np.float64), members.centers)


# -- degraded streams ------------------------------------------------------------


LADDERS = ((1.0,), (0.2, 0.6), (0.1, 0.3, 0.5, 0.8, 1.0))


class TestDegradedStreams:
    """Leaf 1 fails its treelet CRC, leaf 2 is gone (the ``damaged``
    fixture), or a leaf fails mid-stream."""

    @pytest.mark.parametrize("ladder", LADDERS, ids=["one", "two", "five"])
    @pytest.mark.parametrize("columns", [None, ("temp",)])
    def test_degrade_like_the_loop(self, damaged, ladder, columns):
        req = QueryRequest(quality=ladder[-1], columns=columns, on_error="degrade")
        got = assert_stream_is_the_loop(damaged, req, ladder)
        assert all(r[8] for r in got)  # partial from the first rung
        with BATDataset(damaged) as ds:
            list(ds.stream(req, ladder))
            assert sorted(ds.quarantined()) == [1, 2]

    @pytest.mark.parametrize("ladder", LADDERS, ids=["one", "two", "five"])
    def test_raise_like_the_loop(self, damaged, ladder):
        """The missing leaf fails at open, before any rung runs."""
        req = QueryRequest(quality=ladder[-1])
        (got,) = assert_stream_is_the_loop(damaged, req, ladder)
        assert got[0] is LeafUnavailableError and "dmg.00002" in got[1]

    def test_raise_names_the_first_failing_leaf(self, tmp_path):
        """Two leaves fail their CRC at the same rung: the stream raises
        for the first in plan order."""
        meta = write(tmp_path, 4, name="two")
        with BATDataset(meta) as ds:
            paths = [tmp_path / leaf.file_name for leaf in ds.metadata.leaves]
        for i in (3, 1):
            flip_treelet(paths[i])
        for ladder in LADDERS:
            req = QueryRequest(quality=ladder[-1])
            (got,) = assert_stream_is_the_loop(meta, req, ladder)
            assert got[0] is IntegrityError and "two.00001" in got[1]

    def test_query_and_stream_share_one_failure_rule(self, tmp_path):
        """Leaf 1 fails mid-step, leaf 3 fails to open: under "raise" a
        one-shot read and a stream name the same leaf — the one that fails
        to open, before the step runs — and under "degrade" both
        quarantine both leaves and count alike."""
        meta = write(tmp_path, 4, name="rule")
        with BATDataset(meta) as ds:
            paths = [tmp_path / leaf.file_name for leaf in ds.metadata.leaves]
        assert len(paths) >= 4
        flip_treelet(paths[1])
        paths[3].unlink()
        errors = []
        for read in (lambda ds: ds.query(), lambda ds: list(ds.stream(QueryRequest()))):
            with BATDataset(meta) as ds:
                with pytest.raises((IntegrityError, LeafUnavailableError)) as exc:
                    read(ds)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is LeafUnavailableError and "rule.00003" in errors[0][1]
        for q in (1.0, 0.4):
            req = QueryRequest(quality=q, on_error="degrade")
            with BATDataset(meta) as ds:
                direct = ds.query(req)
                assert sorted(ds.quarantined()) == [1, 3]
            with BATDataset(meta) as ds:
                (inc,) = ds.stream(req, ladder=(q,))
                assert sorted(ds.quarantined()) == [1, 3]
            assert dataclasses.astuple(inc.stats) == dataclasses.astuple(direct.stats)
            assert direct.stats.quarantined_files == 2 and inc.partial
            assert inc.batch.digest() == direct.batch.digest()

    def test_failure_in_a_walk_table_build(self, tmp_path):
        """A v2 leaf whose treelet links a child outside itself fails in
        the walk-table build, after every file's shallow pass."""
        from tests.test_walk_table import _bad_link_image

        meta = write(tmp_path, 3, name="v2", checksums=False)
        with BATDataset(meta) as ds:
            victim = tmp_path / ds.metadata.leaves[1].file_name
        victim.write_bytes(_bad_link_image(victim.read_bytes(), "n_nodes"))
        for on_error in ("degrade", "raise"):
            for ladder in LADDERS[1:]:
                req = QueryRequest(quality=ladder[-1], on_error=on_error)
                got = assert_stream_is_the_loop(meta, req, ladder)
                if on_error == "degrade":
                    assert len(got) == len(ladder) and got[0][8]
                else:
                    assert got[0][0] is IntegrityError and "v2.00001" in got[0][1]

    @pytest.mark.parametrize("on_error", ["degrade", "raise"])
    @pytest.mark.parametrize("column", [None, "temp"])
    def test_failure_in_a_column_fetch_at_rung_two(self, meta, monkeypatch, on_error, column):
        """Leaf 1 starts failing after rung 1: its rung-1 rows stay
        delivered, ``partial`` turns on at rung 2, and no later rung has
        a row of it (degrade) — or rung 2 raises naming it."""
        with BATDataset(meta) as ds:
            bad = ds.metadata.leaves[1].file_name
        request = BATFile.request
        armed = []

        def failing(self, leaves, slot):
            if armed and self.path.endswith(bad) and slot == self.attr_slots.get(column, 1):
                raise IntegrityError(f"injected damage in {self.path}")
            return request(self, leaves, slot)

        monkeypatch.setattr(BATFile, "request", failing)
        ladder = (0.2, 0.5, 0.9)
        req = QueryRequest(
            quality=0.9, box=Box((0.0, 0.0, 0.0), (3.0, 4.0, 1.0)),
            filters=(AttributeFilter("temp", 250.0, 350.0),), on_error=on_error,
        )
        got = assert_stream_is_the_loop(meta, req, ladder, between=lambda k: armed.append(k))
        first_keys = np.frombuffer(got[0][7], dtype=np.int64).reshape(got[0][6])
        assert (first_keys[:, 0] == 1).any() and not got[0][8]  # column 0 is the leaf
        if on_error == "raise":
            assert len(got) == 2 and got[1][0] is IntegrityError and bad in got[1][1]
            return
        assert len(got) == 3
        for r in got[1:]:
            keys = np.frombuffer(r[7], dtype=np.int64).reshape(r[6])
            assert r[8] and not (keys[:, 0] == 1).any()
