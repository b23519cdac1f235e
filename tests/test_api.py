"""Tests for the unified query API: open_dataset / QueryRequest / QueryResult.

Covers the public-surface contract (every ``repro.__all__`` name imports
and is documented), request validation, the one call form (a request
object — the pre-1.x keyword/positional forms are gone and fail loudly),
and the request wire doc.
"""

import pytest

import repro
from repro import QueryRequest, QueryResult, open_dataset
from repro.api import request_from_doc, request_to_doc
from repro.bat import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.errors import InvalidRequestError, ReproError
from repro.machines import testing_machine as make_test_machine
from repro.serve import QueryService, ServeConfig
from repro.types import Box
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = make_rank_data(nranks=16, seed=11)
    out = tmp_path_factory.mktemp("api-ds")
    writer = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024)
    report = writer.write(data, out_dir=out, name="vis")
    with open_dataset(report.metadata_path) as ds:
        yield ds


# -- public surface ---------------------------------------------------------


def test_all_names_importable_and_documented():
    for name in repro.__all__:
        obj = getattr(repro, name)
        assert obj is not None, name
        doc = getattr(obj, "__doc__", None)
        assert doc and doc.strip(), f"repro.{name} has no docstring"


def test_error_hierarchy_exported():
    from repro.errors import (
        AdmissionRejected,
        CodecError,
        IntegrityError,
        LeafUnavailableError,
        PublishError,
    )

    for exc in (
        IntegrityError,
        LeafUnavailableError,
        PublishError,
        AdmissionRejected,
        CodecError,
        InvalidRequestError,
    ):
        assert issubclass(exc, ReproError)


# -- QueryRequest validation ------------------------------------------------


def test_request_validates_quality():
    with pytest.raises(InvalidRequestError):
        QueryRequest(quality=-0.1)
    with pytest.raises(InvalidRequestError):
        QueryRequest(quality=1.5)
    with pytest.raises(InvalidRequestError):
        QueryRequest(quality=0.5, prev_quality=0.6)
    QueryRequest(quality=0.0)  # empty read: valid, progressive loops start here


def test_request_validates_on_error():
    with pytest.raises(InvalidRequestError, match="on_error"):
        QueryRequest(on_error="explode")
    # InvalidRequestError stays catchable as ValueError for old callers
    with pytest.raises(ValueError):
        QueryRequest(on_error="explode")


def test_request_is_hashable_and_normalizes_sequences():
    req = QueryRequest(filters=[AttributeFilter("temp", 0.0, 1.0)], columns=["temp"])
    assert isinstance(req.filters, tuple)
    assert req.columns == ("temp",)
    assert hash(req) == hash(
        QueryRequest(filters=(AttributeFilter("temp", 0.0, 1.0),), columns=("temp",))
    )


def test_box_of_arrays_is_a_box_of_float_tuples(dataset):
    """Numpy corners are coerced, so the request hashes and the read runs."""
    import numpy as np

    req = QueryRequest(box=Box(np.zeros(3), np.full(3, 2.0)))
    assert req.box == Box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    assert all(type(c) is float for c in req.box.lower + req.box.upper)
    assert hash(req) == hash(QueryRequest(box=Box((0, 0, 0), (2, 2, 2))))
    got, _ = dataset.query(req)
    want, _ = dataset.query(QueryRequest(box=Box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))))
    assert got.digest() == want.digest()


@pytest.mark.parametrize(
    "box",
    [((0, 0, 0), (1, 1, 1)), Box((0, 0), (1, 1)), Box((0, 0, 0), ("a", 1, 1)), Box(None, None)],
    ids=["tuple-pair", "two-axes", "not-a-number", "no-corners"],
)
def test_bad_box_is_an_invalid_request(box):
    with pytest.raises(InvalidRequestError, match="box"):
        QueryRequest(box=box)


def test_result_unpacks_like_a_tuple(dataset):
    res = dataset.query(QueryRequest(quality=0.5))
    assert isinstance(res, QueryResult)
    batch, stats = res
    assert batch is res.batch and stats is res.stats
    assert len(res) == len(batch)


# -- one call form ----------------------------------------------------------


def test_unknown_legacy_kwarg_rejected(dataset):
    with pytest.raises(TypeError):
        dataset.query(qualtiy=0.5)  # typo must not be silently dropped
    with pytest.raises(TypeError):
        dataset.query(quality=0.5)  # nor the pre-1.x keyword form
    with pytest.raises(InvalidRequestError, match="QueryRequest"):
        dataset.query(0.5)  # nor a bare positional quality


def test_bare_query_still_works_without_warning(dataset):
    """`batch, stats = ds.query()` is a full-quality read of everything."""
    batch, stats = dataset.query()
    assert len(batch) == dataset.total_particles
    assert stats.points_returned == len(batch)


def test_columns_selection_roundtrip(dataset):
    res = dataset.query(QueryRequest(columns=("mass",)))
    assert set(res.batch.attributes) == {"mass"}
    full = dataset.query(QueryRequest())
    assert res.batch.attributes["mass"].tobytes() == full.batch.attributes["mass"].tobytes()


# -- serve layer --------------------------------------------------------------


def test_serve_rejects_mixed_request_and_legacy_kwargs(dataset):
    svc = QueryService(dataset.metadata_path, ServeConfig(capacity=1))
    try:
        sid = svc.open_session()
        with pytest.raises(TypeError):
            svc.request(sid, QueryRequest(quality=0.5), quality=0.5)
        with pytest.raises(TypeError, match="QueryRequest"):
            svc.request(sid, 0.5)
    finally:
        svc.close()


# -- wire doc -----------------------------------------------------------------


def test_stored_doc_with_engine_key_still_parses():
    """The SQLite job queue persists request docs; docs written while a
    query request could still choose its traversal carry an ``engine``
    key, which must be ignored, not rejected."""
    req = QueryRequest(quality=0.4, prev_quality=0.1, columns=("mass",))
    doc = request_to_doc(req)
    assert "engine" not in doc
    for engine in ("frontier", "recursive"):
        assert request_from_doc({**doc, "engine": engine}) == req
    # pre-family docs (no "family" tag) carried it too
    old = {k: v for k, v in doc.items() if k != "family"}
    assert request_from_doc({**old, "engine": "frontier"}) == req


# -- open_dataset -----------------------------------------------------------


def test_open_dataset_context_manager(tmp_path):
    data = make_rank_data(nranks=4, seed=3)
    writer = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024)
    report = writer.write(data, out_dir=tmp_path, name="vis")
    with open_dataset(report.metadata_path) as ds:
        res = ds.query(QueryRequest())
        assert len(res) == ds.total_particles
