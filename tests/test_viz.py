"""Tests for LOD presentation and the progressive streaming prototype."""

import pytest

from repro import QueryRequest
from repro.bat import AttributeFilter
from repro.core import TwoPhaseWriter
from repro.machines import testing_machine as make_test_machine
from repro.serve import QueryService, ServeConfig
from repro.types import Box
from repro.viz import lod_radius, quality_progression
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=9, seed=11)
    out = tmp_path_factory.mktemp("viz")
    report = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024).write(
        data, out_dir=out, name="stream"
    )
    return data, report.metadata_path


class TestLODRadius:
    def test_full_fraction_identity(self):
        assert lod_radius(2.0, 1.0) == 2.0

    def test_volume_conservation(self):
        # an eighth of the particles -> double the radius
        assert lod_radius(1.0, 1 / 8) == pytest.approx(2.0)

    def test_monotone(self):
        rs = [lod_radius(1.0, f) for f in (0.1, 0.3, 0.7, 1.0)]
        assert rs == sorted(rs, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            lod_radius(1.0, 0.0)
        with pytest.raises(ValueError):
            lod_radius(0.0, 0.5)


class TestQualityProgression:
    def test_fig13_shape(self, written):
        from repro.core.dataset import BATDataset

        _, meta = written
        with BATDataset(meta) as ds:
            rows = quality_progression(ds, qualities=(0.2, 0.4, 0.8))
        pts = [r["points"] for r in rows]
        assert pts == sorted(pts)
        radii = [r["radius"] for r in rows]
        assert radii == sorted(radii, reverse=True)
        assert all(0 < r["fraction"] <= 1 for r in rows)


def viewer_service(meta) -> QueryService:
    """The paper's §V-B viewer server (Fig 4): an in-process viewer wants
    deterministic full-quality increments, so degradation is off and
    cached results never expire."""
    return QueryService(
        meta,
        ServeConfig(
            capacity=2, degradation=False, result_ttl=None
        ),
    )


def increment(srv, sid, quality, box=None, filters=()):
    """What one viewer request adds to reach ``quality`` on its view."""
    return srv.request(
        sid, QueryRequest(quality=quality, box=box, filters=tuple(filters))
    ).batch


class TestStreamServer:
    def test_session_lifecycle(self, written):
        _, meta = written
        with viewer_service(meta) as srv:
            sid = srv.open_session()
            assert srv.n_sessions == 1
            srv.close_session(sid)
            assert srv.n_sessions == 0

    def test_progressive_increments_sum_to_total(self, written):
        data, meta = written
        with viewer_service(meta) as srv:
            sid = srv.open_session()
            total = 0
            for q in (0.2, 0.5, 0.8, 1.0):
                total += len(increment(srv, sid, q))
            assert total == data.total_particles
            assert srv.session(sid).delivered_quality == 1.0
            assert srv.session(sid).bytes_sent > 0

    def test_no_redundant_data(self, written):
        _, meta = written
        with viewer_service(meta) as srv:
            sid = srv.open_session()
            first = increment(srv, sid, 0.5)
            again = increment(srv, sid, 0.5)
            assert len(first) > 0
            assert len(again) == 0

    def test_lower_quality_request_empty(self, written):
        _, meta = written
        with viewer_service(meta) as srv:
            sid = srv.open_session()
            increment(srv, sid, 0.8)
            assert len(increment(srv, sid, 0.3)) == 0

    def test_view_change_resets_progression(self, written):
        _, meta = written
        with viewer_service(meta) as srv:
            sid = srv.open_session()
            increment(srv, sid, 1.0)
            box = Box((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
            inc = increment(srv, sid, 0.5, box=box)
            assert len(inc) > 0  # re-streamed for the new view
            assert box.contains_points(inc.positions).all()

    def test_filtered_stream(self, written):
        data, meta = written
        with viewer_service(meta) as srv:
            sid = srv.open_session()
            f = AttributeFilter("mass", 0.5, 1.0)
            got = 0
            for q in (0.5, 1.0):
                inc = increment(srv, sid, q, filters=[f])
                assert (inc.attributes["mass"] >= 0.5).all()
                got += len(inc)
            expected = sum(
                (b.attributes["mass"] >= 0.5).sum() for b in data.batches
            )
            assert got == expected

    def test_independent_sessions(self, written):
        _, meta = written
        with viewer_service(meta) as srv:
            a = srv.open_session()
            b = srv.open_session()
            increment(srv, a, 1.0)
            inc_b = increment(srv, b, 0.3)
            assert len(inc_b) > 0  # b's progression independent of a's
