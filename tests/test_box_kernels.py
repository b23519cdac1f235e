"""The axis-wise box kernels equal the broadcast forms they replaced.

:func:`~repro.types.points_in_box`, :func:`~repro.types.boxes_meet` and
:func:`~repro.types.boxes_within` compare axis-major, over transposed
``(3, n)`` rows, instead of an ``(n, 3)`` broadcast reduced over its
length-3 axis. The references below are the broadcast expressions,
verbatim, that the read core, the planner and the neighbor engine used
before. Every comparison must stay in float64: the points are float32
and sit exactly on float32-rounded query bounds, where a comparison in
float32 flips.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.types import Box, boxes_meet, boxes_within, points_in_box


def ref_points_in_box(pos, qlo, qhi):
    return np.all((pos >= qlo) & (pos <= qhi), axis=1)


def ref_boxes_meet(lo, hi, qlo, qhi):
    return np.all((lo <= qhi) & (hi >= qlo) & (lo <= hi), axis=1)


def ref_boxes_within(lo, hi, qlo, qhi):
    return ((qlo <= lo) & (hi <= qhi)).all(axis=1)


def ref_planner_contained(lo, hi, qlo, qhi):
    return np.all((qlo <= lo) & (qhi >= hi), axis=1)


#: a bound coordinate: finite float64 (rarely float32-representable), or infinite
BOUND = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([np.inf, -np.inf]))


@st.composite
def query_boxes(draw, n):
    """float64 ``(qlo, qhi)``, ``(3,)`` or one box per row; often empty."""
    shape = (n, 3) if draw(st.booleans()) else (3,)
    size = int(np.prod(shape))
    qlo, qhi = (
        np.array(draw(st.lists(BOUND, min_size=size, max_size=size)), dtype=np.float64)
        .reshape(shape)
        for _ in range(2)
    )
    return qlo, qhi


@st.composite
def rows_near(draw, qlo, qhi, n):
    """``(n, 3)`` rows whose coordinates sit exactly on the float32-rounded
    query bounds, next to them, anywhere, or are NaN (single coordinates
    and whole rows, as in walk-table rows no link reaches)."""
    lo, hi = np.broadcast_to(qlo, (n, 3)), np.broadcast_to(qhi, (n, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    with np.errstate(over="ignore", invalid="ignore"):
        choices = np.stack([
            lo.astype(np.float32).astype(dtype),
            hi.astype(np.float32).astype(dtype),
            np.nextafter(lo.astype(np.float32), np.float32(np.inf)).astype(dtype),
            np.nextafter(hi.astype(np.float32), np.float32(-np.inf)).astype(dtype),
            np.full((n, 3), draw(st.floats(-3.0, 3.0, width=32)), dtype=dtype),
            np.full((n, 3), np.nan, dtype=dtype),
        ])
    pick = np.array(
        draw(st.lists(st.integers(0, len(choices) - 1), min_size=3 * n, max_size=3 * n)),
        dtype=np.int64,
    ).reshape(n, 3)
    rows = np.take_along_axis(choices, pick[None], axis=0)[0]
    nan_rows = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)) if n else []
    rows[nan_rows] = np.nan
    return rows


@st.composite
def point_cases(draw):
    n = draw(st.integers(0, 24))
    qlo, qhi = draw(query_boxes(n))
    return draw(rows_near(qlo, qhi, n)), qlo, qhi


@st.composite
def box_cases(draw):
    n = draw(st.integers(0, 24))
    qlo, qhi = draw(query_boxes(n))
    lo = draw(rows_near(qlo, qhi, n))
    hi = draw(rows_near(qlo, qhi, n)).astype(lo.dtype)
    return lo, hi, qlo, qhi


def assert_same(got, want):
    assert got.dtype == np.bool_
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


EXAMPLES = settings(max_examples=150, deadline=None)

#: a float32 point on the float32-rounded upper bound 0.1, just outside it in float64
ON_ROUNDED = (
    np.full((1, 3), np.float32(0.1)), np.zeros(3), np.full(3, 0.1),
)


@EXAMPLES
@given(point_cases())
@example(ON_ROUNDED)
def test_points_in_box(case):
    pts, qlo, qhi = case
    assert_same(points_in_box(pts, qlo, qhi), ref_points_in_box(pts, qlo, qhi))


@EXAMPLES
@given(box_cases())
@example((ON_ROUNDED[0], ON_ROUNDED[0], *ON_ROUNDED[1:]))
def test_boxes_meet(case):
    lo, hi, qlo, qhi = case
    assert_same(boxes_meet(lo, hi, qlo, qhi), ref_boxes_meet(lo, hi, qlo, qhi))


@EXAMPLES
@given(box_cases())
@example((ON_ROUNDED[0], ON_ROUNDED[0], *ON_ROUNDED[1:]))
def test_boxes_within(case):
    lo, hi, qlo, qhi = case
    got = boxes_within(lo, hi, qlo, qhi)
    assert_same(got, ref_boxes_within(lo, hi, qlo, qhi))
    assert_same(got, ref_planner_contained(lo, hi, qlo, qhi))


def test_on_a_rounded_bound_is_outside():
    """The pinned case: float32(0.1) > 0.1, so the point is outside."""
    pts, qlo, qhi = ON_ROUNDED
    assert not points_in_box(pts, qlo, qhi).any()
    assert not boxes_within(pts, pts, qlo, qhi).any()
    assert boxes_meet(pts, pts, qlo, np.full(3, 0.2)).all()


def test_no_rows():
    none = np.empty((0, 3), dtype=np.float32)
    for qlo, qhi in ((np.zeros(3), np.ones(3)), (np.zeros((0, 3)), np.ones((0, 3)))):
        assert points_in_box(none, qlo, qhi).shape == (0,)
        assert boxes_meet(none, none, qlo, qhi).shape == (0,)
        assert boxes_within(none, none, qlo, qhi).shape == (0,)


@EXAMPLES
@given(point_cases())
def test_box_contains_points(case):
    pts, qlo, qhi = case
    if not len(pts):
        return
    box = Box(tuple(qlo.reshape(-1, 3)[0].tolist()), tuple(qhi.reshape(-1, 3)[0].tolist()))
    want = (
        np.zeros(len(pts), dtype=bool) if box.is_empty
        else ref_points_in_box(pts, np.asarray(box.lower), np.asarray(box.upper))
    )
    assert_same(box.contains_points(pts), want)
