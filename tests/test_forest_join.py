"""A forest of tables joined as bytes equals the field-by-field reference.

:class:`repro.bat.query._Forest` views the tables' joined bytes as their
shared dtype and copies each field it is asked for out once;
``tests/reference_forest.py`` concatenates every field table by table.
Both lay out the same rows, so every field must match in dtype and
value (and a field not asked for be ``None`` in both), for walk and
shallow tables of any attribute count, one table or many, nesting or
not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat.file import shallow_table_dtype, walk_table_dtype
from repro.bat.query import _Forest
from tests.reference_forest import forest_fields

#: each kind's dtype and the fields a forest of it can gather
KINDS = {
    "walk": (walk_table_dtype, ("lo", "hi", "bitmaps", "begin", "count")),
    "shallow": (shallow_table_dtype, ("lo", "hi", "bitmaps", "leaf")),
}


def table(dtype, rows: int, nests: bool, rng) -> np.ndarray:
    """A table of ``rows`` random rows whose parents lie inside it."""
    t = np.zeros(rows, dtype=dtype)
    for name in dtype.names:
        sub = dtype[name]
        shape = (rows, *sub.shape)
        if sub.base.kind == "f":
            t[name] = rng.normal(size=shape)
        elif sub.base.kind in "iu":
            info = np.iinfo(sub.base)
            t[name] = rng.integers(max(info.min, -(2**31)), min(info.max, 2**31), size=shape)
    t["parent"] = rng.integers(0, rows, size=rows)
    t["nests"] = nests
    return t


@st.composite
def forests(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    n_attrs = draw(st.sampled_from([0, 1, 4]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make, names = KINDS[kind]
    dtype = make(n_attrs)
    tables = [
        table(dtype, draw(st.integers(1, 9)), draw(st.booleans()), rng) for _ in range(n)
    ]
    ranks = np.sort(rng.choice(64, size=n, replace=False))
    fields = tuple(draw(st.lists(st.sampled_from(names), unique=True)))
    return tables, ranks, fields


@settings(max_examples=200, deadline=None)
@given(forests())
def test_join_equals_field_by_field(case):
    tables, ranks, fields = case
    got = _Forest(tables, ranks, fields)
    want = forest_fields(tables, ranks, fields)
    for name, ref in want.items():
        value = getattr(got, name)
        if ref is None:
            assert value is None, name
            continue
        value = np.asarray(value)
        assert value.dtype == np.asarray(ref).dtype, name
        np.testing.assert_array_equal(value, ref, err_msg=name)


def test_join_survivors_equal_per_table():
    """Rows of a loose table beside nesting ones: the joined forest's
    survivors are each table's own, back to back."""
    rng = np.random.default_rng(7)
    dtype = walk_table_dtype(2)
    tables = [table(dtype, 9, nests, rng) for nests in (True, False, True)]
    for t in tables:  # a tree: every parent precedes its row, depth one more
        t["parent"][0] = 0
        t["parent"][1:] = [rng.integers(0, i) for i in range(1, len(t))]
        t["depth"][0] = 0
        for i in range(1, len(t)):
            t["depth"][i] = t["depth"][t["parent"][i]] + 1
    keep = rng.random(27) < 0.6
    alive, visited = _Forest(tables, [0, 1, 2], ()).survivors(keep)
    for k, t in enumerate(tables):
        one = _Forest([t], [k], ()).survivors(keep[9 * k : 9 * k + 9])
        np.testing.assert_array_equal(alive[9 * k : 9 * k + 9], one[0])
        np.testing.assert_array_equal(visited[9 * k : 9 * k + 9], one[1])
