"""The field-by-field forest, kept as the reference.

:class:`repro.bat.query._Forest` lays several tables of trees back to
back by joining their bytes once and copying each field out of the join.
This is the layout it replaced: every field concatenated table by table.
``tests/test_forest_join.py`` pins the join to it, field by field.
"""

import numpy as np


def forest_fields(tables, ranks, fields) -> dict:
    """The forest of ``tables`` as a dict of its fields (``roots`` an int
    for one table; a field not named in ``fields`` ``None``), each
    concatenated table by table."""
    sizes = np.array([len(t) for t in tables])
    roots = sizes.cumsum() - sizes
    nests = np.array([t["nests"][0] for t in tables], dtype=bool)
    out = {
        "tid": np.repeat(np.asarray(ranks, dtype=np.int64), sizes),
        "roots": 0 if len(tables) == 1 else roots,
        "parent": np.concatenate([t["parent"] + r for t, r in zip(tables, roots)]),
        "depth": np.concatenate([t["depth"] for t in tables]),
        "loose": None if nests.all() else np.repeat(~nests, sizes),
    }
    for name in ("lo", "hi", "bitmaps", "begin", "count", "leaf"):
        out[name] = np.concatenate([t[name] for t in tables]) if name in fields else None
    return out
