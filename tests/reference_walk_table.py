"""The per-treelet walk-table build, kept as the reference.

The read path builds the walk tables of all of a file's surviving
treelets in one level-synchronous pass
(:func:`repro.bat.file.build_walk_tables`). This is the build it
replaced, one treelet at a time; ``tests/test_walk_table.py`` pins the
batched build to it byte for byte.
"""

import numpy as np

from repro.bat.file import _nests, _resolve_bitmaps, walk_table_dtype


def build_walk_table(
    nodes: np.ndarray, bbox: np.ndarray, dictionary: np.ndarray, levels: int
) -> np.ndarray:
    """Flatten one treelet's k-d nodes into a :func:`walk_table_dtype` array.

    The only place node boxes are derived from the splits: one level-by-
    level pass from the leaf's ``bbox`` through at most ``levels`` depths
    (no read looks deeper). Rows no link reaches keep a NaN box, depth -1
    and themselves as parent, so no test or depth window ever selects them.
    """
    n = len(nodes)
    axis, split = nodes["axis"], nodes["split"]
    children = np.stack([nodes["left"], nodes["right"]])
    ar = np.arange(n)
    ids = np.zeros(1, dtype=np.int64)
    box = np.asarray(bbox, dtype=np.float64).reshape(1, 2, 3)  # [:, 0] lo, [:, 1] hi
    level_ids, level_box, level_parent = [], [], [ids]
    for _ in range(levels):
        level_ids.append(ids)
        level_box.append(box)
        ax = axis[ids]
        desc = ax >= 0
        k = int(np.count_nonzero(desc))
        if k < len(ids):
            if k == 0:
                break
            ids, ax, box = ids[desc], ax[desc], box[desc]
        sp = split[ids]
        rows = ar[:k]
        lhi = box.copy()
        lhi[rows, 1, ax] = sp
        rlo = box.copy()
        rlo[rows, 0, ax] = sp
        level_parent += (ids, ids)
        ids = children[:, ids].ravel()
        box = np.concatenate([lhi, rlo])
    ids = np.concatenate(level_ids)
    t_box = np.full((n, 2, 3), np.nan)
    t_box[ids] = np.concatenate(level_box)
    t_depth = np.full(n, -1, dtype=np.int16)
    t_depth[ids] = np.repeat(ar[: len(level_ids)], [len(i) for i in level_ids])
    t_parent = ar.copy()
    # one entry for the root plus two per level below it (a pass that ran
    # out of levels queued parents for a level it never recorded)
    t_parent[ids] = np.concatenate(level_parent[: 2 * len(level_ids) - 1])
    bitmaps = _resolve_bitmaps(nodes["bitmap_ids"], dictionary)
    table = np.empty(n, dtype=walk_table_dtype(bitmaps.shape[1]))
    table["nests"] = _nests(t_box[:, 0], t_box[:, 1], bitmaps, t_parent)
    table["lo"], table["hi"], table["depth"], table["parent"] = (
        t_box[:, 0], t_box[:, 1], t_depth, t_parent
    )
    table["begin"], table["count"], table["bitmaps"] = nodes["begin"], nodes["count"], bitmaps
    return table
