"""The layer split of a cold read cycle: parent vs change, result-checked.

    python benchmarks/probes/cold_layers.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0]

For a change to the cold read path (``BATFile.treelet``,
``build_walk_tables``, ``BATFile.request`` / ``fetch_retained``,
``DecodedColumnCache.fetch_groups``, the codecs). A side sets up
``read_cold`` exactly as ``benchmarks/baseline/run.py`` does (writes
``D_main`` v4, runs the warm-up cycle), wraps timers around the layers,
runs one more cycle and then ``CYCLES`` timed ones: the seven classes of
``inputs.read_cold_ops``, a fresh ``BATFileCache`` and dataset per op.

Timed layers: ``decode_column`` per codec and column, ``BATFile.treelet``
(CRC + directory parse), ``BATFile.shallow_table`` and
``build_walk_tables``. Nothing nests, so with "everything else" (open,
plan, prune, gather, cache, concat) they add up to the cycle. Rows: the
median cycle ms, and per layer ms and calls per cycle; also "codec
work, all" and "everything else". The calls are not pinned: a cold-path
change may mean to move them.

Pinned per op: the result batch (sha256 of its rows and dtypes). The
pairs, the order flip and the verdicts are ``pairs.py``'s. Smoke run:
``. . pairs=1``, about half a minute.
"""

from __future__ import annotations

import collections
import statistics
import sys
import tempfile
import time

import pairs

CYCLES = 10


def side(seed: int) -> dict:
    import inputs
    import repro
    import repro.bat.file as bf
    from repro.bat.filecache import BATFileCache
    from workloads import ReadCold

    spent, calls, column = collections.Counter(), collections.Counter(), {}

    def timed(name, fn):
        def wrapper(*a, **k):
            key = name if isinstance(name, str) else name(*a)
            t = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                spent[key] += time.perf_counter() - t
                calls[key] += 1
        return wrapper

    def decode_slot(fn):  # remembers which column the codec call is for
        def wrapper(self, leaf, slot):
            column["name"] = ["nodes", "positions", *self.attr_names][slot]
            return fn(self, leaf, slot)
        return wrapper

    with tempfile.TemporaryDirectory(prefix="cold_layers_") as tmp:
        w = ReadCold(seed, inputs.FULL, tmp)
        w.setup()
        bf.decode_column = timed(lambda codec, *a: f"decode {codec} {column['name']}",
                                 bf.decode_column)
        bf.BATFile._decode_slot = decode_slot(bf.BATFile._decode_slot)
        bf.BATFile.treelet = timed("BATFile.treelet", bf.BATFile.treelet)
        bf.BATFile.shallow_table = timed("shallow_table", bf.BATFile.shallow_table)
        bf.build_walk_tables = timed("build_walk_tables", bf.build_walk_tables)

        def cycle(pinned=None):
            for op, req in zip(w.cycle_docs, w.cycle_reqs):
                cache = BATFileCache()
                with repro.open_dataset(w.meta, file_cache=cache) as ds:
                    res = ds.query(req)
                cache.close()
                if pinned is not None:
                    pinned.append({"op": op["cls"], "batch": pairs.digest(res.batch)})

        pinned = []
        cycle(pinned)
        spent.clear()
        calls.clear()
        walls = []
        for _ in range(CYCLES):
            t = time.perf_counter()
            cycle()
            walls.append(time.perf_counter() - t)
    rows = {"cycle ms": 1e3 * statistics.median(walls)}
    for name, secs in sorted(spent.items(), key=lambda kv: -kv[1]):
        rows[f"{name} ms/cycle"] = 1e3 * secs / CYCLES
        rows[f"{name} calls/cycle"] = calls[name] / CYCLES
    codec = sum(v for k, v in spent.items() if k.startswith("decode"))
    rows["codec work, all ms/cycle"] = 1e3 * codec / CYCLES
    rows["everything else ms/cycle"] = 1e3 * (sum(walls) - sum(spent.values())) / CYCLES
    return {"ops": pinned, "rows": rows}


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0"))
