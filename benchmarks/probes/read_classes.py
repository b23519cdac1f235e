"""Per-class A/B of the warm read path: parent vs change, byte-checked.

    python benchmarks/probes/read_classes.py PARENT_ROOT CHANGE_ROOT \
        [pairs=10] [seeds=0,1] [mode=query]

A side sets up ``read_warm`` exactly as ``benchmarks/baseline/run.py``
does (writes ``D_main`` v4, opens it, warms every cache with one full
read and one cycle), then runs three passes over the 24 views × 7 read
classes. Rows, per class: the fastest pass's mean ms per op, and the
passes' mean user and system CPU ms and minor page faults per op
(``getrusage`` deltas); then the fastest pass's ms per view. ``import
repro`` keeps freed heap memory for reuse (``repro._heap``), so a warm op
that faults or spends system time is allocating more, or larger blocks,
than the ops before it freed: a read-path cost, not noise.

``mode`` picks how each op reads: ``query`` (``ds.query``), ``rung`` (a
one-rung ``ds.stream``, reassembled) or ``ladder`` (a default-ladder
``ds.stream``, reassembled). Both sides read the same way.

Pinned per op: the batch (sha256 of its rows and dtypes) and all of its
``QueryStats`` fields. The pairs, the order flip and the verdicts are
``pairs.py``'s. Smoke run: ``. . pairs=1 seeds=0``, about half a minute.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import sys
import tempfile
import time

import pairs

PASSES = 3


def usage() -> tuple[int, float, float]:
    """This process's minor page faults, user and system CPU seconds so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_utime, ru.ru_stime


def time_classes(ops: list, read, pin, passes: int) -> tuple[list[dict], dict, float]:
    """Run ``read(req)`` on every ``(cls, req)`` of ``ops``, ``passes`` times.

    Returns ``pin(cls, result)`` of every op of the first pass (called
    outside the timed region), the rows per class (fastest pass's mean ms
    per op; the passes' mean user and system CPU ms and minor faults per
    op) and the fastest pass's seconds.
    """
    pinned, best, use, fastest = [], {}, {}, float("inf")
    for p in range(passes):
        spent: dict[str, list[float]] = {}
        t_pass = time.perf_counter()
        for cls, req in ops:
            before, t = usage(), time.perf_counter()
            res = read(req)
            spent.setdefault(cls, []).append(time.perf_counter() - t)
            use.setdefault(cls, []).append([b - a for a, b in zip(before, usage())])
            if p == 0:
                pinned.append(pin(cls, res))
        fastest = min(fastest, time.perf_counter() - t_pass)
        for cls, secs in spent.items():
            best[cls] = min(best.get(cls, float("inf")), 1e3 * statistics.fmean(secs))
    rows = {}
    for cls, ms in best.items():
        faults, user, system = (statistics.fmean(u[i] for u in use[cls]) for i in range(3))
        rows |= {f"{cls} ms/op": ms, f"{cls} user ms/op": 1e3 * user,
                 f"{cls} sys ms/op": 1e3 * system, f"{cls} faults/op": faults}
    return pinned, rows, fastest


def pin_query(cls: str, res) -> dict:
    return {"op": cls, "batch": pairs.digest(res.batch), "stats": dataclasses.asdict(res.stats)}


def side(seed: int, mode: str) -> dict:
    import inputs
    from repro import reassemble_stream
    from workloads import ReadWarm

    def read(req):
        if mode == "query":
            return w.ds.query(req)
        ladder = (req.quality,) if mode == "rung" else None
        return reassemble_stream(w.ds.stream(req, ladder=ladder))

    with tempfile.TemporaryDirectory(prefix="read_classes_") as tmp:
        w = ReadWarm(seed, inputs.FULL, tmp)
        w.setup()
        try:
            ops = [
                (op["cls"], req)
                for docs, reqs in zip(w.cycle_docs, w.cycle_reqs)
                for op, req in zip(docs, reqs)
            ]
            pinned, rows, pass_s = time_classes(ops, read, pin_query, PASSES)
        finally:
            w.close()
    rows["cycle ms/view"] = 1e3 * pass_s / len(w.cycle_reqs)
    return {"ops": pinned, "rows": rows}


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0,1", modes=("query", "rung", "ladder")))
