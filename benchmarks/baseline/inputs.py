"""Seeded inputs of the baseline benchmark: datasets, op lists, digests.

Everything the program under test receives is generated here from
``--seed``. Data generators come from :mod:`repro.workloads`; every op
list (views, session traces, arrival schedules, neighbor probes) is this
file's own code, so a later PR cannot move a number by editing a
generator under ``src/``. The sha256 of every generated input is pinned
in ``pins.json`` for the seeds listed there (see :func:`check_pins`).

An *op doc* is a plain-JSON dict::

    {"cls": "box", "box": [[x0, y0, z0], [x1, y1, z1]] | None,
     "filters": [[name, lo, hi], ...], "quality": q, "prev": p,
     "columns": [names] | None}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).with_name("pins.json")

#: the six refinements every serve session walks on its view
QUALITY_LADDER = (0.05, 0.15, 0.3, 0.5, 0.75, 1.0)
#: the seven read op classes, in cycle order
READ_CLASSES = ("box", "filter", "box_filter", "lod", "refine", "onecol", "full")
N_WARM_VIEWS = 24
N_HOT_VIEWS = 24
#: consecutive herd sessions that share one hot view
HERD_COHORT = 20
#: per-session-unique traces generated for the closed-loop serve
#: workloads (more than any run of <= 60 s completes, so none repeats)
N_SERVE_SESSIONS = 256
#: herd arrival gaps generated per seed (unit rate; scaled at run time)
N_HERD_ARRIVALS = 8192
N_NEIGHBOR_PAIRS = 16
KNN_CENTERS = 24
KNN_K = 16
NEIGHBOR_RADIUS = 0.03


@dataclass(frozen=True)
class Scale:
    """Dataset sizes: the issue's, or the shrunken ``--quick`` ones."""

    main_ranks: int = 32
    main_particles_per_rank: int = 20_000
    main_target: int = 256 * 1024
    dam_ranks: int = 128
    dam_scale: float = 0.015
    dam_target: int = 8 * 1024
    quick: bool = False


FULL = Scale()
QUICK = Scale(
    main_particles_per_rank=2_000, main_target=32 * 1024, dam_scale=0.005, quick=True
)


# -- datasets -------------------------------------------------------------------


def main_data(seed: int, scale: Scale = FULL):
    """``D_main``: lattice particles with id / species / temp / rho."""
    from repro.workloads import compressible_rank_data

    return compressible_rank_data(
        scale.main_ranks, scale.main_particles_per_rank, seed=seed
    )


def dam_data(seed: int, scale: Scale = FULL):
    """``D_dam``: the PR-10 neighbor configuration of the dam break."""
    from repro.workloads import DamBreak

    return DamBreak(seed=seed).rank_data(
        600, scale.dam_ranks, scale=scale.dam_scale, materialize=True
    )


def flatten(rank_data):
    """``(positions, attributes)`` of every rank, concatenated in rank order.

    For ``D_main`` the ``id`` column is globally sequential, so row ``i``
    of the flattened arrays is the particle with ``id == i`` — the
    oracle's row key.
    """
    from repro.types import ParticleBatch

    batch = ParticleBatch.concatenate(list(rank_data.batches))
    return batch.positions, dict(batch.attributes)


# -- digests --------------------------------------------------------------------


def sha256_particles(positions: np.ndarray, attributes: dict) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(positions).tobytes())
    for name in sorted(attributes):
        h.update(name.encode())
        h.update(np.ascontiguousarray(attributes[name]).tobytes())
    return h.hexdigest()


def sha256_doc(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def check_pins(seed: int, scale: Scale, digests: dict) -> str:
    """Compare generated-input digests against ``pins.json``.

    Returns ``"ok"`` / ``"unpinned"``; raises :class:`SystemExit` on a
    mismatch — a run on inputs other than the pinned ones is a failed
    run, not a data point. Quick-mode inputs are never pinned.
    """
    if scale.quick or not PINS_PATH.exists():
        return "unpinned"
    pinned = json.loads(PINS_PATH.read_text()).get("inputs", {}).get(str(seed))
    if pinned is None:
        return "unpinned"
    bad = {
        k: (v, pinned[k]) for k, v in digests.items() if k in pinned and pinned[k] != v
    }
    if bad:
        lines = [f"  {k}: generated {v[:16]}… pinned {p[:16]}…" for k, (v, p) in bad.items()]
        raise SystemExit(
            "input digest mismatch for seed %d (run aborted as failed):\n%s"
            % (seed, "\n".join(lines))
        )
    return "ok"


# -- op-doc helpers ---------------------------------------------------------------


def _op(cls, box=None, filters=(), quality=1.0, prev=0.0, columns=None) -> dict:
    return {
        "cls": cls,
        "box": box,
        "filters": [list(f) for f in filters],
        "quality": float(quality),
        "prev": float(prev),
        "columns": None if columns is None else list(columns),
    }


def _cube(origin, side) -> list:
    lo = [float(v) for v in origin]
    return [lo, [float(v + side) for v in lo]]


def _random_cube(rng, side: float) -> list:
    return _cube(rng.random(3) * (1.0 - side), side)


def _temp_window(temp_sorted: np.ndarray, p: float, width: float = 0.25) -> list:
    """A filter keeping about ``width`` of the particles, from percentile ``p``.

    ``temp`` sits on a 0.25 K measurement grid; the bounds are placed
    half a grid step outside two data values (exact in float32), so no
    particle ever equals a bound. A bound that *is* a data value on a
    bitmap-bin edge makes the engines drop rows — see README, "Findings".
    """
    n = len(temp_sorted)
    lo = float(temp_sorted[int(p * (n - 1))]) - 0.125
    hi = float(temp_sorted[int(min(p + width, 1.0) * (n - 1))]) + 0.125
    return ["temp", lo, hi]


def read_cycle(view_box, small_box, filt) -> list[dict]:
    """The seven read op classes on one view."""
    return [
        _op("box", box=view_box),
        _op("filter", filters=[filt]),
        _op("box_filter", box=small_box, filters=[filt]),
        _op("lod", quality=0.2),
        _op("refine", quality=0.7, prev=0.3),
        _op("onecol", box=view_box, columns=["temp"]),
        _op("full"),
    ]


def read_cold_ops(temp: np.ndarray) -> list[dict]:
    """The one fixed cycle: the 0.1–0.6 cube, the 0–0.25 cube, temp's 2nd quartile."""
    ts = np.sort(temp)
    return read_cycle(_cube((0.1,) * 3, 0.5), _cube((0.0,) * 3, 0.25), _temp_window(ts, 0.25))


def read_warm_ops(seed: int, temp: np.ndarray) -> list[list[dict]]:
    """24 distinct views; one cycle of the seven classes per view."""
    rng = np.random.default_rng([seed, 101])
    ts = np.sort(temp)
    return [
        read_cycle(
            _random_cube(rng, 0.5),
            _random_cube(rng, 0.25),
            _temp_window(ts, float(rng.uniform(0.05, 0.7))),
        )
        for _ in range(N_WARM_VIEWS)
    ]


def serve_sessions(seed: int) -> list[list[dict]]:
    """Per-session-unique zoom / pan / filter traces of six ops each.

    open (q 0.3) → refine (0.7) → zoom in (0.5) → refine (1.0) → pan
    (1.0) → filter (1.0). Every session's boxes sit at random real
    coordinates, so no two sessions share a result-cache or collapse key;
    their sizes (a 0.45 cube, zoomed to 0.27) and the filter's selectivity
    (four of the eight spatially uniform species) are the same for every
    session, so sessions — and seeds — differ in where they look, not in
    how much they ask for.
    """
    rng = np.random.default_rng([seed, 202])
    side, zside = 0.45, 0.27
    sessions = []
    for _ in range(N_SERVE_SESSIONS):
        b0 = _random_cube(rng, side)
        b1 = _cube([lo + (side - zside) / 2.0 for lo in b0[0]], zside)
        axis = int(rng.integers(0, 3))
        porigin = list(b1[0])
        step = 0.3 * zside * (1.0 if rng.random() < 0.5 else -1.0)
        porigin[axis] = float(min(max(porigin[axis] + step, 0.0), 1.0 - zside))
        b2 = _cube(porigin, zside)
        first = float(rng.integers(0, 5))
        filt = ["species", first, first + 3.0]
        sessions.append([
            _op("open", box=b0, quality=0.3),
            _op("refine", box=b0, quality=0.7),
            _op("zoom", box=b1, quality=0.5),
            _op("refine", box=b1, quality=1.0),
            _op("pan", box=b2, quality=1.0),
            _op("filter", box=b2, filters=[filt], quality=1.0),
        ])
    return sessions


def herd_views(seed: int) -> list[dict]:
    """24 hot views: 0.3 cubes, every other one keeping half the species.

    ``species`` is spatially uniform, so a view's size does not depend on
    where its cube landed — the herd's payload is the same for every seed.
    """
    rng = np.random.default_rng([seed, 303])
    return [
        {"box": _random_cube(rng, 0.3), "filters": [["species", 0.0, 3.0]] if v % 2 else []}
        for v in range(N_HOT_VIEWS)
    ]


def herd_arrivals(seed: int) -> list[float]:
    """Unit-rate exponential gaps of the open-loop session schedule."""
    rng = np.random.default_rng([seed, 404])
    return [float(g) for g in rng.exponential(1.0, N_HERD_ARRIVALS)]


def herd_due_times(gaps: list[float], n: int, seconds: float) -> list[float]:
    """Arrival times of ``n`` sessions spread over ``seconds``.

    The first ``n`` exponential gaps, rescaled so the ``n``-th arrival
    lands at ``seconds``: a Poisson process conditioned on its count, so
    every seed offers exactly the same load while arrivals still bunch.
    """
    total = sum(gaps[:n])
    at, dues = 0.0, []
    for g in gaps[:n]:
        at += g
        dues.append(seconds * at / total)
    return dues


def herd_view_of(session_index: int) -> int:
    return (session_index // HERD_COHORT) % N_HOT_VIEWS


def neighbor_ops(seed: int, positions: np.ndarray, domain) -> list[dict]:
    """Interleaved k-NN / fixed-radius probes inside the water body.

    Each probe region is a sub-box spanning 10 % of the domain along
    every axis, centred on a randomly drawn particle (so it is never
    empty): k-NN ops place 24 explicit centers in it, radius ops use it
    as the ``center_box``.
    """
    rng = np.random.default_rng([seed, 505])
    lo = np.asarray(domain.lower, dtype=np.float64)
    hi = np.asarray(domain.upper, dtype=np.float64)
    half = 0.05 * (hi - lo)

    def region():
        anchor = positions[int(rng.integers(0, len(positions)))].astype(np.float64)
        c = np.clip(anchor, lo + half, hi - half)
        return c - half, c + half

    ops = []
    for _ in range(N_NEIGHBOR_PAIRS):
        rlo, rhi = region()
        pts = rlo + rng.random((KNN_CENTERS, 3)) * (rhi - rlo)
        ops.append({"cls": "knn", "points": [[float(c) for c in p] for p in pts], "k": KNN_K})
        rlo, rhi = region()
        ops.append({
            "cls": "radius",
            "center_box": [[float(v) for v in rlo], [float(v) for v in rhi]],
            "radius": NEIGHBOR_RADIUS,
        })
    return ops


# -- op doc -> request ---------------------------------------------------------------


def to_box(doc):
    from repro import Box

    return None if doc is None else Box(tuple(doc[0]), tuple(doc[1]))


def to_filters(doc) -> tuple:
    from repro import AttributeFilter

    return tuple(AttributeFilter(name, lo, hi) for name, lo, hi in doc)


def to_request(op: dict, quality: float | None = None):
    """The :class:`repro.QueryRequest` one read/serve op doc describes."""
    from repro import QueryRequest

    return QueryRequest(
        box=to_box(op["box"]),
        filters=to_filters(op["filters"]),
        quality=op["quality"] if quality is None else quality,
        prev_quality=op["prev"],
        columns=None if op["columns"] is None else tuple(op["columns"]),
    )


def to_neighbor_request(op: dict):
    from repro import NeighborRequest

    if op["cls"] == "knn":
        return NeighborRequest(points=tuple(tuple(p) for p in op["points"]), k=op["k"])
    return NeighborRequest(center_box=to_box(op["center_box"]), radius=op["radius"])
