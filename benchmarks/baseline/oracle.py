"""Independent correctness oracle: numpy brute force over the inputs.

Nothing here calls a traversal engine. The oracle holds the benchmark's
own copy of the particle arrays (as generated, before the writer saw
them) and answers every request by brute force:

- **box / filter reads** — a boolean mask over all particles. A complete
  response (quality 1 from quality 0) must be *exactly* the masked rows:
  both sides are put in canonical row order (ascending ``id``, or a
  lexsort of the returned columns when ``id`` was projected away) and
  compared as a sha256 of the canonical rows. ``D_main`` is lossless and
  grid-snapped, so the comparison is exact.
- **partial one-shot reads** (``lod`` / ``refine``) — a duplicate-free
  set of genuine masked rows: the canonical digest of the response
  equals the digest of the oracle's rows at the same ids.
- **session increments and streamed rungs** — every row equals the
  oracle's row of the same id (compared directly: this runs on client
  threads between requests, so it is kept cheap), lies inside the view,
  and is new to the view; once the view reaches quality 1 the union of
  its increments has exactly the mask's row count — with no duplicates
  and no strays, that makes it the whole mask.
- **neighbor lists** — per center, the list length and the k-th (k-NN)
  or largest (radius) neighbor distance against a brute-force distance
  matrix, to 1e-6.

Verification always runs outside the timed region of an op.
"""

from __future__ import annotations

import hashlib

import numpy as np

DIST_TOL = 1e-6


def canonical_digest(columns: dict, order: np.ndarray | None) -> str:
    """sha256 of rows in canonical order.

    ``columns`` maps name → array (``"positions"`` is the ``(N, 3)``
    block); ``order`` is the permutation into canonical row order, or
    ``None`` when the rows already are in it.
    """
    h = hashlib.sha256()
    for name in sorted(columns):
        arr = columns[name]
        if order is not None:
            arr = arr[order]
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _batch_columns(batch) -> dict:
    cols = dict(batch.attributes)
    if batch.positions is not None:
        cols["positions"] = batch.positions
    return cols


def _lexsort_rows(columns: dict) -> np.ndarray:
    keys = []
    for name in sorted(columns):
        arr = columns[name]
        if arr.ndim == 2:
            keys.extend(arr[:, d] for d in range(arr.shape[1]))
        else:
            keys.append(arr)
    return np.lexsort(keys[::-1])


def _f32_bounds(lo: float, hi: float):
    """float32 bounds selecting exactly the float32 values in ``[lo, hi]``.

    The engines compare float32 coordinates against float64 box bounds;
    rounding the bounds inward (up for ``lo``, down for ``hi``) gives the
    same answer with float32 compares, which are half the memory traffic.
    """
    lo32, hi32 = np.float32(lo), np.float32(hi)
    if float(lo32) < lo:
        lo32 = np.nextafter(lo32, np.float32(np.inf))
    if float(hi32) > hi:
        hi32 = np.nextafter(hi32, np.float32(-np.inf))
    return lo32, hi32


class Oracle:
    """Brute-force answers over one dataset's particle arrays."""

    def __init__(self, positions: np.ndarray, attributes: dict):
        self.positions = positions
        self.attributes = attributes
        self.n = len(positions)
        # one contiguous float32 column per axis: box masks are six 1-D compares
        self._axes = np.ascontiguousarray(positions.T)
        ids = attributes.get("id")
        #: row i holds the particle with id i — responses are keyed by it
        self.keyed = ids is not None and bool(np.array_equal(ids, np.arange(self.n)))
        self._masks: dict = {}

    # -- masks ---------------------------------------------------------------

    def mask(self, box, filters) -> np.ndarray:
        """Which particles a (box, filters) view selects. Memoized (small)."""
        key = (box, tuple(filters))
        m = self._masks.get(key)
        if m is None:
            m = np.ones(self.n, dtype=bool)
            if box is not None:
                for axis, lo, hi in zip(self._axes, box.lower, box.upper):
                    lo32, hi32 = _f32_bounds(lo, hi)
                    m &= axis >= lo32
                    m &= axis <= hi32
            for f in filters:
                vals = self.attributes[f.name]
                m &= (vals >= f.lo) & (vals <= f.hi)
            if len(self._masks) >= 64:
                self._masks.pop(next(iter(self._masks)))
            self._masks[key] = m
        return m

    def _expected_columns(self, rows: np.ndarray, names) -> dict:
        cols = {}
        for name in names:
            src = self.positions if name == "positions" else self.attributes[name]
            cols[name] = src[rows]
        return cols

    # -- box / filter reads --------------------------------------------------

    def check_read(self, batch, box, filters, *, complete: bool):
        """Verify one one-shot response of a ``(box, filters)`` view.

        ``complete`` — the response must be the whole mask; otherwise it
        only has to be a duplicate-free set of genuine masked rows.
        Returns ``(ok, reason)``.
        """
        m = self.mask(box, filters)
        cols = _batch_columns(batch)
        n = len(batch)
        if complete and n != int(m.sum()):
            return False, f"row count {n} != oracle {int(m.sum())}"
        if not self.keyed or "id" not in cols:
            # ids projected away: exact multiset comparison, complete only
            if not complete:
                return False, "cannot verify a partial response without ids"
            expected = self._expected_columns(np.flatnonzero(m), cols)
            got = canonical_digest(cols, _lexsort_rows(cols))
            want = canonical_digest(expected, _lexsort_rows(expected))
            return (got == want), "canonical digest mismatch (unkeyed)"
        ids = cols["id"]
        if n == 0:
            return True, ""
        if ids.min() < 0 or ids.max() >= self.n:
            return False, "id out of range"
        if not m[ids].all():
            return False, "row outside the oracle mask"
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        if n > 1 and not (np.diff(sorted_ids) > 0).all():
            return False, "duplicate id within one response"
        got = canonical_digest(cols, order)
        want = canonical_digest(self._expected_columns(sorted_ids, cols), None)
        return (got == want), "canonical digest mismatch"

    def check_increment(self, batch, box, filters, seen: np.ndarray):
        """Verify one progressive increment of a view, cheaply.

        Runs on the client thread between two requests of a closed loop,
        so it touches only the increment's own rows: each must equal the
        oracle's row of the same id in every returned column (compared
        directly — no sort, no digest), lie inside the view, and be new to
        it (``seen`` is the view's id bitmap, updated in place). Whether
        the view is *complete* at quality 1 is a count against the full
        mask, which callers defer until after the measured phase
        (:meth:`count`).
        """
        n = len(batch)
        if n == 0:
            return True, ""
        cols = _batch_columns(batch)
        ids = cols.get("id")
        if not self.keyed or ids is None:
            return False, "cannot verify an increment without ids"
        if ids.min() < 0 or ids.max() >= self.n:
            return False, "id out of range"
        for name, got in cols.items():
            src = self.positions if name == "positions" else self.attributes[name]
            if not np.array_equal(src[ids], got):
                return False, f"column {name!r} differs from the oracle's rows"
        if box is not None:
            pos = self.positions[ids]
            if not np.all((pos >= np.asarray(box.lower)) & (pos <= np.asarray(box.upper))):
                return False, "row outside the view's box"
        for f in filters:
            vals = self.attributes[f.name][ids]
            if not np.all((vals >= f.lo) & (vals <= f.hi)):
                return False, f"row outside the view's {f.name!r} filter"
        before = int(np.count_nonzero(seen))
        seen[ids] = True
        if int(np.count_nonzero(seen)) != before + n:
            return False, "id delivered twice (within or across increments)"
        return True, ""

    def count(self, box, filters) -> int:
        """How many particles the view selects."""
        return int(self.mask(box, filters).sum())

    # -- neighbor lists ------------------------------------------------------

    def check_neighbors(self, result, request):
        """List lengths and k-th / max distances against brute force.

        Brute force is one dense distance matrix, centers × candidates.
        For radius queries the candidates are the particles inside the
        center region grown by the radius — exact, since no neighbor of a
        center in the region can lie outside it — which keeps the matrix
        small; k-NN uses every particle.
        """
        centers = np.asarray(result.centers, dtype=np.float64).reshape(-1, 3)
        cand = self.positions
        if request.center_box is not None:
            lo = np.asarray(request.center_box.lower)
            hi = np.asarray(request.center_box.upper)
            inside = np.all((self.positions >= lo) & (self.positions <= hi), axis=1)
            if len(centers) != int(inside.sum()):
                return False, f"{len(centers)} centers != oracle {int(inside.sum())}"
        elif len(centers) != len(request.points):
            return False, "center count != requested points"
        offsets = np.asarray(result.offsets)
        counts = np.diff(offsets)
        if len(counts) != len(centers) or len(result.distances) != int(offsets[-1]):
            return False, "offsets do not describe the lists"
        if len(centers) == 0:
            return True, ""
        if request.radius is not None:
            grow = request.radius + 2 * DIST_TOL
            near = np.all(
                (self.positions >= centers.min(axis=0) - grow)
                & (self.positions <= centers.max(axis=0) + grow), axis=1,
            )
            cand = self.positions[near]
        diff = cand.astype(np.float64)[None, :, :] - centers[:, None, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        if request.k is not None:
            k = min(request.k, self.n)
            if not (counts == k).all():
                return False, f"a k-NN list is not {k} long"
            want_far = np.partition(d, k - 1, axis=1)[:, k - 1]
        else:
            r = request.radius
            low = (d <= r - DIST_TOL).sum(axis=1)
            high = (d <= r + DIST_TOL).sum(axis=1)
            if not ((low <= counts) & (counts <= high)).all():
                return False, "a radius list has the wrong length"
            d.sort(axis=1)
            want_far = d[np.arange(len(centers)), np.maximum(counts, 1) - 1]
        got = np.asarray(result.distances)
        if len(got) == 0:
            return True, ""
        filled = counts > 0
        got_far = got[np.maximum(offsets[1:], 1) - 1]
        if (np.abs(got_far - want_far)[filled] > DIST_TOL).any():
            return False, "a farthest-neighbor distance differs from brute force"
        # ascending within each list: a decrease may only happen at a list start
        drops = np.flatnonzero(np.diff(got) < 0) + 1
        if len(drops) and not np.isin(drops, offsets).all():
            return False, "a list is not ascending by distance"
        return True, ""


class ViewTracker:
    """Per-session progressive state: what a view has delivered so far.

    Mirrors what a viewer holds: a view change restarts the progression,
    every increment must be new rows of the view, and reaching quality 1
    must complete it. Completeness claims are appended to ``pending`` as
    ``(box, filters, rows delivered)`` and settled by :func:`settle` after
    the measured phase, off the client threads.
    """

    def __init__(self, oracle: Oracle, pending: list):
        self.oracle = oracle
        self.pending = pending
        self._view = None
        self._seen = None
        self._count = 0

    def check(self, batch, box, filters, served_quality: float):
        view = (box, tuple(filters))
        if view != self._view:
            self._view = view
            self._seen = np.zeros(self.oracle.n, dtype=bool)
            self._count = 0
        ok, why = self.oracle.check_increment(batch, box, filters, self._seen)
        if ok:
            self._count += len(batch)
            if served_quality >= 1.0:
                self.pending.append((box, tuple(filters), self._count))
        return ok, why


def settle(oracle: Oracle, pending: list) -> list[str]:
    """Check every deferred "this view is complete" claim; returns failures."""
    failures = []
    for box, filters, delivered in pending:
        want = oracle.count(box, filters)
        if delivered != want:
            failures.append(f"union at quality 1 has {delivered} rows, oracle {want}")
    pending.clear()
    return failures
