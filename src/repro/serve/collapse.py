"""Pre-completion request collapsing: the in-flight decode table.

The :class:`~repro.serve.cache.ResultCache` deduplicates work *after* a
request completes; under a thundering herd (N sessions zooming into the
same region at once) all N misses start decoding before the first one
finishes, and the same treelets are decoded N times. The
:class:`InflightTable` sits one tier above the result cache in the cache
hierarchy (result → **collapse** → plan → decoded-column → file handle)
and collapses the herd *before* completion: the first request to miss
becomes the **leader** and executes normally, publishing each streamed
increment into its table entry as it materializes; every later request
whose work overlaps joins as a **follower** and consumes the leader's
increments instead of decoding anything itself.

An entry is keyed like a result-cache entry, ``(step, generation,
window)`` with ``window`` the frozen request the leader executes (see
:mod:`repro.serve.cache`), so a request planned against a reorganized
layout never joins a leader started on the old one (row order follows
the leaf set, so their streams differ).

Followers need not match the leader exactly. A follower shares an entry
when its result is a pure row/column transform of the leader's product:

- **exact** — the same key: increments are shared as-is. This is the
  only join a :class:`~repro.api.NeighborRequest` makes;
- **column subset** — the leader materializes a superset of the
  follower's columns (or all of them): increments are projected. The
  file's attribute order is preserved by projection, so the bytes equal
  a direct query's;
- **filter superset** — the follower adds filters on top of the
  leader's (and the leader materialized the filtered attributes): rows
  are masked by the extra predicates. Bitmap pruning is conservative and
  the traversal applies an exact false-positive check to every emitted row,
  so the surviving rows — and their order — are identical to a direct
  query with the full filter set;
- **quality truncation** — the follower wants a lower quality that lands
  exactly on one of the leader's ladder rungs: the follower stops
  consuming at that rung. Rung slot-ranges chain exactly, so a prefix of
  the stream *is* the direct result at the rung's quality.

The three derived joins are between two
:class:`~repro.api.QueryRequest` windows of one step and generation that
agree on every field *other than* ``filters``, ``columns`` and
``quality`` (:func:`_compatible` compares the rest field by field off
the dataclass, so a field added to the request can only ever make joins
rarer).

A leader that fails, sheds under backpressure, or goes partial
(quarantined leaf) abandons its followers — they fall back to executing
their own query, never reusing a result that is not provably
byte-identical. Partial or shed products are likewise never shared.

Entries live only while the leader executes (pre-completion dedup); the
result cache takes over afterwards.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields

from ..api import QueryRequest, StreamIncrement
from ..types import ParticleBatch

__all__ = [
    "CollapseAbandoned",
    "FollowSpec",
    "InflightEntry",
    "InflightTable",
    "adapt_increment",
]


class CollapseAbandoned(Exception):
    """The leader failed, shed, or went partial; follower must fall back."""


@dataclass(frozen=True)
class FollowSpec:
    """How a follower transforms the leader's increments into its own.

    ``extra_filters`` are the follower's filters the leader did not
    apply (row mask); ``columns`` is the follower's column selection when
    it differs from the leader's (projection; ``None`` means share
    as-is); ``stop_quality`` is the ladder rung the follower stops at
    (``None`` = consume the whole stream).
    """

    extra_filters: tuple = ()
    columns: tuple | None = None
    stop_quality: float | None = None

    @property
    def is_identity(self) -> bool:
        return not self.extra_filters and self.columns is None


def adapt_increment(inc: StreamIncrement, spec: FollowSpec) -> StreamIncrement:
    """Apply a follower's row mask / column projection to one increment."""
    if spec.is_identity:
        return inc
    batch = inc.batch
    order = inc.order
    if spec.extra_filters and len(batch):
        mask = None
        for f in spec.extra_filters:
            vals = batch.attributes[f.name]
            fmask = (vals >= f.lo) & (vals <= f.hi)
            mask = fmask if mask is None else (mask & fmask)
        if not mask.all():
            batch = batch.select(mask)
            if order is not None:
                order = order[mask]
    if spec.columns is not None:
        names = [n for n in batch.attributes if n in spec.columns]
        with_positions = "positions" in spec.columns
        attrs = {n: batch.attributes[n] for n in names}
        batch = ParticleBatch(
            batch.positions if with_positions else None, attrs, count=len(batch)
        )
    return StreamIncrement(
        quality=inc.quality,
        prev_quality=inc.prev_quality,
        batch=batch,
        order=order,
        stats=inc.stats,
        partial=inc.partial,
    )


#: follower sentinel: the leader finished publishing
_DONE = object()


class InflightEntry:
    """One leader's published stream, consumable by followers."""

    __slots__ = (
        "key", "ladder", "subscribers",
        "_cond", "_increments", "_done", "_dead",
    )

    def __init__(self, key: tuple, ladder: tuple):
        #: ``(step, generation, window)``
        self.key = key
        self.ladder = ladder
        #: followers that joined this entry (leader not counted)
        self.subscribers = 0
        self._cond = threading.Condition()
        self._increments: list[StreamIncrement] = []
        self._done = False
        #: set when the leader failed/shed/went partial: followers bail
        self._dead = False

    # -- leader side ---------------------------------------------------------

    def publish(self, inc: StreamIncrement) -> None:
        with self._cond:
            if inc.partial:
                # a quarantined leaf makes every later increment (and the
                # reassembly) non-byte-comparable: abandon followers
                self._dead = True
            else:
                self._increments.append(inc)
            self._cond.notify_all()

    def finish(self) -> None:
        with self._cond:
            self._done = True
            self._cond.notify_all()

    def abandon(self) -> None:
        """Leader failed or shed: wake followers into their fallbacks."""
        with self._cond:
            self._dead = True
            self._done = True
            self._cond.notify_all()

    # -- follower side -------------------------------------------------------

    def fetch(self, index: int, timeout: float | None, clock=time.monotonic):
        """Increment ``index``, blocking until published; ``_DONE`` at end.

        Raises :class:`CollapseAbandoned` when the leader died or the
        wait timed out — the follower falls back to its own query.
        """
        deadline = None if timeout is None else clock() + timeout
        with self._cond:
            while True:
                if self._dead:
                    raise CollapseAbandoned(str(self.key))
                if index < len(self._increments):
                    return self._increments[index]
                if self._done:
                    return _DONE
                remaining = None if deadline is None else deadline - clock()
                if remaining is not None and remaining <= 0:
                    raise CollapseAbandoned(f"timed out waiting on {self.key}")
                self._cond.wait(remaining)


#: the request fields a follower may differ from its leader in, and the
#: rest — whatever fields the request grows — in which it may not
_DERIVED = ("filters", "columns", "quality")
_SHARED = tuple(f.name for f in fields(QueryRequest) if f.name not in _DERIVED)


def _compatible(entry: InflightEntry, key: tuple) -> FollowSpec | None:
    """The transform turning ``entry``'s stream into ``key``'s result, or None."""
    lead, want = entry.key[2], key[2]
    if (
        entry.key[:2] != key[:2]
        or type(lead) is not QueryRequest
        or type(want) is not QueryRequest
        or any(getattr(lead, name) != getattr(want, name) for name in _SHARED)
    ):
        return None
    if want.quality == lead.quality:
        stop = None
    elif want.quality in entry.ladder:
        stop = want.quality
    else:
        return None
    if any(f not in want.filters for f in lead.filters):
        return None
    extra = tuple(f for f in want.filters if f not in lead.filters)
    columns = None if want.columns == lead.columns else want.columns
    if lead.columns is not None:
        # the leader only materialized lead.columns: the follower's columns
        # and its extra filter attributes must all be in that set
        if want.columns is None or not set(want.columns) <= set(lead.columns):
            return None
        if any(f.name not in lead.columns for f in extra):
            return None
    return FollowSpec(extra_filters=extra, columns=columns, stop_quality=stop)


class InflightTable:
    """Registry of in-flight leaders, scanned for exact and derived joins."""

    def __init__(self):
        self._lock = threading.Lock()
        #: entries in flight — one per executing leader, so never more
        #: than the scheduler has workers
        self._entries: list[InflightEntry] = []
        self.leaders = 0
        self.collapsed_hits = 0
        self.derived_hits = 0
        #: followers that had to fall back (leader failed/shed/partial/timeout)
        self.fallbacks = 0
        #: work followers did not repeat, summed as the leader's product size
        self.saved_points = 0
        self.saved_bytes = 0

    def acquire(self, key: tuple, ladder: tuple):
        """Join an overlapping in-flight request or become the leader.

        ``key`` is ``(step, generation, window)``. Returns ``(entry,
        spec)``: ``spec`` is ``None`` for a leader (who must later
        :meth:`release` the entry) and a :class:`FollowSpec` for a
        follower.
        """
        with self._lock:
            for entry in self._entries:
                if entry.key == key:
                    entry.subscribers += 1
                    self.collapsed_hits += 1
                    return entry, FollowSpec()
                spec = _compatible(entry, key)
                if spec is not None:
                    entry.subscribers += 1
                    self.derived_hits += 1
                    return entry, spec
            entry = InflightEntry(key, ladder)
            self._entries.append(entry)
            self.leaders += 1
            return entry, None

    def release(self, entry: InflightEntry) -> None:
        """Leader done (or dead): entry leaves the pre-completion table."""
        with self._lock:
            try:
                self._entries.remove(entry)
            except ValueError:
                pass

    def record_fallback(self) -> None:
        with self._lock:
            self.fallbacks += 1

    def record_shared(self, points: int, nbytes: int) -> None:
        """A follower consumed this much of a leader's product."""
        with self._lock:
            self.saved_points += points
            self.saved_bytes += nbytes

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._entries)
            subscribers = sum(e.subscribers for e in self._entries)
            hits = self.collapsed_hits + self.derived_hits
            total = self.leaders + hits
            return {
                "entries": entries,
                "subscribers": subscribers,
                "leaders": self.leaders,
                "collapsed_hits": self.collapsed_hits,
                "derived_hits": self.derived_hits,
                "fallbacks": self.fallbacks,
                #: completed joins = decodes that never ran
                "saved_decodes": hits - self.fallbacks,
                "saved_points": self.saved_points,
                "saved_bytes": self.saved_bytes,
                "hit_rate": hits / total if total else 0.0,
            }
