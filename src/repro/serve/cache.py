"""Shared TTL + LRU cache of query *results*, above the plan cache.

The serving cache hierarchy has four tiers, cheapest miss first:

- **result cache** (this module) — whole :class:`~repro.types.ParticleBatch`
  (or :class:`~repro.api.NeighborResult`) responses keyed by ``(step,
  generation, window)``. A hit skips planning and traversal entirely.
  Entries expire after ``ttl`` seconds (time-series data may be
  rewritten in place by a restarted simulation), and least-recently-used
  entries are evicted to keep the result bytes within what the byte
  budget, shared with the decoded columns, leaves them
  (:class:`~repro.bat.colcache.MemoryBudget`: columns outrank results).
- **plan cache** (:class:`~repro.core.planner.PlanCache`) — per-file skip
  lists keyed by ``(box, filters)``; quality-independent.
- **decoded-column cache** (:class:`~repro.bat.colcache.DecodedColumnCache`)
  — treelet columns and walk tables keyed ``(file, treelet, slot)``.
- **file-handle cache** (:class:`~repro.bat.filecache.BATFileCache`) —
  open mmapped leaf files.

Because many interactive sessions look at the same hot views (a shared
dashboard, a default camera), one client's query pays the traversal and
every later identical request is served from memory — byte-identical by
construction, since the cached object *is* the batch a direct dataset
query returned. Batches are treated as immutable once cached; callers
must not write to a served batch's arrays.

**Single-flight.** A miss on a window an identical **leader** is already
executing waits for it (:meth:`ResultCache.join`) and takes its result,
if complete and non-partial; else it executes for itself. Streams never
lead: no request may wait on another client's consumer. A result too
large to store is still handed to the waiters (``uncached_bytes``
counts those bytes).

**The key.** ``window`` is the frozen request the serve core hands the
step backend: the client's :class:`~repro.api.QueryRequest` with
``quality`` / ``prev_quality`` replaced by the effective window it is
served at (the increment ``0.3 → 0.7`` and the direct ``0 → 0.7`` read
are different byte streams) and ``on_error`` normalised, or a
:class:`~repro.api.NeighborRequest` with ``on_error`` normalised. Every
field of the request is therefore part of the identity by construction —
the same traversal with fewer columns is a different payload — and the
request's class keeps the families apart. ``generation`` is the
manifest's layout generation: an online reorganization republish changes
row order (results follow file/treelet order), so responses cached
against the old layout must never satisfy requests planned against the
new one, and a window never waits on a leader of another layout.
``step`` stays first so :meth:`ResultCache.invalidate_step` finds it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..bat.colcache import DEFAULT_COLUMN_CACHE_BYTES, Flight, MemoryBudget
from ..types import ParticleBatch

__all__ = ["ResultCache", "ENTRY_OVERHEAD_BYTES"]

#: bytes charged per cached result beside its arrays: the key, the frozen
#: window, the batch object and its array headers (~0.9 KB measured with
#: tracemalloc). Without it empty results would cost nothing, and a byte
#: budget would not bound how many of them the cache holds.
ENTRY_OVERHEAD_BYTES = 1024


class ResultCache:
    """Thread-safe byte-bounded LRU of query responses with TTL expiry.

    ``budget_bytes`` is a byte count of its own or a
    :class:`~repro.bat.colcache.MemoryBudget` shared with a decoded-column
    cache, whose columns it then gives way to.
    """

    def __init__(
        self,
        budget_bytes: int | MemoryBudget = DEFAULT_COLUMN_CACHE_BYTES,
        ttl: float | None = 30.0,
        clock=time.monotonic,
    ):
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable expiry)")
        if not isinstance(budget_bytes, MemoryBudget):
            budget_bytes = MemoryBudget(budget_bytes)
        budget_bytes.attach("result_pool", self)
        self.memory = budget_bytes
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (result, stored at, the bytes charged for it)
        self._entries: OrderedDict[tuple, tuple[ParticleBatch, float, int]] = OrderedDict()
        #: key -> its executing leader (at most one per scheduler worker)
        self._inflight: dict[tuple, Flight] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        #: results evicted to make room for decoded columns
        self.shed = 0
        #: bytes handed to single-flight waiters from results not stored
        self.uncached_bytes = 0
        #: single-flight: leads, waits served, waits left to execute
        self.leaders = 0
        self.collapsed_hits = 0
        self.fallbacks = 0
        self.saved_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: tuple) -> ParticleBatch | None:
        """The unexpired batch stored under ``key``, or None — counting
        nothing, dropping nothing and leaving the LRU order alone: a look
        that decides where a window runs, not a lookup."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or (self.ttl is not None and self._clock() - entry[1] > self.ttl):
            return None
        return entry[0]

    def get(self, key: tuple, found: ParticleBatch | None = None) -> ParticleBatch | None:
        """The batch stored under ``key``, counted as a hit or a miss.

        ``found`` is what :meth:`peek` just returned for ``key``: it is the
        answer, counted as a hit, even if the entry expired or was evicted
        since the look (the LRU order is refreshed if it is still held).
        """
        with self._lock:
            if found is not None:
                self.hits += 1
                try:
                    self._entries.move_to_end(key)
                except KeyError:
                    pass
                return found
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            batch, stored_at, _ = entry
            if self.ttl is not None and self._clock() - stored_at > self.ttl:
                self._drop([key])
                self.expirations += 1
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return batch

    def join(self, key: tuple, lead: bool):
        """The miss path of :meth:`get`: ``(batch, flight)``.

        ``batch`` is the result of an identical window in flight (or just
        stored). Else, with ``lead``, ``flight`` makes the caller the
        leader, which must :meth:`settle` it however execution ends; else
        both are None and the caller executes the window itself.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # stored since the caller's get missed
                self.collapsed_hits += 1
                self.saved_bytes += entry[0].nbytes
                return entry[0], None
            flight = self._inflight.get(key)
            if flight is None:
                if not lead:
                    return None, None
                flight = self._inflight[key] = Flight(key)
                self.leaders += 1
                return None, flight
            done = flight.wait()
        done.wait()
        return flight.value, None

    def settle(self, flight: Flight, batch=None) -> None:
        """Hand a leader's ``batch`` to its waiters (None — failed, partial
        — sends them to execute for themselves); :meth:`put` caches it."""
        with self._lock:
            del self._inflight[flight.key]
            if batch is None:
                self.fallbacks += flight.waiters
            else:
                self.collapsed_hits += flight.waiters
                self.saved_bytes += flight.waiters * batch.nbytes
                entry = self._entries.get(flight.key)
                if flight.waiters and (entry is None or entry[0] is not batch):
                    self.uncached_bytes += flight.waiters * batch.nbytes
            flight.value = batch
        if flight.done is not None:  # no waiter can join once it left _inflight
            flight.done.set()

    def put(self, key: tuple, batch: ParticleBatch) -> None:
        """Store ``batch``, charged its arrays' bytes plus
        :data:`ENTRY_OVERHEAD_BYTES`, evicting LRU results to fit it in
        what the columns leave of the budget; one that cannot fit there
        (one larger than the budget, say) is not stored and evicts nothing."""
        nbytes = int(batch.nbytes) + ENTRY_OVERHEAD_BYTES
        memory = self.memory
        with self._lock:
            self._drop([key])
            with memory.lock:
                room = memory.limit - memory.columns - memory.reserved
                if nbytes > room:
                    return
                while memory.results + nbytes > room:
                    _, (_, _, n) = self._entries.popitem(last=False)
                    memory.results -= n
                    self.evictions += 1
                self._entries[key] = (batch, self._clock(), nbytes)
                memory.results += nbytes

    def yield_to_columns(self) -> None:
        """Shed LRU results until they fit beside the columns and the room
        column inserts have reserved (:meth:`MemoryBudget.reserve`)."""
        memory = self.memory
        with self._lock, memory.lock:
            room = memory.limit - memory.columns - memory.reserved
            while memory.results > room and self._entries:
                _, (_, _, n) = self._entries.popitem(last=False)
                memory.results -= n
                self.shed += 1

    def _drop(self, keys) -> None:
        """Remove ``keys`` (those present) and their bytes (lock held)."""
        with self.memory.lock:
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self.memory.results -= entry[2]

    def clear(self) -> None:
        with self._lock:
            self._drop(list(self._entries))

    def invalidate_step(self, step) -> int:
        """Drop every entry for one step; returns how many were dropped.

        Belt-and-braces for reorganization republish: generation-qualified
        keys already prevent stale hits, and this eagerly frees the old
        generation's payload bytes instead of waiting for TTL/LRU.
        """
        with self._lock:
            victims = [k for k in self._entries if k[0] == step]
            self._drop(victims)
            return len(victims)

    @property
    def nbytes(self) -> int:
        """Bytes charged for the results held: their arrays plus
        :data:`ENTRY_OVERHEAD_BYTES` each."""
        with self.memory.lock:
            return self.memory.results

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self.memory.results,
                "budget_bytes": self.memory.limit,
                "ttl_seconds": self.ttl,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "shed": self.shed,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def flight_stats(self) -> dict:
        """The single-flight counters (the snapshot's ``collapse`` block)."""
        with self._lock:
            total = self.leaders + self.collapsed_hits + self.fallbacks
            return {
                "leaders": self.leaders,
                "collapsed_hits": self.collapsed_hits,
                "fallbacks": self.fallbacks,
                "saved_bytes": self.saved_bytes,
                "hit_rate": self.collapsed_hits / total if total else 0.0,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"ResultCache(entries={s['entries']}, bytes={s['bytes']}/{s['budget_bytes']}, "
            f"hits={s['hits']}, misses={s['misses']})"
        )
