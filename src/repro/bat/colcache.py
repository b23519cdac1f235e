"""Byte-budgeted LRU cache of decoded treelet columns.

The decoded-column tier sits between the plan/result caches and the
:class:`~repro.bat.filecache.BATFileCache` file-handle tier: a v4 column
payload that survives here is never run through its codec again, so
repeated plans and progressive refinements touching the same treelets pay
the decode cost once. Entries are keyed ``(file_key, treelet_id,
column_slot)`` — the slot is the treelet directory index (0 nodes, 1
positions, 2+ attributes), or -1
(:data:`~repro.bat.file.WALK_TABLE_SLOT`) for the treelet's walk table,
the flattened node records pruned reads test: derived rather than
decoded, present for every file layout, and budgeted, evicted and
invalidated like any column. ``file_key`` is the handle's inode-qualified
:attr:`BATFile.cache_key`, not the bare path: after an atomic republish
of a leaf, an old leased handle and the fresh reopened handle coexist for
the same path, and their decoded columns must never mix. Entries hold
the exact arrays the decode path produced (for the
position slot, the final reshaped/dequantized ``(n, 3)`` float32 block),
so a hit is byte-identical to a cold decode by construction. While a
handle has this tier attached, it keeps its v4 columns and walk tables
nowhere else (:meth:`BATFile.request <repro.bat.file.BATFile.request>`):
retention lives here, which is what makes the byte budget an actual
bound on decoded memory — and a zero budget a promise that nothing
decoded outlives its read.

**One lookup, one round-trip per step and column.** A read asks for one
column (or the walk tables) of all the surviving treelets of all its
files at once: :meth:`fetch_groups` answers every hit of all the files
under one lock acquisition; a file with misses claims them, and one
loader call produces them, before the files after it are looked up, so
alone on the cache the call does what one call per file would. One file
is a one-group call, a single column a one-key group: there is no second
lookup and no second miss path. :meth:`peek` is the probe that moves no
counter.

**Single-flight.** What concurrent reads of any windows duplicate is a
treelet column, and this key names it: a miss that :meth:`fetch_groups`
finds already being decoded (or built) elsewhere waits for that load
instead of repeating it.

The budget is in *decoded* bytes (``arr.nbytes``), not encoded bytes:
that is what the cache actually pins in memory. Eviction is strict LRU.
The budget is a :class:`MemoryBudget`, which the serve layer shares with
its result cache; columns outrank results there (see that class). All
operations take one re-entrant lock so the serve layer's scheduler
workers can share a single instance; loaders run outside it. Entries and
loads are indexed by file, so :meth:`invalidate` touches only the keys
of the file it drops.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["DecodedColumnCache", "DEFAULT_COLUMN_CACHE_BYTES", "Flight", "MemoryBudget"]

#: default byte budget (64 MiB) when a caller enables the tier without sizing it
DEFAULT_COLUMN_CACHE_BYTES = 64 * 1024 * 1024


class Flight:
    """A load in progress; waiters block on ``done``, then read ``value``.
    The first waiter makes ``done``: a load nobody waits for costs no event."""

    __slots__ = ("key", "done", "value", "waiters")

    def __init__(self, key: tuple):
        self.key = key
        self.done = None
        self.value = None
        self.waiters = 0

    def wait(self):
        """Register a waiter (owner's lock held); returns the event to wait on."""
        if self.done is None:
            self.done = threading.Event()
        self.waiters += 1
        return self.done


class MemoryBudget:
    """One byte bound over a process's decoded columns and cached results.

    Two pools charge it: one :class:`DecodedColumnCache` and at most one
    :class:`~repro.serve.cache.ResultCache` (the serve layer's
    ``ServeConfig.memory_bytes``). They do not rank equally. A cached
    column serves every window over its treelet; a result serves only its
    own window and is rebuilt from cached columns in one warm read. So a
    result never evicts a column, and a column insert that goes over the
    budget first sheds LRU results, then LRU columns: results hold at
    most what the columns leave.

    The byte counts live here, under :attr:`lock`, which guards counter
    arithmetic only and is taken inside a pool's own lock, never the
    other way round. No thread holds both pools' locks: a column insert
    first reserves its bytes (:meth:`reserve`), the result cache shedding
    what the reservation needs under its own lock alone, and only then
    takes the column lock to insert. A result is never stored into
    reserved room.
    """

    def __init__(self, limit_bytes: int):
        limit_bytes = int(limit_bytes)
        if limit_bytes < 0:
            raise ValueError("memory budget must be >= 0")
        self.limit = limit_bytes
        self.lock = threading.Lock()
        #: bytes held by each pool, and reserved by column inserts under way
        self.columns = 0
        self.results = 0
        self.reserved = 0
        #: the pools charging this budget, set by their constructors
        self.column_pool = None
        self.result_pool = None

    def attach(self, role: str, pool) -> None:
        """Make ``pool`` this budget's ``column_pool`` or ``result_pool``."""
        if getattr(self, role) is not None:
            raise ValueError(f"this memory budget already has a {role}")
        setattr(self, role, pool)

    def reserve(self, nbytes: int) -> None:
        """Hold ``nbytes`` for a column insert, LRU results shed to make
        room; the insert releases the reservation (caller holds no lock)."""
        with self.lock:
            self.reserved += nbytes
            over = self.columns + self.results + self.reserved > self.limit
        if over and self.result_pool is not None:
            self.result_pool.yield_to_columns()

    def stats(self) -> dict:
        """The serve snapshot's ``memory`` block: the budget, bytes and
        evictions per pool, results shed for columns, and bytes handed to
        single-flight waiters without being stored."""
        cols, res = self.column_pool, self.result_pool
        with self.lock:
            return {
                "budget_bytes": self.limit,
                "bytes": self.columns + self.results,
                "columns": {
                    "bytes": self.columns,
                    "evictions": getattr(cols, "evictions", 0),
                    "uncached_bytes": getattr(cols, "uncached_bytes", 0),
                },
                "results": {
                    "bytes": self.results,
                    "evictions": getattr(res, "evictions", 0),
                    "shed_for_columns": getattr(res, "shed", 0),
                    "uncached_bytes": getattr(res, "uncached_bytes", 0),
                },
            }


class DecodedColumnCache:
    """LRU over decoded column arrays with a hard byte budget.

    :meth:`fetch_groups` maintains hit/miss/join/eviction counters surfaced
    through :meth:`stats`; :meth:`peek` is counter-pure (metrics endpoints
    can probe without perturbing hit rates). :meth:`invalidate` drops
    every entry of one file — the file-handle cache calls it whenever a
    ``BATFile`` is evicted, dropped, or quarantined, so a rewritten or
    corrupt file can never serve stale columns.
    """

    def __init__(self, budget_bytes: int | MemoryBudget = DEFAULT_COLUMN_CACHE_BYTES):
        if not isinstance(budget_bytes, MemoryBudget):
            budget_bytes = MemoryBudget(budget_bytes)
        budget_bytes.attach("column_pool", self)
        #: the byte bound, this cache's own or shared with a result cache
        self.memory = budget_bytes
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, int, int], np.ndarray] = OrderedDict()
        #: path -> the keys of its entries
        self._files: dict[str, set[tuple[str, int, int]]] = {}
        #: path -> key -> the load running for it (see :meth:`fetch_groups`)
        self._inflight: dict[str, dict[tuple[str, int, int], Flight]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: misses served by another thread's load of the same key
        self.joins = 0
        #: bytes handed to waiters from loads that were not cached
        self.uncached_bytes = 0

    # -- core --------------------------------------------------------------

    def fetch_groups(self, groups) -> list[list]:
        """The arrays of several files' keys, in one cache round trip when
        all of them are hits.

        ``groups`` are ``(path, keys, loader)``: ``keys`` are ``(treelet,
        column)`` pairs of Python ints of file ``path``. Returns each
        group's arrays, in order; with no other thread on the cache, the
        same arrays, loader calls, counters and LRU order as one call per
        group. The groups are claimed in order under one lock acquisition,
        up to and including the first that has misses no other thread is
        loading; its ``loader(claimed)`` then produces them (their arrays
        in the order of ``claimed``, a subsequence of its ``keys``), they
        are cached, and the next groups are claimed the same way. A
        loaded array is returned even when it is over budget. A miss
        already loading elsewhere waits, once every claim of the call is
        loaded, for that load and takes its array. Per key, ``hits``,
        ``misses`` (loads) or ``joins`` (waits) advance by one. If a
        loader raises, the groups after it are not claimed, and every
        waiter on its keys loads those keys itself. A load that
        :meth:`invalidate` overtook answers its waiters but is not cached.
        An array larger than the whole budget is returned but never
        cached: admitting it would evict everything else for one entry
        that can never be amortized.
        """
        outs: list[list] = []
        waited: list[tuple[int, int, Flight, threading.Event]] = []
        g, n = 0, len(groups)
        while g < n:
            claimed: list[int] = []
            flights: list[Flight] = []
            with self._lock:
                get, touch = self._entries.get, self._entries.move_to_end
                n_keys, n_waited = 0, len(waited)
                while g < n and not claimed:
                    path, keys, _ = groups[g]
                    path = str(path)
                    out = []
                    running = self._inflight.get(path)
                    for treelet, column in keys:
                        key = (path, treelet, column)
                        arr = get(key)
                        if arr is not None:
                            touch(key)
                        elif running is not None and key in running:
                            flight = running[key]
                            waited.append((g, len(out), flight, flight.wait()))
                        else:
                            if running is None:
                                running = self._inflight[path] = {}
                            flight = running[key] = Flight(key)
                            claimed.append(len(out))
                            flights.append(flight)
                        out.append(arr)
                    outs.append(out)
                    n_keys += len(out)
                    g += 1
                joins = len(waited) - n_waited
                self.hits += n_keys - len(claimed) - joins
                self.misses += len(claimed)
                self.joins += joins
            if not claimed:
                continue
            # a thread runs its own loads before it waits on anyone else's, so
            # two threads claiming overlapping sets never wait on each other
            _, keys, loader = groups[g - 1]
            try:
                arrays = loader([keys[i] for i in claimed])
                for flight, arr in zip(flights, arrays, strict=True):
                    flight.value = arr
            finally:
                self._settle(path, flights)
            for i, flight in zip(claimed, flights):
                out[i] = flight.value
        if waited:
            self._await(groups, outs, waited)
        return outs

    @staticmethod
    def _await(groups, outs, waited) -> None:
        """Take the arrays of the ``waited`` keys from the loads they joined;
        a key whose loader raised is loaded here, by its group's loader."""
        failed: dict[int, list[int]] = {}
        for g, i, flight, done in waited:
            done.wait()
            if flight.value is None:  # its loader raised
                failed.setdefault(g, []).append(i)
            outs[g][i] = flight.value
        for g, idx in failed.items():
            _, keys, loader = groups[g]
            for i, arr in zip(idx, loader([keys[i] for i in idx])):
                outs[g][i] = arr

    def _settle(self, path: str, flights: list[Flight]) -> None:
        """End the claimed ``flights`` (loaded, or not if their loader
        raised): cache what no invalidation overtook, release the waiters."""
        loaded = [f for f in flights if f.value is not None]
        reserved = self._reserve([f.value for f in loaded])
        with self._lock:
            running = self._inflight.get(path)
            stored = []
            if running is not None:
                for flight in flights:
                    if running.get(flight.key) is flight:
                        del running[flight.key]
                        if flight.value is not None:
                            stored.append((flight.key, flight.value))
                if not running:
                    del self._inflight[path]
            self._insert(stored, reserved)
            for flight in loaded:
                if flight.waiters and self._entries.get(flight.key) is not flight.value:
                    self.uncached_bytes += flight.waiters * int(flight.value.nbytes)
        for flight in flights:
            if flight.done is not None:  # no waiter can join once it left _inflight
                flight.done.set()

    def _reserve(self, arrays) -> int:
        """Reserve room for the storable ``arrays`` (no lock held): results
        give way first. Returns the bytes :meth:`_insert` must release."""
        limit = self.memory.limit
        nbytes = sum(n for n in (int(a.nbytes) for a in arrays) if n <= limit)
        if nbytes:
            self.memory.reserve(nbytes)
        return nbytes

    def _insert(self, items, reserved: int) -> None:
        """Store ``(key, array)`` items, release ``reserved``, then evict
        LRU columns while the columns and the room reserved by other
        inserts overrun the budget (column lock held). A key is claimed
        only while absent, so none is present already."""
        memory = self.memory
        with memory.lock:
            memory.reserved -= reserved
            for key, arr in items:
                nbytes = int(arr.nbytes)
                if nbytes > memory.limit:
                    continue
                self._files.setdefault(key[0], set()).add(key)
                self._entries[key] = arr
                memory.columns += nbytes
            while memory.columns + memory.reserved > memory.limit and self._entries:
                victim_key, victim = self._entries.popitem(last=False)
                memory.columns -= int(victim.nbytes)
                keys = self._files[victim_key[0]]
                keys.discard(victim_key)
                if not keys:
                    del self._files[victim_key[0]]
                self.evictions += 1

    def peek(self, path: str, treelet: int, column: int):
        """The cached array of one column, or ``None``: a probe that moves
        neither a counter nor the LRU order."""
        with self._lock:
            return self._entries.get((str(path), int(treelet), int(column)))

    # -- invalidation ------------------------------------------------------

    def invalidate(self, path: str) -> int:
        """Drop every entry belonging to ``path``; returns entries removed.

        Loads of ``path`` in flight are forgotten too: they finish for
        their own waiters, and the next miss starts a fresh load. Touches
        only ``path``'s own keys.
        """
        path = str(path)
        with self._lock, self.memory.lock:
            self._inflight.pop(path, None)
            doomed = self._files.pop(path, ())
            for k in doomed:
                self.memory.columns -= int(self._entries.pop(k).nbytes)
            return len(doomed)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self.memory.lock:
            return self.memory.columns

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "joins": self.joins,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self.memory.columns,
                "budget_bytes": self.memory.limit,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DecodedColumnCache(entries={len(self)}, bytes={self.nbytes}, "
            f"budget={self.memory.limit})"
        )
