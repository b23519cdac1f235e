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
nowhere else (:meth:`BATFile._retained <repro.bat.file.BATFile._retained>`):
retention lives here, which is what makes the byte budget an actual
bound on decoded memory.

**One round-trip per file and column.** A read asks for one column (or
the walk tables) of all of a file's surviving treelets at once:
:meth:`fetch` answers the hits and claims the misses under one lock
acquisition, and one loader call produces every claimed miss. A single
column is :meth:`fetch` of one key; there is no second miss path.

**Single-flight.** What concurrent reads of any windows duplicate is a
treelet column, and this key names it: a miss that :meth:`fetch` finds
already being decoded (or built) elsewhere waits for that load instead
of repeating it.

The budget is in *decoded* bytes (``arr.nbytes``), not encoded bytes:
that is what the cache actually pins in memory. Eviction is strict LRU.
All operations take one re-entrant lock so the serve layer's scheduler
workers can share a single instance; loaders run outside it. Entries and
loads are indexed by file, so :meth:`invalidate` touches only the keys
of the file it drops.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["DecodedColumnCache", "DEFAULT_COLUMN_CACHE_BYTES", "Flight"]

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


class DecodedColumnCache:
    """LRU over decoded column arrays with a hard byte budget.

    ``get``/``fetch`` maintain hit/miss/join/eviction counters surfaced
    through :meth:`stats`; :meth:`peek` is counter-pure (metrics endpoints
    can probe without perturbing hit rates). :meth:`invalidate` drops
    every entry of one file — the file-handle cache calls it whenever a
    ``BATFile`` is evicted, dropped, or quarantined, so a rewritten or
    corrupt file can never serve stale columns.
    """

    def __init__(self, budget_bytes: int = DEFAULT_COLUMN_CACHE_BYTES):
        budget_bytes = int(budget_bytes)
        if budget_bytes < 0:
            raise ValueError("column cache budget must be >= 0")
        self.budget_bytes = budget_bytes
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, int, int], np.ndarray] = OrderedDict()
        #: path -> the keys of its entries
        self._files: dict[str, set[tuple[str, int, int]]] = {}
        #: path -> key -> the load running for it (see :meth:`fetch`)
        self._inflight: dict[str, dict[tuple[str, int, int], Flight]] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: misses served by another thread's load of the same key
        self.joins = 0

    # -- core --------------------------------------------------------------

    def get(self, path: str, treelet: int, column: int):
        """The cached array for one column, or ``None`` (counts hit/miss)."""
        key = (str(path), int(treelet), int(column))
        with self._lock:
            arr = self._entries.get(key)
            if arr is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return arr

    def fetch(self, path: str, keys, loader) -> list:
        """The arrays of ``keys`` — ``(treelet, column)`` pairs of Python
        ints, of one file — in order, with one cache round-trip.

        Hits come from the cache. The misses no other thread is loading
        are claimed and produced by one call ``loader(claimed)``, which
        returns their arrays in the order of ``claimed`` (a subsequence of
        ``keys``); they are cached, and the call returns them even when
        one is over budget. A miss already loading elsewhere waits for that
        load and takes its array. Per key, ``hits``, ``misses`` (loads) or
        ``joins`` (waits) advance by one. If ``loader`` raises, every
        waiter on its keys loads those keys itself. A load that
        :meth:`invalidate` overtook answers its waiters but is not cached.
        """
        path = str(path)
        out = []
        claimed: list[int] = []
        flights: list[Flight] = []
        waited: list[tuple[int, Flight, threading.Event]] = []
        with self._lock:
            entries = self._entries
            running = self._inflight.get(path)
            for treelet, column in keys:
                key = (path, treelet, column)
                arr = entries.get(key)
                if arr is not None:
                    entries.move_to_end(key)
                elif running is not None and key in running:
                    flight = running[key]
                    waited.append((len(out), flight, flight.wait()))
                else:
                    if running is None:
                        running = self._inflight[path] = {}
                    flight = running[key] = Flight(key)
                    claimed.append(len(out))
                    flights.append(flight)
                out.append(arr)
            self.hits += len(out) - len(claimed) - len(waited)
            self.misses += len(claimed)
            self.joins += len(waited)
        # a thread runs its own loads before it waits on anyone else's, so
        # two threads claiming overlapping sets never wait on each other
        if claimed:
            try:
                arrays = loader([keys[i] for i in claimed])
                for flight, arr in zip(flights, arrays, strict=True):
                    flight.value = arr
            finally:
                self._settle(path, flights)
            for i, flight in zip(claimed, flights):
                out[i] = flight.value
        failed = []
        for i, flight, done in waited:
            done.wait()
            if flight.value is None:  # its loader raised
                failed.append(i)
            out[i] = flight.value
        if failed:
            for i, arr in zip(failed, loader([keys[i] for i in failed])):
                out[i] = arr
        return out

    def _settle(self, path: str, flights: list[Flight]) -> None:
        """End the claimed ``flights`` (loaded, or not if their loader
        raised): cache what no invalidation overtook, release the waiters."""
        with self._lock:
            running = self._inflight.get(path)
            if running is not None:
                for flight in flights:
                    if running.get(flight.key) is flight:
                        del running[flight.key]
                        if flight.value is not None:
                            self._insert(flight.key, flight.value)
                if not running:
                    del self._inflight[path]
        for flight in flights:
            if flight.done is not None:  # no waiter can join once it left _inflight
                flight.done.set()

    def put(self, path: str, treelet: int, column: int, arr: np.ndarray) -> None:
        """Insert one decoded column, evicting LRU entries over budget.

        Arrays larger than the whole budget are not cached at all —
        admitting one would immediately evict everything else for a single
        entry that can never be amortized.
        """
        with self._lock:
            self._insert((str(path), int(treelet), int(column)), arr)

    def _insert(self, key: tuple, arr: np.ndarray) -> None:
        nbytes = int(arr.nbytes)
        if nbytes > self.budget_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= int(old.nbytes)
        else:
            self._files.setdefault(key[0], set()).add(key)
        self._entries[key] = arr
        self._bytes += nbytes
        while self._bytes > self.budget_bytes and self._entries:
            victim_key, victim = self._entries.popitem(last=False)
            self._bytes -= int(victim.nbytes)
            keys = self._files[victim_key[0]]
            keys.discard(victim_key)
            if not keys:
                del self._files[victim_key[0]]
            self.evictions += 1

    def peek(self, path: str, treelet: int, column: int):
        """Like :meth:`get` but touches neither counters nor LRU order."""
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
        with self._lock:
            self._inflight.pop(path, None)
            doomed = self._files.pop(path, ())
            for k in doomed:
                self._bytes -= int(self._entries.pop(k).nbytes)
            return len(doomed)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "joins": self.joins,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DecodedColumnCache(entries={len(self)}, bytes={self.nbytes}, "
            f"budget={self.budget_bytes})"
        )
