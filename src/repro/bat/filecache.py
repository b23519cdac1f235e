"""Bounded LRU cache of open :class:`BATFile` handles.

Repeated dataset and time-series queries touch the same leaf files over
and over; re-opening them per query costs an ``open``/``mmap``/header
parse each time, and keeping every handle open forever runs a long
time-series session into the file-descriptor limit. The cache bounds the
number of simultaneously open files and closes the least-recently-used
handle on eviction (safe even with outstanding numpy views — see
:meth:`BATFile.close`).

One cache can back several :class:`~repro.core.dataset.BATDataset`
instances (a :class:`~repro.core.timeseries.TimeSeriesDataset` shares one
across all its steps), so the bound applies to the session, not to each
timestep separately.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

from .colcache import DEFAULT_COLUMN_CACHE_BYTES, DecodedColumnCache, MemoryBudget
from .file import BATFile

__all__ = ["BATFileCache", "DEFAULT_CAPACITY"]

#: default maximum number of simultaneously open leaf files
DEFAULT_CAPACITY = 64


@functools.lru_cache(maxsize=4096)
def _key(path) -> str:
    """The cache key of ``path``: its normalized string, computed once per
    distinct path (a dataset looks up the same few paths on every read)."""
    return str(Path(path))


class BATFileCache:
    """LRU-bounded pool of open, memory-mapped BAT files.

    Thread-safe: the serve layer's scheduler workers share one cache
    across every session, so lookup, insert, and eviction are guarded by
    a lock. Eviction may close a handle another thread is still reading
    through an outstanding numpy view; that is safe — see
    :meth:`BATFile.close`.

    The hit/miss/eviction counters feed the serve metrics surface
    (:meth:`stats`), so they must stay exact under concurrency.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        column_cache_bytes: int | MemoryBudget = DEFAULT_COLUMN_CACHE_BYTES,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._open: OrderedDict[str, BATFile] = OrderedDict()
        if not isinstance(column_cache_bytes, MemoryBudget):
            column_cache_bytes = MemoryBudget(column_cache_bytes)
        #: the decoded columns' byte budget (the serve layer shares it
        #: with its result cache)
        self.memory = column_cache_bytes
        #: decoded-column tier shared by every handle this cache opens;
        #: a zero budget disables it (handles decode cold every time)
        self.column_cache = (
            DecodedColumnCache(self.memory) if self.memory.limit > 0 else None
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: opens that raised (missing or corrupt file) — nothing is cached
        #: for a failed open, so retries re-attempt the open
        self.open_errors = 0
        #: cached handles found pointing at replaced bytes (the path was
        #: atomically republished since the open) and reopened fresh
        self.stale_reopens = 0
        #: column bytes decoded by handles already evicted or dropped;
        #: :meth:`stats` adds the live handles' counters on top
        self._retired_decoded_bytes = 0
        #: path -> lease count; leased handles are never closed by
        #: eviction or :meth:`drop` (streamed reads hold treelet state
        #: across rungs, and a closed handle nulls its section arrays)
        self._pins: dict[str, int] = {}
        #: handles dropped while leased: closed on last release
        self._deferred: dict[str, list[BATFile]] = {}

    def _retire(self, f: BATFile) -> None:
        """Account for a handle leaving the cache and drop its columns.

        Column entries are invalidated because the path may be *rewritten*
        before it is next opened (the writer's atomic replace) — decoded
        columns must never outlive the handle that produced them.
        """
        self._retired_decoded_bytes += f.decoded_bytes
        if self.column_cache is not None:
            self.column_cache.invalidate(f.cache_key)

    @staticmethod
    def _is_stale(f: BATFile, key: str) -> bool:
        """True when ``key`` no longer names the bytes ``f`` has mapped.

        An atomic republish (``os.replace``) lands a new inode; an
        in-place rewrite changes size or mtime_ns. A vanished path also
        counts as stale — the reopen attempt surfaces the real error.
        In-memory handles (``from_bytes``) have no signature and are
        never stale.
        """
        if f.stat_signature is None:
            return False
        try:
            st = os.stat(key)
        except OSError:
            return True
        return (st.st_mtime_ns, st.st_size, st.st_ino) != f.stat_signature

    def _discard_stale(self, key: str, f: BATFile) -> None:
        """Forget a stale handle (close deferred while the path is leased).

        A lease pins the *handle generation* a stream started on: the
        stream keeps reading the old mapping until its lease releases,
        while the cache entry is replaced so new requests see new bytes.
        """
        self._open.pop(key, None)
        self._retire(f)
        if key in self._pins:
            self._deferred.setdefault(key, []).append(f)
        else:
            f.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._open)

    def get(self, path) -> BATFile:
        """Return an open handle for ``path``, opening and caching on miss."""
        key = _key(path)
        with self._lock:
            f = self._open.get(key)
            if f is not None:
                if self._is_stale(f, key):
                    # the path was replaced since this handle opened:
                    # serving its mmap would return the *old* file's bytes
                    self.stale_reopens += 1
                    self._discard_stale(key, f)
                else:
                    self.hits += 1
                    self._open.move_to_end(key)
                    return f
            self.misses += 1
            try:
                f = BATFile(key)
            except Exception:
                self.open_errors += 1
                raise
            f.column_cache = self.column_cache
            self._open[key] = f
            self._trim()
            return f

    def _trim(self) -> None:
        """Evict least-recently-used handles down to capacity (lock held).

        Leased handles are skipped: a read may hold treelet state in them
        for its whole step, or a stream for many rungs. The cache can
        transiently exceed capacity while leases are out; the bound
        resumes as they release.
        """
        while len(self._open) > self.capacity:
            victim_key = next((k for k in self._open if k not in self._pins), None)
            if victim_key is None:
                break
            victim = self._open.pop(victim_key)
            self._retire(victim)
            victim.close()
            self.evictions += 1

    def peek(self, path) -> BATFile | None:
        """Return the cached handle for ``path`` without opening on miss.

        Does not count as a hit or miss and does not touch LRU order —
        used by callers that merely want metadata from an already-open
        file and must not fault planner-skipped files into the cache. A
        stale handle (path replaced since open) is discarded, not
        returned: peek answers "what is at this path", never "what used
        to be".
        """
        with self._lock:
            key = _key(path)
            f = self._open.get(key)
            if f is not None and self._is_stale(f, key):
                self._discard_stale(key, f)
                return None
            return f

    def drop(self, path) -> None:
        """Close and forget one path, if cached.

        A leased handle is forgotten (and its decoded columns invalidated
        — the path may be rewritten) but its close is deferred to the
        last lease release, so streams in flight keep a valid handle.
        """
        with self._lock:
            key = _key(path)
            f = self._open.pop(key, None)
            if f is not None:
                self._retire(f)
                if key in self._pins:
                    self._deferred.setdefault(key, []).append(f)
                    f = None
        if f is not None:
            f.close()

    @contextmanager
    def lease(self, paths=()):
        """Keep handles for ``paths`` open for the duration of the block.

        A dataset read (:meth:`BATDataset.query`) holds every planned
        file's handle for its whole step, and a streamed read
        (:meth:`BATDataset.stream`) per-treelet state referencing a
        handle's section arrays across quality rungs; a lease prevents
        eviction (or a concurrent :meth:`drop`) from closing those handles
        mid-read. Leases nest and are counted per path; they pin only
        handles, not cache *entries* — lookups and LRU order behave as
        usual, and the last release trims the cache back to capacity.

        Yields ``pin(path)``, which adds one more path to the lease for
        the rest of the block: a read that decides as it goes which files
        to open (:meth:`BATDataset.neighbors`) pins each before looking it
        up, and all are released together.
        """
        keys = [_key(p) for p in paths]
        with self._lock:
            for k in keys:
                self._pins[k] = self._pins.get(k, 0) + 1

        def pin(path) -> None:
            k = _key(path)
            with self._lock:
                self._pins[k] = self._pins.get(k, 0) + 1
            keys.append(k)

        try:
            yield pin
        finally:
            victims: list[BATFile] = []
            with self._lock:
                for k in keys:
                    n = self._pins[k] - 1
                    if n:
                        self._pins[k] = n
                    else:
                        del self._pins[k]
                        victims.extend(self._deferred.pop(k, ()))
                self._trim()
            for f in victims:
                f.close()

    def stats(self) -> dict:
        """Counter snapshot for the serve metrics surface."""
        with self._lock:
            total = self.hits + self.misses
            decoded = self._retired_decoded_bytes + sum(
                f.decoded_bytes for f in self._open.values()
            )
            out = {
                "open": len(self._open),
                "capacity": self.capacity,
                "leased": len(self._pins),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "open_errors": self.open_errors,
                "stale_reopens": self.stale_reopens,
                "hit_rate": self.hits / total if total else 0.0,
                #: column bytes materialized through this cache's handles —
                #: the v4 decode-skipping story in one number
                "decoded_bytes": decoded,
            }
            if self.column_cache is not None:
                out["decoded_columns"] = self.column_cache.stats()
            return out

    def close(self) -> None:
        """Close every cached handle (leases do not survive a close)."""
        with self._lock:
            victims = list(self._open.values())
            self._open.clear()
            for f in victims:
                self._retire(f)
            for deferred in self._deferred.values():
                victims.extend(deferred)
            self._deferred.clear()
            self._pins.clear()
        for f in victims:
            f.close()

    def __enter__(self) -> "BATFileCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BATFileCache(open={len(self._open)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
