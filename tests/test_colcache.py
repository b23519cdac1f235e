"""Tests for the byte-budgeted decoded-column cache tier.

Covers the unit contract (LRU under a hard byte budget, counter-pure
``peek``, per-path invalidation, single-flight loads — every concurrent
wait here is bounded and released by an event, never by a sleep) and
the integration invariants: a cached
read must be byte-identical to a cold decode, cache hits must not inflate
the ``decoded_bytes`` work counter, and entries must die with their file
handle — eviction, drop, and quarantine all invalidate, so a rewritten or
corrupt file can never serve stale columns.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bat import BATBuildConfig, build_bat
from repro.bat.colcache import DecodedColumnCache
from repro.bat.filecache import BATFileCache
from repro.bat.query import query_file
from repro.types import Box


def _arr(nbytes: int) -> np.ndarray:
    return np.zeros(nbytes, dtype=np.uint8)


def fetch(cache, path, keys, loader) -> list:
    """The arrays of one file's ``(treelet, column)`` ``keys``: the
    one-group :meth:`~DecodedColumnCache.fetch_groups` call a one-file
    read makes."""
    return cache.fetch_groups([(path, keys, loader)])[0]


def put(cache, path, treelet: int, column: int, arr) -> None:
    """Cache ``arr`` under one absent key: a one-key miss that loads it."""
    fetch(cache, path, [(treelet, column)], lambda keys: [arr])


class TestUnitContract:
    def test_get_put_round_trip_and_counters(self):
        c = DecodedColumnCache(budget_bytes=1024)
        a = _arr(100)
        put(c, "f", 0, 1, a)
        # a hit never calls its loader
        assert fetch(c, "f", [(0, 1)], None)[0] is a
        assert c.stats()["hits"] == 1
        assert c.stats()["misses"] == 1
        assert c.nbytes == 100

    def test_lru_eviction_under_tight_budget(self):
        c = DecodedColumnCache(budget_bytes=250)
        put(c, "f", 0, 0, _arr(100))
        put(c, "f", 1, 0, _arr(100))
        # touching treelet 0 makes treelet 1 the LRU victim
        assert fetch(c, "f", [(0, 0)], None)[0] is not None
        put(c, "f", 2, 0, _arr(100))
        assert c.peek("f", 1, 0) is None
        assert c.peek("f", 0, 0) is not None
        assert c.peek("f", 2, 0) is not None
        assert c.stats()["evictions"] == 1
        assert c.nbytes <= 250

    def test_oversized_entry_rejected(self):
        c = DecodedColumnCache(budget_bytes=50)
        put(c, "f", 0, 0, _arr(40))
        big = _arr(51)
        assert fetch(c, "f", [(1, 0)], lambda keys: [big])[0] is big  # returned, not kept
        assert c.peek("f", 1, 0) is None
        # the oversized entry must not have evicted the resident one
        assert c.peek("f", 0, 0) is not None
        assert c.stats()["evictions"] == 0

    def test_peek_is_counter_and_order_pure(self):
        c = DecodedColumnCache(budget_bytes=250)
        put(c, "f", 0, 0, _arr(100))
        put(c, "f", 1, 0, _arr(100))
        before = c.stats()
        assert c.peek("f", 0, 0) is not None
        assert c.peek("f", 9, 9) is None
        assert c.stats() == before
        # peek did not refresh treelet 0, so it is still the LRU victim
        put(c, "f", 2, 0, _arr(100))
        assert c.peek("f", 0, 0) is None
        assert c.peek("f", 1, 0) is not None

    def test_invalidate_is_per_path(self):
        c = DecodedColumnCache(budget_bytes=1024)
        put(c, "a", 0, 0, _arr(10))
        put(c, "a", 1, 2, _arr(10))
        put(c, "b", 0, 0, _arr(10))
        assert c.invalidate("a") == 2
        assert len(c) == 1
        assert c.nbytes == 10
        assert c.peek("b", 0, 0) is not None

    def test_zero_budget_caches_nothing(self):
        c = DecodedColumnCache(budget_bytes=0)
        put(c, "f", 0, 0, _arr(1))
        assert len(c) == 0


def _until(predicate, what: str, timeout: float = 10.0) -> None:
    """Spin (yielding the GIL) until ``predicate()``; fail after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0)


def _lookup(cache, loader, key=("f", 0, 1)):
    """What a handle does for one column: a one-key :func:`fetch`."""
    return fetch(cache, key[0], [key[1:]], lambda keys: [loader()])[0]


class _Gate:
    """A loader that blocks until released and counts its calls."""

    def __init__(self, arr, fail_first: bool = False):
        self.arr = arr
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        self.entered.set()
        assert self.release.wait(10.0)
        if first and self.fail_first:
            raise RuntimeError("corrupt column")
        return self.arr


def _herd(cache, gate, n: int):
    """One leader inside ``gate`` plus ``n - 1`` threads joined on it;
    returns the threads (started) and their ``(result, error)`` slots."""
    out = [None] * n

    def run(i):
        try:
            out[i] = (_lookup(cache, gate), None)
        except Exception as exc:  # surfaced through ``out``
            out[i] = (None, exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    threads[0].start()
    assert gate.entered.wait(10.0)
    for t in threads[1:]:
        t.start()
    _until(lambda: cache.stats()["joins"] == n - 1, "every waiter to join")
    return threads, out


def _finish(threads) -> None:
    for t in threads:
        t.join(10.0)
        assert not t.is_alive(), "a single-flight waiter hung"


class TestSingleFlight:
    def test_concurrent_misses_load_once(self):
        c = DecodedColumnCache(budget_bytes=1024)
        gate = _Gate(_arr(100))
        threads, out = _herd(c, gate, 6)
        gate.release.set()
        _finish(threads)
        assert gate.calls == 1
        assert all(res is gate.arr and err is None for res, err in out)
        s = c.stats()
        # every lookup is one hit, one miss or one join; misses count loads
        assert (s["hits"], s["misses"], s["joins"]) == (0, 1, 5)
        assert c.peek("f", 0, 1) is gate.arr

    def test_failed_load_hangs_no_waiter(self):
        c = DecodedColumnCache(budget_bytes=1024)
        gate = _Gate(_arr(100), fail_first=True)
        threads, out = _herd(c, gate, 4)
        gate.release.set()
        _finish(threads)
        errors = [err for _, err in out if err is not None]
        assert len(errors) == 1 and "corrupt" in str(errors[0])
        # each waiter ran the loader itself
        assert gate.calls == 4
        assert sum(res is gate.arr for res, _ in out) == 3
        # and the key is not left in flight: the next miss loads afresh
        fresh = _arr(10)
        assert _lookup(c, lambda: fresh) is fresh

    def test_over_budget_array_reaches_waiters(self):
        c = DecodedColumnCache(budget_bytes=50)
        gate = _Gate(_arr(100))
        threads, out = _herd(c, gate, 3)
        gate.release.set()
        _finish(threads)
        assert gate.calls == 1
        assert all(res is gate.arr for res, _ in out)
        assert len(c) == 0 and c.nbytes == 0

    def test_invalidate_during_load_leaves_no_stale_entry(self):
        c = DecodedColumnCache(budget_bytes=1024)
        gate = _Gate(_arr(100))
        threads, out = _herd(c, gate, 2)
        c.invalidate("f")
        # a miss after the invalidation does not join the overtaken load
        fresh = _arr(30)
        assert _lookup(c, lambda: fresh) is fresh
        gate.release.set()
        _finish(threads)
        # the overtaken load still answered its own waiters ...
        assert all(res is gate.arr for res, _ in out)
        # ... but never entered the cache
        assert c.peek("f", 0, 1) is fresh
        assert c.nbytes == 30
        c.invalidate("f")
        assert len(c) == 0 and c.nbytes == 0


class _BatchGate:
    """A batch loader that records every key it loads; its first call
    blocks until released (and raises then, with ``fail_first``)."""

    def __init__(self, fail_first: bool = False):
        self.fail_first = fail_first
        self.loaded: list[tuple] = []
        self.calls = 0
        self._lock = threading.Lock()
        self.entered = threading.Event()
        self.release = threading.Event()

    @staticmethod
    def array(key) -> np.ndarray:
        return np.full(8, key[0] * 100 + key[1], dtype=np.int64)

    def __call__(self, keys):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
            self.loaded += keys
        if first:
            self.entered.set()
            assert self.release.wait(10.0)
            if self.fail_first:
                raise RuntimeError("corrupt column")
        return [self.array(k) for k in keys]


def _batch_herd(cache, gate, sets):
    """Fetch ``sets[0]`` (held inside ``gate``), then every other set on
    its own thread; returns the threads and their ``(result, error)`` slots."""
    out = [None] * len(sets)

    def run(i):
        try:
            out[i] = (fetch(cache, "f", sets[i], gate), None)
        except Exception as exc:  # surfaced through ``out``
            out[i] = (None, exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sets))]
    threads[0].start()
    assert gate.entered.wait(10.0)
    for t in threads[1:]:
        t.start()
    held = set(sets[0])
    joins = sum(len(held & set(s)) for s in sets[1:])
    _until(lambda: cache.stats()["joins"] >= joins, "every waiter to join")
    return threads, out


class TestBatchedMissPath:
    """A one-file :func:`fetch`: the single-flight guarantees of
    :class:`TestSingleFlight`, per key, for one loader call per batch."""

    def test_hits_and_misses_in_one_round_trip(self):
        c = DecodedColumnCache(budget_bytes=1024)
        put(c, "f", 1, 0, _arr(10))
        before = c.stats()
        loaded = []

        def loader(keys):
            loaded.append(list(keys))
            return [_arr(k[0]) for k in keys]

        got = fetch(c, "f", [(0, 0), (1, 0), (2, 0)], loader)
        assert loaded == [[(0, 0), (2, 0)]]
        assert [a.nbytes for a in got] == [0, 10, 2]
        s = {k: v - before[k] for k, v in c.stats().items()}
        assert (s["hits"], s["misses"], s["joins"]) == (1, 2, 0)
        # all three are cached now (a zero-byte array too): no loader call
        assert fetch(c, "f", [(2, 0), (0, 0), (1, 0)], None)[0] is got[2]

    def test_overlapping_batches_load_each_key_once(self):
        c = DecodedColumnCache(budget_bytes=1 << 20)
        gate = _BatchGate()
        sets = [
            [(t, 2) for t in range(4)],
            [(2, 2), (3, 2), (4, 2), (5, 2)],
            [(3, 2), (4, 2), (5, 2), (6, 2), (7, 2)],
            [(t, 2) for t in range(8)],
        ]
        threads, out = _batch_herd(c, gate, sets)
        gate.release.set()
        _finish(threads)
        assert sorted(gate.loaded) == [(t, 2) for t in range(8)]
        for keys, (res, err) in zip(sets, out):
            assert err is None
            assert [a.tolist() for a in res] == [gate.array(k).tolist() for k in keys]
            for k, a in zip(keys, res):
                assert c.peek("f", *k) is a  # every thread holds the cached array
        s = c.stats()
        assert s["misses"] == 8
        assert s["hits"] + s["misses"] + s["joins"] == sum(map(len, sets))
        assert not c._inflight

    def test_raising_batch_loader_hangs_no_waiter(self):
        c = DecodedColumnCache(budget_bytes=1 << 20)
        gate = _BatchGate(fail_first=True)
        sets = [[(0, 1), (1, 1), (2, 1)], [(1, 1)], [(2, 1), (5, 1)], [(0, 1), (2, 1)]]
        threads, out = _batch_herd(c, gate, sets)
        gate.release.set()
        _finish(threads)
        errors = [err for _, err in out if err is not None]
        assert len(errors) == 1 and "corrupt" in str(errors[0])
        assert out[0][1] is errors[0]
        # each waiter loaded what it waited for itself, and got it
        for keys, (res, err) in zip(sets[1:], out[1:]):
            assert err is None
            assert [a.tolist() for a in res] == [gate.array(k).tolist() for k in keys]
        # and no key is left in flight: the next miss loads afresh
        assert not c._inflight
        fresh = _arr(10)
        assert fetch(c, "f", [(9, 1)], lambda keys: [fresh])[0] is fresh

    def test_invalidation_mid_batch_leaves_no_stale_entry(self):
        c = DecodedColumnCache(budget_bytes=1 << 20)
        gate = _BatchGate()
        sets = [[(0, 0), (1, 0), (2, 0)], [(1, 0)]]
        threads, out = _batch_herd(c, gate, sets)
        c.invalidate("f")
        # a miss after the invalidation does not join the overtaken batch
        fresh = _arr(30)
        assert fetch(c, "f", [(1, 0)], lambda keys: [fresh])[0] is fresh
        gate.release.set()
        _finish(threads)
        # the overtaken batch still answered its own waiters ...
        assert out[1][0][0].tolist() == gate.array((1, 0)).tolist()
        assert [a.tolist() for a in out[0][0]] == [gate.array(k).tolist() for k in sets[0]]
        # ... but none of it entered the cache
        assert c.peek("f", 1, 0) is fresh
        assert c.peek("f", 0, 0) is None and c.peek("f", 2, 0) is None
        assert c.nbytes == 30 and not c._inflight

    def test_invalidate_touches_only_its_files_keys(self):
        c = DecodedColumnCache(budget_bytes=1 << 20)
        for path in ("a", "b"):
            fetch(c, path, [(t, s) for t in range(3) for s in (-1, 0, 2)],
                  lambda keys: [_arr(4) for _ in keys])
        assert set(c._files) == {"a", "b"} and len(c._files["a"]) == 9
        assert c.invalidate("a") == 9
        assert set(c._files) == {"b"} and len(c) == 9 and c.nbytes == 36
        # eviction keeps the index exact
        c.memory.limit = 8
        put(c, "b", 9, 9, _arr(8))
        assert c._files == {"b": {("b", 9, 9)}} and len(c) == 1
        assert c.invalidate("b") == 1 and not c._files


def _keyed(key) -> np.ndarray:
    """The array a test loader produces for ``(path, treelet, column)``."""
    path, treelet, column = key
    return np.full(4, ord(path) * 10_000 + treelet * 100 + column, dtype=np.int64)


class _Recorder:
    """A loader of file ``path`` that records each call's keys."""

    def __init__(self, path: str, calls: list):
        self.path, self.calls = path, calls

    def __call__(self, keys):
        self.calls.append((self.path, list(keys)))
        return [_keyed((self.path, *k)) for k in keys]


@st.composite
def _step_fetches(draw):
    """Files with some keys cached, then one column's keys per file."""
    paths = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True))
    keys = st.lists(st.integers(0, 7), max_size=6, unique=True)
    warm = {p: [(t, 2) for t in draw(keys)] for p in paths}
    want = {p: [(t, 2) for t in draw(keys)] for p in paths}
    return warm, want


class TestStepWideFetch:
    """:meth:`DecodedColumnCache.fetch_groups`: one round trip for the keys
    of several files, as a read step asks for one column."""

    @settings(max_examples=100, deadline=None)
    @given(_step_fetches())
    def test_equals_per_file_fetches(self, case):
        """The same arrays, loader calls, counters and LRU order as one
        :func:`fetch` per file, in order."""
        warm, want = case
        caches, calls = [], []
        for _ in range(2):
            c = DecodedColumnCache(budget_bytes=1 << 20)
            for path, keys in warm.items():
                fetch(c, path, keys, _Recorder(path, []))
            caches.append(c)
            calls.append([])
        step, per_file = caches
        got = step.fetch_groups([(p, k, _Recorder(p, calls[0])) for p, k in want.items()])
        ref = [fetch(per_file, p, k, _Recorder(p, calls[1])) for p, k in want.items()]
        assert [[a.tolist() for a in g] for g in got] == [[a.tolist() for a in g] for g in ref]
        assert calls[0] == calls[1]
        assert step.stats() == per_file.stats()
        assert list(step._entries) == list(per_file._entries)
        assert not step._inflight

    def test_overlapping_claims_over_two_files_do_not_deadlock(self):
        """Two threads ask for overlapping keys of files a and b in
        opposite file order, and each holds a load the other joins: the
        first waits on the second's b, the second then finds the first's
        a cached. Each key loads once and both threads finish."""
        c = DecodedColumnCache(budget_bytes=1 << 20)
        gate_a, gate_b, calls = _BatchGate(), _BatchGate(), []
        first = [("a", [(0, 2), (1, 2)], gate_a), ("b", [(0, 2)], _Recorder("b", calls))]
        second = [("b", [(0, 2), (1, 2)], gate_b), ("a", [(1, 2), (2, 2)], _Recorder("a", calls))]
        out = {}
        threads = [
            threading.Thread(target=lambda n=name, g=groups: out.update({n: c.fetch_groups(g)}))
            for name, groups in (("first", first), ("second", second))
        ]
        threads[0].start()
        assert gate_a.entered.wait(10.0)
        threads[1].start()
        assert gate_b.entered.wait(10.0)
        gate_a.release.set()
        _until(lambda: c.stats()["joins"] == 1, "the first thread to join b0")
        gate_b.release.set()
        _finish(threads)
        assert gate_a.loaded == [(0, 2), (1, 2)] and gate_b.loaded == [(0, 2), (1, 2)]
        assert calls == [("a", [(2, 2)])]
        for name, groups in (("first", first), ("second", second)):
            for (path, keys, _), arrays in zip(groups, out[name]):
                for k, a in zip(keys, arrays):
                    assert c.peek(path, *k) is a
        s = c.stats()
        assert (s["misses"], s["joins"], s["hits"]) == (5, 1, 1)
        assert not c._inflight

    @pytest.mark.parametrize("dropped", ["a", "b"])
    def test_invalidating_one_file_mid_load_keeps_the_other(self, dropped):
        """File a's load is held while one of the two files is
        invalidated. The dropped file's arrays in flight answer the call
        but are not cached; the other file's entries stay cached, and b,
        looked up after the invalidation, is cached either way."""
        c = DecodedColumnCache(budget_bytes=1 << 20)
        fetch(c, "b", [(1, 2)], _Recorder("b", []))
        gate, calls = _BatchGate(), []
        keys = [(0, 2), (1, 2)]
        out = []
        t = threading.Thread(target=lambda: out.append(c.fetch_groups(
            [("a", keys, gate), ("b", keys, _Recorder("b", calls))]
        )))
        t.start()
        assert gate.entered.wait(10.0)
        c.invalidate(dropped)
        gate.release.set()
        _finish([t])
        (got_a, got_b) = out[0]
        for k, a in zip(keys, got_a):
            assert c.peek("a", *k) is (None if dropped == "a" else a)
        for k, b in zip(keys, got_b):
            assert c.peek("b", *k) is b
        assert calls == [("b", [(0, 2)] if dropped == "a" else keys)]
        assert not c._inflight

    def test_a_failing_file_leaves_the_files_after_it_unclaimed(self):
        """File a's loader raises: the call raises it, b is neither looked
        up nor loaded, and no claim of a is left in flight."""
        c = DecodedColumnCache(budget_bytes=1 << 20)
        calls = []

        def corrupt(keys):
            raise RuntimeError("corrupt column")

        with pytest.raises(RuntimeError, match="corrupt"):
            c.fetch_groups([("a", [(0, 2)], corrupt), ("b", [(0, 2)], _Recorder("b", calls))])
        assert calls == [] and not c._inflight and len(c) == 0
        assert c.stats()["misses"] == 1
        got = c.fetch_groups([("b", [(0, 2)], _Recorder("b", calls))])
        assert calls == [("b", [(0, 2)])] and c.peek("b", 0, 2) is got[0][0]


@pytest.fixture(scope="module")
def v4_bytes():
    rng = np.random.default_rng(11)
    n = 6000
    pos = rng.random((n, 3)).astype(np.float32)
    batch = None
    from repro.types import ParticleBatch

    batch = ParticleBatch(
        pos,
        {
            "id": np.arange(n, dtype=np.int64),
            "temp": (300 + 5 * rng.standard_normal(n)).astype(np.float64),
        },
    )
    return build_bat(batch, BATBuildConfig(codecs="auto")).data


def _digest(batch) -> tuple:
    parts = [batch.positions.tobytes() if batch.positions is not None else b""]
    parts += [batch.attributes[k].tobytes() for k in sorted(batch.attributes)]
    return tuple(parts)


class TestIntegration:
    def test_cached_read_byte_identical_to_cold(self, v4_bytes, tmp_path):
        path = tmp_path / "a.bat"
        path.write_bytes(v4_bytes)
        with BATFileCache(capacity=4) as cache:
            f = cache.get(path)
            cold, _ = query_file(f, quality=1.0)
            decoded_after_cold = f.decoded_bytes
            assert cache.column_cache.stats()["entries"] > 0
            warm, _ = query_file(f, quality=1.0)
            assert _digest(warm) == _digest(cold)
            # the warm pass was served from the column cache: no new decode
            assert f.decoded_bytes == decoded_after_cold
            assert cache.column_cache.stats()["hits"] > 0

    def test_hits_do_not_count_as_decode_work(self, v4_bytes, tmp_path):
        path = tmp_path / "a.bat"
        path.write_bytes(v4_bytes)
        with BATFileCache(capacity=4) as cache:
            f = cache.get(path)
            query_file(f, quality=1.0)
            stats = cache.stats()
            query_file(f, quality=1.0)
            assert cache.stats()["decoded_bytes"] == stats["decoded_bytes"]

    def test_tight_budget_still_byte_identical(self, v4_bytes, tmp_path):
        path = tmp_path / "a.bat"
        path.write_bytes(v4_bytes)
        # big enough to admit single columns, far too small to hold them all
        with BATFileCache(capacity=4, column_cache_bytes=20_000) as cache:
            f = cache.get(path)
            cold, _ = query_file(f, quality=1.0)
            warm, _ = query_file(f, quality=1.0)
            assert _digest(warm) == _digest(cold)
            assert cache.column_cache.stats()["evictions"] > 0

    def test_zero_budget_holds_no_decoded_columns(self, v4_bytes, tmp_path):
        """A 0-byte budget (``ServeConfig.memory_bytes=0``) decodes cold
        on every read: no handle keeps a v4 column or a walk table."""
        path = tmp_path / "a.bat"
        path.write_bytes(v4_bytes)
        with BATFileCache(capacity=4, column_cache_bytes=0) as cache:
            f = cache.get(path)
            lo, hi = np.asarray(f.bounds.lower), np.asarray(f.bounds.upper)
            box = Box(tuple(lo), tuple(lo + 0.6 * (hi - lo)))  # walks treelets
            query_file(f, quality=1.0, box=box)
            first = f.decoded_bytes
            assert first > 0
            query_file(f, quality=1.0, box=box)
            assert f.decoded_bytes == 2 * first
            assert not f._memo
            stats = cache.stats()["decoded_columns"]
            assert (stats["entries"], stats["bytes"], stats["hits"]) == (0, 0, 0)

    def test_eviction_invalidates_columns(self, v4_bytes, tmp_path):
        a, b = tmp_path / "a.bat", tmp_path / "b.bat"
        a.write_bytes(v4_bytes)
        b.write_bytes(v4_bytes)
        with BATFileCache(capacity=1) as cache:
            query_file(cache.get(a), quality=1.0)
            assert cache.column_cache.stats()["entries"] > 0
            # opening b evicts a's handle, which must take its columns along
            handle_b = cache.get(b)
            query_file(handle_b, quality=1.0)
            assert cache.evictions == 1
            remaining = {k[0] for k in cache.column_cache._entries}
            assert remaining == {handle_b.cache_key}

    def test_drop_invalidates_columns(self, v4_bytes, tmp_path):
        path = tmp_path / "a.bat"
        path.write_bytes(v4_bytes)
        with BATFileCache(capacity=4) as cache:
            query_file(cache.get(path), quality=1.0)
            cache.drop(path)
            assert cache.column_cache.stats()["entries"] == 0

    def test_quarantine_invalidates_columns(self, tmp_path):
        from repro.core import TwoPhaseWriter
        from repro.core.dataset import BATDataset
        from repro.machines import testing_machine
        from tests.test_pipeline import make_rank_data

        data = make_rank_data(nranks=4, seed=3)
        writer = TwoPhaseWriter(
            testing_machine(), target_size=64 * 1024,
            bat_config=BATBuildConfig(codecs="auto"),
        )
        report = writer.write(data, out_dir=tmp_path, name="q")
        with BATDataset(report.metadata_path) as ds:
            ds.query()
            colcache = ds.file_cache.column_cache
            assert colcache.stats()["entries"] > 0
            victim = ds.file_cache.peek(
                ds.directory / ds.metadata.leaves[0].file_name
            ).cache_key
            assert any(k[0] == victim for k in colcache._entries)
            ds.quarantine_leaf(0, "test")
            assert not any(k[0] == victim for k in colcache._entries)
