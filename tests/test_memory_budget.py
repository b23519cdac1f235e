"""One byte budget shared by the decoded-column cache and the result cache.

The property test drives a :class:`DecodedColumnCache` (fake loader) and
a :class:`ResultCache` (injected clock) over one
:class:`~repro.bat.colcache.MemoryBudget` with random operation
sequences, against a plain-Python model of the yield rule: a result never
evicts a column, and a column insert over the budget sheds LRU results
before LRU columns. After every call the pools' bytes fit the budget,
each pool's byte count is the sum over its entries, no column was evicted
while a result was held, every counter equals the model's, and an entry
larger than the budget was returned but not stored. A result is charged
its arrays' bytes plus :data:`~repro.serve.cache.ENTRY_OVERHEAD_BYTES`.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import QueryRequest
from repro.bat import BATBuildConfig
from repro.bat.colcache import DecodedColumnCache, MemoryBudget
from repro.core import TwoPhaseWriter
from repro.machines import testing_machine
from repro.serve import QueryService, ServeConfig
from repro.serve.cache import ENTRY_OVERHEAD_BYTES, ResultCache
from repro.types import ParticleBatch
from tests.test_colcache import fetch, put
from tests.test_pipeline import make_rank_data

LIMIT = 4096
TTL = 10.0
PATHS = ("a", "b")
O = ENTRY_OVERHEAD_BYTES
# some columns and (with their overhead) some results are larger than the budget
COLUMN_SIZES = st.integers(0, LIMIT + 512)
RESULT_SIZES = st.integers(0, LIMIT)


def _result(nbytes: int) -> ParticleBatch:
    return ParticleBatch(None, {"a": np.zeros(nbytes, dtype=np.uint8)}, count=nbytes)


class _EvictionWatch(OrderedDict):
    """The column cache's entry table; flags an LRU eviction (``popitem``)
    made while the shared budget still held a result."""

    def __init__(self, memory):
        super().__init__()
        self.memory = memory
        self.evicted_beside_results = 0

    def popitem(self, last=True):
        if self.memory.results:
            self.evicted_beside_results += 1
        return super().popitem(last=last)


class SharedBudgetMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.memory = MemoryBudget(LIMIT)
        self.cols = DecodedColumnCache(self.memory)
        self.cols._entries = _EvictionWatch(self.memory)
        self.results = ResultCache(self.memory, ttl=TTL, clock=lambda: self.now)
        #: (path, treelet, slot) -> nbytes its loader produces, fixed per run
        self.sizes: dict = {}
        # the model: LRU tables of nbytes and the expected counters
        self.m_cols: OrderedDict = OrderedDict()
        self.m_res: OrderedDict = OrderedDict()  # key -> (nbytes, stored_at)
        self.m = dict(
            col_hits=0, col_misses=0, col_evictions=0,
            hits=0, misses=0, evictions=0, expirations=0, shed=0, uncached=0,
        )

    # -- model helpers -----------------------------------------------------

    def _shed_results_for(self, need: int) -> None:
        while self.m_res and sum(self.m_cols.values()) + sum(
            n for n, _ in self.m_res.values()
        ) + need > LIMIT:
            self.m_res.popitem(last=False)
            self.m["shed"] += 1

    def _model_put(self, key, nbytes: int) -> None:
        charge = nbytes + O
        self.m_res.pop(key, None)
        room = LIMIT - sum(self.m_cols.values())
        if charge > room:
            return
        while sum(n for n, _ in self.m_res.values()) + charge > room:
            self.m_res.popitem(last=False)
            self.m["evictions"] += 1
        self.m_res[key] = (charge, self.now)

    # -- rules ---------------------------------------------------------------

    @rule(
        path=st.sampled_from(PATHS),
        keys=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from([-1, 0, 2])),
            min_size=1, max_size=4, unique=True,
        ),
        sizes=st.lists(COLUMN_SIZES, min_size=4, max_size=4),
    )
    def fetch_columns(self, path, keys, sizes):
        for key, n in zip(keys, sizes):
            self.sizes.setdefault((path, *key), n)
        loaded = []

        def loader(claimed):
            loaded.extend(claimed)
            return [np.zeros(self.sizes[(path, *k)], dtype=np.uint8) for k in claimed]

        got = fetch(self.cols, path, keys, loader)
        # the model: hits refresh, misses load as one batch, results give
        # way to the batch first, then LRU columns go while columns overrun
        claimed = []
        for key in keys:
            full = (path, *key)
            if full in self.m_cols:
                self.m_cols.move_to_end(full)
                self.m["col_hits"] += 1
            else:
                claimed.append(full)
                self.m["col_misses"] += 1
        assert [(path, *k) for k in loaded] == claimed
        storable = [k for k in claimed if self.sizes[k] <= LIMIT]
        self._shed_results_for(sum(self.sizes[k] for k in storable))
        for k in storable:
            self.m_cols[k] = self.sizes[k]
        while sum(self.m_cols.values()) > LIMIT:
            self.m_cols.popitem(last=False)
            self.m["col_evictions"] += 1
        # every key is returned, stored or not
        assert [a.nbytes for a in got] == [self.sizes[(path, *k)] for k in keys]

    @rule(path=st.sampled_from(PATHS))
    def invalidate_file(self, path):
        dropped = self.cols.invalidate(path)
        doomed = [k for k in self.m_cols if k[0] == path]
        for k in doomed:
            del self.m_cols[k]
        assert dropped == len(doomed)

    @rule(step=st.integers(0, 2), view=st.integers(0, 5), nbytes=RESULT_SIZES)
    def put_result(self, step, view, nbytes):
        key = (step, 0, view)
        self.results.put(key, _result(nbytes))
        self._model_put(key, nbytes)

    @rule(step=st.integers(0, 2), view=st.integers(0, 5), nbytes=RESULT_SIZES,
          waiters=st.integers(0, 2))
    def lead_a_window(self, step, view, nbytes, waiters):
        """A single-flight leader: its waiters get the result whether or
        not the budget lets the cache keep it."""
        key = (step, 1, view)  # generation 1: never a plain put's key
        batch, flight = self.results.join(key, lead=True)
        if flight is None:  # stored earlier: handed over, nothing to lead
            assert batch is not None and batch.nbytes + O == self.m_res[key][0]
            return
        for _ in range(waiters):
            flight.wait()
        result = _result(nbytes)
        self.results.put(key, result)
        self._model_put(key, nbytes)
        self.results.settle(flight, result)
        assert flight.value is result
        if waiters and key not in self.m_res:
            self.m["uncached"] += waiters * nbytes

    @rule(step=st.integers(0, 2), view=st.integers(0, 5), gen=st.integers(0, 1))
    def get_result(self, step, view, gen):
        key = (step, gen, view)
        got = self.results.get(key)
        entry = self.m_res.get(key)
        if entry is not None and self.now - entry[1] > TTL:
            del self.m_res[key]
            self.m["expirations"] += 1
            entry = None
        if entry is None:
            self.m["misses"] += 1
            assert got is None
        else:
            self.m["hits"] += 1
            self.m_res.move_to_end(key)
            assert got is not None and got.nbytes + O == entry[0]

    @rule(dt=st.sampled_from([0.5, 4.0, 11.0]))
    def advance_clock(self, dt):
        self.now += dt

    @rule(step=st.integers(0, 2))
    def invalidate_step(self, step):
        dropped = self.results.invalidate_step(step)
        doomed = [k for k in self.m_res if k[0] == step]
        for k in doomed:
            del self.m_res[k]
        assert dropped == len(doomed)

    @rule()
    def clear_results(self):
        self.results.clear()
        self.m_res.clear()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def bytes_fit_the_budget(self):
        assert self.memory.columns + self.memory.results <= LIMIT
        assert self.memory.reserved == 0

    @invariant()
    def byte_counts_are_exact(self):
        entries = self.cols._entries
        assert self.memory.columns == sum(a.nbytes for a in entries.values())
        held = self.results._entries.values()
        assert all(n == batch.nbytes + O for batch, _, n in held)
        assert self.memory.results == sum(n for _, _, n in held)

    @invariant()
    def no_column_evicted_beside_a_result(self):
        assert self.cols._entries.evicted_beside_results == 0

    @invariant()
    def entries_and_counters_match_the_model(self):
        assert list(self.cols._entries) == list(self.m_cols)
        assert list(self.results._entries) == list(self.m_res)
        c, r = self.cols, self.results
        assert (c.hits, c.misses, c.evictions) == (
            self.m["col_hits"], self.m["col_misses"], self.m["col_evictions"]
        )
        assert (r.hits, r.misses, r.evictions, r.expirations, r.shed) == (
            self.m["hits"], self.m["misses"], self.m["evictions"],
            self.m["expirations"], self.m["shed"],
        )
        assert r.uncached_bytes == self.m["uncached"]
        assert c.uncached_bytes == 0  # no fetch here has a waiter
        mem = self.memory.stats()
        assert mem["bytes"] == self.memory.columns + self.memory.results
        assert mem["results"]["shed_for_columns"] == r.shed


TestSharedBudget = SharedBudgetMachine.TestCase
TestSharedBudget.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestYieldRule:
    def test_a_result_never_evicts_a_column(self):
        memory = MemoryBudget(100 + O)
        cols, results = DecodedColumnCache(memory), ResultCache(memory, ttl=None)
        put(cols, "f", 0, 0, np.zeros(70, dtype=np.uint8))
        results.put("fits", _result(30))
        results.put("too big beside the column", _result(31))
        assert cols.peek("f", 0, 0) is not None and cols.evictions == 0
        assert results.get("fits") is not None
        assert results.get("too big beside the column") is None
        assert results.evictions == 0  # nothing was evicted for a result that cannot fit

    def test_a_column_sheds_results_before_columns(self):
        memory = MemoryBudget(1000 + 2 * O)
        cols, results = DecodedColumnCache(memory), ResultCache(memory, ttl=None)
        put(cols, "f", 0, 0, np.zeros(400, dtype=np.uint8))
        results.put("old", _result(0))
        results.put("new", _result(100))  # 500 + 2 * O bytes held
        put(cols, "f", 1, 0, np.zeros(550, dtype=np.uint8))  # over by 50: "old" goes
        assert results.get("old") is None and results.get("new") is not None
        assert (results.shed, cols.evictions) == (1, 0)
        # the columns alone overrun: every result goes, then the LRU column
        put(cols, "f", 2, 0, np.zeros(2 * O + 100, dtype=np.uint8))
        assert results.nbytes == 0 and results.shed == 2
        assert cols.peek("f", 0, 0) is None and cols.evictions == 1
        assert memory.columns == 2 * O + 650 == memory.stats()["bytes"]

    def test_a_budget_takes_one_pool_of_each_kind(self):
        memory = MemoryBudget(100)
        DecodedColumnCache(memory)
        ResultCache(memory)
        with pytest.raises(ValueError, match="column_pool"):
            DecodedColumnCache(memory)
        with pytest.raises(ValueError, match="result_pool"):
            ResultCache(memory)


@pytest.fixture(scope="module")
def v4_written(tmp_path_factory):
    out = tmp_path_factory.mktemp("memory_budget")
    report = TwoPhaseWriter(
        testing_machine(), target_size=128 * 1024, bat_config=BATBuildConfig(codecs="auto")
    ).write(make_rank_data(nranks=9, seed=21), out_dir=out, name="mb")
    return report.metadata_path


class TestServiceBudget:
    def test_serve_config_has_one_memory_bound(self):
        fields = list(ServeConfig.__dataclass_fields__)
        assert [f for f in fields if f.endswith("_bytes")] == ["memory_bytes"]
        assert not [f for f in fields if f.endswith("_entries")]

    def test_snapshot_memory_block_sums_both_pools(self, v4_written):
        views = [QueryRequest(quality=q) for q in (0.3, 0.6, 1.0)]
        with QueryService(v4_written, ServeConfig(capacity=2, result_ttl=None)) as svc:
            for req in views:
                svc.execute(req)
            snap = svc.snapshot()
        mem, caches = snap["memory"], snap["caches"]
        assert mem["budget_bytes"] == ServeConfig().memory_bytes
        assert mem["columns"]["bytes"] == caches["decoded_columns"]["bytes"] > 0
        assert mem["results"]["bytes"] == caches["results"]["bytes"] > 0
        assert mem["bytes"] == mem["columns"]["bytes"] + mem["results"]["bytes"]

    def test_results_give_way_to_columns_in_the_service(self, v4_written):
        """A budget that holds the columns of one full read but not that
        read's result as well: every response is still the direct bytes,
        the columns stay, and the result is handed back uncached."""
        req = QueryRequest(quality=1.0)
        with QueryService(v4_written, ServeConfig(capacity=1, result_ttl=None)) as roomy:
            ref = roomy.execute(req).batch
            columns = roomy.snapshot()["memory"]["columns"]["bytes"]
        budget = columns + ref.nbytes // 2
        config = ServeConfig(capacity=1, result_ttl=None, memory_bytes=budget)
        with QueryService(v4_written, config) as svc:
            for _ in range(2):
                batch = svc.execute(req).batch
                assert batch.positions.tobytes() == ref.positions.tobytes()
            mem = svc.snapshot()["memory"]
        assert mem["columns"]["bytes"] == columns and mem["columns"]["evictions"] == 0
        assert mem["results"]["bytes"] == 0 and mem["bytes"] <= budget
