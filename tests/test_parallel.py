"""Tests for the writer's fan-out (repro.parallel).

The load-bearing property: the worker count is an implementation detail
of *how fast* the write pipeline runs, never of *what* it produces. Writes
on 1, 2 and 4 usable CPUs must emit byte-identical BAT files, manifests,
query results and restart reads on randomized workloads.
"""

import contextvars
import hashlib
import os
import threading

import numpy as np
import pytest

from repro import BATBuildConfig, QueryRequest, parallel
from repro.bat import BATFileCache
from repro.bat.query import query_file
from repro.core import TwoPhaseReader, TwoPhaseWriter
from repro.core import writer as writer_module
from repro.core.dataset import BATDataset
from repro.iosim.faults import FaultConfig
from repro.machines import testing_machine as make_test_machine
from repro.parallel import fan_out
from repro.types import Box
from tests.test_pipeline import make_rank_data

# usable CPUs the writer is told it has; a pool is really built for 2 and
# 4 even on a one-CPU machine
CPU_COUNTS = [1, 2, 4]


def _square(x):
    return x * x


def _cpus(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: n)


class TestExecutors:
    """``fan_out``, the one way the package runs tasks concurrently."""

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "thread:2"])
    def test_map_preserves_input_order(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        assert fan_out(_square, range(20)) == [i * i for i in range(20)]

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "thread:2"])
    def test_map_empty_and_single(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        assert fan_out(_square, []) == []
        assert fan_out(_square, [7]) == [49]

    def test_thread_tasks_run_in_the_callers_context(self, monkeypatch):
        """A task sees the context variables its caller set (an open trace
        span), and what a task sets stays in that task — on pool threads
        and in-process alike."""
        var = contextvars.ContextVar("var", default="unset")

        def task(i):
            seen = var.get()
            var.set(f"task {i}")
            return seen, threading.get_ident()

        for cpus in (2, 1):
            _cpus(monkeypatch, cpus)
            token = var.set("caller")
            try:
                got = fan_out(task, range(8))
                assert var.get() == "caller"
            finally:
                var.reset(token)
            assert [seen for seen, _ in got] == ["caller"] * 8
            on_caller = threading.get_ident() in {ident for _, ident in got}
            assert on_caller == (cpus == 1)
        assert var.get() == "unset"

    def test_unsized_pools_use_the_usable_cpus(self, monkeypatch):
        """A thread per usable CPU, no more threads than tasks."""
        sizes = []

        class Spy(parallel.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", Spy)
        _cpus(monkeypatch, 3)
        fan_out(_square, range(32))
        fan_out(_square, range(2))
        assert sizes == [3, 2]
        _cpus(monkeypatch, 1)
        fan_out(_square, range(32))
        assert sizes == [3, 2]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
    def test_usable_cpus_follow_the_affinity_mask(self):
        mask = os.sched_getaffinity(0)
        assert parallel.usable_cpus() == len(mask)
        os.sched_setaffinity(0, {min(mask)})
        try:
            assert parallel.usable_cpus() == 1
        finally:
            os.sched_setaffinity(0, mask)


def _hash_files(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.bat"))
    }


def _write(tmp_path, name, data, **kwargs):
    out = tmp_path / name
    writer = TwoPhaseWriter(make_test_machine(), target_size=64 * 1024, **kwargs)
    report = writer.write(data, out_dir=out, name="d")
    return out, report


class TestDefaultWriter:
    """The writer fans its leaves over a thread per usable CPU: the same
    bytes as an in-process write, and no thread outlives the write."""

    WRITES = {
        "v3": {},
        "v4": {"bat_config": BATBuildConfig(codecs="auto")},
        "faulted": {"faults": FaultConfig(
            seed=3, torn_write=0.3, bit_flip=0.3, aggregator_death=0.2
        )},
    }

    @pytest.fixture()
    def task_threads(self, monkeypatch):
        """Idents of the threads that published leaf files."""
        ran_on = set()
        publish = writer_module.publish_bytes

        def spy(*args, **kwargs):
            ran_on.add(threading.get_ident())
            return publish(*args, **kwargs)

        monkeypatch.setattr(writer_module, "publish_bytes", spy)
        return ran_on

    @pytest.mark.parametrize("kind", sorted(WRITES))
    def test_default_is_byte_identical_to_serial(
        self, kind, random_workloads, tmp_path, monkeypatch
    ):
        data = random_workloads[1]
        runs = {}
        for cpus in CPU_COUNTS:
            _cpus(monkeypatch, cpus)
            runs[cpus] = _write(tmp_path, f"cpus{cpus}", data, **self.WRITES[kind])
        serial, want = runs[1]
        assert len(_hash_files(serial)) > 1
        for cpus in CPU_COUNTS[1:]:
            pooled, got = runs[cpus]
            assert _hash_files(pooled) == _hash_files(serial), cpus
            assert (pooled / "d.meta.json").read_bytes() == (serial / "d.meta.json").read_bytes()
            if kind == "faulted":
                assert want.faults.total_injected > 0
                assert got.faults.to_doc() == want.faults.to_doc()

    def test_no_thread_outlives_the_write(
        self, random_workloads, tmp_path, monkeypatch, task_threads
    ):
        _cpus(monkeypatch, 2)
        before = threading.active_count()
        _write(tmp_path, "pooled", random_workloads[0])
        assert task_threads and threading.get_ident() not in task_threads  # a pool ran
        assert threading.active_count() == before

    def test_one_usable_cpu_writes_serially(
        self, random_workloads, tmp_path, monkeypatch, task_threads
    ):
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", None)  # building one would fail
        _write(tmp_path, "one", random_workloads[0])
        assert task_threads == {threading.get_ident()}


@pytest.fixture(scope="module")
def random_workloads():
    # randomized workloads: different rank counts, particle counts, and
    # seeds, so byte-identity isn't a fluke of one layout
    return [
        make_rank_data(nranks=8, seed=11, min_n=100, max_n=900),
        make_rank_data(nranks=16, seed=42, min_n=50, max_n=2000),
    ]


class TestByteIdenticalOutputs:
    """Property: writes on 1, 2 and 4 usable CPUs produce the same bytes
    and answer the same."""

    @pytest.fixture(scope="class")
    def written(self, random_workloads, tmp_path_factory):
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            for w, data in enumerate(random_workloads):
                per_count = {}
                for cpus in CPU_COUNTS:
                    _cpus(mp, cpus)
                    per_count[cpus] = _write(tmp_path_factory.mktemp(f"w{w}"), "prop", data)
                runs.append((data, per_count))
        return runs

    def test_file_bytes_identical(self, written):
        for _, per_count in written:
            ref = _hash_files(per_count[1][0])
            assert len(ref) > 1  # multiple aggregators, or the test is vacuous
            for cpus in CPU_COUNTS[1:]:
                assert _hash_files(per_count[cpus][0]) == ref, cpus

    def test_metadata_identical(self, written):
        for _, per_count in written:
            texts = {cpus: (out / "d.meta.json").read_text() for cpus, (out, _) in per_count.items()}
            for cpus in CPU_COUNTS[1:]:
                assert texts[cpus] == texts[1], cpus

    def test_query_file_results_identical(self, written):
        from repro.bat.file import BATFile

        box = Box((0.5, 0.5, 0.0), (3.0, 3.0, 1.0))
        for _, per_count in written:
            got = {}
            for cpus, (out, _) in per_count.items():
                parts = []
                for p in sorted(out.glob("*.bat")):
                    with BATFile(p) as f:
                        batch, _ = query_file(f, quality=0.7, box=box)
                        parts.append(batch.positions)
                got[cpus] = np.concatenate(parts) if parts else np.empty((0, 3))
            for cpus in CPU_COUNTS[1:]:
                np.testing.assert_array_equal(got[cpus], got[1], err_msg=str(cpus))

    def test_reader_parallel_matches_serial(self, written):
        """Restart reads of the pooled writes equal those of the in-process one."""
        machine = make_test_machine()
        for data, per_count in written:
            bounds = np.roll(data.bounds, -1, axis=0)
            reads = {
                cpus: TwoPhaseReader(machine).read(report.metadata, bounds, data_dir=out)
                for cpus, (out, report) in per_count.items()
            }
            assert reads[1].batches is not None
            for cpus in CPU_COUNTS[1:]:
                for got, want in zip(reads[cpus].batches, reads[1].batches, strict=True):
                    np.testing.assert_array_equal(got.positions, want.positions)
                    for name in want.attributes:
                        np.testing.assert_array_equal(got.attributes[name], want.attributes[name])


class TestFileCache:
    @pytest.fixture()
    def files(self, random_workloads, tmp_path):
        data = random_workloads[0]
        writer = TwoPhaseWriter(make_test_machine(), target_size=32 * 1024)
        writer.write(data, out_dir=tmp_path, name="lru")
        return sorted(tmp_path.glob("*.bat"))

    def test_hit_returns_same_handle(self, files):
        with BATFileCache(capacity=4) as cache:
            a = cache.get(files[0])
            assert cache.get(files[0]) is a
            assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_lru_and_closes(self, files):
        assert len(files) >= 3
        with BATFileCache(capacity=2) as cache:
            a = cache.get(files[0])
            cache.get(files[1])
            cache.get(files[0])  # refresh 0 so 1 is now least-recent
            cache.get(files[2])  # evicts 1
            assert cache.evictions == 1
            assert a.n_points > 0  # handle 0 survived
            again = cache.get(files[1])  # reopened, fresh handle
            assert again.n_points > 0

    def test_close_empties_cache(self, files):
        cache = BATFileCache(capacity=4)
        cache.get(files[0])
        cache.get(files[1])
        cache.close()
        assert len(cache) == 0

    def test_shared_cache_across_datasets(self, random_workloads, tmp_path):
        data = random_workloads[0]
        writer = TwoPhaseWriter(make_test_machine(), target_size=64 * 1024)
        r1 = writer.write(data, out_dir=tmp_path / "a", name="s1")
        r2 = writer.write(data, out_dir=tmp_path / "b", name="s2")
        cache = BATFileCache(capacity=8)
        ds1 = BATDataset(r1.metadata_path, file_cache=cache)
        ds2 = BATDataset(r2.metadata_path, file_cache=cache)
        ds1.query(QueryRequest(quality=0.3))
        ds2.query(QueryRequest(quality=0.3))
        assert cache.misses > 0
        ds1.close()  # drops only ds1's handles
        ds2.query(QueryRequest(quality=0.5))  # ds2 still usable through the shared cache
        ds2.close()
        cache.close()
        assert len(cache) == 0
