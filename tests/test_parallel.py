"""Tests for the pluggable execution layer (repro.parallel).

The load-bearing property: every executor is an implementation detail of
*how fast* the write pipeline and the restart reader run, never of *what*
they produce. Serial, thread, and process backends must emit
byte-identical BAT files and identical restart reads on randomized
workloads.
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
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    parse_executor_spec,
)
from repro.types import Box
from tests.test_pipeline import make_rank_data

# keep pools tiny: CI and the dev container may have a single core, and
# correctness (ordering, byte-identity) is what these tests pin down
EXECUTOR_SPECS = ["serial", "thread:2", "process:2"]


def _square(x):
    return x * x


class TestExecutors:
    @pytest.mark.parametrize("spec", EXECUTOR_SPECS)
    def test_map_preserves_input_order(self, spec):
        with get_executor(spec) as ex:
            assert ex.map(_square, list(range(20))) == [i * i for i in range(20)]

    @pytest.mark.parametrize("spec", EXECUTOR_SPECS)
    def test_map_empty_and_single(self, spec):
        with get_executor(spec) as ex:
            assert ex.map(_square, []) == []
            assert ex.map(_square, [7]) == [49]

    def test_parse_spec(self):
        assert parse_executor_spec("serial") == ("serial", None)
        assert parse_executor_spec("thread") == ("thread", None)
        assert parse_executor_spec("process:4") == ("process", 4)
        with pytest.raises(ValueError):
            parse_executor_spec("gpu")
        with pytest.raises(ValueError):
            parse_executor_spec("thread:0")

    def test_get_executor_kinds(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread:2"), ThreadExecutor)
        assert isinstance(get_executor("process:2"), ProcessExecutor)
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread:3")
        ex = get_executor()
        assert ex.kind == "thread" and ex.workers == 3
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert get_executor().kind == "serial"

    def test_pool_close_is_idempotent(self):
        ex = get_executor("thread:2")
        ex.map(_square, [1, 2, 3])
        ex.close()
        ex.close()

    def test_thread_tasks_run_in_the_callers_context(self):
        """A pool thread sees the context variables its caller set (an open
        trace span), and what a task sets stays in that task."""
        var = contextvars.ContextVar("var", default="unset")

        def task(i):
            seen = var.get()
            var.set(f"task {i}")
            return seen, threading.get_ident()

        token = var.set("caller")
        try:
            with get_executor("thread:2") as ex:
                got = ex.map(task, range(8))
        finally:
            var.reset(token)
        assert [seen for seen, _ in got] == ["caller"] * 8
        assert threading.get_ident() not in {ident for _, ident in got}
        assert var.get() == "unset"

    def test_unsized_pools_use_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        assert get_executor("thread").workers == 3
        assert get_executor("process").workers == 3
        assert parallel.threads_for(32) == "thread:3"
        assert parallel.threads_for(2) == "thread:2"
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert parallel.threads_for(32) == "serial"

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


class TestDefaultWriter:
    """With no ``executor=`` and no ``$REPRO_EXECUTOR`` the writer fans its
    leaves over a thread per usable CPU: same bytes as serial, and no thread
    outlives the write."""

    WRITES = {
        "v3": {},
        "v4": {"bat_config": BATBuildConfig(codecs="auto")},
        "faulted": {"faults": FaultConfig(
            seed=3, torn_write=0.3, bit_flip=0.3, aggregator_death=0.2
        )},
    }

    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)

    @pytest.fixture()
    def two_cpus(self, monkeypatch):
        """The pool is really built, even on a one-CPU machine."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

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

    @staticmethod
    def _write(tmp_path, name, data, executor=None, **kwargs):
        out = tmp_path / name
        writer = TwoPhaseWriter(
            make_test_machine(), target_size=64 * 1024, executor=executor, **kwargs
        )
        report = writer.write(data, out_dir=out, name="d")
        return out, report

    @pytest.mark.parametrize("kind", sorted(WRITES))
    def test_default_is_byte_identical_to_serial(
        self, kind, random_workloads, tmp_path, two_cpus
    ):
        data = random_workloads[1]
        serial, want = self._write(tmp_path, "serial", data, "serial", **self.WRITES[kind])
        pooled, got = self._write(tmp_path, "default", data, **self.WRITES[kind])
        assert len(_hash_files(serial)) > 1
        assert _hash_files(pooled) == _hash_files(serial)
        assert (pooled / "d.meta.json").read_bytes() == (serial / "d.meta.json").read_bytes()
        if kind == "faulted":
            assert want.faults.total_injected > 0
            assert got.faults.to_doc() == want.faults.to_doc()

    @pytest.mark.parametrize("how", ["default", "spec", "env"])
    def test_no_thread_outlives_the_write(
        self, how, random_workloads, tmp_path, monkeypatch, two_cpus, task_threads
    ):
        if how == "env":
            monkeypatch.setenv("REPRO_EXECUTOR", "thread:2")
        before = threading.active_count()
        self._write(tmp_path, how, random_workloads[0], "thread:2" if how == "spec" else None)
        assert task_threads and threading.get_ident() not in task_threads  # a pool ran
        assert threading.active_count() == before

    def test_an_executor_instance_stays_the_callers(self, random_workloads, tmp_path):
        with ThreadExecutor(2) as ex:
            self._write(tmp_path, "a", random_workloads[0], ex)
            assert ex._pool is not None
            self._write(tmp_path, "b", random_workloads[0], ex)  # still usable
        assert ex._pool is None

    def test_one_usable_cpu_writes_serially(
        self, random_workloads, tmp_path, monkeypatch, task_threads
    ):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(parallel, "ThreadExecutor", None)  # building one would fail
        self._write(tmp_path, "one", random_workloads[0])
        assert task_threads == {threading.get_ident()}

    def test_reader_pools_live_for_one_read(self, random_workloads, tmp_path):
        data = random_workloads[0]
        out, report = self._write(tmp_path, "r", data, "serial")
        before = threading.active_count()
        rep = TwoPhaseReader(make_test_machine(), executor="thread:2").read(
            report.metadata, data.bounds, data_dir=out
        )
        assert sum(len(b) for b in rep.batches) == data.total_particles
        assert threading.active_count() == before


@pytest.fixture(scope="module")
def random_workloads():
    # randomized workloads per the issue: different rank counts, particle
    # counts, and seeds, so byte-identity isn't a fluke of one layout
    return [
        make_rank_data(nranks=8, seed=11, min_n=100, max_n=900),
        make_rank_data(nranks=16, seed=42, min_n=50, max_n=2000),
    ]


class TestByteIdenticalOutputs:
    """Property: serial/thread/process write the same bytes, answer the same."""

    @pytest.fixture(scope="class")
    def written(self, random_workloads, tmp_path_factory):
        machine = make_test_machine()
        runs = []
        for w, data in enumerate(random_workloads):
            per_spec = {}
            for spec in EXECUTOR_SPECS:
                out = tmp_path_factory.mktemp(f"w{w}-{spec.replace(':', '_')}")
                writer = TwoPhaseWriter(machine, target_size=64 * 1024, executor=spec)
                report = writer.write(data, out_dir=out, name="prop")
                per_spec[spec] = (out, report)
            runs.append((data, per_spec))
        return runs

    def test_file_bytes_identical(self, written):
        for _, per_spec in written:
            ref = _hash_files(per_spec["serial"][0])
            assert len(ref) > 1  # multiple aggregators, or the test is vacuous
            for spec in EXECUTOR_SPECS[1:]:
                assert _hash_files(per_spec[spec][0]) == ref, spec

    def test_metadata_identical(self, written):
        for _, per_spec in written:
            texts = {
                spec: (out / "prop.meta.json").read_text()
                for spec, (out, _) in per_spec.items()
            }
            assert texts["thread:2"] == texts["serial"]
            assert texts["process:2"] == texts["serial"]

    def test_query_file_results_identical(self, written):
        from repro.bat.file import BATFile

        box = Box((0.5, 0.5, 0.0), (3.0, 3.0, 1.0))
        for _, per_spec in written:
            ref = None
            for spec, (out, _) in per_spec.items():
                parts = []
                for p in sorted(out.glob("*.bat")):
                    with BATFile(p) as f:
                        batch, _ = query_file(f, quality=0.7, box=box)
                        parts.append(batch.positions)
                got = np.concatenate(parts) if parts else np.empty((0, 3))
                if ref is None:
                    ref = got
                else:
                    np.testing.assert_array_equal(got, ref, err_msg=spec)

    def test_reader_parallel_matches_serial(self, written):
        machine = make_test_machine()
        for data, per_spec in written:
            out, report = per_spec["serial"]
            bounds = np.roll(data.bounds, -1, axis=0)
            serial = TwoPhaseReader(machine).read(report.metadata, bounds, data_dir=out)
            threaded = TwoPhaseReader(machine, executor="thread:2").read(
                report.metadata, bounds, data_dir=out
            )
            assert serial.batches is not None
            for got, want in zip(threaded.batches, serial.batches):
                np.testing.assert_array_equal(got.positions, want.positions)


class TestFileCache:
    @pytest.fixture()
    def files(self, random_workloads, tmp_path):
        data = random_workloads[0]
        writer = TwoPhaseWriter(make_test_machine(), target_size=32 * 1024)
        report = writer.write(data, out_dir=tmp_path, name="lru")
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
