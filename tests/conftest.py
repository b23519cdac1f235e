"""Suite-wide fixtures."""

import multiprocessing
import threading

import pytest


@pytest.fixture(scope="module", autouse=True)
def no_leaked_shard_workers():
    """After every test module, no shard worker process and no router-side
    receiver thread is left: every ``ShardedQueryService`` the module made
    was closed, and its close order (streams resolved, step objects
    closed, then workers shut down) let both wind up."""
    yield
    procs = [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    ]
    threads = [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-shard-rx-") and t.is_alive()
    ]
    assert not procs and not threads, (procs, threads)
