"""Smoke test of the baseline benchmark (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/baseline -q

Drives every workload once at ``--quick`` size with the traced pass on,
then checks the shape of what came out: every metric named in
``BENCHMARK.json`` is emitted exactly once per workload with its unit,
nothing failed the oracle, the span tree has no orphans — and that the
oracle really does catch a corrupted response.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    proc = subprocess.run(
        [*RUN, "--quick", "--trace", "--json", str(out / "quick.json"),
         "--trace-out", str(out / "spans.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {
        "doc": json.loads((out / "quick.json").read_text()),
        "stdout": proc.stdout,
        "spans": out / "spans.jsonl",
    }


def test_schema_matches_the_coded_registry():
    proc = subprocess.run([*RUN, "--check-schema"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_json_names_and_limits(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert bench["paths"] == ["benchmarks/baseline"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128 and 2 <= len(bench["workloads"]) <= 8


def test_every_workload_emits_every_metric_once(bench, quick_run):
    doc = quick_run["doc"]
    assert doc["quick"] is True
    assert list(doc["results"]) == [w["name"] for w in bench["workloads"]]
    for name, result in doc["results"].items():
        assert set(result["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}, name
        assert set(result["per_layer"]) == {m["name"] for m in bench["per_layer"]}, name
        assert result["failed"] == 0 and result["attempted"] > 0, result["failures"]
        assert all(v > 0 for v in result["end_to_end"].values()), (name, result["end_to_end"])
    # printed by name, with a unit, once per workload
    for m in bench["end_to_end"] + bench["per_layer"]:
        lines = re.findall(rf"^\s+{re.escape(m['name'])}\s+\S+ (\S+)", quick_run["stdout"], re.M)
        assert len(lines) == len(bench["workloads"]), m["name"]
        assert set(lines) == {m["unit"]}, m["name"]


def test_layers_do_work_where_predicted_and_none_where_bypassed(quick_run):
    layer = {n: r["per_layer"] for n, r in quick_run["doc"]["results"].items()}
    write_side = ("core.writer.self_ms", "bat.builder.build_ms", "bat.codecs.encode_s",
                  "atomic.publish_ms", "core.aggtree.build_ms")
    for name, m in layer.items():
        for metric in write_side:
            assert (m[metric] > 0) == (name == "write_ts"), (name, metric)
        assert (m["serve.shard.rpc_s"] > 0) == (name == "shard2_closed"), name
        assert (m["bat.neighbors.search_ms"] > 0) == (name == "neighbors"), name
    assert layer["read_cold"]["bat.codecs.decode_s"] > 0
    assert layer["read_warm"]["bat.codecs.decoded_bytes"] == 0
    assert layer["serve_closed"]["serve.cache.hit_rate"] < 0.1
    assert layer["shard2_closed"]["serve.cache.hit_rate"] < 0.1


def test_span_tree_has_no_orphans(quick_run):
    for name, result in quick_run["doc"]["results"].items():
        assert result["trace"]["spans"] > 0 and result["trace"]["orphans"] == 0, name
    ids, parents, ops = set(), set(), set()
    for line in quick_run["spans"].read_text().splitlines():
        row = json.loads(line)
        if "header" in row:  # ids restart per workload
            assert parents <= ids
            ids, parents = set(), set()
            continue
        ids.add(row["id"])
        ops.add(row["op"])
        assert row["end"] >= row["start"]
        if row["parent"] is not None:
            parents.add(row["parent"])
    assert parents <= ids and ops


def test_contract_line_of_a_single_workload(bench):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            [*RUN, "--workload", "read_warm", "--seed", "3", "--seconds", "1",
             "--trace", trace, "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[key]
        }


def _in_process_group(pgid: int) -> list[str]:
    """``/proc/<pid>/stat`` of every process, zombies too, in the group."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        if int(text.rsplit(")", 1)[1].split()[2]) == pgid:
            found.append(text)
    return found


@pytest.mark.parametrize("workload", ["shard2_closed", "stream_herd"])
def test_no_process_is_left_behind(workload):
    """The two workloads that start processes (shard workers and the spawn
    context's resource tracker; the herd's spinner) have stopped and waited
    for each by the time the benchmark exits."""
    proc = subprocess.Popen(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
         "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its pid is the process group of all it starts
    )
    out, err = proc.communicate(timeout=300)
    left = _in_process_group(proc.pid)
    assert proc.returncode == 0, err[-2000:]
    assert not left, left


def test_quick_results_are_refused_as_reference():
    proc = subprocess.run(
        [*RUN, "--quick", "--json", str(ROOT / "BENCHMARK.json")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode != 0 and "refusing" in proc.stderr


def test_oracle_catches_a_corrupted_response():
    sys.path.insert(0, str(HERE))
    from oracle import Oracle, ViewTracker, settle

    from repro import AttributeFilter, Box
    from repro.types import ParticleBatch

    rng = np.random.default_rng(0)
    n = 4000
    positions = rng.random((n, 3)).astype(np.float32)
    attrs = {"id": np.arange(n, dtype=np.int64), "temp": rng.random(n).astype(np.float32)}
    oracle = Oracle(positions, attrs)
    box = Box((0.2, 0.2, 0.2), (0.8, 0.8, 0.8))
    filters = (AttributeFilter("temp", 0.25, 0.75),)
    rows = rng.permutation(np.flatnonzero(oracle.mask(box, filters)))

    def batch(rows, **edit):
        cols = {k: v[rows].copy() for k, v in attrs.items()}
        pos = positions[rows].copy()
        for k, fn in edit.items():
            if k == "positions":
                fn(pos)
            else:
                fn(cols[k])
        return ParticleBatch(pos, cols)

    def bump(arr):
        arr[7] += 1

    assert oracle.check_read(batch(rows), box, filters, complete=True)[0]
    assert not oracle.check_read(batch(rows, temp=bump), box, filters, complete=True)[0]
    assert not oracle.check_read(batch(rows, positions=bump), box, filters, complete=True)[0]
    assert not oracle.check_read(batch(rows[:-1]), box, filters, complete=True)[0]
    doubled = np.concatenate([rows[:-1], rows[:1]])
    assert not oracle.check_read(batch(doubled), box, filters, complete=True)[0]
    outside = np.flatnonzero(~oracle.mask(box, filters))[:1]
    assert not oracle.check_read(
        batch(np.concatenate([rows[:10], outside])), box, filters, complete=False
    )[0]
    # projected-away ids fall back to an exact multiset comparison
    onecol = ParticleBatch(None, {"temp": attrs["temp"][rows].copy()}, count=len(rows))
    assert oracle.check_read(onecol, box, filters, complete=True)[0]
    onecol.attributes["temp"][3] += 1
    assert not oracle.check_read(onecol, box, filters, complete=True)[0]
    # progressive increments: a wrong value, a stray row, an overlap, and a
    # union that falls short at quality 1 (settled after the phase)
    half = len(rows) // 2
    pending: list = []
    tracker = ViewTracker(oracle, pending)
    assert not tracker.check(batch(rows[:half], temp=bump), box, filters, 0.5)[0]
    assert not tracker.check(batch(outside), box, filters, 0.5)[0]
    tracker = ViewTracker(oracle, pending)
    assert tracker.check(batch(rows[:half]), box, filters, 0.5)[0]
    assert not tracker.check(batch(rows[half - 1:]), box, filters, 1.0)[0]
    tracker = ViewTracker(oracle, pending)
    assert tracker.check(batch(rows[:half]), box, filters, 0.5)[0]
    assert tracker.check(batch(rows[half:-1]), box, filters, 1.0)[0]
    assert len(settle(oracle, pending)) == 1
    tracker = ViewTracker(oracle, pending)
    assert tracker.check(batch(rows[:half]), box, filters, 0.5)[0]
    assert tracker.check(batch(rows[half:]), box, filters, 1.0)[0]
    assert settle(oracle, pending) == []
