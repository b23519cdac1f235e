"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import TwoPhaseWriter
from repro.machines import testing_machine as make_test_machine
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    data = make_rank_data(nranks=8, seed=77)
    out = tmp_path_factory.mktemp("cli")
    rep = TwoPhaseWriter(make_test_machine(), target_size=256 * 1024).write(
        data, out_dir=out, name="cli0"
    )
    return data, rep


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_box(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "x.json", "--box", "1,2,3"])

    def test_bad_filter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "x.json", "--filter", "temp"])

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_reads_take_no_executor(self, command, capsys):
        """A read is one reader; pools belong to the write pipeline."""
        with pytest.raises(SystemExit) as err:
            main([command, "x.meta.json", "--executor", "thread:2"])
        assert err.value.code == 2
        assert "--executor" in capsys.readouterr().err  # "unrecognized arguments"
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert "--executor" not in capsys.readouterr().out

    def test_no_bench_subcommand(self, capsys):
        # the paper-figure sweeps live in benchmarks/paper.py, not the CLI
        with pytest.raises(SystemExit) as err:
            main(["bench", "weak-scaling"])
        assert err.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestInfo:
    def test_dataset_info(self, written, capsys):
        _, rep = written
        assert main(["info", rep.metadata_path]) == 0
        out = capsys.readouterr().out
        assert "leaf files" in out
        assert "mass" in out and "temp" in out

    def test_bat_file_info(self, written, capsys):
        _, rep = written
        from pathlib import Path

        bat = sorted(Path(rep.metadata_path).parent.glob("*.bat"))[0]
        assert main(["info", str(bat)]) == 0
        out = capsys.readouterr().out
        assert "treelets" in out
        assert "EquiWidthBinning" in out


class TestQuery:
    def test_plain_query(self, written, capsys):
        data, rep = written
        assert main(["query", rep.metadata_path]) == 0
        out = capsys.readouterr().out
        assert f"{data.total_particles:,}" in out

    def test_filtered_query_with_stats(self, written, capsys):
        _, rep = written
        assert main(
            ["query", rep.metadata_path, "--filter", "mass:0.5:1.0", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "mass: mean" in out

    def test_boxed_query(self, written, capsys):
        data, rep = written
        assert main(["query", rep.metadata_path, "--box", "0,0,0,1,1,1"]) == 0
        out = capsys.readouterr().out
        matched = int(out.split("matched ")[1].split(" ")[0].replace(",", ""))
        allpos = np.concatenate([b.positions for b in data.batches])
        from repro.types import Box

        assert matched == Box((0, 0, 0), (1, 1, 1)).contains_points(allpos).sum()

    def test_query_output_npz(self, written, tmp_path, capsys):
        _, rep = written
        dest = tmp_path / "result.npz"
        assert main(["query", rep.metadata_path, "--quality", "0.2", "--output", str(dest)]) == 0
        with np.load(dest) as z:
            assert "positions" in z.files
            assert len(z["positions"]) > 0


class TestServe:
    def test_serve_replays_traces(self, written, capsys):
        _, rep = written
        assert main(
            [
                "serve", rep.metadata_path,
                "--capacity", "2", "--sessions", "3", "--ops", "3", "--seed", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "served 9 requests from 3 sessions" in out
        assert "byte-verified" in out
        assert "p99" in out
        assert "result joins" in out and "decode joins" in out
        assert "collapse hit rate" not in out

    def test_serve_json_snapshot(self, written, capsys):
        import json

        _, rep = written
        assert main(
            [
                "serve", rep.metadata_path,
                "--sessions", "2", "--ops", "2", "--no-degradation", "--json",
            ]
        ) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["requests"]["completed"] == 4
        assert doc["requests"]["rejected"] == 0
        assert not doc["degradation"]["enabled"]
        assert set(doc["caches"]) == {
            "results", "collapse", "plans", "files", "decoded_columns"
        }


@pytest.fixture(scope="module")
def damaged(tmp_path_factory):
    """A written dataset with one leaf file deleted."""
    out = tmp_path_factory.mktemp("cli_damaged")
    rep = TwoPhaseWriter(make_test_machine(), target_size=128 * 1024).write(
        make_rank_data(nranks=9, seed=21), out_dir=out, name="dmg"
    )
    sorted(out.glob("*.bat"))[0].unlink()
    return rep.metadata_path


class TestServeDamaged:
    @pytest.mark.parametrize(
        "mode",
        [[], ["--arrival", "open"], ["--stream"], ["--stream", "--arrival", "open"]],
        ids=["closed", "open", "stream", "stream-open"],
    )
    def test_every_mode_serves_around_a_missing_leaf(self, damaged, mode, capsys):
        """Partial responses are served, never sampled for byte identity."""
        assert main(
            [
                "serve", damaged, "--no-degradation",
                "--capacity", "2", "--sessions", "6", "--ops", "3", *mode,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "served 18 requests from 6 sessions" in out
        assert "byte-verified" in out
        assert ("open loop" in out) == ("open" in mode)


class TestServeVerbose:
    def test_v_logs_lifecycle_events_to_stderr(self, written, capsys):
        import logging

        _, rep = written
        root = logging.getLogger("repro")
        handlers, level = list(root.handlers), root.level
        args = ["serve", rep.metadata_path, "--shards", "1", "--sessions", "1", "--ops", "1"]
        assert main([*args, "-v"]) == 0
        err = capsys.readouterr().err
        assert err.count("INFO repro.serve.shard: spawned shard 0 worker") == 1
        assert (root.handlers, root.level) == (handlers, level)  # detached again
        assert main(args) == 0
        assert "repro.serve.shard" not in capsys.readouterr().err


class TestServeSharded:
    def test_serve_with_shards(self, written, capsys):
        _, rep = written
        assert main(
            [
                "serve", rep.metadata_path, "--shards", "2",
                "--capacity", "2", "--sessions", "3", "--ops", "2", "--seed", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "2 shard processes" in out
        assert "byte-verified" in out
        assert "fanout mean" in out

    def test_shards_and_stream_combine(self, written, capsys):
        import re

        _, rep = written
        assert main(
            [
                "serve", rep.metadata_path, "--shards", "2", "--stream",
                "--capacity", "2", "--sessions", "4", "--ops", "3", "--seed", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "4 clients, streamed, 2 shard processes" in out
        assert int(re.search(r"(\d+) responses byte-verified", out).group(1)) > 0
        assert "streaming:" in out and "fanout mean" in out


class TestJobs:
    def test_submit_resume_status_cycle(self, written, tmp_path, capsys):
        _, rep = written
        store = str(tmp_path / "jobs.db")
        assert main(
            ["jobs", "submit", store, "j1", rep.metadata_path,
             "--n", "6", "--seed", "5"]
        ) == 0
        assert "6 tasks added" in capsys.readouterr().out
        # resubmission is idempotent
        assert main(
            ["jobs", "submit", store, "j1", rep.metadata_path,
             "--n", "6", "--seed", "5"]
        ) == 0
        assert "0 tasks added" in capsys.readouterr().out
        # a bounded run leaves work outstanding and exits nonzero
        assert main(
            ["jobs", "run", store, "j1", "--capacity", "2", "--max-tasks", "2"]
        ) == 1
        assert "2/6 done" in capsys.readouterr().out
        # resume (source recorded at submit) drains the rest
        assert main(["jobs", "resume", store, "j1", "--capacity", "2"]) == 0
        assert "6/6 done" in capsys.readouterr().out
        assert main(["jobs", "status", store]) == 0
        out = capsys.readouterr().out
        assert "j1: 6/6 done" in out and "0 dead" in out

    def test_status_json(self, written, tmp_path, capsys):
        import json

        _, rep = written
        store = str(tmp_path / "jobs.db")
        main(["jobs", "submit", store, "j1", rep.metadata_path, "--n", "2"])
        capsys.readouterr()
        assert main(["jobs", "status", store, "j1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["job_id"] == "j1" and doc["total"] == 2


class TestNeighborQuery:
    def test_knn_at_points(self, written, capsys):
        _, rep = written
        assert main([
            "query", str(rep.metadata_path),
            "--at", "2,2,0.5", "--at", "1,1,0.2", "--knn", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 centers (k=4): 8 neighbors" in out
        assert "ghost" in out

    def test_radius_over_box(self, written, capsys, tmp_path):
        _, rep = written
        npz = tmp_path / "neigh.npz"
        assert main([
            "query", str(rep.metadata_path),
            "--box", "1,1,0,3,3,1", "--radius", "0.25",
            "--stats", "--output", str(npz),
        ]) == 0
        out = capsys.readouterr().out
        assert "radius=0.25" in out and "list sizes" in out
        saved = np.load(npz)
        assert {"centers", "offsets", "distances", "keys"} <= set(saved)
        assert saved["offsets"][-1] == len(saved["distances"])

    def test_bad_point_is_a_parse_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "x.json", "--at", "1,2", "--knn", "3"]
            )

    def test_knn_and_radius_conflict(self, written):
        from repro.errors import InvalidRequestError

        _, rep = written
        with pytest.raises(InvalidRequestError, match="exactly one of k and radius"):
            main(["query", str(rep.metadata_path),
                  "--at", "1,1,0.5", "--knn", "3", "--radius", "0.2"])


class TestReorg:
    @pytest.fixture
    def replayed(self, tmp_path):
        """A fresh dataset and the telemetry of a service replay on it."""
        import json

        from repro import QueryRequest
        from repro.core.metadata import DatasetMetadata
        from repro.serve import QueryService
        from tests.test_reorg import hot_box, serve_config, write_dataset

        meta = write_dataset(tmp_path, nranks=16, seed=3)
        box = hot_box(DatasetMetadata.load(meta))
        with QueryService(meta, serve_config()) as svc:
            # distinct qualities defeat the result cache, so every query
            # reaches the dataset and its telemetry
            for i in range(12):
                svc.execute(QueryRequest(box=box, quality=0.5 + i * 0.04))
            snapshot = svc.snapshot()
        tele = tmp_path / "telemetry.json"
        tele.write_text(json.dumps(snapshot))
        return meta, tele

    def test_reorg_publishes_a_verified_generation(self, replayed, capsys):
        import json

        meta, tele = replayed
        assert main(["reorg", str(meta), str(tele), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["generation_to"] == doc["generation_from"] + 1
        assert doc["verified_points"] > 0
        assert main(["scrub", "--deep", str(meta)]) == 0

    def test_refused_publish_exits_1(self, replayed, capsys, monkeypatch):
        from tests.test_reorg import lossy_build_bat

        meta, tele = replayed
        before = meta.read_bytes()
        lossy_build_bat(monkeypatch)
        assert main(["reorg", str(meta), str(tele), "--json"]) == 1
        assert "nothing published" in capsys.readouterr().err
        assert meta.read_bytes() == before

    def test_verification_cannot_be_skipped(self, replayed):
        meta, tele = replayed
        with pytest.raises(SystemExit) as err:
            main(["reorg", str(meta), str(tele), "--no-verify"])
        assert err.value.code == 2
