"""Tests for the benchmark harness and report formatting."""

import pytest

from benchmarks.paper import (
    coal_boiler_series,
    dam_break_series,
    format_series,
    format_table,
    progressive_read_benchmark,
    timing_breakdown,
    two_phase_read_point,
    two_phase_write_point,
    weak_scaling,
)
from repro.core import TwoPhaseWriter
from repro.machines import stampede2
from repro.machines import testing_machine as make_test_machine
from repro.workloads import uniform_rank_data
from tests.test_pipeline import make_rank_data


class TestWeakScaling:
    def test_point_labels_and_values(self):
        pts = weak_scaling(stampede2(), [96], target_sizes=[8 << 20], ior_modes=["fpp"])
        labels = {p.label for p in pts}
        assert labels == {"ior-fpp", "two-phase-8MB"}
        for p in pts:
            assert p.write_bandwidth > 0
            assert p.read_bandwidth > 0
            assert p.total_bytes == pytest.approx(96 * 32768 * 124)

    def test_two_phase_wins_at_scale(self):
        pts = weak_scaling(
            stampede2(), [96, 6144], target_sizes=[64 << 20], ior_modes=["fpp", "shared"]
        )
        by = {(p.label, p.nranks): p for p in pts}
        # at scale, two-phase beats both references (the paper's headline)
        assert (
            by[("two-phase-64MB", 6144)].write_bandwidth
            > by[("ior-fpp", 6144)].write_bandwidth
        )
        assert (
            by[("two-phase-64MB", 6144)].write_bandwidth
            > by[("ior-shared", 6144)].write_bandwidth
        )
        # at small scale FPP is competitive (paper: "initially performs well")
        assert by[("ior-fpp", 96)].write_bandwidth > by[("two-phase-64MB", 96)].write_bandwidth


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        rows = timing_breakdown(stampede2(), [96, 384], 8 << 20)
        for row in rows:
            assert sum(row["fractions"].values()) == pytest.approx(1.0)
            assert row["elapsed"] > 0

    def test_major_components_present(self):
        rows = timing_breakdown(stampede2(), [384], 8 << 20)
        phases = rows[0]["phases"]
        # paper: bulk of time in writes, BAT construction, and transfer
        big3 = (
            phases["write files"]
            + phases["construct BAT"]
            + phases["transfer to aggregators"]
        )
        assert big3 / sum(phases.values()) > 0.5


class TestSeries:
    def test_coal_series_adaptive_wins(self):
        rows = coal_boiler_series(
            stampede2(),
            nranks=384,
            timesteps=(2501, 4501),
            target_sizes=(8 << 20,),
            sample_size=100_000,
        )
        by = {(r["timestep"], r["strategy"]): r for r in rows}
        for ts in (2501, 4501):
            assert (
                by[(ts, "adaptive")]["write_bandwidth"]
                >= by[(ts, "aug")]["write_bandwidth"] * 0.95
            )

    def test_dam_series_constant_totals(self):
        rows = dam_break_series(
            stampede2(),
            total_particles=500_000,
            nranks=384,
            timesteps=(0, 4001),
            target_sizes=(1 << 20,),
            sample_size=100_000,
        )
        totals = {r["total_particles"] for r in rows}
        assert max(totals) - min(totals) < 0.02 * 500_000


class TestProgressiveReadBenchmark:
    def test_real_measurement(self, tmp_path):
        data = make_rank_data(nranks=8, seed=5)
        rep = TwoPhaseWriter(make_test_machine(), target_size=256 * 1024).write(
            data, out_dir=tmp_path, name="bench"
        )
        result = progressive_read_benchmark(rep.metadata_path, steps=5)
        assert result["total_points"] == data.total_particles
        assert result["avg_read_ms"] > 0
        assert result["throughput_pts_per_ms"] > 0
        assert len(result["per_step_ms"]) == 5


class TestReadPoint:
    def test_read_after_write(self):
        data = uniform_rank_data(96)
        wrep = two_phase_write_point(stampede2(), data, 8 << 20)
        rrep = two_phase_read_point(stampede2(), wrep, data)
        assert rrep.bandwidth > 0

    def test_unknown_strategy(self):
        data = uniform_rank_data(8)
        with pytest.raises(ValueError):
            two_phase_write_point(stampede2(), data, 8 << 20, strategy="nope")


class TestReport:
    def test_format_table(self):
        txt = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = txt.splitlines()
        assert lines[0] == "T"
        assert "333" in txt

    def test_format_series_pivot(self):
        pts = [
            {"x": 1, "label": "s1", "y": 1e9},
            {"x": 1, "label": "s2", "y": 2e9},
            {"x": 2, "label": "s1", "y": 3e9},
        ]
        txt = format_series(pts, "x", "y")
        assert "s1" in txt and "s2" in txt
        assert "3.00" in txt
        assert txt.splitlines()[-1].count("-") >= 1 or "-" in txt  # missing cell

    def test_weak_scaling_series_smoke(self):
        # Figs 5 and 7 as printed tables, on the small testing machine
        pts = weak_scaling(make_test_machine(), [8, 16])
        txt = format_series(pts, "nranks", "write_bandwidth", title="write bandwidth (GB/s)")
        assert "write bandwidth" in txt
        assert "ior-fpp" in txt
