"""Tests pinning the machine-model calibration to its documented targets."""

import pytest

from benchmarks.paper import (
    fpp_bandwidth,
    fpp_knee,
    fpp_saturation_bandwidth,
    measure_bat_build_rate,
    solve_create_rate,
)
from repro.machines import stampede2, summit


class TestFPPKnee:
    def test_stampede2_knee_in_paper_decade(self):
        """Paper: FPP degrades at 1536 ranks on Stampede2 — the model's
        knee must land within the neighbouring sweep points."""
        knee = fpp_knee(stampede2())
        assert 256 <= knee <= 4096

    def test_summit_knee_earlier_than_stampede2(self):
        """Paper: FPP degrades at 672 ranks on Summit — earlier than on
        Stampede2."""
        s = fpp_knee(summit())
        assert 32 <= s <= 1344
        assert s <= fpp_knee(stampede2())

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            fpp_bandwidth(stampede2(), 0)


class TestSaturation:
    def test_plateau_matches_scan(self):
        """The closed-form plateau matches the modeled curve at scale."""
        for m in (stampede2(), summit()):
            plateau = fpp_saturation_bandwidth(m)
            measured = fpp_bandwidth(m, 1 << 16)
            assert measured == pytest.approx(plateau, rel=0.10)

    def test_plateau_below_peak(self):
        for m in (stampede2(), summit()):
            assert fpp_saturation_bandwidth(m) < m.filesystem.peak_write_bw

    def test_solve_roundtrip(self):
        """solve_create_rate inverts the plateau formula exactly."""
        m = stampede2()
        plateau = fpp_saturation_bandwidth(m)
        rate = solve_create_rate(m, plateau)
        assert rate == pytest.approx(m.filesystem.create_rate, rel=1e-9)

    def test_solve_monotone(self):
        m = stampede2()
        assert solve_create_rate(m, 100e9) > solve_create_rate(m, 10e9)

    def test_solve_validation(self):
        m = stampede2()
        with pytest.raises(ValueError):
            solve_create_rate(m, 0.0)
        with pytest.raises(ValueError):
            solve_create_rate(m, m.filesystem.peak_write_bw * 2)


class TestMeasuredBuildRate:
    def test_positive_and_plausible(self):
        rate = measure_bat_build_rate(n_particles=60_000, n_attrs=3)
        # pure-Python builds run well below the paper's C++ rates but
        # must land in a sane band on any host
        assert 1e3 < rate < 1e9
