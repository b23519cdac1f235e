"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.harness` runs the sweeps (weak scaling, time series,
breakdowns, progressive reads); :mod:`repro.bench.report` renders them as
the rows/series the paper reports. The pytest-benchmark targets under
``benchmarks/`` are thin wrappers over these functions — see DESIGN.md §4
for the experiment index. Nothing here measures this implementation's own
speed: that is the one fixed baseline, ``BENCHMARK.json`` +
``benchmarks/baseline/`` (see its README.md).
"""

from .calibration import (
    fpp_knee,
    fpp_saturation_bandwidth,
    measure_bat_build_rate,
    solve_create_rate,
)
from .harness import (
    coal_boiler_series,
    dam_break_series,
    progressive_read_benchmark,
    timing_breakdown,
    two_phase_read_point,
    two_phase_write_point,
    weak_scaling,
)
from .report import format_series, format_table

__all__ = [
    "weak_scaling",
    "two_phase_write_point",
    "two_phase_read_point",
    "timing_breakdown",
    "coal_boiler_series",
    "dam_break_series",
    "progressive_read_benchmark",
    "format_table",
    "format_series",
    "fpp_knee",
    "fpp_saturation_bandwidth",
    "solve_create_rate",
    "measure_bat_build_rate",
]
