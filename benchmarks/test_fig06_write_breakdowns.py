"""Fig 6: timing breakdowns of the uniform write on both machines.

Paper shape: the bulk of time goes to writing aggregator files,
constructing the BATs, and transferring data; the 64 MB configuration
keeps phase fractions roughly constant while scaling, whereas the 8 MB one
spends a growing share in writes at high rank counts; Stampede2 spends a
larger fraction in BAT construction than Summit (slower per-particle build).
"""

import pytest

from benchmarks.paper import format_table, timing_breakdown
from conftest import MB, emit
from repro.machines import stampede2, summit

RANKS = [384, 1536, 6144]


@pytest.mark.parametrize("machine", [stampede2(), summit()], ids=["stampede2", "summit"])
def test_fig06_breakdowns(machine):
    rows_by_target = {t: timing_breakdown(machine, RANKS, t * MB) for t in (8, 64)}

    for target, rows in rows_by_target.items():
        phases = list(rows[0]["phases"])
        table = [
            [r["nranks"], f"{r['elapsed']:.3f}s"]
            + [f"{100 * r['fractions'].get(p, 0):.0f}%" for p in phases]
            for r in rows
        ]
        emit(
            format_table(
                ["ranks", "elapsed"] + phases, table,
                title=f"Fig 6 ({machine.name}, {target}MB target): phase fractions",
            )
        )

    # 64MB: fractions stay similar while scaling
    f64 = [r["fractions"]["write files"] for r in rows_by_target[64]]
    assert max(f64) - min(f64) < 0.45
    # 8MB: write share grows with rank count (metadata storm)
    f8 = [r["fractions"]["write files"] for r in rows_by_target[8]]
    assert f8[-1] > f8[0]
    # major components dominate
    for rows in rows_by_target.values():
        for r in rows:
            big3 = sum(
                r["fractions"].get(k, 0)
                for k in ("write files", "construct BAT", "transfer to aggregators")
            )
            assert big3 > 0.5


def test_fig06_stampede2_more_bat_time():
    """Paper: a larger share of time goes to BAT construction on Stampede2."""

    s = timing_breakdown(stampede2(), [1536], 64 * MB)[0]
    u = timing_breakdown(summit(), [1344], 64 * MB)[0]
    assert s["fractions"]["construct BAT"] > u["fractions"]["construct BAT"]
