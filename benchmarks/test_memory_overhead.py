"""§VI-B text: the BAT layout's storage overhead.

Paper: "we achieve low memory overhead for our layout, requiring just 0.9%
additional memory to store" — the structure (trees, bitmaps, dictionary,
page alignment) on top of the raw particle payload. Overhead amortizes
with size: page-aligned treelets cost a near-constant number of padding
bytes each, so bigger inputs sit closer to the asymptotic ~1%.
"""

import numpy as np

from benchmarks.paper import format_table
from conftest import emit
from repro.bat import build_bat
from repro.types import ParticleBatch
from repro.workloads import CoalBoiler


def test_memory_overhead():
    rows = []
    rng = np.random.default_rng(0)
    for n in (50_000, 200_000, 800_000):
        pos = rng.random((n, 3)).astype(np.float32)
        attrs = {f"a{i}": rng.random(n) for i in range(7)}
        built = build_bat(ParticleBatch(pos, attrs))
        rows.append((n, built.raw_bytes, built.overhead_bytes, built.overhead_fraction))
    emit(
        format_table(
            ["particles", "raw MB", "overhead KB", "overhead"],
            [
                [n, f"{raw / 1e6:.1f}", f"{ov / 1e3:.0f}", f"{frac:.2%}"]
                for n, raw, ov, frac in rows
            ],
            title="BAT storage overhead vs raw data (paper: ~0.9%)",
        )
    )
    fracs = [frac for *_, frac in rows]
    # overhead shrinks with size and lands in the paper's low-percent regime
    assert fracs[-1] < fracs[0]
    assert fracs[-1] < 0.05


def test_memory_overhead_real_workload():
    """Same check on the (scaled) Coal Boiler distribution with its 7
    attributes — clustered data, not uniform noise."""

    built = build_bat(CoalBoiler().sample(4501, 600_000))
    emit(
        f"Coal Boiler 600k particles: raw {built.raw_bytes / 1e6:.1f} MB, "
        f"overhead {built.overhead_fraction:.2%}, dictionary {built.dict_entries} entries"
    )
    assert built.overhead_fraction < 0.05
    # the 16-bit bitmap dictionary never comes close to its 65k limit
    assert built.dict_entries < 65_536 // 2
