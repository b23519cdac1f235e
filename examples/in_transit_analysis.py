"""In-transit analysis: query the BAT on the aggregator, skip the disk.

The paper notes the compacted tree "can be used for in transit
visualization and analysis on the aggregators before or instead of being
written to disk" (§III-C3). This example plays one aggregator: it receives
a timestep's particles, builds the BAT in memory, and immediately runs the
analyses a monitoring pipeline would — attribute histograms, per-region
statistics, a coarse LOD snapshot — then decides whether the step is
interesting enough to persist at all (a common in-situ triggering pattern).

It also demonstrates two §VII extensions: quantile (equi-depth) bitmap
bins for the heavily skewed attribute, and quantized positions plus
per-column codecs (format v4) for the step that does get written.

Usage: python examples/in_transit_analysis.py
"""

import shutil
from pathlib import Path

import numpy as np

from repro import AttributeFilter, BATBuildConfig, Box, ParticleBatch, build_bat
from repro.analysis import attribute_histogram, region_stats
from repro.workloads import CoalBoiler

OUT = Path(__file__).parent / "intransit_out"


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    boiler = CoalBoiler()

    for ts in (1001, 2501, 4501):
        # --- the aggregator's view: particles received for its leaf --------
        batch = boiler.sample(ts, 150_000)
        built = build_bat(batch, BATBuildConfig(attribute_binning="equidepth"))

        with built.open() as bat:  # in memory — nothing on disk yet
            # coarse LOD snapshot for a dashboard
            from repro.bat.query import query_file

            coarse, _ = query_file(bat, quality=0.1)

            # temperature histogram + hot-region statistics
            counts, edges = attribute_histogram(bat, "temperature", bins=12)
            lo = np.asarray(boiler.domain.lower)
            hi = np.asarray(boiler.domain.upper)
            upper_quarter = Box(
                (lo[0], lo[1], lo[2] + 0.75 * (hi[2] - lo[2])), tuple(hi.tolist())
            )
            stats = region_stats(bat, ["temperature", "char_mass"], box=upper_quarter)

            hot = stats["temperature"]
            print(f"timestep {ts}: {len(batch):,} particles on this aggregator")
            print(f"  LOD snapshot: {len(coarse):,} points")
            peak_bin = int(np.argmax(counts))
            print(f"  temperature mode: {edges[peak_bin]:.0f}-{edges[peak_bin + 1]:.0f} K")
            print(f"  upper quarter: {hot.count:,} particles, "
                  f"T = {hot.mean:.0f}±{hot.std:.0f} K")

            # in-situ trigger: persist only once material reaches the top
            interesting = hot.count > 0.05 * len(batch)

        if interesting:
            # the persisted copy uses the §VII space extensions: 16-bit
            # quantized positions and the smallest lossless codec elsewhere
            compact = build_bat(
                batch,
                BATBuildConfig(
                    attribute_binning="equidepth",
                    codecs={"positions": "quantize16", "*": "auto"},
                ),
            )
            path = OUT / f"ts{ts:06d}.bat"
            compact.write(path)
            saving = 1 - compact.nbytes / built.nbytes
            print(f"  -> persisted {path.name}: {compact.nbytes / 1e6:.1f} MB "
                  f"({saving:.0%} smaller than the uncompressed layout)\n")
        else:
            print("  -> skipped (nothing near the top yet)\n")

    kept = sorted(p.name for p in OUT.glob("*.bat"))
    print(f"persisted steps: {kept}")

    # prove the persisted, quantized + encoded file still answers queries
    if kept:
        from repro.bat import BATFile
        from repro.bat.query import query_file

        with BATFile(OUT / kept[-1]) as f:
            glo, ghi = f.attr_ranges["char_mass"]
            rich, _ = query_file(
                f, filters=[AttributeFilter("char_mass", glo + 0.8 * (ghi - glo), ghi)]
            )
            print(f"char-rich particles in {kept[-1]}: {len(rich):,}")


if __name__ == "__main__":
    main()
