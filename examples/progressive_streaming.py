"""Progressive streaming server: the paper's Fig 4 prototype.

A server holds a BAT timestep and streams *increments* to clients: each
request names a quality level and the server returns only the particles
needed to reach it from what that client already has. Clients can also set
spatial boxes and attribute filters, which reset their progression — the
interaction pattern of the paper's web viewer.

Usage: python examples/progressive_streaming.py
"""

import shutil
from pathlib import Path

import numpy as np

from repro import AttributeFilter, Box, QueryRequest, TwoPhaseWriter, machines
from repro.serve import QueryService, ServeConfig
from repro.viz import lod_radius
from repro.workloads import CoalBoiler

OUT = Path(__file__).parent / "stream_out"


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    boiler = CoalBoiler()
    data = boiler.rank_data(3001, nranks=32, scale=4e-3, materialize=True)
    report = TwoPhaseWriter(machines.stampede2(), target_size=512 * 1024).write(
        data, out_dir=OUT, name="view"
    )
    total = data.total_particles
    print(f"serving {total:,} particles from {report.n_files} BAT files\n")

    # an in-process viewer wants deterministic full-quality increments:
    # no load degradation, and cached results never expire
    config = ServeConfig(capacity=2, degradation=False, result_ttl=None)
    with QueryService(report.metadata_path, config) as server:
        # -- client A: progressive full-view loading ----------------------------
        a = server.open_session()
        print("client A loads the full view progressively:")
        have = 0
        for q in (0.1, 0.3, 0.6, 1.0):
            inc = server.request(a, QueryRequest(quality=q)).batch
            have += len(inc)
            print(f"  quality {q:.1f}: +{len(inc):6,} points "
                  f"(have {have / total:6.1%}, LOD radius x{lod_radius(1.0, max(have / total, 1e-9)):.2f})")
        assert have == total

        # -- client B: zoomed, filtered view -------------------------------------
        b = server.open_session()
        lo = np.asarray(boiler.domain.lower)
        hi = np.asarray(boiler.domain.upper)
        upper_half = Box(
            (lo[0], lo[1], (lo[2] + hi[2]) / 2), tuple(hi.tolist())
        )
        glo, ghi = server.dataset().attr_ranges["temperature"]
        cool = AttributeFilter("temperature", glo, glo + 0.5 * (ghi - glo))
        print("\nclient B explores the upper half, cooler particles only:")
        for q in (0.25, 1.0):
            view = QueryRequest(quality=q, box=upper_half, filters=(cool,))
            inc = server.request(b, view).batch
            print(f"  quality {q:.2f}: +{len(inc):,} points")
            if len(inc):
                assert upper_half.contains_points(inc.positions).all()
                assert (inc.attributes["temperature"] <= cool.hi).all()

        # asking again at the same quality costs nothing
        again = server.request(b, view).batch
        print(f"  repeated request: +{len(again)} points (nothing re-sent)")

        sa, sb = server.session(a), server.session(b)
        print(f"\nserver stats: A sent {sa.bytes_sent / 1e6:.1f} MB in {sa.requests} requests; "
              f"B sent {sb.bytes_sent / 1e6:.1f} MB in {sb.requests} requests")
    print(f"output in {OUT}/")


if __name__ == "__main__":
    main()
