"""Builder output, parent vs change: byte-identical files and codec picks.

    python benchmarks/probes/builder_bytes.py PARENT_ROOT CHANGE_ROOT [pairs=10] [seeds=0,1,2,3]

For a change to ``bat/treelet.py``, ``bat/builder.py``, ``bat/codecs.py``,
``bitmaps.py`` or ``binning.py`` that is not meant to change the format.
Nothing pins file hashes in the tests (``np.argpartition``'s tie order
belongs to the numpy build), so the parent is written in the same
process environment as the change. A side writes, per seed, ``D_main``
as v3 and as v4 ``auto`` and ``D_dam`` as the ``neighbors`` workload
writes it (v4 ``auto`` at ``dam_target``).

Pinned: the sha256 of every ``D_main`` file (32 leaves and the manifest
per version), and every ``D_dam`` leaf's codec per column: the
format-aware net for a change that *may* move ``D_dam``'s bytes but
not its codec choices. Rows: each write's seconds, and ``D_dam``'s bytes
on disk and encoded column bytes (equal on both sides for a change that
keeps every byte). ``pairs=1`` answers the identity question; more pairs
also check that the writer's output is the same from run to run and
time the writes. The order flip and the verdicts are ``pairs.py``'s. A
seed takes about three seconds a side on 2 CPUs.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

import pairs


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def side(seed: int) -> dict:
    import inputs
    from repro.bat import BATFile
    from workloads import write_dataset

    ops, rows = [], {}
    with tempfile.TemporaryDirectory(prefix="builder_bytes_") as tmp:
        for version in (3, 4):
            out = Path(tmp, f"main_v{version}")
            t = time.perf_counter()
            write_dataset(inputs.main_data(seed), out, inputs.FULL.main_target, version)
            rows[f"D_main v{version} write s"] = time.perf_counter() - t
            ops += [{"op": f"D_main v{version} {p.name}", "sha256": sha(p)}
                    for p in sorted(out.iterdir())]
        out = Path(tmp, "dam")
        t = time.perf_counter()
        write_dataset(inputs.dam_data(seed), out, inputs.FULL.dam_target, 4, name="dam")
        rows["D_dam write s"] = time.perf_counter() - t
        files = sorted(out.iterdir())
        rows["D_dam bytes"] = sum(p.stat().st_size for p in files)
        rows["D_dam encoded column bytes"] = 0
        for p in files:
            if p.suffix == ".bat":
                with BATFile(p) as f:
                    for col, summary in f.column_summary().items():
                        ops.append({"op": f"D_dam {p.name} {col}", "codec": summary["codec"]})
                        rows["D_dam encoded column bytes"] += summary["enc_nbytes"]
    return {"ops": ops, "rows": rows}


if __name__ == "__main__":
    sys.exit(pairs.main(side, sys.argv[1:], seeds="0,1,2,3"))
