"""Pinned work counters and result digests of a fixed read mix.

Read-path changes promise that the work counters do not move and the
bytes do not change. This file pins both: seven request classes (box,
filter, box + filter, LOD, refinement, one column, full) run in a fixed
order on a fresh dataset, written from the same deterministic particles
once as v3 (raw columns) and once as v4 (``codecs="auto"``). Every
:class:`~repro.bat.query.QueryStats` field and the result's
:meth:`~repro.types.ParticleBatch.digest` are literals below, so a change
that moves one counter or one byte fails here and has to say why.

After an intended change, print the new table with
``PYTHONPATH=src python -m tests.test_read_counters``.
"""

import dataclasses

import pytest

from repro import BATBuildConfig, Box, QueryRequest
from repro.bat.query import AttributeFilter, QueryStats
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.machines import testing_machine
from repro.workloads import compressible_rank_data

VIEW = Box((0.1, 0.15, 0.05), (0.6, 0.8, 0.7))
# ``temp`` sits on a 0.25 K grid: filter bounds fall between two values
MIX = {
    "box": QueryRequest(box=VIEW),
    "filter": QueryRequest(filters=(AttributeFilter("temp", 281.125, 290.125),)),
    "box_filter": QueryRequest(
        box=Box((0.0, 0.0, 0.0), (0.3, 0.45, 1.0)),
        filters=(AttributeFilter("temp", 260.125, 330.125),),
    ),
    "lod": QueryRequest(quality=0.2),
    "refine": QueryRequest(quality=0.7, prev_quality=0.3, box=VIEW),
    "onecol": QueryRequest(box=VIEW, columns=("temp",)),
    "full": QueryRequest(),
}


def write(out, version: int) -> str:
    cfg = BATBuildConfig(codecs="auto") if version == 4 else BATBuildConfig()
    writer = TwoPhaseWriter(testing_machine(), target_size=64 * 1024, bat_config=cfg)
    data = compressible_rank_data(8, 1500, seed=7)
    return writer.write(data, out_dir=out, name=f"pin{version}").metadata_path


def observe(meta) -> dict:
    """``{class: (digest, QueryStats fields in order)}`` of the mix."""
    with BATDataset(meta) as ds:
        out = {}
        for cls, req in MIX.items():
            batch, stats = ds.query(req)
            out[cls] = (batch.digest(), dataclasses.astuple(stats))
        return out


FIELDS = [f.name for f in dataclasses.fields(QueryStats)]

PINNED = {
    3: {
        "box": (
            "eb20a4830bab556a516c50298407688968c17d694d18a8fdc2a96b090801e2ee",
            (36, 200, 5621, 2431, 27, 0, 0, 8, 0, 0),
        ),
        "filter": (
            "0930a335bf71d09c0b4589be0af25b11c891bf4356f2c0d76965aac71a986cd8",
            (40, 202, 5679, 993, 0, 24, 2, 6, 0, 0),
        ),
        "box_filter": (
            "feb5b39701c5a970cd44ca78ba07bbb42bd964372d65d3cf90107e8d6485204d",
            (16, 78, 2922, 1423, 1, 0, 6, 2, 0, 0),
        ),
        "lod": (
            "f40440d1db7040ffcf23006640414ee1776824eb251ce9325d42ace5e39917b7",
            (64, 184, 320, 320, 0, 0, 0, 8, 0, 0),
        ),
        "refine": (
            "c9da1396aaf8979f3b10160718a29a38e4fea940172566f2183d440a1ff7b216",
            (36, 204, 3615, 1457, 27, 0, 0, 8, 0, 0),
        ),
        "onecol": (
            "07c948da5cd86406fd437084d5f68cc4d2b5228df4bdc06190e7b15c3029619d",
            (36, 200, 5621, 2431, 27, 0, 0, 8, 0, 0),
        ),
        "full": (
            "4c308a7ff1009c9743e29d6160b6395561db9fad43286c61e11d72b393b19166",
            (64, 184, 0, 12000, 0, 0, 0, 8, 0, 0),
        ),
    },
    4: {
        "box": (
            "eb20a4830bab556a516c50298407688968c17d694d18a8fdc2a96b090801e2ee",
            (36, 200, 5621, 2431, 27, 0, 0, 8, 0, 285032),
        ),
        "filter": (
            "0930a335bf71d09c0b4589be0af25b11c891bf4356f2c0d76965aac71a986cd8",
            (40, 202, 5679, 993, 0, 24, 2, 6, 0, 116104),
        ),
        "box_filter": (
            "feb5b39701c5a970cd44ca78ba07bbb42bd964372d65d3cf90107e8d6485204d",
            (16, 78, 2922, 1423, 1, 0, 6, 2, 0, 15096),
        ),
        "lod": (
            "f40440d1db7040ffcf23006640414ee1776824eb251ce9325d42ace5e39917b7",
            (64, 184, 320, 320, 0, 0, 0, 8, 0, 70680),
        ),
        "refine": (
            "c9da1396aaf8979f3b10160718a29a38e4fea940172566f2183d440a1ff7b216",
            (36, 204, 3615, 1457, 27, 0, 0, 8, 0, 0),
        ),
        "onecol": (
            "07c948da5cd86406fd437084d5f68cc4d2b5228df4bdc06190e7b15c3029619d",
            (36, 200, 5621, 2431, 27, 0, 0, 8, 0, 0),
        ),
        "full": (
            "4c308a7ff1009c9743e29d6160b6395561db9fad43286c61e11d72b393b19166",
            (64, 184, 0, 12000, 0, 0, 0, 8, 0, 0),
        ),
    },
}


@pytest.mark.parametrize("version", [3, 4])
def test_counters_and_bytes_are_pinned(version, tmp_path):
    got = observe(write(tmp_path, version))
    for cls, (digest, counters) in PINNED[version].items():
        assert dict(zip(FIELDS, got[cls][1])) == dict(zip(FIELDS, counters)), (
            f"v{version} {cls}: QueryStats moved"
        )
        assert got[cls][0] == digest, f"v{version} {cls}: result bytes changed"


if __name__ == "__main__":
    import tempfile

    print("PINNED = {")
    for version in (3, 4):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {version}: {{")
            for cls, (digest, counters) in observe(write(tmp, version)).items():
                print(f'        "{cls}": (\n            "{digest}",\n'
                      f"            {counters},\n        ),")
            print("    },")
    print("}")
