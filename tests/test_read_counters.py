"""Pinned work counters and result digests of a fixed read mix.

Read-path changes promise that the work counters do not move and the
bytes do not change. This file pins both: seven request classes (box,
filter, box + filter, LOD, refinement, one column, full) run in a fixed
order on a fresh dataset, written from the same deterministic particles
once as v3 (raw columns) and once as v4 (``codecs="auto"``). Every
:class:`~repro.bat.query.QueryStats` field and the result's
:meth:`~repro.types.ParticleBatch.digest` are literals below, so a change
that moves one counter or one byte fails here and has to say why.

The string keys of ``PINNED`` are checked-in images in
``tests/data/legacy/`` of layouts no writer produces any more: header
flag bit 0 (16-bit quantized positions) and bit 1 (one zlib stream per
treelet), which the reader still serves. Their literals, file sha256s
and :meth:`~repro.bat.BATFile.column_summary` totals are what the reader
returned when the images were written, by the last builder that had
those two knobs (``quantize_positions``, ``compress``)::

    from repro import BATBuildConfig
    from repro.core import TwoPhaseWriter
    from repro.machines import testing_machine
    from repro.workloads import compressible_rank_data

    LEGACY = {
        "v2qc": BATBuildConfig(quantize_positions=True, compress=True, checksums=False),
        "v3q": BATBuildConfig(quantize_positions=True),
        "v3c": BATBuildConfig(compress=True),
        "v4q": BATBuildConfig(codecs="auto", quantize_positions=True),
    }
    for key, cfg in LEGACY.items():
        writer = TwoPhaseWriter(testing_machine(), target_size=16 * 1024, bat_config=cfg)
        writer.write(compressible_rank_data(2, 600, seed=7),
                     out_dir=f"tests/data/legacy/{key}", name=key)

After an intended change, print the new table with
``PYTHONPATH=src python -m tests.test_read_counters``.
"""

import dataclasses
import hashlib
import shutil
from pathlib import Path

import pytest

from repro import BATBuildConfig, Box, QueryRequest
from repro.bat import BATFile
from repro.bat.file import WALK_TABLE_SLOT
from repro.bat.filecache import BATFileCache
from repro.bat.query import AttributeFilter, QueryStats
from repro.cli import main as cli_main
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


LEGACY_DIR = Path(__file__).parent / "data" / "legacy"
LEGACY = ("v2qc", "v3q", "v3c", "v4q")


def write(out, version: int) -> str:
    cfg = BATBuildConfig(codecs="auto") if version == 4 else BATBuildConfig()
    writer = TwoPhaseWriter(testing_machine(), target_size=64 * 1024, bat_config=cfg)
    data = compressible_rank_data(8, 1500, seed=7)
    return writer.write(data, out_dir=out, name=f"pin{version}").metadata_path


def legacy_copy(out, key: str) -> Path:
    """A private copy of pinned image ``key``; returns its manifest."""
    shutil.copytree(LEGACY_DIR / key, Path(out) / key)
    return Path(out) / key / f"{key}.meta.json"


def write_legacy_particles(out) -> str:
    """The pinned images' particles, freshly written as plain v3."""
    writer = TwoPhaseWriter(testing_machine(), target_size=16 * 1024)
    data = compressible_rank_data(2, 600, seed=7)
    return writer.write(data, out_dir=out, name="raw").metadata_path


def dataset(out, version) -> str:
    """The manifest ``PINNED[version]`` is observed on."""
    return legacy_copy(out, version) if version in LEGACY else write(out, version)


def observe(meta, file_cache=None) -> dict:
    """``{class: (digest, QueryStats fields in order)}`` of the mix."""
    with BATDataset(meta, file_cache=file_cache) as ds:
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
    "v2qc": {
        "box": (
            "e265c1b8171531ed4aada285d655340d0929b5e2fee5fb445c0b15633a05ba58",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "filter": (
            "146ece136dd6d89cd0c931bebe242011b3df81d613bdcbebca6e3f5da067eff2",
            (8, 30, 600, 93, 0, 4, 0, 2, 0, 0),
        ),
        "box_filter": (
            "27a90104d64398aea5861b88c31e5fe0b437ecb5891cc868f39e526c6834a824",
            (4, 15, 312, 175, 2, 0, 1, 1, 0, 0),
        ),
        "lod": (
            "6d9b2f9faf60f778c53814447dc29d52ec65f00ccf13968046f17a451a7b5ba0",
            (16, 46, 316, 316, 0, 0, 0, 2, 0, 0),
        ),
        "refine": (
            "524b792308f6f7a7362fce93daf868f1b334a2d961ee102f5b0b2dc8f26e25d5",
            (12, 42, 364, 81, 4, 0, 0, 2, 0, 0),
        ),
        "onecol": (
            "a812235c05e7a8d56f226bdae6a8cfc039b76d6b17f01620fd7e8e83beabcb1a",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "full": (
            "bd6b3af0cc78052a17b233d416f77cd1a900a276440630a733f9f2dd62fc1aec",
            (16, 46, 0, 1200, 0, 0, 0, 2, 0, 0),
        ),
    },
    "v3q": {
        "box": (
            "e265c1b8171531ed4aada285d655340d0929b5e2fee5fb445c0b15633a05ba58",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "filter": (
            "146ece136dd6d89cd0c931bebe242011b3df81d613bdcbebca6e3f5da067eff2",
            (8, 30, 600, 93, 0, 4, 0, 2, 0, 0),
        ),
        "box_filter": (
            "27a90104d64398aea5861b88c31e5fe0b437ecb5891cc868f39e526c6834a824",
            (4, 15, 312, 175, 2, 0, 1, 1, 0, 0),
        ),
        "lod": (
            "6d9b2f9faf60f778c53814447dc29d52ec65f00ccf13968046f17a451a7b5ba0",
            (16, 46, 316, 316, 0, 0, 0, 2, 0, 0),
        ),
        "refine": (
            "524b792308f6f7a7362fce93daf868f1b334a2d961ee102f5b0b2dc8f26e25d5",
            (12, 42, 364, 81, 4, 0, 0, 2, 0, 0),
        ),
        "onecol": (
            "a812235c05e7a8d56f226bdae6a8cfc039b76d6b17f01620fd7e8e83beabcb1a",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "full": (
            "bd6b3af0cc78052a17b233d416f77cd1a900a276440630a733f9f2dd62fc1aec",
            (16, 46, 0, 1200, 0, 0, 0, 2, 0, 0),
        ),
    },
    "v3c": {
        "box": (
            "485ef076c14698fe0ca62707efbdfd94bcb53c08c49eef993da8e27f00b4d322",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "filter": (
            "b569c8bda60e4f1f197134e87badbd70021cb85f11bdac5646a717f4458a5795",
            (8, 30, 600, 93, 0, 4, 0, 2, 0, 0),
        ),
        "box_filter": (
            "728379437b2c0138a0093c7d0dcc25a504b7cdee098c2d02dcd0c7c4ac69c5f1",
            (4, 15, 312, 175, 2, 0, 1, 1, 0, 0),
        ),
        "lod": (
            "3af41b286fd5a52b296d74aed88dd3a7c3fd59543084e0da9a015a56a734c923",
            (16, 46, 316, 316, 0, 0, 0, 2, 0, 0),
        ),
        "refine": (
            "25b43f4055892117e0cb47963630448923df63ef10d6de2b8c08e990ea04aadf",
            (12, 42, 364, 81, 4, 0, 0, 2, 0, 0),
        ),
        "onecol": (
            "a812235c05e7a8d56f226bdae6a8cfc039b76d6b17f01620fd7e8e83beabcb1a",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "full": (
            "bdf858d65b721bcd47f0d4b26099a59b3a871faccea8d91d6ba4c56f52cd02e7",
            (16, 46, 0, 1200, 0, 0, 0, 2, 0, 0),
        ),
    },
    "v4q": {
        "box": (
            "e265c1b8171531ed4aada285d655340d0929b5e2fee5fb445c0b15633a05ba58",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 32528),
        ),
        "filter": (
            "146ece136dd6d89cd0c931bebe242011b3df81d613bdcbebca6e3f5da067eff2",
            (8, 30, 600, 93, 0, 4, 0, 2, 0, 4424),
        ),
        "box_filter": (
            "27a90104d64398aea5861b88c31e5fe0b437ecb5891cc868f39e526c6834a824",
            (4, 15, 312, 175, 2, 0, 1, 1, 0, 0),
        ),
        "lod": (
            "6d9b2f9faf60f778c53814447dc29d52ec65f00ccf13968046f17a451a7b5ba0",
            (16, 46, 316, 316, 0, 0, 0, 2, 0, 4424),
        ),
        "refine": (
            "524b792308f6f7a7362fce93daf868f1b334a2d961ee102f5b0b2dc8f26e25d5",
            (12, 42, 364, 81, 4, 0, 0, 2, 0, 0),
        ),
        "onecol": (
            "a812235c05e7a8d56f226bdae6a8cfc039b76d6b17f01620fd7e8e83beabcb1a",
            (12, 42, 944, 230, 4, 0, 0, 2, 0, 0),
        ),
        "full": (
            "bd6b3af0cc78052a17b233d416f77cd1a900a276440630a733f9f2dd62fc1aec",
            (16, 46, 0, 1200, 0, 0, 0, 2, 0, 0),
        ),
    },
}




def _raw_layout(positions: int) -> list:
    """A v2/v3 file's totals: every column ``raw``, encoded = raw bytes."""
    return [("raw", n, n, 0.0) for n in (288, positions, 4800, 4800, 2400, 4800)]


#: per leaf file, ``column_summary()`` as (codec, enc_nbytes, raw_nbytes,
#: error_bound) in column order: nodes, positions, id, species, temp, rho
LEGACY_SUMMARY = {
    "v2qc": [_raw_layout(3600)] * 2,
    "v3q": [_raw_layout(3600)] * 2,
    "v3c": [_raw_layout(7200)] * 2,
    "v4q": [
        [("zlib", 208, 288, 0.0), ("zlib", 3666, 3600, 0.0), ("delta", 826, 4800, 0.0),
         ("delta", 372, 4800, 0.0), ("zlib", 1143, 2400, 0.0), ("raw", 4800, 4800, 0.0)],
        [("zlib", 208, 288, 0.0), ("raw", 3600, 3600, 0.0), ("delta", 826, 4800, 0.0),
         ("delta", 372, 4800, 0.0), ("zlib", 1165, 2400, 0.0), ("raw", 4800, 4800, 0.0)],
    ],
}

LEGACY_SHA256 = {
    "v2qc.00000.bat": "1f500219205e782dd92e2d422c2852aabc428c1ccc344057be2e48c1ac548c46",
    "v2qc.00001.bat": "c1797507bea94ed654ed18de4c674f482c89cbcdd3ed1831ccad5708f55bba43",
    "v2qc.meta.json": "c9eee605f4a8427cf603ff21fb84db3391c1c2ff0cf2dcf74d1553123eea503b",
    "v3q.00000.bat": "8a1b2d48be33d32fcff693b4fc11dc33455d9ea2b769139a911b98328c7a350a",
    "v3q.00001.bat": "d3e6595fb1f7371a5fc0572b638f6c3adc5a574bdf96b52326fabd5a2af2b75c",
    "v3q.meta.json": "af065b4ba4a9dd41a59d0b07702e0c5a65194a379a669ab592e7f17017fb78c3",
    "v3c.00000.bat": "ff955ac78ef831e346a60b8a2cf29584095af23ca87aa1f946c12f5afd4e1ecc",
    "v3c.00001.bat": "b6199383233e79d574c6732604b0ca67c608add6641aced4e64824a57afe5233",
    "v3c.meta.json": "2a9446156841035db4e0762d7264fb745e64d1001188506977534b7a57a15c91",
    "v4q.00000.bat": "8c68808736bf398e7e235f18677716b6cce00bc7eb012b5dd2d6d80cb192378f",
    "v4q.00001.bat": "e1979150546bde86673fd572ba0d7cc5b71f7e200295487787eea043850f7162",
    "v4q.meta.json": "efb0dc438180238e8fc274ee99a70b9395383c9759de7cde205f0929172d8e62",
}


@pytest.mark.parametrize("version", [3, 4, *LEGACY])
def test_counters_and_bytes_are_pinned(version, tmp_path):
    got = observe(dataset(tmp_path, version))
    for cls, (digest, counters) in PINNED[version].items():
        assert dict(zip(FIELDS, got[cls][1])) == dict(zip(FIELDS, counters)), (
            f"v{version} {cls}: QueryStats moved"
        )
        assert got[cls][0] == digest, f"v{version} {cls}: result bytes changed"


class TestLegacyImages:
    @pytest.mark.parametrize("key", LEGACY)
    def test_files_and_column_summary_are_pinned(self, key):
        files = sorted((LEGACY_DIR / key).iterdir())
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files} == {
            name: h for name, h in LEGACY_SHA256.items() if name.startswith(f"{key}.")
        }
        leaves = [p for p in files if p.suffix == ".bat"]
        assert len(leaves) == len(LEGACY_SUMMARY[key])
        for path, want in zip(leaves, LEGACY_SUMMARY[key]):
            with BATFile(path) as f:
                got = [tuple(rec.values()) for rec in f.column_summary().values()]
            assert got == want, path.name

    def test_compressed_layout_is_lossless(self, tmp_path):
        """v3c reads exactly like a fresh raw v3 write of its particles."""
        fresh = observe(write_legacy_particles(tmp_path / "raw"))
        assert fresh == PINNED["v3c"]

    @pytest.mark.parametrize("key", LEGACY)
    def test_column_cache_does_not_change_bytes(self, key, tmp_path):
        meta = legacy_copy(tmp_path, key)
        with BATFileCache(column_cache_bytes=0) as plain:
            want = {cls: digest for cls, (digest, _) in observe(meta, plain).items()}
        with BATFileCache() as cached, BATDataset(meta, file_cache=cached) as ds:
            for _ in range(2):  # cold, then every column a hit
                assert {cls: ds.query(req).batch.digest() for cls, req in MIX.items()} == want
            # a v2/v3 column is a view of the file: only its walk tables
            # are charged to the budget
            slots = {slot for _, _, slot in cached.column_cache._entries}
        assert slots == {WALK_TABLE_SLOT} if key != "v4q" else len(slots) > 1

    @pytest.mark.parametrize("key", LEGACY)
    def test_validate_deep_and_scrub_are_clean(self, key, tmp_path, capsys):
        meta = str(legacy_copy(tmp_path, key))
        assert cli_main(["scrub", meta, "--deep"]) == 0
        assert ": OK (" in capsys.readouterr().out


if __name__ == "__main__":
    import tempfile

    print("PINNED = {")
    for version in (3, 4, *LEGACY):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{version}": {{' if version in LEGACY else f"    {version}: {{")
            for cls, (digest, counters) in observe(dataset(tmp, version)).items():
                print(f'        "{cls}": (\n            "{digest}",\n'
                      f"            {counters},\n        ),")
            print("    },")
    print("}")
