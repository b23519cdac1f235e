"""Tests for the structural layer of ``scrub_file`` / ``scrub_dataset``
(``repro scrub --deep``), including corruption injection."""

import struct

import numpy as np
import pytest

from repro.bat import BATBuildConfig, BATFile, build_bat
from repro.bat.integrity import scrub_dataset, scrub_file
from repro.bat.treelet import Treelet
from repro.core import TwoPhaseWriter
from repro.machines import testing_machine as make_test_machine
from repro.types import ParticleBatch
from tests.test_pipeline import make_rank_data


@pytest.fixture(scope="module")
def good_file(tmp_path_factory):
    rng = np.random.default_rng(88)
    batch = ParticleBatch(
        rng.random((30_000, 3)).astype(np.float32),
        {"a": rng.random(30_000), "b": rng.normal(0, 1, 30_000)},
    )
    built = build_bat(batch)
    p = tmp_path_factory.mktemp("val") / "good.bat"
    built.write(p)
    return p, built


class TestValidFiles:
    def test_good_file_passes(self, good_file):
        p, _ = good_file
        report = scrub_file(p, deep=True)
        assert report.ok, report.summary()
        assert report.checked > 100

    def test_shallow_only_mode(self, good_file):
        p, _ = good_file
        shallow = scrub_file(p)
        deep = scrub_file(p, deep=True)
        assert shallow.ok
        assert shallow.checked < deep.checked

    def test_quantized_compressed_pass(self, tmp_path):
        rng = np.random.default_rng(89)
        batch = ParticleBatch(
            rng.random((10_000, 3)).astype(np.float32), {"x": rng.random(10_000)}
        )
        cfg = BATBuildConfig(codecs={"positions": "quantize16", "*": "auto"})
        p = tmp_path / "qc.bat"
        build_bat(batch, cfg).write(p)
        with BATFile(p) as f:
            assert f.version == 4
        assert scrub_file(p, deep=True).ok

    def test_summary_format(self, good_file):
        p, _ = good_file
        s = scrub_file(p, deep=True).summary()
        assert "OK" in s and "checks" in s


@pytest.fixture(scope="module")
def legacy_file(tmp_path_factory):
    """A legacy (version-2, no checksums) image for the structural checks.

    On a checksummed file the CRCs catch these corruptions before the
    structural invariants are even consulted; the legacy image keeps the
    fsck-style checks themselves under test.
    """
    rng = np.random.default_rng(88)
    batch = ParticleBatch(
        rng.random((30_000, 3)).astype(np.float32),
        {"a": rng.random(30_000), "b": rng.normal(0, 1, 30_000)},
    )
    built = build_bat(batch, BATBuildConfig(checksums=False))
    p = tmp_path_factory.mktemp("val_legacy") / "legacy.bat"
    built.write(p)
    return p, built


def corrupt(data: bytes, offset: int, new: bytes) -> bytes:
    out = bytearray(data)
    out[offset : offset + len(new)] = new
    return bytes(out)


class TestCorruptionDetection:
    def test_bad_magic(self, good_file, tmp_path):
        p, built = good_file
        bad = tmp_path / "magic.bat"
        bad.write_bytes(corrupt(built.data, 0, b"EVIL"))
        report = scrub_file(bad, deep=True)
        assert not report.ok
        assert report.bad_sections == ["header"] and "magic" in report.detail

    def test_truncated_file(self, good_file, tmp_path):
        p, built = good_file
        bad = tmp_path / "trunc.bat"
        bad.write_bytes(built.data[: len(built.data) // 2])
        assert not scrub_file(bad, deep=True).ok

    def test_corrupt_point_count(self, legacy_file, tmp_path):
        p, built = legacy_file
        # n_points lives at offset 8 in the header
        bad = tmp_path / "count.bat"
        bad.write_bytes(corrupt(built.data, 8, struct.pack("<Q", 999)))
        report = scrub_file(bad, deep=True)
        assert not report.ok
        assert any("point counts" in e or "zero particles" in e for e in report.errors)

    def test_corrupt_header_checksummed(self, good_file, tmp_path):
        p, built = good_file
        # on a checksummed file the same header damage trips the header CRC
        bad = tmp_path / "count_v3.bat"
        bad.write_bytes(corrupt(built.data, 8, struct.pack("<Q", 999)))
        report = scrub_file(bad, deep=True)
        assert not report.ok
        assert report.bad_sections == ["header"] and "checksum" in report.detail

    def test_corrupt_treelet_child_pointer(self, legacy_file, tmp_path):
        p, built = legacy_file
        from repro.bat.file import BATFile

        with BATFile(p) as f:
            # find a treelet with an inner node and smash its left pointer
            target = None
            for k in range(f.n_treelets):
                tv = f.treelet(k)
                inner = np.nonzero(tv.nodes["axis"] >= 0)[0]
                if len(inner):
                    off = int(f.shallow_leaves[k]["treelet_offset"])
                    node_dt = tv.nodes.dtype
                    node_off = off + 16 + int(inner[0]) * node_dt.itemsize
                    left_field_off = node_dt.fields["left"][1]
                    target = node_off + left_field_off
                    break
        assert target is not None
        bad = tmp_path / "child.bat"
        bad.write_bytes(corrupt(built.data, target, struct.pack("<i", -7)))
        report = scrub_file(bad, deep=True)
        assert not report.ok
        assert any("children" in e for e in report.errors)

    def test_corrupt_positions_detected(self, legacy_file, tmp_path):
        p, built = legacy_file
        from repro.bat.file import BATFile

        with BATFile(p) as f:
            off = int(f.shallow_leaves[0]["treelet_offset"])
            tv = f.treelet(0)
            pos_off = off + 16 + tv.nodes.nbytes
        bad = tmp_path / "pos.bat"
        bad.write_bytes(corrupt(built.data, pos_off, struct.pack("<f", 1e9)))
        report = scrub_file(bad, deep=True)
        assert not report.ok
        assert any("outside leaf bounds" in e for e in report.errors)


#: treelet 0 of ``tiny_legacy``: a root holding two LOD particles over two
#: four-particle leaves
NODES = {
    "axis": [0, -1, -1],
    "left": [1, -1, -1],
    "right": [2, -1, -1],
    "begin": [0, 2, 6],
    "count": [2, 4, 4],
    "subtree_end": [10, 6, 10],
}
#: one broken per-node invariant each: (node, field, new value, finding)
BROKEN = {
    "slice": (0, "subtree_end", 11, "bad slice"),
    "links": (0, "left", 0, "children must follow parent"),
    "tiling": (0, "subtree_end", 9, "children do not tile subtree"),
    "gap": (1, "subtree_end", 7, "gap between children"),  # left leaf overlaps right
    "partition": (1, "count", 3, "do not partition"),
}


@pytest.fixture(scope="module")
def tiny_legacy(tmp_path_factory):
    """A v2 image whose treelet 0 is exactly ``NODES``: ten particles share
    one Morton octant (an eleventh sits in another), and its node records
    start 16 bytes (the treelet header) into the treelet."""
    rng = np.random.default_rng(3)
    pos = np.vstack([rng.random((10, 3)) * 0.4, [[1, 1, 1]]]).astype(np.float32)
    cfg = BATBuildConfig(checksums=False, lod_per_node=2, max_leaf_points=4)
    built = build_bat(ParticleBatch(pos, {"a": rng.random(11)}), cfg)
    p = tmp_path_factory.mktemp("tiny") / "tiny.bat"
    built.write(p)
    assert scrub_file(p, deep=True).ok
    with BATFile(p) as f:
        nodes = f.treelet(0).nodes.copy()
        at = int(f.shallow_leaves[0]["treelet_offset"]) + 16
    assert {name: nodes[name].tolist() for name in NODES} == NODES
    return built.data, nodes, at


@pytest.mark.parametrize("case", BROKEN)
def test_shared_node_invariants(tiny_legacy, tmp_path, case):
    """``Treelet.validate`` and the deep scrub reject the same broken node."""
    data, nodes, at = tiny_legacy
    node, name, value, finding = BROKEN[case]
    nodes = nodes.copy()
    nodes[name][node] = value
    fields = ("axis", "split", "left", "right", "begin", "count", "subtree_end", "depth")
    treelet = Treelet(**{f: nodes[f] for f in fields}, order=np.arange(10))
    with pytest.raises(ValueError, match=finding):
        treelet.validate()
    bad = tmp_path / f"{case}.bat"
    bad.write_bytes(corrupt(data, at, nodes.tobytes()))
    report = scrub_file(bad, deep=True)
    assert not report.ok
    assert any(finding in e for e in report.errors), report.summary()


class TestDatasetValidation:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ds_val")
        data = make_rank_data(nranks=8, seed=90)
        rep = TwoPhaseWriter(make_test_machine(), target_size=256 * 1024).write(
            data, out_dir=out, name="v0"
        )
        return out, rep

    def test_good_dataset(self, dataset):
        out, rep = dataset
        report = scrub_dataset(rep.metadata_path, deep=True)
        assert report.ok, report.summary()

    def test_missing_leaf_file(self, dataset, tmp_path):
        import shutil

        out, rep = dataset
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        victim = next(clone.glob("*.bat"))
        victim.unlink()
        report = scrub_dataset(clone / "v0.meta.json")
        assert not report.ok
        assert [f.path for f in report.files if f.status == "missing"] == [str(victim)]

    def test_manifest_count_mismatch(self, dataset, tmp_path):
        import json
        import shutil

        out, rep = dataset
        clone = tmp_path / "clone2"
        shutil.copytree(out, clone)
        meta = json.loads((clone / "v0.meta.json").read_text())
        meta["leaves"][0]["count"] += 5
        (clone / "v0.meta.json").write_text(json.dumps(meta))
        report = scrub_dataset(clone / "v0.meta.json")
        assert not report.ok
        assert any("manifest says" in e for e in report.files[0].errors)

    def test_cli_validate(self, dataset, capsys):
        from repro.cli import main

        out, rep = dataset
        assert main(["scrub", rep.metadata_path, "--deep"]) == 0
        assert "OK" in capsys.readouterr().out
