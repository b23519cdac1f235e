"""Tests for the end-to-end write-path integrity chain.

Covers the checksummed format (v3) against its legacy predecessor, the
atomic/verified publish protocol, fault-injected writes recovering to
byte-identical files, read-side quarantine with degraded partial results,
the serve layer's integrity counters, and the ``repro scrub`` CLI.
"""

import gc
import hashlib
import json
import os
import re
import zlib

import numpy as np
import pytest

from repro import QueryRequest
from repro.atomic import publish_bytes
from repro.bat import BATBuildConfig, build_bat, codecs, scrub_dataset, scrub_file
from repro.bat.file import BATFile
from repro.bat.format import HEADER_SIZE, LEGACY_VERSION, VERSION, Header
from repro.bat.query import AttributeFilter, query_file
from repro.cli import main
from repro.core import TwoPhaseWriter
from repro.core.dataset import BATDataset
from repro.errors import IntegrityError, LeafUnavailableError, PublishError
from repro.iosim import FaultConfig, FaultInjector
from repro.machines import testing_machine as make_test_machine
from repro.serve import QueryService
from repro.types import ParticleBatch
from tests.test_pipeline import make_rank_data
from tests.test_read_counters import legacy_copy


def make_batch(seed=11, n=30_000):
    rng = np.random.default_rng(seed)
    return ParticleBatch(
        rng.random((n, 3)).astype(np.float32),
        {"a": rng.random(n), "b": rng.normal(0, 1, n)},
    )


@pytest.fixture(scope="module")
def checksummed(tmp_path_factory):
    built = build_bat(make_batch())
    p = tmp_path_factory.mktemp("v3") / "good.bat"
    built.write(p)
    return p


@pytest.fixture(scope="module")
def legacy(tmp_path_factory):
    built = build_bat(make_batch(), BATBuildConfig(checksums=False))
    p = tmp_path_factory.mktemp("v2") / "legacy.bat"
    built.write(p)
    return p


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


METADATA_SECTIONS = (
    "header", "attr_table", "shallow_inner", "shallow_leaves",
    "dictionary", "binning",
)


class TestFormatVersions:
    def test_new_files_are_checksummed(self, checksummed):
        with BATFile(checksummed) as f:
            assert f.checksummed
            assert f.version == VERSION

    def test_legacy_files_still_readable(self, legacy):
        with BATFile(legacy) as f:
            assert not f.checksummed
            assert f.version == LEGACY_VERSION
            assert f.n_points == 30_000

    def test_legacy_query_results_pinned(self, checksummed, legacy):
        """Same particles, both formats: byte-identical query answers."""
        with BATFile(checksummed) as f3, BATFile(legacy) as f2:
            new, _ = query_file(f3, quality=1.0)
            old, _ = query_file(f2, quality=1.0)
        np.testing.assert_array_equal(new.positions, old.positions)
        for name in new.attributes:
            np.testing.assert_array_equal(new.attributes[name], old.attributes[name])

    def test_scrub_statuses(self, checksummed, legacy):
        assert scrub_file(checksummed).status == "ok"
        assert scrub_file(legacy).status == "legacy"
        assert scrub_file(legacy).ok


class TestSectionLocalization:
    """One flipped byte per section: scrub and open name the exact section."""

    @pytest.mark.parametrize("section", METADATA_SECTIONS)
    def test_metadata_section_flip(self, checksummed, tmp_path, section):
        raw = bytearray(checksummed.read_bytes())
        header = Header.unpack(bytes(raw[:HEADER_SIZE]))
        off, nbytes = header.section_extents()[section]
        assert nbytes > 0, f"section {section} is empty in this fixture"
        # a seeded draw per section keeps the property-style coverage
        # reproducible while not always hitting the same byte
        rng = np.random.default_rng(zlib.crc32(section.encode()))
        raw[off + int(rng.integers(nbytes))] ^= 0xFF
        p = tmp_path / f"{section}.bat"
        p.write_bytes(bytes(raw))

        report = scrub_file(p)
        assert not report.ok
        assert section in report.bad_sections, report.summary()
        if section == "header":
            # offsets are untrusted after a header flip; nothing else may
            # be blamed on guesswork
            assert report.bad_sections == ["header"]

        with pytest.raises(IntegrityError) as exc_info:
            BATFile(p)
        assert exc_info.value.section == section

    def test_treelet_flip(self, checksummed, tmp_path):
        raw = bytearray(checksummed.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p = tmp_path / "treelet.bat"
        p.write_bytes(bytes(raw))

        report = scrub_file(p)
        assert not report.ok
        assert len(report.bad_sections) == 1
        assert re.fullmatch(r"treelet \d+", report.bad_sections[0])
        bad = int(report.bad_sections[0].split()[1])

        # metadata sections verify eagerly, so the file still opens;
        # touching the damaged treelet raises with the same section
        with BATFile(p) as f:
            for k in range(f.n_treelets):
                if k == bad:
                    with pytest.raises(IntegrityError) as exc_info:
                        f.treelet(k)
                    assert exc_info.value.section == f"treelet {bad}"
                else:
                    f.treelet(k)

    def test_integrity_error_is_value_error(self):
        assert issubclass(IntegrityError, ValueError)


class TestCorruptOpenHygiene:
    def test_short_garbage_is_clean_error(self, tmp_path):
        p = tmp_path / "short.bat"
        p.write_bytes(b"definitely not a BAT file")
        with pytest.raises(ValueError, match="not a BAT file"):
            BATFile(p)

    def test_empty_file_is_clean_error(self, tmp_path):
        p = tmp_path / "empty.bat"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="not a BAT file"):
            BATFile(p)

    @pytest.mark.parametrize("payload", [b"X" * 40, b"BATF" + b"\0" * 300])
    def test_no_fd_leak_on_failed_open(self, tmp_path, payload):
        """A failing ``_parse`` must release the fd and mmap (regression)."""
        p = tmp_path / "corrupt.bat"
        p.write_bytes(payload)
        with pytest.raises(ValueError):
            BATFile(p)
        # flush stray garbage from earlier tests so a finalizer closing an
        # unrelated fd mid-loop cannot skew the count
        gc.collect()
        before = open_fd_count()
        for _ in range(100):
            with pytest.raises(ValueError):
                BATFile(p)
        assert open_fd_count() == before


class TestAtomicPublish:
    def test_atomic_write(self, tmp_path):
        p = tmp_path / "out.bin"
        assert publish_bytes(p, b"hello") == 1
        assert p.read_bytes() == b"hello"
        assert [q.name for q in tmp_path.iterdir()] == ["out.bin"]

    def test_publish_clean_first_try(self, tmp_path):
        p = tmp_path / "f.bin"
        assert publish_bytes(p, b"payload" * 100) == 1
        assert p.read_bytes() == b"payload" * 100

    @pytest.mark.parametrize("fault", [("torn", 0.5), ("bitflip", 0.25)])
    def test_publish_recovers_from_damaged_attempt(self, tmp_path, fault):
        p = tmp_path / "f.bin"
        data = os.urandom(4096)
        attempts = publish_bytes(p, data, fault_plan=(fault,), max_attempts=4)
        assert attempts == 2
        assert p.read_bytes() == data
        assert [q.name for q in tmp_path.iterdir()] == ["f.bin"]

    def test_publish_failure_leaves_previous_version(self, tmp_path):
        p = tmp_path / "f.bin"
        publish_bytes(p, b"version one")
        plan = (("torn", 0.5), ("torn", 0.5))
        with pytest.raises(PublishError):
            publish_bytes(p, b"version two!", fault_plan=plan, max_attempts=2)
        # the old version is fully intact and no tmp file is visible
        assert p.read_bytes() == b"version one"
        assert [q.name for q in tmp_path.iterdir()] == ["f.bin"]

    def test_publish_never_exposes_partial_file(self, tmp_path):
        p = tmp_path / "f.bin"
        with pytest.raises(PublishError):
            publish_bytes(p, b"data", fault_plan=(("torn", 0.1),), max_attempts=1)
        assert not p.exists()
        assert list(tmp_path.iterdir()) == []


class TestFaultInjector:
    def test_plans_are_deterministic_and_bounded(self):
        cfg = FaultConfig(seed=5, torn_write=0.5, bit_flip=0.4)
        inj = FaultInjector(cfg)
        plans = [inj.plan_leaf_write(i) for i in range(64)]
        assert plans == [inj.plan_leaf_write(i) for i in range(64)]
        # the final attempt is never faulted, so every plan leaves at least
        # one clean attempt inside the budget
        assert all(len(p) < cfg.max_write_attempts for p in plans)
        assert any(p for p in plans)

    def test_at_least_one_aggregator_survives(self):
        inj = FaultInjector(FaultConfig(seed=1, aggregator_death=1.0))
        dead = inj.sample_dead_aggregators([0, 1, 2, 3])
        assert len(dead) == 3

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(torn_write=1.5)
        with pytest.raises(ValueError):
            FaultConfig(drop_message=0.7, duplicate_message=0.7)
        with pytest.raises(ValueError):
            FaultConfig(max_write_attempts=0)


class TestFaultedWrites:
    FAULTS = FaultConfig(
        seed=0, torn_write=0.4, bit_flip=0.3, drop_message=0.2,
        duplicate_message=0.1, aggregator_death=0.25,
    )

    def write(self, out, faults):
        data = make_rank_data(nranks=8, seed=21)
        writer = TwoPhaseWriter(
            make_test_machine(), target_size=32 * 1024, faults=faults
        )
        rep = writer.write(data, out_dir=out, name="ft")
        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("ft.*.bat"))
        }
        return rep, hashes

    def test_recovery_is_byte_identical(self, tmp_path):
        clean_rep, clean_hashes = self.write(tmp_path / "clean", None)
        fault_rep, fault_hashes = self.write(tmp_path / "faulted", self.FAULTS)
        assert clean_rep.faults is None
        assert fault_rep.faults is not None
        assert fault_rep.faults.total_injected > 0
        assert fault_rep.faults.retried_writes > 0
        assert fault_hashes == clean_hashes
        # recovery work is charged to the simulated clock
        assert fault_rep.elapsed > clean_rep.elapsed
        assert not [p.name for p in (tmp_path / "faulted").iterdir() if ".tmp" in p.name]
        assert scrub_dataset(fault_rep.metadata_path).ok

    def test_faulted_write_is_reproducible(self, tmp_path):
        rep1, _ = self.write(tmp_path / "a", self.FAULTS)
        rep2, _ = self.write(tmp_path / "b", self.FAULTS)
        assert rep1.faults.to_doc() == rep2.faults.to_doc()

    def test_all_zero_config_means_no_injection(self, tmp_path):
        rep, _ = self.write(tmp_path / "z", FaultConfig())
        assert rep.faults is None


@pytest.fixture()
def written_dataset(tmp_path):
    data = make_rank_data(nranks=8, seed=33)
    rep = TwoPhaseWriter(make_test_machine(), target_size=32 * 1024).write(
        data, out_dir=tmp_path, name="dg"
    )
    return tmp_path, rep


def corrupt_leaf(directory, metadata, leaf_index):
    p = directory / metadata.leaves[leaf_index].file_name
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p.write_bytes(bytes(raw))
    return p


class TestPrunedDamageIsNeverTouched:
    """A read materializes only the treelets its shallow pass keeps, so a
    damaged treelet a query prunes is never checksummed or decoded: the read
    is complete and byte-identical to the undamaged file's. Only a query
    that reaches the damage raises, or degrades."""

    @pytest.fixture()
    def v4_dataset(self, tmp_path):
        data = make_rank_data(nranks=8, seed=33)
        writer = TwoPhaseWriter(
            make_test_machine(), target_size=32 * 1024,
            bat_config=BATBuildConfig(codecs="auto"),
        )
        return tmp_path, writer.write(data, out_dir=tmp_path, name="dg")

    def test_prune_around_a_damaged_treelet(self, v4_dataset, monkeypatch):
        out, rep = v4_dataset
        with BATDataset(rep.metadata_path) as ds:
            f = ds.file(0)
            assert f.checksummed and f.column_encoded
            boxes = [f.leaf_box(t) for t in range(f.n_treelets)]
            bad, box = next(
                (k, b) for k in range(len(boxes)) for b in boxes
                if not b.intersects(boxes[k])
            )
            off = int(f.shallow_leaves[bad]["treelet_offset"])
            nbytes = int(f.shallow_leaves[bad]["treelet_nbytes"])
            req = QueryRequest(box=box, quality=0.8)
            clean, clean_stats = ds.query(req)
            path = out / ds.metadata.leaves[0].file_name
        assert len(clean) and clean_stats.files_opened >= 1
        raw = bytearray(path.read_bytes())
        raw[off + nbytes // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        touched = []
        treelet = BATFile.treelet
        monkeypatch.setattr(
            BATFile, "treelet", lambda self, leaf: touched.append(leaf) or treelet(self, leaf)
        )
        with BATDataset(rep.metadata_path) as ds:
            got, stats = ds.query(req)
            assert got.digest() == clean.digest()
            assert stats == clean_stats and stats.quarantined_files == 0
            assert touched and bad not in touched
            # a read that reaches the damaged treelet raises, or degrades
            with pytest.raises(IntegrityError, match="dg.00000"):
                ds.query(QueryRequest(box=boxes[bad]))
            part, stats = ds.query(QueryRequest(box=boxes[bad], on_error="degrade"))
            assert stats.quarantined_files == 1 and list(ds.quarantined()) == [0]


class TestUndecodableColumn:
    """A v4 column whose checksums hold but whose codec payload will not
    decode (here: written by a broken encoder, so every CRC seals the bad
    bytes) is an :class:`IntegrityError` naming treelet, column and file:
    ``raise`` names the leaf and dataset, ``degrade`` quarantines it."""

    @staticmethod
    def rank_data():
        """Rank data whose ``auto`` codecs include zlib and delta columns."""
        data = make_rank_data(nranks=4, seed=5)
        for b in data.batches:
            b.attributes["id"] = np.arange(len(b), dtype=np.int64)
        return data

    @staticmethod
    def truncate_zlib(monkeypatch):
        encode = codecs._ZlibCodec.encode
        monkeypatch.setattr(
            codecs._ZlibCodec, "encode",
            lambda self, arr: (encode(self, arr)[0][:-4], 0.0, 0.0),  # no adler32
        )

    @staticmethod
    def truncate_delta(monkeypatch):
        pack = codecs._DeltaBitpackCodec._pack_one
        monkeypatch.setattr(
            codecs._DeltaBitpackCodec, "_pack_one",
            staticmethod(lambda vals, zig: pack(vals, zig)[: codecs._DELTA_HEADER.size]),
        )

    @pytest.mark.parametrize("codec", ["zlib", "delta"])
    def test_bad_payload_raises_or_degrades(self, codec, tmp_path, monkeypatch):
        with monkeypatch.context() as m:
            getattr(self, f"truncate_{codec}")(m)
            rep = TwoPhaseWriter(
                make_test_machine(), target_size=32 * 1024,
                bat_config=BATBuildConfig(codecs="auto"),
            ).write(self.rank_data(), out_dir=tmp_path, name="bc")
        assert scrub_dataset(rep.metadata_path).ok  # the checksums hold
        with BATDataset(rep.metadata_path) as ds:
            with pytest.raises(IntegrityError, match=r"bc\.0000\d\.bat.*bc\.meta\.json") as exc:
                ds.query(QueryRequest())
            assert re.search(r"treelet \d+ column \d+", str(exc.value))
            assert ds.quarantined() == {}
            _, stats = ds.query(QueryRequest(on_error="degrade"))
            assert stats.quarantined_files >= 1
            assert len(ds.quarantined()) == stats.quarantined_files


class TestLegacyTreeletDamage:
    """The pinned v2 image with flag bits 0 and 1 (``tests/data/legacy/
    v2qc``, no checksums): damage only the treelet's own layout can
    reveal is still an :class:`IntegrityError` naming the treelet, so a
    degraded read quarantines the leaf instead of failing."""

    @staticmethod
    def damage(meta, at: int, value: int | None = None):
        """Flip (or set) byte ``at`` of treelet 0 of leaf file 0."""
        path = meta.parent / "v2qc.00000.bat"
        raw = bytearray(path.read_bytes())
        with BATFile.from_bytes(bytes(raw)) as f:
            at += int(f.shallow_leaves[0]["treelet_offset"])
        raw[at] = raw[at] ^ 0xFF if value is None else value
        path.write_bytes(bytes(raw))
        return path

    def test_uninflatable_treelet_degrades(self, tmp_path):
        meta = legacy_copy(tmp_path, "v2qc")
        with BATFile(meta.parent / "v2qc.00001.bat") as f:
            survivor, _ = query_file(f)
        self.damage(meta, 16 + 10)  # inside the zlib stream
        with BATDataset(meta) as ds:
            with pytest.raises(IntegrityError, match="treelet 0"):
                ds.query(QueryRequest())
            part, stats = ds.query(QueryRequest(on_error="degrade"))
        assert stats.quarantined_files == 1
        assert part.digest() == survivor.digest()

    def test_overstated_counts_are_an_integrity_error(self, tmp_path):
        meta = legacy_copy(tmp_path, "v2qc")
        # n_points (treelet header bytes 4..8) past what the payload holds
        path = self.damage(meta, 5, value=0x7F)
        with BATFile(path) as f:
            with pytest.raises(IntegrityError, match="overrun") as exc:
                f.treelet(0)
        assert exc.value.section == "treelet 0"


class TestQuarantineAndDegradedReads:
    def test_missing_leaf_raises_clear_error(self, written_dataset):
        out, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            victim = ds.metadata.leaves[0]
            (out / victim.file_name).unlink()
            with pytest.raises(LeafUnavailableError) as exc_info:
                ds.query()
            msg = str(exc_info.value)
            assert victim.file_name in msg and "dg.meta.json" in msg
            assert exc_info.value.leaf_index == 0

    def test_corrupt_leaf_raises_clear_error(self, written_dataset):
        out, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            corrupt_leaf(out, ds.metadata, 1)
            with pytest.raises(IntegrityError, match="dg.00001"):
                ds.query()
            # raise mode does not quarantine
            assert ds.quarantined() == {}

    def test_degrade_returns_partial_and_quarantines(self, written_dataset):
        out, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            full, _ = ds.query()
            corrupt_leaf(out, ds.metadata, 1)
            ds.file_cache.close()  # force a re-open of the damaged file
            part, stats = ds.query(QueryRequest(on_error="degrade"))
            assert stats.quarantined_files == 1
            assert 0 < len(part) < len(full)
            assert list(ds.quarantined()) == [1]
            # subsequent plans exclude the leaf up front and still report it
            plan = ds.plan()
            assert plan.excluded_files == 1
            again, stats2 = ds.query(QueryRequest(on_error="degrade"))
            assert stats2.quarantined_files == 1
            assert len(again) == len(part)

    def test_stream_past_a_quarantined_leaf_is_partial(self, written_dataset):
        """A plan that already excludes a quarantined leaf flags every
        increment ``partial``, as the one-shot query reports it."""
        _, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            ds.quarantine_leaf(1, "damaged")
            req = QueryRequest(quality=1.0, on_error="degrade")
            _, stats = ds.query(req)
            assert stats.quarantined_files > 0
            incs = list(ds.stream(req))
            assert len(incs) > 1
            assert all(inc.partial for inc in incs)

    def test_clear_quarantine_retries_the_leaf(self, written_dataset):
        out, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            full, _ = ds.query()
            victim = out / ds.metadata.leaves[1].file_name
            pristine = victim.read_bytes()
            corrupt_leaf(out, ds.metadata, 1)
            ds.file_cache.close()
            ds.query(QueryRequest(on_error="degrade"))
            assert ds.quarantined()
            victim.write_bytes(pristine)  # "repair" the file
            ds.clear_quarantine()
            healed, stats = ds.query()
            assert stats.quarantined_files == 0
            assert len(healed) == len(full)

    def test_user_errors_are_never_degraded(self, written_dataset):
        _, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            with pytest.raises(ValueError):
                ds.query(QueryRequest(quality=2.0, on_error="degrade"))
            with pytest.raises(KeyError):
                ds.plan(filters=[AttributeFilter("nope", 0, 1)])
            with pytest.raises(ValueError, match="on_error"):
                ds.query(QueryRequest(on_error="ignore"))

    def test_open_error_counter(self, written_dataset):
        out, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            corrupt_leaf(out, ds.metadata, 0)
            ds.query(QueryRequest(on_error="degrade"))
            assert ds.file_cache.stats()["open_errors"] >= 0  # treelet flip opens fine
            (out / ds.metadata.leaves[2].file_name).unlink()
            # an already-cached mmap would still serve the unlinked file;
            # drop handles so the next query has to re-open it
            ds.file_cache.close()
            ds.query(QueryRequest(on_error="degrade"))
            assert ds.file_cache.stats()["open_errors"] == 1


class TestServeIntegrity:
    def test_partial_response_and_counters(self, written_dataset):
        out, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            full, _ = ds.query()
            n_full = len(full)
            corrupt_leaf(out, ds.metadata, 1)
        with QueryService(rep.metadata_path) as svc:
            sid = svc.open_session()
            resp = svc.request(sid, QueryRequest(quality=1.0))
            assert resp.partial
            assert resp.quarantined_files == 1
            assert 0 < len(resp) < n_full
            # a partial result must not be served from the result cache
            sid2 = svc.open_session()
            resp2 = svc.request(sid2, QueryRequest(quality=1.0))
            assert not resp2.cache_hit
            assert resp2.partial

            snap = svc.snapshot()
            assert snap["integrity"]["quarantined_leaves"] == 1
            assert snap["integrity"]["partial_responses"] == 2
            assert snap["requests"]["partial"] == 2
            assert snap["requests"]["quarantined_files"] == 2

    def test_clean_service_reports_zero(self, written_dataset):
        _, rep = written_dataset
        with QueryService(rep.metadata_path) as svc:
            sid = svc.open_session()
            resp = svc.request(sid, QueryRequest(quality=0.5))
            assert not resp.partial and resp.quarantined_files == 0
            snap = svc.snapshot()
            assert snap["integrity"]["quarantined_leaves"] == 0
            assert snap["integrity"]["partial_responses"] == 0


class TestScrubCLI:
    def test_dataset_clean(self, written_dataset, capsys):
        _, rep = written_dataset
        assert main(["scrub", rep.metadata_path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_dataset_corrupt_exit_code(self, written_dataset, capsys):
        out_dir, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            corrupt_leaf(out_dir, ds.metadata, 1)
        assert main(["scrub", rep.metadata_path]) == 1
        out = capsys.readouterr().out
        assert "treelet" in out

    def test_single_file_and_json(self, checksummed, capsys):
        assert main(["scrub", str(checksummed), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"

    def test_missing_leaf_reported(self, written_dataset, capsys):
        out_dir, rep = written_dataset
        with BATDataset(rep.metadata_path) as ds:
            (out_dir / ds.metadata.leaves[0].file_name).unlink()
        assert main(["scrub", rep.metadata_path]) == 1
        assert "missing" in capsys.readouterr().out

    def test_flat_layout_dataset(self, tmp_path, capsys):
        """A flat-layout leaf carries neither checksums nor a BAT structure:
        a healthy one scrubs clean, and only a missing one is a finding."""
        rep = TwoPhaseWriter(make_test_machine(), layout="flat").write(
            make_rank_data(nranks=4, seed=1), out_dir=tmp_path, name="fl"
        )
        assert scrub_dataset(rep.metadata_path, deep=True).ok
        assert main(["scrub", rep.metadata_path]) == 0
        victim = next(tmp_path.glob("*.flat"))
        victim.unlink()
        report = scrub_dataset(rep.metadata_path)
        assert [f.path for f in report.files if f.status == "missing"] == [str(victim)]
        assert main(["scrub", rep.metadata_path]) == 1


class TestDeepScrubMemory:
    def test_deep_scrub_keeps_no_decoded_column(self, tmp_path, monkeypatch):
        """A deep scrub decodes each v4 treelet's columns, checks them and
        drops them: when the file closes its handle holds no decoded array,
        and the report is the one a raw-column twin of the file gets."""
        path = tmp_path / "auto.bat"
        build_bat(make_batch(), BATBuildConfig(codecs="auto")).write(path)
        held = []
        close = BATFile.close

        def counting_close(self):
            if getattr(self, "_memo", None) is not None:
                cache = self.column_cache
                held.append((len(self._memo), 0 if cache is None else cache.nbytes))
            close(self)

        monkeypatch.setattr(BATFile, "close", counting_close)
        report = scrub_file(path, deep=True)
        assert held == [(0, 0)]
        twin = tmp_path / "raw.bat"
        build_bat(make_batch()).write(twin)
        raw = scrub_file(twin, deep=True)
        assert report.status == raw.status == "ok"
        assert report.checked == raw.checked
