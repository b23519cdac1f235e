"""Property-based tests over the full write/read pipeline.

Hypothesis drives randomized decompositions and particle populations
through write -> metadata -> restart-read and asserts conservation
invariants: no particle is ever lost, duplicated, or misrouted.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import QueryRequest
from repro.core import RankData, TwoPhaseReader, TwoPhaseWriter
from repro.machines import testing_machine as make_test_machine
from repro.types import Box, ParticleBatch
from repro.workloads import grid_decompose

MACHINE = make_test_machine()
DOMAIN = Box((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))


def random_rank_data(nranks: int, seed: int, empty_fraction: float) -> RankData:
    rng = np.random.default_rng(seed)
    bounds = grid_decompose(DOMAIN, nranks, ndims=3)
    batches = []
    for r in range(nranks):
        if rng.random() < empty_fraction:
            n = 0
        else:
            n = int(rng.integers(1, 800))
        lo, hi = bounds[r]
        pos = lo + rng.random((n, 3)) * (hi - lo)
        batches.append(
            ParticleBatch(pos.astype(np.float32), {"val": rng.random(n)})
        )
    return RankData(
        bounds=bounds, counts=np.array([len(b) for b in batches]), batches=batches
    )


class TestPipelineConservation:
    @settings(max_examples=12, deadline=None)
    @given(
        nranks=st.integers(1, 24),
        seed=st.integers(0, 2**31),
        empty_fraction=st.floats(0.0, 0.9),
        target_kb=st.sampled_from([16, 64, 512]),
    )
    # a particle exactly on the face two reading boxes share used to be
    # returned to both (3 924 particles read of 3 923 written)
    @example(nranks=16, seed=19597874, empty_fraction=0.375, target_kb=16)
    def test_write_read_conserves_particles(self, tmp_path_factory, nranks, seed, empty_fraction, target_kb):
        data = random_rank_data(nranks, seed, empty_fraction)
        out = tmp_path_factory.mktemp("prop")
        writer = TwoPhaseWriter(MACHINE, target_size=target_kb * 1024)
        report = writer.write(data, out_dir=out, name="p")

        # metadata counts agree with the input
        assert report.metadata.total_particles == data.total_particles

        if data.total_particles == 0:
            assert report.n_files == 0
            return

        # restart on a different decomposition
        reader = TwoPhaseReader(MACHINE)
        read_ranks = max(1, nranks // 2)
        rb = grid_decompose(DOMAIN, read_ranks, ndims=3)
        rrep = reader.read(report.metadata, rb, data_dir=out)
        got = sum(len(b) for b in rrep.batches)
        assert got == data.total_particles

        # every particle landed on the rank owning its region
        for r in range(read_ranks):
            box = Box.from_array(rb[r])
            assert box.contains_points(rrep.batches[r].positions).all()

        # attribute multiset preserved end to end (ranks that received
        # nothing return schema-less empty batches)
        src = np.sort(
            np.concatenate([b.attributes["val"] for b in data.batches if len(b)])
        )
        dst = np.sort(
            np.concatenate([b.attributes["val"] for b in rrep.batches if len(b)])
        )
        np.testing.assert_array_equal(src, dst)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_progressive_reads_partition(self, tmp_path_factory, seed):
        data = random_rank_data(9, seed, 0.2)
        if data.total_particles == 0:
            return
        out = tmp_path_factory.mktemp("propq")
        report = TwoPhaseWriter(MACHINE, target_size=64 * 1024).write(
            data, out_dir=out, name="q"
        )
        from repro.core.dataset import BATDataset

        with BATDataset(report.metadata_path) as ds:
            prev, total = 0.0, 0
            for q in (0.3, 0.6, 1.0):
                batch, _ = ds.query(QueryRequest(quality=q, prev_quality=prev))
                total += len(batch)
                prev = q
            assert total == data.total_particles
