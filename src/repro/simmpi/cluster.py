"""The :class:`VirtualCluster` facade used by the I/O pipelines.

A cluster is ``nranks`` virtual MPI ranks on a :class:`~repro.machines.MachineSpec`.
Pipelines express themselves as a sequence of named phases (collectives,
point-to-point transfers, per-rank compute, filesystem operations); the
cluster advances per-rank clocks through each phase and keeps the phase log
that the breakdown figures plot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import collectives
from .network import Message, transfer_phase
from .timeline import PhaseRecord, Timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..machines import MachineSpec

__all__ = ["VirtualCluster"]


class VirtualCluster:
    """A virtual machine partition: ``nranks`` ranks with simulated time."""

    def __init__(self, nranks: int, machine: "MachineSpec", network_model: str = "phase"):
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if network_model not in ("phase", "event"):
            raise ValueError("network_model must be 'phase' or 'event'")
        self.nranks = nranks
        self.machine = machine
        self.network_model = network_model
        self.timeline = Timeline(nranks)
        self._fs = machine.fs_model()

    # -- time accounting ---------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.timeline.elapsed

    @property
    def phases(self) -> list[PhaseRecord]:
        return self.timeline.phases

    def breakdown(self) -> dict[str, float]:
        return self.timeline.breakdown()

    # -- collectives ---------------------------------------------------------

    def gather_to_root(self, name: str, bytes_per_rank: float) -> None:
        self.timeline.synchronize()
        t = collectives.gather_time(self.nranks, bytes_per_rank, self.machine.network)
        self.timeline.add_uniform(name, t)

    def scatter_from_root(self, name: str, bytes_per_rank: float) -> None:
        self.timeline.synchronize()
        t = collectives.scatter_time(self.nranks, bytes_per_rank, self.machine.network)
        self.timeline.add_uniform(name, t)

    def barrier(self, name: str = "barrier") -> None:
        t = collectives.barrier_time(self.nranks, self.machine.network)
        self.timeline.synchronize()
        self.timeline.add_uniform(name, t)

    # -- compute -------------------------------------------------------------

    def root_compute(self, name: str, seconds: float, root: int = 0) -> None:
        """Serial work on the root that everyone then waits for."""
        self.timeline.add_root(name, seconds, root=root)

    def compute(self, name: str, per_rank_seconds: np.ndarray) -> None:
        """Independent per-rank work (e.g. each aggregator's BAT build)."""
        self.timeline.add_per_rank(name, per_rank_seconds)

    # -- point-to-point -------------------------------------------------------

    def p2p(self, name: str, messages: list[Message]) -> None:
        if self.network_model == "event":
            from .eventsim import simulate_transfers

            new = simulate_transfers(messages, self.timeline.clocks, self.machine.network)
        else:
            new = transfer_phase(messages, self.timeline.clocks, self.machine.network)
        self.timeline.record(name, new)

    # -- filesystem ------------------------------------------------------------

    def write_independent(self, name: str, sizes_per_rank: np.ndarray, creates: int = 1) -> None:
        dur = self._fs.independent_write(np.asarray(sizes_per_rank, dtype=np.float64), creates)
        self.timeline.add_per_rank(name, dur)

    def read_independent(self, name: str, sizes_per_rank: np.ndarray, opens: int = 1) -> None:
        dur = self._fs.independent_read(np.asarray(sizes_per_rank, dtype=np.float64), opens)
        self.timeline.add_per_rank(name, dur)

    def retry_writes(self, name: str, extra_sizes_per_rank: np.ndarray, attempts: int = 1) -> None:
        """Charge re-publish attempts for damaged writes (fault injection)."""
        dur = self._fs.retry_write(
            np.asarray(extra_sizes_per_rank, dtype=np.float64), attempts
        )
        self.timeline.add_per_rank(name, dur)

    def write_shared(self, name: str, total_bytes: float, meta_factor: float = 1.0) -> None:
        self.timeline.synchronize()
        t = self._fs.shared_write(total_bytes, self.nranks, meta_factor)
        self.timeline.add_uniform(name, t)

    def read_shared(self, name: str, total_bytes: float, meta_factor: float = 1.0) -> None:
        self.timeline.synchronize()
        t = self._fs.shared_read(total_bytes, self.nranks, meta_factor)
        self.timeline.add_uniform(name, t)

    def root_small_write(self, name: str, nbytes: float, root: int = 0) -> None:
        self.timeline.add_root(name, self._fs.small_write(nbytes), root=root)

    def all_small_read(self, name: str, nbytes: float) -> None:
        self.timeline.synchronize()
        self.timeline.add_uniform(name, self._fs.small_read_all(nbytes, self.nranks))
