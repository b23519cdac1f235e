"""Deterministic fault injection for the two-phase write path.

The injector models the failure modes a layout-reorganizing writer meets
at scale: torn writes and bit flips on the way to storage, dropped or
duplicated aggregator messages on the interconnect, and aggregators dying
between receiving particles and writing their files.

Two properties make the injected runs usable in benchmarks and CI:

- **Determinism.** Every fault decision derives from ``FaultConfig.seed``
  and a stable index (leaf index, message index, rank id) through its own
  :class:`numpy.random.Generator` stream — never from shared mutable RNG
  state — so per-leaf write plans are plain tuples computed up front on
  rank 0, no thread's schedule can reorder them, and a faulted run is
  exactly reproducible.
- **Recovery is observable, not assumed.** Write faults damage specific
  publish *attempts*; the read-back verification in
  :func:`repro.atomic.publish_bytes` catches them before the rename, so a
  faulted run must publish byte-identical files to a fault-free run or the
  benchmark's hash cross-check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultConfig", "FaultInjector", "FaultReport"]

# stream labels keeping each fault family's random sequence independent
_STREAM_WRITE = 7919
_STREAM_MESSAGE = 104729
_STREAM_DEATH = 1299709


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities and bounds of the injected faults.

    All probabilities are per event (write attempt, message, aggregator
    rank) in ``[0, 1]``; the default config injects nothing.
    """

    seed: int = 0
    #: probability a write attempt is torn (truncated mid-payload)
    torn_write: float = 0.0
    #: probability a write attempt lands with a flipped byte
    bit_flip: float = 0.0
    #: probability an aggregator-bound message is dropped (and retransmitted)
    drop_message: float = 0.0
    #: probability an aggregator-bound message arrives twice
    duplicate_message: float = 0.0
    #: probability each aggregator rank dies before building its files
    aggregator_death: float = 0.0
    #: bounded retry: attempts per leaf-file publish. The final attempt is
    #: never faulted, so a bounded retry always recovers.
    max_write_attempts: int = 4

    def __post_init__(self) -> None:
        for name in ("torn_write", "bit_flip", "drop_message",
                     "duplicate_message", "aggregator_death"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.drop_message + self.duplicate_message > 1.0:
            raise ValueError("drop_message + duplicate_message must be <= 1")
        if self.max_write_attempts < 1:
            raise ValueError("max_write_attempts must be >= 1")

    @property
    def any_enabled(self) -> bool:
        return any(
            getattr(self, n) > 0.0
            for n in ("torn_write", "bit_flip", "drop_message",
                      "duplicate_message", "aggregator_death")
        )


@dataclass
class FaultReport:
    """What one faulted write actually injected and recovered from."""

    injected_torn: int = 0
    injected_bit_flips: int = 0
    dropped_messages: int = 0
    duplicated_messages: int = 0
    dead_aggregators: list[int] = field(default_factory=list)
    reassigned_leaves: int = 0
    #: total publish attempts across all leaf files
    write_attempts: int = 0
    #: leaf files that needed more than one attempt
    retried_writes: int = 0

    @property
    def total_injected(self) -> int:
        return (
            self.injected_torn
            + self.injected_bit_flips
            + self.dropped_messages
            + self.duplicated_messages
            + len(self.dead_aggregators)
        )

    def to_doc(self) -> dict:
        return {
            "injected_torn": self.injected_torn,
            "injected_bit_flips": self.injected_bit_flips,
            "dropped_messages": self.dropped_messages,
            "duplicated_messages": self.duplicated_messages,
            "dead_aggregators": list(self.dead_aggregators),
            "reassigned_leaves": self.reassigned_leaves,
            "write_attempts": self.write_attempts,
            "retried_writes": self.retried_writes,
            "total_injected": self.total_injected,
        }


class FaultInjector:
    """Stateless fault planner over a :class:`FaultConfig`."""

    def __init__(self, config: FaultConfig):
        self.config = config

    # -- write faults -----------------------------------------------------

    def plan_leaf_write(self, leaf_index: int) -> tuple:
        """Fault plan for one leaf file's publish attempts.

        Returns a tuple of ``("torn"|"bitflip", fraction)`` entries, one per
        *damaged* attempt; the attempt after the last entry is clean. The
        plan is a pure function of ``(seed, leaf_index)``, so rank 0
        computes every plan up front and the leaf tasks replay them
        identically in whatever order the writer's threads run them.
        """
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, _STREAM_WRITE, leaf_index])
        plan = []
        for _ in range(cfg.max_write_attempts - 1):  # the last attempt stays clean
            u = rng.random()
            if u < cfg.torn_write:
                plan.append(("torn", float(rng.random())))
            elif u < cfg.torn_write + cfg.bit_flip:
                plan.append(("bitflip", float(rng.random())))
            else:
                break
        return tuple(plan)

    # -- message faults ---------------------------------------------------

    def perturb_messages(self, messages):
        """Split the aggregator transfer into delivered + retransmitted.

        Returns ``(timing_messages, retransmits, dropped, duplicated)``.
        A dropped message still costs its first (lost) transmission and is
        retransmitted in a follow-up phase; a duplicated message costs the
        wire twice. Only *timing* is affected — the functional data path
        concatenates member batches directly, so correctness is preserved
        and the hash cross-checks stay meaningful.
        """
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, _STREAM_MESSAGE])
        timing = []
        retransmits = []
        dropped = duplicated = 0
        for m in messages:
            u = rng.random()
            timing.append(m)
            if u < cfg.drop_message:
                dropped += 1
                retransmits.append(m)
            elif u < cfg.drop_message + cfg.duplicate_message:
                duplicated += 1
                timing.append(m)
        return timing, retransmits, dropped, duplicated

    # -- aggregator death -------------------------------------------------

    def sample_dead_aggregators(self, aggregator_ranks) -> list[int]:
        """Which aggregator ranks die before building; at least one survives."""
        cfg = self.config
        unique = sorted(set(int(r) for r in aggregator_ranks))
        rng = np.random.default_rng([cfg.seed, _STREAM_DEATH])
        dead = [r for r in unique if rng.random() < cfg.aggregator_death]
        if len(dead) >= len(unique) and dead:
            dead = dead[:-1]
        return dead
