"""LogP-style cost models for the collectives the pipelines use.

The write pipeline uses a gather of (bounds, count) tuples to rank 0, a
scatter of aggregator assignments, and a final gather of root bitmaps
(§III-A, §III-D). The read pipeline ends with a nonblocking barrier
(§IV-B). All are modeled with standard binomial-tree formulas: ``log2(P)``
latency steps plus a bandwidth term at the root for rooted collectives.
"""

from __future__ import annotations

import math

from .network import NetworkSpec

__all__ = [
    "gather_time",
    "scatter_time",
    "bcast_time",
    "barrier_time",
    "reduce_time",
]


def _log2p(nranks: int) -> float:
    return math.log2(nranks) if nranks > 1 else 0.0


def gather_time(nranks: int, bytes_per_rank: float, spec: NetworkSpec) -> float:
    """Gather of ``bytes_per_rank`` from every rank to the root.

    A binomial-tree gather forwards progressively larger payloads; the root
    ultimately ingests the full ``P * m`` bytes, which dominates for the
    small-message gathers in the pipeline.
    """
    total = nranks * bytes_per_rank
    return _log2p(nranks) * spec.latency + total / spec.node_bw


def scatter_time(nranks: int, bytes_per_rank: float, spec: NetworkSpec) -> float:
    """Scatter from the root; symmetric to gather."""
    return gather_time(nranks, bytes_per_rank, spec)


def bcast_time(nranks: int, nbytes: float, spec: NetworkSpec) -> float:
    """Binomial-tree broadcast of ``nbytes`` to every rank."""
    return _log2p(nranks) * (spec.latency + nbytes / spec.node_bw)


def reduce_time(nranks: int, nbytes: float, spec: NetworkSpec) -> float:
    """Binomial-tree reduction of an ``nbytes`` payload."""
    return bcast_time(nranks, nbytes, spec)


def barrier_time(nranks: int, spec: NetworkSpec) -> float:
    """Dissemination barrier: ``ceil(log2 P)`` latency rounds."""
    if nranks <= 1:
        return 0.0
    return math.ceil(math.log2(nranks)) * spec.latency
