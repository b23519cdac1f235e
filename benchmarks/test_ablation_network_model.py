"""Ablation: phase-level vs discrete-event network models.

The scaling sweeps use the closed-form phase model (O(messages)); the
discrete-event simulator (max-min fair sharing, O(events x NICs)) is the
fidelity reference. This ablation checks where they agree — synchronized
aggregation patterns, where the phase model's assumptions hold — and
quantifies where they diverge: imbalanced patterns with staggered
completions, where the event model credits early finishers the bandwidth
the phase model charges them.
"""

import numpy as np
import pytest

from benchmarks.paper import format_table
from conftest import MB, emit
from repro.core import AggTreeConfig, TwoPhaseWriter
from repro.machines import stampede2
from repro.workloads import CoalBoiler, uniform_rank_data


def _write_elapsed(data, target, model):
    writer = TwoPhaseWriter(
        stampede2(), target_size=target,
        agg_config=AggTreeConfig(target_size=target, overfull_cost_ratio=4.0, overfull_factor=1.5),
    )
    # re-plumb the cluster with the requested network model by monkeying
    # the pipeline would be invasive; instead run the transfer phase both
    # ways on the plan's message pattern.
    from repro.simmpi import Message
    from repro.simmpi.eventsim import simulate_transfers
    from repro.simmpi.network import transfer_phase

    plan = writer.build_plan(data)
    from repro.core.assign import assign_write_aggregators

    aggs = assign_write_aggregators(len(plan.leaves), data.nranks)
    msgs = []
    for leaf, agg in zip(plan.leaves, aggs):
        for r in leaf.rank_ids:
            c = int(data.counts[r])
            if c:
                msgs.append(Message(int(r), int(agg), c * data.bytes_per_particle))
    clocks = np.zeros(data.nranks)
    if model == "event":
        out = simulate_transfers(msgs, clocks, stampede2().network)
    else:
        out = transfer_phase(msgs, clocks, stampede2().network)
    return float(out.max()), len(msgs)


@pytest.mark.parametrize("target_mb", [8, 64])
def test_models_agree_on_uniform_aggregation(target_mb):
    """Synchronized, balanced transfers: the models should agree closely."""

    data = uniform_rank_data(384)
    phase_t, n = _write_elapsed(data, target_mb * MB, "phase")
    event_t, _ = _write_elapsed(data, target_mb * MB, "event")
    emit(
        f"uniform 384 ranks, {target_mb}MB target ({n} messages): "
        f"phase {phase_t * 1e3:.2f} ms vs event {event_t * 1e3:.2f} ms "
        f"(ratio {event_t / phase_t:.2f})"
    )
    assert event_t == pytest.approx(phase_t, rel=0.35)


def test_event_model_credits_imbalanced_patterns():
    """On the clustered boiler the per-aggregator loads differ wildly; the
    event model lets lightly loaded NICs finish early and is never slower
    than the phase model's conservative estimate."""

    data = CoalBoiler().rank_data(1501, 384, sample_size=150_000)
    phase_t, n = _write_elapsed(data, 8 * MB, "phase")
    event_t, _ = _write_elapsed(data, 8 * MB, "event")
    emit(
        format_table(
            ["model", "transfer ms", "messages"],
            [["phase", f"{phase_t * 1e3:.2f}", n], ["event", f"{event_t * 1e3:.2f}", n]],
            title="Network-model ablation: Coal Boiler aggregation transfer",
        )
    )
    assert event_t <= phase_t * 1.1
