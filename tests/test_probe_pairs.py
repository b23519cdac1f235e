"""The probes' pair driver (``benchmarks/probes/pairs.py``), on a fake side.

No subprocess runs: ``drive`` takes the function that runs one side.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "probes" / "pairs.py"
_spec = importlib.util.spec_from_file_location("probe_pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

OPS = [{"op": "box", "batch": "aa", "stats": {"nodes": 3, "points": 9}},
       {"op": "lod", "batch": "bb", "stats": {"nodes": 1, "points": 2}}]


def fake_side(calls, bad_at=None, bad_op=None):
    """A side whose ops equal ``OPS`` except, at call index ``bad_at``,
    ``bad_op(ops)`` edits them."""
    def run_side(label, seed):
        ops = [dict(op, stats=dict(op["stats"])) for op in OPS]
        if len(calls) == bad_at:
            bad_op(ops)
        calls.append((label, seed))
        return {"ops": ops, "rows": {"ms": 1.0 if label == "parent" else 0.9}}
    return run_side


def test_order_flips_every_pair(capsys):
    calls = []
    assert pairs.drive(fake_side(calls), seeds=[0, 1], pairs=3) == 0
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(label, seed) for seed in (0, 1) for label in order]
    out = capsys.readouterr().out
    assert "seed 1, 3 pair(s): 2 ops identical on both sides" in out
    assert "W/L 3/0" in out


def test_a_differing_op_exits_1_naming_seed_pair_side_and_op(capsys):
    def edit(ops):
        ops[1]["stats"]["points"] = 3

    calls = []
    # call 2 is pair 1's first side, the change: its op 1 differs
    assert pairs.drive(fake_side(calls, bad_at=2, bad_op=edit), seeds=[5], pairs=3) == 1
    assert len(calls) == 3  # nothing runs after the difference
    out = capsys.readouterr().out
    assert out.strip() == "seed 5 pair 1 change: op 1 (lod): stats ['points'] differ"


def test_a_parent_run_is_checked_against_the_first_one(capsys):
    def edit(ops):
        ops[0]["batch"] = "zz"

    # call 3 is pair 1's second side, the parent
    assert pairs.drive(fake_side([], bad_at=3, bad_op=edit), seeds=[0], pairs=2) == 1
    assert capsys.readouterr().out.strip() == "seed 0 pair 1 parent: op 0 (box): batch differ"


def test_a_side_that_reports_an_error_exits_1(capsys):
    def run_side(label, seed):
        return {"error": "request and stream differ"}

    assert pairs.drive(run_side, seeds=[2], pairs=1) == 1
    assert capsys.readouterr().out.strip() == "seed 2 pair 0 parent: request and stream differ"


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # quartiles 9.925, 10.1


def lower_in(n_lower, n_tied=0, by=1.0):
    """The change: ``by`` lower than the parent in the first ``n_lower``
    pairs, equal in the next ``n_tied``, ``by`` higher in the rest."""
    return [p - by if i < n_lower else p if i < n_lower + n_tied else p + by
            for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("change, expected", [
    (lower_in(10), "better"),
    (lower_in(9), "better"),
    (lower_in(8), "unresolved"),
    (lower_in(9, n_tied=1), "better"),
    (lower_in(8, n_tied=2), "unresolved"),  # ties are not wins
    (lower_in(0), "worse"),
    (lower_in(1), "worse"),
    (lower_in(2), "unresolved"),
    (lower_in(1, n_tied=1), "unresolved"),  # ties are not losses
    (lower_in(10, by=0.1), "unresolved"),  # inside the parent's spread
])
def test_verdict(change, expected):
    assert pairs.verdict(PARENT, change) == expected


def test_no_verdict_on_fewer_than_ten_pairs():
    assert pairs.verdict(PARENT[:9], [p - 1 for p in PARENT[:9]]) == "unresolved"


def test_report_prints_the_parent_quartiles():
    runs = {label: [{"rows": {"ms": p - (label == "change")}} for p in PARENT]
            for label in ("parent", "change")}
    (line,) = pairs.report(runs)
    assert line.split() == ["ms", "parent", "10", "[9.925,", "10.1]", "change", "9",
                            "ratio", "0.900", "W/L", "10/0", "better"]
