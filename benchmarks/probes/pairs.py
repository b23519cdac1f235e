"""The pair driver every probe in this directory runs on.

    python benchmarks/probes/<probe>.py PARENT_ROOT CHANGE_ROOT \
        [pairs=10] [seeds=...] [mode=...]

Run from any directory; no ``PYTHONPATH``. Each root is a checkout of
this repository. A probe is one function, ``side(seed)`` (or ``side(seed,
mode)`` for a probe with modes), that sets up and measures one side in a
fresh process and returns::

    {"ops": [{"op": name, ...}, ...], "rows": {row name: number, ...}}

or ``{"error": message}`` when it finds a difference within itself.

Per seed and pair, each side runs in its own subprocess of the probe's
script with ``PYTHONPATH`` set to ``ROOT/src`` and the
``benchmarks/baseline`` next to this file, so ``repro`` (also in the
processes a side spawns) comes from that side's checkout and the inputs
and workloads from this one; the order is flipped every pair. Every
side's ``ops`` must equal the first parent run's, the ops being whatever
the probe pins (batch sha256 from :func:`digest`, counters, windows):
the driver exits 1 at the first op that differs, naming the seed, pair,
side and op, before any number is printed. Then it prints, per row, the
parent's median and quartiles, the change's median, their ratio, the
pairs the change was lower and higher in (W/L, ties count for neither)
and a verdict: ``better`` (``worse``) when the change is lower (higher)
in at least 9 of 10 of at least ten pairs and the medians differ by more
than the parent's interquartile spread, else ``unresolved``. Lower reads
as better on every row.

``. .`` (one checkout against itself) with ``pairs=1`` is each probe's
smoke run: it checks the identity and prints the rows, every verdict
``unresolved``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / "baseline"
ORDERS = (("parent", "change"), ("change", "parent"))
#: fewest pairs a verdict is given on, and the share of them to win
MIN_PAIRS, WIN_SHARE = 10, 0.9


def digest(batch, *arrays) -> str:
    """sha256 of ``arrays`` (``None`` hashes as ``-``), then of a batch's
    rows: its length, positions and attributes with their dtypes."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(b"-" if arr is None else arr.dtype.str.encode() + arr.tobytes())
    h.update(str(len(batch)).encode())
    if batch.positions is not None:
        h.update(batch.positions.dtype.str.encode() + batch.positions.tobytes())
    for name in sorted(batch.attributes):
        col = batch.attributes[name]
        h.update(name.encode() + col.dtype.str.encode() + col.tobytes())
    return h.hexdigest()


def first_difference(want: list[dict], got: list[dict]) -> str | None:
    """Where ``got`` first differs from ``want``: the op and its fields."""
    if len(want) != len(got):
        return f"{len(want)} vs {len(got)} ops"
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            fields = []
            for k in sorted(a.keys() | b.keys()):
                x, y = a.get(k), b.get(k)
                if isinstance(x, dict) and isinstance(y, dict):
                    k += f" {[f for f in x if x[f] != y.get(f)]}"
                if x != y:
                    fields.append(k)
            return f"op {i} ({a.get('op')}): {', '.join(fields)} differ"
    return None


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def wins_losses(parent: list[float], change: list[float]) -> tuple[int, int]:
    """Pairs the change read lower and higher in; ties count for neither."""
    return sum(c < p for p, c in zip(parent, change)), sum(c > p for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float]) -> str:
    """The change against the parent, pair by pair; lower is better."""
    wins, losses = wins_losses(parent, change)
    q1, q3 = quartiles(parent)
    beyond = abs(statistics.median(change) - statistics.median(parent)) > q3 - q1
    if len(parent) < MIN_PAIRS or not beyond:
        return "unresolved"
    if wins >= WIN_SHARE * len(parent):
        return "better"
    if losses >= WIN_SHARE * len(parent):
        return "worse"
    return "unresolved"


def fmt(x: float) -> str:
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def report(runs: dict[str, list[dict]]) -> list[str]:
    """One line per row: parent median [quartiles], change median, ratio,
    W/L and verdict."""
    names = dict.fromkeys(k for r in runs["parent"] + runs["change"] for k in r["rows"])
    width = max(map(len, names), default=0)
    lines = []
    for name in names:
        a, b = ([r["rows"].get(name, float("nan")) for r in runs[label]]
                for label in ("parent", "change"))
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        lines.append(
            f"  {name:{width}s}  parent {fmt(ma)} [{fmt(q1)}, {fmt(q3)}]  change {fmt(mb)}  "
            f"ratio {f'{mb / ma:.3f}' if ma else '-'}  "
            "W/L {}/{}  ".format(*wins_losses(a, b)) + verdict(a, b)
        )
    return lines


def drive(run_side, seeds: list[int], pairs: int) -> int:
    """Run ``run_side(label, seed)`` for both sides of every pair, order
    flipped each pair; check every side's ops against the first parent
    run's and print each seed's rows. Returns the exit code."""
    for seed in seeds:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for p in range(pairs):
            for label in ORDERS[p % 2]:
                got = run_side(label, seed)
                bad = got.get("error") or first_difference(
                    (runs["parent"] or [got])[0]["ops"], got["ops"])
                if bad:
                    print(f"seed {seed} pair {p} {label}: {bad}")
                    return 1
                runs[label].append(got)
        n_ops = len(runs["parent"][0]["ops"])
        print(f"seed {seed}, {pairs} pair(s): {n_ops} ops identical on both sides")
        for line in report(runs):
            print(line)
    return 0


def main(side, argv: list[str], *, seeds: str, modes: tuple[str, ...] = ()) -> int:
    """A probe's command line, ``PARENT CHANGE [pairs=] [seeds=] [mode=]``,
    for the probe whose script defines ``side``; in one side's subprocess,
    ``--side SEED [MODE]``. ``modes[0]`` is the default ``mode=``; a probe
    without modes takes none and its ``side`` only the seed."""
    if argv[:1] == ["--side"]:
        print(json.dumps(side(int(argv[1]), *argv[2:])))
        return 0
    opts = dict(a.split("=", 1) for a in argv[2:] if "=" in a)
    known = {"pairs", "seeds", "mode"} if modes else {"pairs", "seeds"}
    if len(argv) < 2 or len(opts) != len(argv) - 2 or opts.keys() - known:
        print(sys.modules[side.__module__].__doc__)
        return 2
    mode = opts.get("mode", modes[0] if modes else "")
    if modes and mode not in modes:
        print(f"mode must be one of {', '.join(modes)}, not {mode!r}")
        return 2
    pairs = int(opts.get("pairs", 10))
    if pairs < 1:
        print("pairs must be at least 1")
        return 2
    roots = {"parent": argv[0], "change": argv[1]}

    def run_side(label: str, seed: int) -> dict:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(roots[label], "src").resolve()), str(BASELINE)]))
        cmd = [sys.executable, side.__code__.co_filename, "--side", str(seed)]
        proc = subprocess.run(cmd + [mode] * bool(mode), stdout=subprocess.PIPE, text=True, env=env)
        if proc.returncode:
            return {"error": f"side exited with {proc.returncode}"}
        return json.loads(proc.stdout.splitlines()[-1])

    if mode:
        print(f"mode {mode}")
    return drive(run_side, [int(s) for s in opts.get("seeds", seeds).split(",")], pairs)
