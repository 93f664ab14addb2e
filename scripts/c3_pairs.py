#!/usr/bin/env python3
"""Time acceptance criterion C3 on two source trees in alternating pairs.

C3 runs the ``residuation`` law suite at 10^4 trials with seed 20260808
(``tests/test_acceptance.py``) under a 10 s budget.  Each run here starts a
fresh interpreter whose ``PYTHONPATH`` is one tree's source directory and
times ``run_suite`` there as the test does.  Pair i runs SRC_A first when i
is even and SRC_B first when it is odd, so a machine that slows down or
speeds up during the runs weighs on both trees alike.  The script prints
each pair's seconds, both medians and how many pairs each tree won:

    python3 scripts/c3_pairs.py ../parent/src src --pairs 10

It exits 1 when a run fails its laws or imports idemod from elsewhere.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys

CHILD = """
import sys, time
import idemod
from idemod.laws import run_suite
t0 = time.monotonic()
rep = run_suite("residuation", seed=20260808, trials=10_000)
elapsed = time.monotonic() - t0
if not rep.ok:
    sys.exit(f"C3 failed: {rep.failures!r}")
print(idemod.__file__)
print(elapsed)
"""


def c3_seconds(src: pathlib.Path) -> float:
    """One standalone C3 run on the tree whose package lies in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {proc.stderr.strip()}")
    where, seconds = proc.stdout.split()
    if not pathlib.Path(where).resolve().is_relative_to(src):
        raise SystemExit(f"{src}: imported idemod from {where}")
    return float(seconds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src_a", type=pathlib.Path, help="source directory of tree A (holds idemod/)")
    ap.add_argument("src_b", type=pathlib.Path, help="source directory of tree B")
    ap.add_argument("--pairs", type=int, default=10, help="number of alternating pairs")
    args = ap.parse_args()
    trees = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    for name, src in trees.items():
        if not (src / "idemod" / "__init__.py").is_file():
            ap.error(f"{name}: no idemod package in {src}")
    times: dict[str, list[float]] = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            times[name].append(c3_seconds(trees[name]))
        a, b = times["A"][-1], times["B"][-1]
        print(f"pair {i + 1} ({order[0]} first): A {a:.2f} s, B {b:.2f} s", flush=True)
    med = {name: statistics.median(ts) for name, ts in times.items()}
    a_wins = sum(a < b for a, b in zip(times["A"], times["B"]))
    b_wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"median: A {med['A']:.2f} s, B {med['B']:.2f} s ({med['B'] / med['A'] - 1:+.1%})")
    print(f"faster: A in {a_wins}, B in {b_wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
