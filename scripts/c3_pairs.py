#!/usr/bin/env python3
"""Time two source trees in alternating pairs: acceptance criterion C3, a
fresh import of the package and its CLI, or one render.

C3 runs the ``residuation`` law suite at 10^4 trials with seed 20260808
(``tests/test_acceptance.py``) under a 10 s budget; the ``import`` child
times ``import idemod, idemod.cli`` in an interpreter that has imported
neither; the ``render`` child times one ``render_scene`` of the README scene
(``perfbench/scenes/readme.json``, 400 samples per axis) in an interpreter
that has rendered nothing, as a one-shot ``idemod render`` does.  Each run
starts a fresh interpreter whose ``PYTHONPATH`` is a
copy of one tree's package, made once in a temporary directory, and times
the work there.  With ``--bytecode on`` (the default) each copy is run once
untimed first, so every timed run reads written bytecode; with ``off``
nothing is written and every run compiles the package again, as a fresh
checkout under ``PYTHONDONTWRITEBYTECODE`` does.  Pair i runs SRC_A first
when i is even and SRC_B first when it is odd, so a machine that slows down
or speeds up during the runs weighs on both trees alike.  The script prints
each pair's times, both medians and how many pairs each tree won:

    python3 scripts/c3_pairs.py ../parent/src src --pairs 10
    python3 scripts/c3_pairs.py ../parent/src src --child import --pairs 40
    python3 scripts/c3_pairs.py ../parent/src src --child render --pairs 20

It exits 1 when a run fails its laws or imports idemod from elsewhere.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

C3 = """
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

IMPORT = """
import time
t0 = time.perf_counter()
import idemod, idemod.cli
elapsed = time.perf_counter() - t0
print(idemod.__file__)
print(elapsed)
"""

README_SCENE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "scenes" / "readme.json"

RENDER = f"""
import json, time
import idemod
from idemod.render import render_scene, scene_from_json
with open({str(README_SCENE)!r}, encoding="utf-8") as fh:
    scene = scene_from_json(json.load(fh))
t0 = time.perf_counter()
render_scene(scene)
elapsed = time.perf_counter() - t0
print(idemod.__file__)
print(elapsed)
"""

# child -> (source, unit, seconds per unit, decimals shown)
CHILDREN = {
    "c3": (C3, "s", 1, 2),
    "import": (IMPORT, "ms", 1e-3, 1),
    "render": (RENDER, "ms", 1e-3, 2),
}


def child_seconds(child: str, src: pathlib.Path, bytecode: bool) -> float:
    """One run of ``child`` in a fresh interpreter on the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILDREN[child][0]], env=env,
                          capture_output=True, text=True)
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
    ap.add_argument("--child", choices=sorted(CHILDREN), default="c3", help="what each run times")
    ap.add_argument("--bytecode", choices=("on", "off"), default="on",
                    help="whether the runs read written bytecode of the package")
    args = ap.parse_args()
    sources = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    for name, src in sources.items():
        if not (src / "idemod" / "__init__.py").is_file():
            ap.error(f"{name}: no idemod package in {src}")
    _, unit, scale, digits = CHILDREN[args.child]
    bytecode = args.bytecode == "on"
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for name, src in sources.items():
            trees[name] = pathlib.Path(tmp, name)
            shutil.copytree(src / "idemod", trees[name] / "idemod",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if bytecode:
                child_seconds(args.child, trees[name], bytecode)  # writes the bytecode
        times: dict[str, list[float]] = {"A": [], "B": []}
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                times[name].append(child_seconds(args.child, trees[name], bytecode) / scale)
            a, b = times["A"][-1], times["B"][-1]
            print(f"pair {i + 1} ({order[0]} first): A {a:.{digits}f} {unit}, B {b:.{digits}f} {unit}",
                  flush=True)
    med = {name: statistics.median(ts) for name, ts in times.items()}
    a_wins = sum(a < b for a, b in zip(times["A"], times["B"]))
    b_wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"median: A {med['A']:.{digits}f} {unit}, B {med['B']:.{digits}f} {unit} "
          f"({med['B'] / med['A'] - 1:+.1%})")
    print(f"faster: A in {a_wins}, B in {b_wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
