#!/usr/bin/env python3
"""Render the twelve generic max-plus lines.

A line is the solution set of max(a+u, b+v, c) = max(a'+u, b'+v, c') with
each of the three coefficients assigned to the left side (+), the right
side (-), or both (.).  With all three coefficients real there are twelve
generic sign patterns: six with both plain signs present, six with one
dotted coefficient and the other two on opposite sides.  One SVG per
pattern lands in --outdir.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py: pure Python, imports no idemod)

from idemod import RMAX, fin  # noqa: E402
from idemod.render import LineSpec, Scene, render_scene  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/lines")
    ap.add_argument("--samples", type=int, default=120)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    a, b, c = fin(RMAX, 0), fin(RMAX, 0), fin(RMAX, 1)
    patterns = list(inputs.generic_line_patterns())
    assert len(patterns) == 12
    for idx, tags in enumerate(patterns, start=1):
        spec = LineSpec((tags[0], a), (tags[1], b), (tags[2], c))
        scene = Scene(viewport=(-4, 4, -4, 4), samples=args.samples, lines=[spec])
        svg, _ = render_scene(scene)
        safe = "".join({"+": "p", "-": "m", ".": "d"}[t] for t in tags)
        name = f"line_{idx:02d}_{safe}.svg"
        (outdir / name).write_text(svg, encoding="utf-8")
        print("wrote", outdir / name)


if __name__ == "__main__":
    main()
