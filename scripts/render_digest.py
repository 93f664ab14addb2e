#!/usr/bin/env python3
"""Digest the SVGs that ``idemod.render`` draws for a fixed set of scenes.

Each scene is rendered in this process, and the script prints one line
``name samples sha256`` per scene (the sha256 of its SVG and of its point
classification), then one ``all:`` digest over those lines.  Two trees draw
the same pictures when they print the same lines.  The scenes:

- the README scene at 64, 400 and 2048 samples per axis;
- the twelve generic lines of ``scripts/render_generic_lines.py`` at 400
  and at 401;
- the generic line with tags +, -, + and each coefficient in turn -inf or
  +inf, at 401.  With the twelve at 401 these are the 18 lines of the
  call-count test in ``tests/test_render.py``: at 401 on [-4, 4], the row
  v = c - b and every breakpoint of a line row fall on samples;
- the C10 and C11 scenes of ``tests/test_acceptance.py``;
- 20 seeded random scenes within every cap of ``render.scene_from_json``,
  with fraction, large-integer and infinite entries and labelled points.

    PYTHONPATH=src python3 scripts/render_digest.py
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import inputs  # noqa: E402  (perfbench/inputs.py: pure Python, imports no idemod)
from test_acceptance import c10_scene, c11_scene  # noqa: E402

from idemod.render import MAX_SCENE_ITEMS, render_scene, scene_from_json  # noqa: E402

SEED = 20260808
RANDOM_SCENES = 20


def scalar_text(rng: random.Random) -> str:
    """Mostly small fractions, some large integers and some infinities."""
    roll = rng.random()
    if roll < 0.06:
        return rng.choice(["-inf", "+inf"])
    if roll < 0.1:
        return str(rng.choice([-1, 1]) * rng.randrange(10**20, 10**30))
    den = rng.choice([1, 1, 2, 3, 4, 5, 7, 12])
    return f"{rng.randrange(-6 * den, 6 * den + 1)}/{den}"


def random_scene(rng: random.Random) -> dict:
    """A scene that every cap admits: each list short, samples at most 160."""
    lo_x, lo_y = (rng.randrange(-24, 0) for _ in range(2))
    width = rng.randrange(4, 24)

    def pair() -> list:
        return [scalar_text(rng), scalar_text(rng)]

    def items(most: int) -> range:
        return range(rng.randrange(most + 1))

    return {
        "viewport": [f"{lo_x}/4", f"{lo_x + width}/4", f"{lo_y}/3", f"{lo_y + width}/3"],
        "samples_per_axis": rng.randrange(16, 161),
        "generators": [pair() for _ in items(MAX_SCENE_ITEMS)],
        "points": [{"label": f"P{i}", "coords": pair()} for i in items(4)]
        + [{"label": "far", "coords": [str(10**400), "0"]}],
        "halfspaces": [{"x_ref": pair(), "y": pair(), "nu": scalar_text(rng)} for _ in items(4)],
        "lines": [{k: [rng.choice("+-."), scalar_text(rng)] for k in "abc"} for _ in items(3)],
    }


def scenes():
    """(name, scene) in a fixed order."""
    readme = json.loads(inputs.README_SCENE.read_text(encoding="utf-8"))
    for samples in (64, 400, 2048):
        yield "readme", scene_from_json(dict(readme, samples_per_axis=samples))
    for samples in (400, 401):
        for idx, tags in enumerate(inputs.generic_line_patterns(), start=1):
            safe = "".join({"+": "p", "-": "m", ".": "d"}[t] for t in tags)
            line = dict(inputs.line_scene(tags), samples_per_axis=samples)
            yield f"line_{idx:02d}_{safe}", scene_from_json(line)
    for k in "abc":
        for inf in ("-inf", "+inf"):
            line = dict(inputs.line_scene("+-+"), samples_per_axis=401)
            line["lines"][0][k][1] = inf
            yield f"line_pmp_{k}{inf}", scene_from_json(line)
    yield "c10", c10_scene()
    yield "c11", c11_scene()
    rng = random.Random(SEED)
    for i in range(RANDOM_SCENES):
        yield f"random_{i:02d}", scene_from_json(random_scene(rng))


def main() -> int:
    overall = hashlib.sha256()
    for name, scene in scenes():
        svg, classification = render_scene(scene)
        h = hashlib.sha256(svg.encode("utf-8"))
        h.update(json.dumps(classification, sort_keys=True).encode("utf-8"))
        line = f"{name} {scene.samples} {h.hexdigest()}"
        overall.update(line.encode("utf-8") + b"\n")
        print(line)
    print(f"all: {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
