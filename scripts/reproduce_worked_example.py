#!/usr/bin/env python3
"""Reproduce the planar worked example end to end and render the figure.

Projects M = (-1, 0) onto the max-plus convex hull of A = (0, 0),
B = (1, 3), C = (3, 4): first onto the lifted cone (point N), then back to
the plane by normalisation (point P), and derives the separating
half-space.  Writes worked_example.svg and worked_example.json next to
--outdir (default ./out).
"""
import argparse
import pathlib

from idemod import (
    RMAX,
    family,
    halfspace,
    hilbert_distance,
    lift,
    lift_family,
    project,
    scalar_to_text,
    separate_from_convex,
    vector,
)
from idemod.jsonio import canonical_dumps, scalar_json, vector_json
from idemod.render import Scene, render_scene


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--samples", type=int, default=160)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    hull = family(RMAX, [[0, 0], [1, 3], [3, 4]])
    m = vector(RMAX, [-1, 0])

    m_lifted = lift(m)
    n_point = project(lift_family(hull), m_lifted).projection
    print("N = P_V(M, e) =", [scalar_to_text(s) for s in n_point.entries])

    sep = separate_from_convex(hull, m)
    print("nu =", scalar_to_text(sep.nu), " y =", vector_json(sep.y))
    print("P = y * nu^-1 =", vector_json(sep.normalized))
    print("d_H(M, N) =", scalar_to_text(hilbert_distance(m_lifted, n_point)))

    h = halfspace(hull, m)
    checks = {
        "A": h.contains(vector(RMAX, [0, 0])),
        "B": h.contains(vector(RMAX, [1, 3])),
        "C": h.contains(vector(RMAX, [3, 4])),
        "M": h.contains(m),
    }
    print("half-space contains:", checks)

    scene = Scene(
        viewport=(-3, 6, -3, 6),
        samples=args.samples,
        generators=list(hull.generators),
        points=[
            ("A", vector(RMAX, [0, 0])),
            ("B", vector(RMAX, [1, 3])),
            ("C", vector(RMAX, [3, 4])),
            ("M", m),
        ],
        halfspaces=[h],
    )
    svg, classification = render_scene(scene)
    (outdir / "worked_example.svg").write_text(svg, encoding="utf-8")
    summary = {
        "N": vector_json(n_point),
        "nu": scalar_json(sep.nu),
        "y": vector_json(sep.y),
        "P": vector_json(sep.normalized),
        "halfspace_contains": checks,
        "classification": classification,
    }
    (outdir / "worked_example.json").write_text(canonical_dumps(summary), encoding="utf-8")
    print("wrote", outdir / "worked_example.svg", "and", outdir / "worked_example.json")


if __name__ == "__main__":
    main()
