"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances are zero everywhere: all
arithmetic is exact, and the stated wall-clock budgets are asserted."""
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from idemod import (
    BOOL,
    RMAX,
    CoVector,
    HalfSpace,
    Matrix,
    add,
    bot,
    column_family,
    default_phi,
    family,
    fin,
    inf_dominating,
    is_reflexive,
    leq,
    lsc_convex_hull,
    make_phi,
    matrix,
    fenchel_transform,
    project,
    rowcol_report,
    separate_from_convex,
    halfspace,
    top,
    vec_leq,
    vector,
)
from idemod.cli import main
from idemod.dual import lattice_meet, vec_key
from idemod.laws import oracle_hull, oracle_transform, rand_grid, rand_slopes, run_suite
from idemod.render import MAX_SAMPLES, MAX_SCENE_ITEMS, LineSpec, Scene, render_scene

SEED = 20260808


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"[{tag}] FAIL {description}")
        raise
    print(f"[{tag}] PASS {description}")


def test_criterion_1_worked_example_exact():
    with criterion("C1", "planar worked example reproduced exactly, under 1 s"):
        t0 = time.monotonic()
        w = family(RMAX, [[0, 0, 0], [1, 3, 0], [3, 4, 0]])
        x = vector(RMAX, [-1, 0, 0])
        assert project(w, x).projection == vector(RMAX, [-1, 0, -1])

        hull = family(RMAX, [[0, 0], [1, 3], [3, 4]])
        m = vector(RMAX, [-1, 0])
        sep = separate_from_convex(hull, m)
        assert sep.nu == fin(RMAX, -1)
        assert sep.y == vector(RMAX, [-1, 0])
        assert sep.normalized == vector(RMAX, [0, 1])

        h = halfspace(hull, m)
        assert min(0, 0, 0) > min(0, 0, -1)  # the strict comparison at m
        assert not h.contains(m)
        for g in hull:
            assert h.contains(g)
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_dominating_meet_counterexample():
    with criterion("C2", "meet of dominating span elements escapes the span"):
        a = matrix(RMAX, [[0, -1], [-1, 0], [0, 0]])
        w = column_family(a)
        x = vector(RMAX, [-1, -1, 0])
        q, member = inf_dominating(w, x)
        assert q == vector(RMAX, [-1, -1, 0])
        assert member is False
        p = project(w, x).projection
        assert p == vector(RMAX, [-1, -1, -1])
        assert vec_leq(p, x)


def test_criterion_3_residuation_laws_bulk():
    with criterion("C3", "residuation laws, 10^4 triples per instance, under 10 s"):
        t0 = time.monotonic()
        rep = run_suite("residuation", seed=SEED, trials=10_000)
        elapsed = time.monotonic() - t0
        assert rep.ok, rep.failures
        assert rep.checks >= 4 * 10_000
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_projector_and_separation_bulk():
    with criterion("C4", "projector and convex-separation suites, 10^3 trials"):
        rep = run_suite("projector", seed=SEED, trials=1_000)
        assert rep.ok, rep.failures
        rep = run_suite("separation", seed=SEED, trials=1_000)
        assert rep.ok, rep.failures


def test_criterion_5_hilbert_bulk():
    with criterion("C5", "Hilbert-metric suite, 10^3 trials, 100 span samples each"):
        rep = run_suite("hilbert", seed=SEED, trials=1_000)
        assert rep.ok, rep.failures


def test_criterion_6_duality_bulk():
    with criterion("C6", "duality suites: brackets, reflexivity, Riesz, extension"):
        phi = make_phi(fin(RMAX, 0))
        lams = [fin(RMAX, -5), fin(RMAX, 0), fin(RMAX, 3), bot(RMAX), top(RMAX)]
        assert is_reflexive(phi, lams)
        rep = run_suite("duality", seed=SEED, trials=300)
        assert rep.ok, rep.failures
        rep = run_suite("nmax-reflexive", seed=SEED)
        assert rep.ok, rep.failures
        assert any("expected-fail pinned" in n for n in rep.notes)
        rep = run_suite("matrix-transfer", seed=SEED, trials=100)
        assert rep.ok, rep.failures


def test_criterion_7_rowcol_exhaustive():
    with criterion("C7", "row/column anti-isomorphism for all Boolean m,p <= 3, under 30 s"):
        t0 = time.monotonic()
        phi = default_phi(BOOL)
        eps, e = bot(BOOL), top(BOOL)
        shapes = matrices = 0
        for m, p in itertools.product((1, 2, 3), repeat=2):
            shapes += 1
            for bits in itertools.product((eps, e), repeat=m * p):
                matrices += 1
                a = Matrix(
                    BOOL, tuple(tuple(bits[i * p + j] for j in range(p)) for i in range(m))
                )
                rep = rowcol_report(a, phi)
                assert rep.bijective, a
                assert rep.order_reversing, a
                image = {vec_key(z): v for z, v in rep.iso_pairs}
                cols = list(rep.col_space)
                for z1, v1 in rep.iso_pairs:
                    for z2, v2 in rep.iso_pairs:
                        joined = CoVector(
                            BOOL, tuple(add(s, t) for s, t in zip(z1.entries, z2.entries))
                        )
                        assert image[vec_key(joined)] == lattice_meet(cols, v1, v2), a
        elapsed = time.monotonic() - t0
        assert shapes == 9 and matrices == sum(2 ** (m * p) for m in (1, 2, 3) for p in (1, 2, 3))
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_fenchel_bulk():
    with criterion("C8", "Fenchel suite, 10^3 random grid functions vs oracle"):
        rng = random.Random(SEED)
        for _ in range(1_000):
            f = rand_grid(rng, max_points=41)
            s = rand_slopes(rng, max_slopes=21)
            hull = lsc_convex_hull(f, s)
            assert all(leq(h, v) for h, v in zip(hull.values, f.values))
            assert lsc_convex_hull(hull, s) == hull
            assert list(fenchel_transform(hull, s).values) == list(
                fenchel_transform(f, s).values
            )
            assert list(fenchel_transform(f, s).values) == oracle_transform(f, s)
            assert list(hull.values) == oracle_hull(f, s)
            bumped = type(f)(
                f.points,
                tuple(v if v == bot(RMAX) else add(v, fin(RMAX, 2)) for v in f.values),
            )
            gh = lsc_convex_hull(bumped, s)
            assert all(leq(a, b) for a, b in zip(hull.values, gh.values))


EXPECTED_PROJECT = (
    '{"coefficients":["-1","-3","-4"],"member":false,'
    '"projection":["-1","0","-1"]}\n'
)
EXPECTED_SEPARATE_M = (
    '{"halfspace":{"nu":"-1","x_ref":["-1","0"],"y":["-1","0"]},'
    '"member":false,"normalized":["0","1"],"nu":"-1","y":["-1","0"]}\n'
)
EXPECTED_SEPARATE_B = (
    '{"halfspace":{"nu":"0","x_ref":["1","3"],"y":["1","3"]},'
    '"member":true,"normalized":["1","3"],"nu":"0","y":["1","3"]}\n'
)


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion("C9", "CLI byte-exact outputs, render classification, exit codes"):
        def run(*argv):
            code = main(list(argv))
            out = capsys.readouterr().out
            return code, out

        proj = tmp_path / "project.json"
        proj.write_text(
            json.dumps(
                {
                    "semiring": "rmax",
                    "generators": [["0", "0", "0"], ["1", "3", "0"], ["3", "4", "0"]],
                    "point": ["-1", "0", "0"],
                }
            )
        )
        code, out = run("project", str(proj))
        assert code == 0 and out == EXPECTED_PROJECT

        sep = tmp_path / "separate.json"
        sep.write_text(
            json.dumps(
                {
                    "semiring": "rmax",
                    "convex": [["0", "0"], ["1", "3"], ["3", "4"]],
                    "point": ["-1", "0"],
                }
            )
        )
        code, out = run("separate", str(sep))
        assert code == 0 and out == EXPECTED_SEPARATE_M

        sep_in = tmp_path / "separate_in.json"
        sep_in.write_text(
            json.dumps(
                {
                    "semiring": "rmax",
                    "convex": [["0", "0"], ["1", "3"], ["3", "4"]],
                    "point": ["1", "3"],
                }
            )
        )
        code, out = run("separate", str(sep_in))
        assert code == 0 and out == EXPECTED_SEPARATE_B

        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps(
                {
                    "viewport": ["-3", "6", "-3", "6"],
                    "samples_per_axis": 24,
                    "generators": [["0", "0"], ["1", "3"], ["3", "4"]],
                    "points": [
                        {"label": "A", "coords": ["0", "0"]},
                        {"label": "B", "coords": ["1", "3"]},
                        {"label": "C", "coords": ["3", "4"]},
                        {"label": "M", "coords": ["-1", "0"]},
                    ],
                    "halfspaces": [{"x_ref": ["-1", "0"], "y": ["-1", "0"], "nu": "-1"}],
                }
            )
        )
        code, out = run("render", str(scene), "--out", str(tmp_path / "scene.svg"))
        assert code == 0
        pts = json.loads(out)["points"]
        assert pts["A"] == {"in_convex": True, "in_halfspace_0": True}
        assert pts["B"] == {"in_convex": True, "in_halfspace_0": True}
        assert pts["C"] == {"in_convex": True, "in_halfspace_0": True}
        assert pts["M"] == {"in_convex": False, "in_halfspace_0": False}

        # exit-code table: 2 schema, 3 dimension, 4 output i/o
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"semiring": "rmax", "convex": [["0"]], "point": ["oops"]}))
        assert run("separate", str(bad))[0] == 2
        dim = tmp_path / "dim.json"
        dim.write_text(
            json.dumps({"semiring": "rmax", "generators": [["0", "0"]], "point": ["0"]})
        )
        assert run("project", str(dim))[0] == 3
        assert run("render", str(scene), "--out", str(tmp_path / "no" / "x.svg"))[0] == 4


def c10_scene() -> Scene:
    """16 generators and 16 half-spaces on quarter-integer points, at 2048^2."""
    rng = random.Random(SEED)

    def quarter_point():
        return vector(RMAX, [Fraction(rng.randrange(-24, 25), 4) for _ in range(2)])

    gens = [quarter_point() for _ in range(MAX_SCENE_ITEMS)]
    hs = [
        HalfSpace(quarter_point(), quarter_point(), fin(RMAX, Fraction(rng.randrange(-8, 9), 4)))
        for _ in range(MAX_SCENE_ITEMS)
    ]
    return Scene((-8, 8, -8, 8), MAX_SAMPLES, gens, [], hs, [])


def c11_scene() -> Scene:
    """16 lines, 16 half-spaces and 3 generators on quarter integers, at 400^2."""
    rng = random.Random(SEED)

    def quarter():
        return Fraction(rng.randrange(-24, 25), 4)

    def coef():
        return (rng.choice("+-."), fin(RMAX, quarter()))

    def quarter_point():
        return vector(RMAX, [quarter(), quarter()])

    lines = [LineSpec(coef(), coef(), coef()) for _ in range(MAX_SCENE_ITEMS)]
    hs = [
        HalfSpace(quarter_point(), quarter_point(), fin(RMAX, Fraction(rng.randrange(-8, 9), 4)))
        for _ in range(MAX_SCENE_ITEMS)
    ]
    gens = [quarter_point() for _ in range(3)]
    return Scene((-8, 8, -8, 8), 400, gens, [], hs, lines)


def test_render_regions_at_the_sample_cap():
    with criterion("C10", "16 generators and 16 half-spaces at 2048^2 rendered, under 3 s"):
        scene = c10_scene()
        t0 = time.monotonic()
        svg, _ = render_scene(scene)
        elapsed = time.monotonic() - t0
        assert svg.count("<rect ") > MAX_SAMPLES  # the background and some shading
        assert elapsed < 3.0, f"took {elapsed:.2f}s"


def test_render_dense_lines():
    with criterion("C11", "16 lines, 16 half-spaces and 3 generators at 400^2 rendered, under 3 s"):
        scene = c11_scene()
        t0 = time.monotonic()
        svg, _ = render_scene(scene)
        elapsed = time.monotonic() - t0
        assert svg.count('fill="#1f4e9c"/>') > 400  # the first line crosses some cells
        assert elapsed < 3.0, f"took {elapsed:.2f}s"
