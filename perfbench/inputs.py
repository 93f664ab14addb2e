"""Seeded inputs for the three workloads.

Pure Python with no idemod import, so the orchestrator and the set-up
workers can build and write every input before the library is imported.
The same seed gives the same inputs.  Sizes are stratified (spaced over
their range) and identical for every seed, so that every seed carries the
same amount of work and only the values and the order change; that keeps the
seed-to-seed spread of the timings small.
"""
from __future__ import annotations

import itertools
import json
import pathlib
import random
from fractions import Fraction

DEFAULT_SEED = 20260808  # the acceptance seed of tests/test_acceptance.py

# Share of entries that are -inf or +inf, and the split of the finite ones.
INF_SHARE = 0.03
SMALL_SHARE = 0.55  # ints in [-64, 64]: interned by semiring.fin
LARGE_SHARE = 0.20  # ints of 7 to 15 digits
# the remaining finite entries are Fractions p/q with 2 <= q <= 12

# Requests of one ops-mix pass: kind -> count.  Chosen so that no kind takes
# more than about half of the busy time; at the default seed the shares were
# hull 42%, separate 12%, project 11%, member 9%, hilbert 9%, dominating 7%,
# dual 5%, rowcol 5% (2-core Xeon, Python 3.11).  300 requests put 12 calls
# beyond the p96 latency and keep a pass short enough for ~15 passes a run.
OPS_WEIGHTS = {
    "project": 60,
    "member": 60,
    "separate": 45,
    "hilbert": 40,
    "dual": 42,  # 14 per bracket
    "hull": 4,
    "rowcol": 42,
    "dominating": 7,
}
# Semiring split of project/member/hilbert requests (separate is rmax only,
# dual is rmax and nmax, as the library defines those operators).
SEMIRING_SHARES = {"rmax": 0.70, "nmax": 0.20, "mat2": 0.05, "mat3": 0.05}
DIM_RANGE = (2, 32)  # dimension and generator count, scalar semirings
MAT_DIM_RANGE = (2, 6)  # dimension and generator count, matrix semirings
HULL_POINTS = (40, 200)
HULL_SLOPES = (10, 50)
ROWCOL_RANGE = (1, 6)
DOMINATING_MAX_WORK = 2000  # p**n, p generators of dimension n

RENDER_SAMPLES = 64  # samples_per_axis of every render scene
# law suites run at their default trials divided by this (at least 1 trial):
# a pass takes about 0.4 s and the slowest suite about 0.1 s, so a run repeats
# every suite about 100 times and the fastest repetition of each is steady
LAWS_TRIALS_DIVISOR = 16


def describe() -> dict:
    """The generator parameters, recorded in every result."""
    return {
        "default_seed": DEFAULT_SEED,
        "entries": {"inf": INF_SHARE, "small_int": SMALL_SHARE, "large_int": LARGE_SHARE,
                    "fraction": round(1 - INF_SHARE - SMALL_SHARE - LARGE_SHARE, 4)},
        "ops_weights": OPS_WEIGHTS,
        "semiring_shares": SEMIRING_SHARES,
        "dim_range": DIM_RANGE,
        "mat_dim_range": MAT_DIM_RANGE,
        "hull_points": HULL_POINTS,
        "hull_slopes": HULL_SLOPES,
        "rowcol_range": ROWCOL_RANGE,
        "dominating_max_work": DOMINATING_MAX_WORK,
        "dominating_entries": "finite",
        "hull_values": "+inf every 37th, a large int or a fraction every 10th, else [-40, 40]",
        "render_samples": RENDER_SAMPLES,
        "laws_trials": f"default trials of each idemod.laws suite // {LAWS_TRIALS_DIVISOR}",
    }


BENCH_DIR = pathlib.Path(__file__).resolve().parent
README_SCENE = BENCH_DIR / "scenes" / "readme.json"


# -- scalar texts --------------------------------------------------------------


def _finite_rmax(rng: random.Random) -> str:
    r = rng.random() * (1 - INF_SHARE)
    if r < SMALL_SHARE:
        return str(rng.randint(-64, 64))
    if r < SMALL_SHARE + LARGE_SHARE:
        return str(rng.choice((-1, 1)) * rng.randint(10**6, 10**15))
    q = Fraction(rng.randint(-400, 400), rng.randint(2, 12))
    return str(q)


def _finite_nmax(rng: random.Random) -> str:
    if rng.random() < SMALL_SHARE / (SMALL_SHARE + LARGE_SHARE):
        return str(rng.randint(0, 64))
    return str(rng.randint(10**6, 10**15))


def _scalar(rng: random.Random, sr: str):
    if sr.startswith("mat"):
        n = int(sr[3:])
        return [[_scalar(rng, "rmax") for _ in range(n)] for _ in range(n)]
    if rng.random() < INF_SHARE:
        return rng.choice(("-inf", "+inf"))
    return _finite_rmax(rng) if sr == "rmax" else _finite_nmax(rng)


def _vector(rng, sr: str, n: int) -> list:
    return [_scalar(rng, sr) for _ in range(n)]


def _family(rng, sr: str, n: int, p: int) -> list:
    return [_vector(rng, sr, n) for _ in range(p)]


# Exact max-plus on texts, used only to build points that lie in a span or a
# convex hull; finite generator entries keep it free of the inf conventions.


def _combination(gens: list, coeffs: list[Fraction]) -> list[str]:
    out = []
    for i in range(len(gens[0])):
        best = max(Fraction(g[i]) + c for g, c in zip(gens, coeffs))
        out.append(str(best))
    return out


def _finite_family(rng, sr: str, n: int, p: int) -> list:
    draw = _finite_rmax if sr == "rmax" else _finite_nmax
    return [[draw(rng) for _ in range(n)] for _ in range(p)]


# -- stratification ------------------------------------------------------------


# Every seed gets the same sizes, semirings and pairings of sizes (each list
# is put in an order fixed by its salt); the seed draws the values and the
# order of the requests.  So the costliest requests, which set the tail
# latency, have the same shapes for every seed.


def _spread(lo: int, hi: int, count: int, salt: str) -> list[int]:
    """``count`` sizes spaced geometrically over [lo, hi] (as many below the
    geometric mean of the range as above it), in an order fixed by salt."""
    if count == 1:
        return [hi]
    out = [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]
    random.Random(salt).shuffle(out)
    return out


def _semirings(count: int, salt: str) -> list[str]:
    out: list[str] = []
    for sr, share in SEMIRING_SHARES.items():
        out += [sr] * round(share * count)
    out = (out + ["rmax"] * count)[:count]
    random.Random(salt).shuffle(out)
    return out


# -- ops-mix -------------------------------------------------------------------


def _span_requests(rng, kind: str, count: int) -> list[dict]:
    out = []
    srs = _semirings(count, kind)
    dims = _spread(*DIM_RANGE, count, f"{kind}-dims")
    gens = _spread(*DIM_RANGE, count, f"{kind}-gens")
    mdims = _spread(*MAT_DIM_RANGE, count, f"{kind}-mat-dims")
    mgens = _spread(*MAT_DIM_RANGE, count, f"{kind}-mat-gens")
    for k, sr in enumerate(srs):
        mat = sr.startswith("mat")
        n, p = (mdims[k], mgens[k]) if mat else (dims[k], gens[k])
        if not mat and k % 2 == 0:
            # a point inside the span, so both answers of member occur
            fam = _finite_family(rng, sr, n, p)
            lo = 0 if sr == "nmax" else -64
            x = _combination(fam, [Fraction(rng.randint(lo, 64)) for _ in fam])
        else:
            fam = _family(rng, sr, n, p)
            x = _vector(rng, sr, n)
        prob = {"semiring": sr, "generators": fam, "point": x}
        if kind == "hilbert":
            prob["point2"] = _vector(rng, sr, n)
        out.append({"kind": kind, "problem": prob})
    return out


def _separate_requests(rng, count: int) -> list[dict]:
    out = []
    dims = _spread(*DIM_RANGE, count, "separate-dims")
    gens = _spread(*DIM_RANGE, count, "separate-gens")
    for k in range(count):
        n, p = dims[k], gens[k]
        if k % 2 == 0:
            fam = _finite_family(rng, "rmax", n, p)
            coeffs = [Fraction(-rng.randint(0, 64)) for _ in fam]
            coeffs[rng.randrange(p)] = Fraction(0)
            x = _combination(fam, coeffs)
        else:
            fam = _family(rng, "rmax", n, p)
            x = _vector(rng, "rmax", n)
        out.append({"kind": "separate", "problem": {"semiring": "rmax", "convex": fam, "point": x}})
    return out


def _dual_requests(rng, count: int) -> list[dict]:
    out = []
    brackets = (["canonical", "opposite", "matrix"] * count)[:count]
    dims = _spread(*DIM_RANGE, count, "dual-dims")
    rows = _spread(*DIM_RANGE, count, "dual-rows")
    for k, bracket in enumerate(brackets):
        sr = "nmax" if k % 5 == 4 else "rmax"
        n = dims[k]
        prob = {"semiring": sr, "bracket": bracket, "point": _vector(rng, sr, n)}
        if bracket == "matrix":
            prob["matrix"] = _family(rng, sr, n, rows[k])  # rows[k] x n
        out.append({"kind": "dual", "problem": prob})
    rng.shuffle(out)
    return out


def _increasing(rng, count: int, start: Fraction) -> list[str]:
    steps = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    out, t = [], start
    for _ in range(count):
        out.append(str(t))
        t += rng.choice(steps)
    return out


def _hull_value(rng, i: int) -> str:
    # the kind of each value is fixed by its position, only its size is
    # drawn.  No -inf: one -inf value sends every slope bracket to -inf and
    # leaves a hull with almost no work.
    if i % 37 == 0:
        return "+inf"
    if i % 10 == 3:
        return str(rng.choice((-1, 1)) * rng.randint(10**6, 10**15))
    if i % 10 == 7:
        return str(Fraction(rng.randint(-400, 400), rng.randint(2, 12)))
    return str(rng.randint(-40, 40))


def _hull_requests(rng, count: int) -> list[dict]:
    out = []
    # grid size and slope count grow together
    points = sorted(_spread(*HULL_POINTS, count, "hull"))
    slopes = sorted(_spread(*HULL_SLOPES, count, "hull"))
    for k in range(count):
        m = points[k]
        # the grid and the slopes are the same for every seed, like the sizes:
        # their denominators set much of a hull's cost
        fixed = random.Random(f"hull-{k}")
        pts = _increasing(fixed, m, Fraction(-m, 4))
        vals = [_hull_value(rng, i) for i in range(m)]
        prob = {"grid": {"points": pts, "values": vals},
                "slopes": _increasing(fixed, slopes[k], Fraction(-slopes[k], 2))}
        out.append({"kind": "hull", "problem": prob})
    return out


def _rowcol_requests(rng, count: int) -> list[dict]:
    out = []
    rows = _spread(*ROWCOL_RANGE, count, "rowcol-rows")
    cols = _spread(*ROWCOL_RANGE, count, "rowcol-cols")
    for k in range(count):
        mat = [[rng.choice(("e", "eps")) for _ in range(cols[k])] for _ in range(rows[k])]
        out.append({"kind": "rowcol", "problem": {"semiring": "bool", "matrix": mat}})
    return out


def _dominating_shapes() -> list[tuple[int, int]]:
    """(p, n) with p, n >= 2 and p**n <= DOMINATING_MAX_WORK, by work."""
    shapes = [(p, n) for n in range(2, 11) for p in range(2, 33)
              if p**n <= DOMINATING_MAX_WORK]
    return sorted(shapes, key=lambda s: (s[0] ** s[1], s))


def _dominating_requests(rng, count: int) -> list[dict]:
    shapes = _dominating_shapes()
    out = []
    for k in range(count):
        # stratified over the work p**n: the middle shape of each of
        # ``count`` bins
        lo = k * len(shapes) // count
        hi = max(lo + 1, (k + 1) * len(shapes) // count)
        p, n = shapes[(lo + hi - 1) // 2]
        # finite entries: an infinite one prunes most covering choices, which
        # would tie the cost of these, the costliest requests, to the seed
        prob = {"semiring": "rmax", "generators": _finite_family(rng, "rmax", n, p),
                "point": _finite_family(rng, "rmax", n, 1)[0]}
        out.append({"kind": "dominating", "problem": prob})
    return out


def ops_mix(seed: int) -> list[dict]:
    """One pass of requests: [{"kind": ..., "problem": {...}}, ...]."""
    rng = random.Random(seed)
    w = OPS_WEIGHTS
    reqs = (
        _span_requests(rng, "project", w["project"])
        + _span_requests(rng, "member", w["member"])
        + _separate_requests(rng, w["separate"])
        + _span_requests(rng, "hilbert", w["hilbert"])
        + _dual_requests(rng, w["dual"])
        + _hull_requests(rng, w["hull"])
        + _rowcol_requests(rng, w["rowcol"])
        + _dominating_requests(rng, w["dominating"])
    )
    rng.shuffle(reqs)
    return reqs


# -- render --------------------------------------------------------------------


def generic_line_patterns():
    """The twelve generic sign patterns of scripts/render_generic_lines.py."""
    for tags in itertools.product("+-.", repeat=3):
        if tags.count(".") <= 1 and "+" in tags and "-" in tags:
            yield tags


def line_scene(tags) -> dict:
    coef = ("0", "0", "1")
    return {
        "viewport": ["-4", "4", "-4", "4"],
        "samples_per_axis": RENDER_SAMPLES,
        "lines": [{k: [t, c] for k, t, c in zip("abc", tags, coef)}],
    }


def render_scenes(seed: int) -> list[dict]:
    """The README scene and the twelve generic lines, in seeded order.  The
    scenes themselves do not depend on the seed."""
    readme = json.loads(README_SCENE.read_text(encoding="utf-8"))
    readme["samples_per_axis"] = RENDER_SAMPLES
    scenes = [{"name": "readme", "scene": readme}]
    for idx, tags in enumerate(generic_line_patterns(), start=1):
        safe = "".join({"+": "p", "-": "m", ".": "d"}[t] for t in tags)
        scenes.append({"name": f"line_{idx:02d}_{safe}", "scene": line_scene(tags)})
    random.Random(seed).shuffle(scenes)
    return scenes
