"""Seeded law suites: every algebraic identity the library relies on,
checked exactly on randomly generated (or exhaustively enumerated) data.

Each suite is deterministic given its seed.  A failing law is shrunk
greedily before being reported; suites that pin an expected counterexample
(the natural-number semiring is not reflexive) record it as a note and
still pass.

Each law is written once, as a (name, predicate) row of its suite's table,
and the tables run in order on each case until the first failure.  The 28
scalar laws of ``_SCALAR_LAWS`` read a dict from ``_scalar_terms``: the case
plus the subterms several laws share, each computed once and keyed by its
own expression (``"a*lam"``, ``r"a\\b"``, ...).  Detection and shrinking
both go through that one table.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce

from . import dual as du
from . import fenchel as fe
from . import metric as me
from . import separate as se
from .project import inf_dominating, is_member, project, project_dual
from .errors import IdemodError, SchemaError
from .freemod import (
    CoVector,
    GeneratingFamily,
    Matrix,
    Vector,
    act,
    bot_vector,
    combine,
    mat_lres,
    mat_vec,
    top_vector,
    vec_leq,
    vec_lres,
    vec_rres,
    vjoin,
    vmeet,
)
from .record import Record
from .semiring import (
    BOOL,
    NEG_INF,
    NMAX,
    POS_INF,
    RMAX,
    Scalar,
    SemiringId,
    _excerpt,
    add,
    bot,
    default_phi,
    fin,
    leq,
    lres,
    mat_of,
    matrix_semiring,
    meet,
    mul,
    of_raw,
    rres,
    top,
    unit,
)

MAT2 = matrix_semiring(2)


class Failure(Record):
    law: str
    case: dict[str, str]  # shrunk
    original: dict[str, str] = dict  # where shrinking began
    steps: int = 0

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.case.items())
        return f"{self.law}: {parts}"


class SuiteReport(Record):
    suite: str
    seed: int
    trials: int
    checks: int = 0
    failures: list[Failure] = list
    notes: list[str] = list

    @property
    def ok(self) -> bool:
        return not self.failures


# -- random data -------------------------------------------------------------

_FRACTIONS = [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 4)]


def _rand_raw(rng: random.Random, finite_only: bool, natural: bool = False):
    """One raw RMAX (or, with ``natural``, NMAX) value: NEG_INF, POS_INF, an
    int or a non-integral Fraction."""
    if not finite_only:
        r = rng.random()
        if r < 0.12:
            return NEG_INF
        if r < 0.20:
            return POS_INF
    if natural:
        return rng.randrange(0, 9)
    if rng.random() < 0.15:
        return rng.choice(_FRACTIONS) + rng.randrange(-3, 4)
    return rng.randrange(-8, 9)


def rand_scalar(rng: random.Random, sr: SemiringId, finite_only: bool = False) -> Scalar:
    if sr is BOOL:
        return top(sr) if rng.random() < 0.5 else bot(sr)
    if sr.dim:
        return rand_matrix_scalar(rng, sr, finite_only)
    return of_raw(sr, _rand_raw(rng, finite_only, sr is NMAX))


def rand_matrix_scalar(rng: random.Random, sr: SemiringId, finite_only: bool = False) -> Scalar:
    """Entries drawn row by row from the RMAX distribution of rand_scalar."""
    return Scalar(sr, tuple(_rand_raw(rng, finite_only) for _ in range(sr.dim * sr.dim)))


def rand_vector(rng: random.Random, sr: SemiringId, dim: int, finite_only: bool = False) -> Vector:
    return Vector(sr, tuple(rand_scalar(rng, sr, finite_only) for _ in range(dim)))


def rand_family(rng: random.Random, sr: SemiringId, dim: int, size: int) -> GeneratingFamily:
    return GeneratingFamily(
        sr, dim, tuple(rand_vector(rng, sr, dim) for _ in range(size))
    )


def rand_member(rng: random.Random, fam: GeneratingFamily) -> Vector:
    """Random span element: each generator scaled by a random scalar, or
    by bottom one time in five."""
    sr = fam.semiring
    return combine(fam, [rand_scalar(rng, sr) if rng.random() < 0.8 else bot(sr) for _ in range(len(fam))])


def rand_convex_point(rng: random.Random, fam: GeneratingFamily) -> Vector:
    """Random hull element: combination with coefficients <= e joining to e."""
    sr = fam.semiring
    e = unit(sr)
    coeffs = [meet(rand_scalar(rng, sr), e) for _ in range(len(fam))]
    coeffs[rng.randrange(len(coeffs))] = e
    return combine(fam, coeffs)


# -- shrinking ---------------------------------------------------------------


def _toward_zero(q):
    return q // 2 if isinstance(q, int) else int(q)


def _below(q, ladder: tuple) -> tuple:
    """The rungs of ladder below q, or all of them when q is off the ladder."""
    return ladder[:ladder.index(q)] if q in ladder else ladder


def _simpler_scalar(s: Scalar):
    """Candidates of strictly lower rank, so that shrinking ends: bottom <
    unit < top < any other finite value, and those move toward 0."""
    sr = s.semiring
    if sr.dim:
        # one entry at a time, ranked -inf < 0 < +inf < any other finite value
        flat = s.value
        for i, q in enumerate(flat):
            cands = _below(q, (NEG_INF, 0, POS_INF))
            if q is not NEG_INF and q is not POS_INF and q not in (0, 1, -1):
                cands += (_toward_zero(q),)
            for c in cands:
                yield Scalar(sr, flat[:i] + (c,) + flat[i + 1:])
        return
    yield from _below(s, (bot(sr), unit(sr), top(sr)))
    q = s.value
    if q is not NEG_INF and q is not POS_INF and q not in (0, 1, -1):
        yield fin(sr, _toward_zero(q))


def _simpler(value):
    if isinstance(value, Scalar):
        yield from _simpler_scalar(value)
    elif isinstance(value, Vector):
        for i, s in enumerate(value.entries):
            for cand in _simpler_scalar(s):
                yield Vector(value.semiring, value.entries[:i] + (cand,) + value.entries[i + 1:])
    elif isinstance(value, GeneratingFamily):
        sr, dim, gens = value.semiring, value.dim, value.generators
        for i in range(len(gens)):
            yield GeneratingFamily(sr, dim, gens[:i] + gens[i + 1:])
        for i, g in enumerate(gens):
            for cand in _simpler(g):
                yield GeneratingFamily(sr, dim, gens[:i] + (cand,) + gens[i + 1:])
    elif isinstance(value, (list, tuple)):
        if len(value) > 1:
            for i in range(len(value)):
                yield type(value)(v for j, v in enumerate(value) if j != i)
        for i, v in enumerate(value):
            for cand in _simpler(v):
                out = list(value)
                out[i] = cand
                yield type(value)(out)


def _holds(pred, case) -> bool:
    try:
        return bool(pred(case))
    except IdemodError:
        return False


def _shrink(case: dict, pred) -> tuple[dict, int]:
    """A smaller case pred still fails on, and the number of steps taken."""
    budget = 300
    steps = 0
    improved = True
    while improved and budget > 0:
        improved = False
        for key in case:
            for cand in _simpler(case[key]):
                budget -= 1
                if budget <= 0:
                    return case, steps
                trial = dict(case)
                trial[key] = cand
                try:
                    still_failing = not _holds(pred, trial)
                except Exception:
                    still_failing = False
                if still_failing:
                    case = trial
                    steps += 1
                    improved = True
                    break
    return case, steps


def _fail(report: SuiteReport, law: str, case: dict, pred) -> bool:
    """Shrink a failing case against pred, record it under law, return False."""
    small, steps = _shrink(case, pred)
    shown = ({k: repr(v) for k, v in c.items()} for c in (small, case))
    report.failures.append(Failure(law, *shown, steps))
    return False


def _check(report: SuiteReport, law: str, case: dict, pred) -> bool:
    """Run one law; on failure shrink, record, and return False."""
    report.checks += 1
    return _holds(pred, case) or _fail(report, law, case, pred)


def _check_all(report: SuiteReport, table, case: dict) -> bool:
    """Run a table of (law, pred) rows on one case in order; stop at the
    first failure."""
    return all(_check(report, law, case, pred) for law, pred in table)


# -- residuation suite -------------------------------------------------------


def _scalar_terms(c: dict) -> dict:
    """A copy of the scalar case plus the subterms several laws share, each
    computed once and keyed by its own expression."""
    a, b, lam = c["a"], c["b"], c["lam"]
    lab, al, ral = lres(a, b), mul(a, lam), rres(a, lam)
    return {
        **c,
        r"a\b": lab,
        "a*lam": al,
        "b*lam": mul(b, lam),
        "a/lam": ral,
        "a/mu": rres(a, c["mu"]),
        "a+b": add(a, b),
        "meet U": reduce(meet, c["U"]),
        r"a*(a\b)": mul(a, lab),
        "(a/lam)*lam": mul(ral, lam),
        r"a\(a*lam)": lres(a, al),
        "(a*lam)/lam": rres(al, lam),
    }


# Each law reads the case and the shared subterms from _scalar_terms.
_SCALAR_LAWS = [
    (
        "galois-equivalence",
        lambda t: leq(t["a*lam"], t["b"])
        == leq(t["lam"], t[r"a\b"])
        == leq(t["a"], rres(t["b"], t["lam"])),
    ),
    ("res-left-sub", lambda t: leq(t[r"a*(a\b)"], t["b"])),
    ("res-right-sub", lambda t: leq(t["(a/lam)*lam"], t["a"])),
    ("res-left-shift", lambda t: leq(mul(t[r"a\b"], t["lam"]), lres(t["a"], t["b*lam"]))),
    (
        "res-right-shift",
        lambda t: leq(mul(t["a"], rres(t["lam"], t["mu"])), rres(t["a*lam"], t["mu"])),
    ),
    ("res-left-super", lambda t: leq(t["lam"], t[r"a\(a*lam)"])),
    ("res-right-super", lambda t: leq(t["a"], t["(a*lam)/lam"])),
    (
        "res-left-meets",
        lambda t: lres(t["a"], t["meet U"]) == reduce(meet, [lres(t["a"], u) for u in t["U"]]),
    ),
    (
        "res-right-meets",
        lambda t: rres(t["meet U"], t["lam"]) == reduce(meet, [rres(u, t["lam"]) for u in t["U"]]),
    ),
    ("res-left-sandwich", lambda t: mul(t["a"], t[r"a\(a*lam)"]) == t["a*lam"]),
    ("res-right-sandwich", lambda t: mul(t["(a*lam)/lam"], t["lam"]) == t["a*lam"]),
    ("res-left-idem", lambda t: lres(t["a"], t[r"a*(a\b)"]) == t[r"a\b"]),
    ("res-right-idem", lambda t: rres(t["(a/lam)*lam"], t["lam"]) == t["a/lam"]),
    (
        "res-left-compose",
        lambda t: lres(t["lam"], lres(t["a"], t["z"])) == lres(t["a*lam"], t["z"]),
    ),
    (
        "res-right-compose",
        lambda t: rres(t["a/mu"], t["lam"]) == rres(t["a"], mul(t["lam"], t["mu"])),
    ),
    (
        "res-left-joins",
        lambda t: lres(reduce(add, t["U"]), t["b"])
        == reduce(meet, [lres(u, t["b"]) for u in t["U"]]),
    ),
    (
        "res-right-joins",
        lambda t: rres(t["a"], reduce(add, t["L"]))
        == reduce(meet, [rres(t["a"], l) for l in t["L"]]),
    ),
    ("res-commute", lambda t: rres(lres(t["nu"], t["a"]), t["mu"]) == lres(t["nu"], t["a/mu"])),
    ("add-idempotent", lambda t: add(t["a"], t["a"]) == t["a"]),
    ("add-commutative", lambda t: t["a+b"] == add(t["b"], t["a"])),
    ("add-associative", lambda t: add(t["a+b"], t["z"]) == add(t["a"], add(t["b"], t["z"]))),
    (
        "mul-associative",
        lambda t: mul(mul(t["a"], t["b"]), t["z"]) == mul(t["a"], mul(t["b"], t["z"])),
    ),
    ("mul-distributes-right", lambda t: mul(t["a+b"], t["lam"]) == add(t["a*lam"], t["b*lam"])),
    (
        "mul-distributes-left",
        lambda t: mul(t["lam"], t["a+b"]) == add(mul(t["lam"], t["a"]), mul(t["lam"], t["b"])),
    ),
    (
        "bottom-absorbs",
        lambda t: mul(t["a"], bot(t["a"].semiring)) == bot(t["a"].semiring)
        and mul(bot(t["a"].semiring), t["a"]) == bot(t["a"].semiring),
    ),
    (
        "unit-neutral",
        lambda t: mul(t["a"], unit(t["a"].semiring)) == t["a"]
        and mul(unit(t["a"].semiring), t["a"]) == t["a"],
    ),
    ("bottom-neutral-add", lambda t: add(t["a"], bot(t["a"].semiring)) == t["a"]),
    ("order-is-join", lambda t: leq(t["a"], t["b"]) == (t["a+b"] == t["b"])),
]


def _run_scalar_case(report: SuiteReport, case: dict, tag: str) -> bool:
    """All scalar laws on one case, in table order; a failing case is shrunk
    through the failing row's own law."""
    report.checks += len(_SCALAR_LAWS)
    terms = _scalar_terms(case)
    for name, law in _SCALAR_LAWS:
        if not law(terms):
            return _fail(report, f"{tag}/{name}", case, lambda c: law(_scalar_terms(c)))
    return True


def _scalar_case(rng: random.Random, sr: SemiringId) -> dict:
    return {
        "a": rand_scalar(rng, sr),
        "b": rand_scalar(rng, sr),
        "z": rand_scalar(rng, sr),
        "lam": rand_scalar(rng, sr),
        "mu": rand_scalar(rng, sr),
        "nu": rand_scalar(rng, sr),
        "U": [rand_scalar(rng, sr) for _ in range(rng.randrange(1, 4))],
        "L": [rand_scalar(rng, sr) for _ in range(rng.randrange(1, 4))],
    }


def _suite_residuation(rng: random.Random, trials: int, report: SuiteReport) -> None:
    # Boolean is finite: enumerate every combination once.
    eps, e = bot(BOOL), top(BOOL)
    carrier = [eps, e]
    subsets = [[eps], [e], [eps, e]]
    for a, b, z, lam, mu, nu in itertools.product(carrier, repeat=6):
        for U in subsets:
            for L in subsets:
                case = {"a": a, "b": b, "z": z, "lam": lam, "mu": mu, "nu": nu, "U": U, "L": L}
                if not _run_scalar_case(report, case, "bool"):
                    return
    report.notes.append("bool: exhaustive over all scalar tuples")
    for sr, tag in ((RMAX, "rmax"), (NMAX, "nmax"), (MAT2, "mat2")):
        for _ in range(trials):
            case = _scalar_case(rng, sr)
            if not _run_scalar_case(report, case, tag):
                return


# -- free-semimodule suite ---------------------------------------------------


_FREEMOD_LAWS = [
    (
        "act-galois",
        lambda c: vec_leq(act(c["x"], c["lam"]), c["y"])
        == leq(c["lam"], vec_lres(c["x"], c["y"])),
    ),
    ("act-sub", lambda c: vec_leq(act(c["x"], vec_lres(c["x"], c["y"])), c["y"])),
    (
        "act-sandwich",
        lambda c: act(c["x"], vec_lres(c["x"], act(c["x"], c["lam"])))
        == act(c["x"], c["lam"]),
    ),
    (
        "act-idem",
        lambda c: vec_lres(c["x"], act(c["x"], vec_lres(c["x"], c["y"])))
        == vec_lres(c["x"], c["y"]),
    ),
    (
        "vec-compose",
        lambda c: lres(c["lam"], vec_lres(c["x"], c["z"]))
        == vec_lres(act(c["x"], c["lam"]), c["z"]),
    ),
    (
        "vec-joins-to-meets",
        lambda c: vec_lres(reduce(vjoin, c["U"]), c["y"])
        == reduce(meet, [vec_lres(u, c["y"]) for u in c["U"]]),
    ),
    (
        "vec-meets",
        lambda c: vec_lres(c["x"], vmeet(c["y"], c["z"]))
        == meet(vec_lres(c["x"], c["y"]), vec_lres(c["x"], c["z"])),
    ),
    (
        "vec-shift",
        lambda c: leq(
            mul(vec_lres(c["x"], c["y"]), c["lam"]),
            vec_lres(c["x"], act(c["y"], c["lam"])),
        ),
    ),
    (
        "rres-sub",
        lambda c: vec_leq(act(vec_rres(c["x"], c["lam"]), c["lam"]), c["x"]),
    ),
    (
        "rres-super",
        lambda c: vec_leq(c["x"], vec_rres(act(c["x"], c["lam"]), c["lam"])),
    ),
    (
        "mat-res-sub",
        lambda c: vec_leq(mat_vec(c["A"], mat_lres(c["A"], c["ya"])), c["ya"]),
    ),
    (
        "mat-res-fix",
        lambda c: mat_vec(c["A"], mat_lres(c["A"], mat_vec(c["A"], c["x"])))
        == mat_vec(c["A"], c["x"]),
    ),
    (
        "mat-res-super",
        lambda c: vec_leq(c["x"], mat_lres(c["A"], mat_vec(c["A"], c["x"]))),
    ),
]


def _suite_freemod(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for _ in range(trials):
        sr = rng.choice([RMAX, RMAX, NMAX, BOOL])
        dim = rng.randrange(1, 5)
        nrows = rng.randrange(1, 4)
        case = {
            "x": rand_vector(rng, sr, dim),
            "y": rand_vector(rng, sr, dim),
            "z": rand_vector(rng, sr, dim),
            "lam": rand_scalar(rng, sr),
            "U": [rand_vector(rng, sr, dim) for _ in range(rng.randrange(1, 4))],
            "A": Matrix(
                sr,
                tuple(
                    tuple(rand_scalar(rng, sr) for _ in range(dim))
                    for _ in range(nrows)
                ),
            ),
            "ya": rand_vector(rng, sr, nrows),
        }
        if not _check_all(report, _FREEMOD_LAWS, case):
            return


# -- projector suite ----------------------------------------------------------


def _projector_case(rng: random.Random) -> dict:
    dim = rng.randrange(2, 7)
    size = rng.randrange(0, 6)
    fam = rand_family(rng, RMAX, dim, size)
    r = rng.random()
    if r < 0.35 and size:
        x = rand_member(rng, fam)
    elif r < 0.45:
        x = bot_vector(RMAX, dim)
    else:
        x = rand_vector(rng, RMAX, dim)
    return {"fam": fam, "x": x, "v": rand_member(rng, fam), "z": rand_vector(rng, RMAX, dim)}


def _dual_characterization(fam, x, z) -> bool:
    p = project(fam, x).projection
    if any(not leq(vec_lres(g, x), vec_lres(g, p)) for g in fam):
        return False
    z_dominates = all(leq(vec_lres(g, x), vec_lres(g, z)) for g in fam)
    return (not z_dominates) or vec_leq(p, z)


def _op_span_element(c) -> Vector:
    fam = c["fam"]
    v = top_vector(fam.semiring, fam.dim)
    for g in fam:
        v = vmeet(v, vec_rres(g, c["x"].entries[0]))
    return v


_PROJECTOR_LAWS = [
    ("proj-below-id", lambda c: vec_leq(project(c["fam"], c["x"]).projection, c["x"])),
    (
        "proj-idempotent",
        lambda c: project(c["fam"], project(c["fam"], c["x"]).projection).projection
        == project(c["fam"], c["x"]).projection,
    ),
    (
        "proj-maximal",
        lambda c: not vec_leq(c["v"], c["x"])
        or vec_leq(c["v"], project(c["fam"], c["x"]).projection),
    ),
    (
        "proj-dual-characterization",
        lambda c: _dual_characterization(c["fam"], c["x"], c["z"]),
    ),
    (
        "orthogonality-on-generators",
        lambda c: all(
            vec_lres(g, project(c["fam"], c["x"]).projection) == vec_lres(g, c["x"])
            for g in c["fam"]
        ),
    ),
    (
        "membership-residual",
        lambda c: (
            vec_lres(c["x"], project(c["fam"], c["x"]).projection)
            == vec_lres(c["x"], c["x"])
        )
        == is_member(c["fam"], c["x"]),
    ),
    ("member-span-element", lambda c: is_member(c["fam"], c["v"])),
    (
        "dual-proj-fixes-op-span",
        lambda c: project_dual(c["fam"], _op_span_element(c)).fixed,
    ),
    (
        "dominating-meet-above",
        lambda c: vec_leq(c["x"], inf_dominating(c["fam"], c["x"])[0]),
    ),
    (
        "dominating-meet-of-member",
        lambda c: not is_member(c["fam"], c["x"])
        or inf_dominating(c["fam"], c["x"])[0] == c["x"],
    ),
    (
        "separate-certificate",
        lambda c: se.separate_from_module(c["fam"], c["x"]).separated
        != is_member(c["fam"], c["x"]),
    ),
    (
        "dual-separation",
        lambda c: se.separate_dual(c["fam"], c["x"]).separated
        == (not project_dual(c["fam"], c["x"]).fixed),
    ),
    (
        "points-witness",
        lambda c: c["x"] == c["z"] or se.separate_points(c["x"], c["z"]) is not None,
    ),
]


def _suite_projector(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for _ in range(trials):
        case = _projector_case(rng)
        if not _check_all(report, _PROJECTOR_LAWS, case):
            return


# -- separation suite ---------------------------------------------------------


def _convex_runs_clean(c) -> bool:
    sep = se.separate_from_convex(c["C"], c["x"])  # raises on theorem violation
    return leq(sep.nu, unit(sep.nu.semiring))


def _convex_projection_idempotent(c) -> bool:
    p = se.convex_projection(c["C"], c["x"])
    if p is None:
        return True
    return se.convex_projection(c["C"], p) == p


_SEPARATION_LAWS = [
    ("convex-certificate", _convex_runs_clean),
    (
        "convex-membership",
        lambda c: se.separate_from_convex(c["C"], c["p"]).member,
    ),
    (
        "halfspace-covers-hull",
        lambda c: se.halfspace(c["C"], c["x"]).contains(c["p"]),
    ),
    (
        "halfspace-covers-generators",
        lambda c: all(se.halfspace(c["C"], c["x"]).contains(g) for g in c["C"]),
    ),
    (
        "halfspace-excludes-outsider",
        lambda c: se.separate_from_convex(c["C"], c["x"]).member
        or not se.halfspace(c["C"], c["x"]).contains(c["x"]),
    ),
    ("projection-idempotent", _convex_projection_idempotent),
]


def _suite_separation(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for _ in range(trials):
        dim = rng.randrange(2, 5)
        size = rng.randrange(1, 5)
        fam = rand_family(rng, RMAX, dim, size)
        case = {
            "C": fam,
            "x": rand_vector(rng, RMAX, dim)
            if rng.random() < 0.7
            else rand_convex_point(rng, fam),
            "p": rand_convex_point(rng, fam),
        }
        if not _check_all(report, _SEPARATION_LAWS, case):
            return


# -- Hilbert suite -------------------------------------------------------------


def _definiteness(c) -> bool:
    if me.hilbert_distance(c["x"], c["y"]) != unit(c["x"].semiring):
        return True
    lam = vec_lres(c["y"], c["x"])
    return c["x"] == act(c["y"], lam)


def _projection_maximizes(c) -> bool:
    p = project(c["fam"], c["x"]).projection
    return me.projection_maximizes_distance(c["x"], p, c["samples"])


_HILBERT_LAWS = [
    (
        "symmetry",
        lambda c: me.hilbert_distance(c["x"], c["y"]) == me.hilbert_distance(c["y"], c["x"]),
    ),
    (
        "anti-triangular",
        lambda c: leq(
            mul(me.hilbert_distance(c["x"], c["y"]), me.hilbert_distance(c["y"], c["z"])),
            me.hilbert_distance(c["x"], c["z"]),
        ),
    ),
    ("definiteness", _definiteness),
    (
        "nonpositive",
        lambda c: leq(me.hilbert_distance(c["x"], c["y"]), vec_lres(c["x"], c["x"]))
        and leq(
            me.hilbert_distance(c["x"], c["y"]),
            meet(vec_lres(c["x"], c["x"]), vec_lres(c["y"], c["y"])),
        ),
    ),
    (
        "scaling-invariant",
        lambda c: me.hilbert_distance(c["x"], act(c["x"], unit(c["x"].semiring)))
        == me.hilbert_distance(c["x"], c["x"]),
    ),
    ("projection-maximizes", _projection_maximizes),
]


def _suite_hilbert(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for t in range(trials):
        sr = (RMAX, NMAX, BOOL)[t % 3]
        dim = rng.randrange(1, 5)
        fam = rand_family(rng, sr, dim, rng.randrange(1, 4))
        case = {
            "x": rand_vector(rng, sr, dim),
            "y": rand_vector(rng, sr, dim),
            "z": rand_vector(rng, sr, dim),
            "fam": fam,
            "samples": [rand_member(rng, fam) for _ in range(100)],
        }
        if not _check_all(report, _HILBERT_LAWS, case):
            return


# -- duality suite --------------------------------------------------------------


# phi = 0, kept out of the duality case: shrinking it to -inf breaks true laws
_RMAX_PHI = default_phi(RMAX)


def _configs(c):
    yield du.DualPairConfig(du.CANONICAL, _RMAX_PHI)
    yield du.DualPairConfig(du.MATRIX, _RMAX_PHI, c["A"])
    yield du.DualPairConfig(du.OPPOSITE, _RMAX_PHI)


def _ed1(c) -> bool:
    for cfg in _configs(c):
        x = c["x"]
        back = du.conj_right(cfg, du.conj_left(cfg, x))
        if not vec_leq(x, back):
            return False
    return True


def _ed1b(c) -> bool:
    for cfg in _configs(c):
        x = c["x"]
        once = du.conj_left(cfg, x)
        thrice = du.conj_left(cfg, du.conj_right(cfg, once))
        if thrice != once:
            return False
    return True


def _ed2(c) -> bool:
    # covector side; for the opposite bracket the dual order is reversed
    pairs = [
        (du.DualPairConfig(du.CANONICAL, _RMAX_PHI), CoVector(RMAX, c["w"].entries)),
        (du.DualPairConfig(du.MATRIX, _RMAX_PHI, c["A"]), CoVector(RMAX, c["ya"].entries)),
    ]
    for cfg, y in pairs:
        back = du.conj_left(cfg, du.conj_right(cfg, y))
        if not all(leq(a, b) for a, b in zip(y.entries, back.entries)):
            return False
        if du.conj_right(cfg, back) != du.conj_right(cfg, y):
            return False
    cfg = du.DualPairConfig(du.OPPOSITE, _RMAX_PHI)
    back = du.conj_left(cfg, du.conj_right(cfg, c["w"]))
    return vec_leq(back, c["w"])


def _rmax_closed(c) -> bool:
    cfg = du.DualPairConfig(du.CANONICAL, _RMAX_PHI)
    return du.is_closed(cfg, c["x"])


def _meet_closed(c) -> bool:
    phi = default_phi(NMAX)
    cfg = du.DualPairConfig(du.CANONICAL, phi)
    dim = c["x"].dim
    rngless = [
        Vector(NMAX, tuple(fin(NMAX, (i + j) % 4) for j in range(dim)))
        for i in range(2)
    ]
    closed = [du.conj_right(cfg, CoVector(NMAX, v.entries)) for v in rngless]
    return du.is_closed(cfg, vmeet(closed[0], closed[1]))


def _form_additive(c) -> bool:
    f = du.LinearForm(c["x"], _RMAX_PHI)
    return f(vjoin(c["w"], c["vspan"])) == add(f(c["w"]), f(c["vspan"]))


def _form_homogeneous(c) -> bool:
    f = du.LinearForm(c["x"], _RMAX_PHI)
    return f(act(c["w"], c["lam"])) == mul(f(c["w"]), c["lam"])


def _form_maximal(c) -> bool:
    f = du.LinearForm(c["w"], _RMAX_PHI)
    if not leq(f(c["x"]), _RMAX_PHI):
        return True
    g = du.LinearForm(c["x"], _RMAX_PHI)
    return leq(f(c["vspan"]), g(c["vspan"])) and leq(f(c["w"]), g(c["w"]))


def _riesz_roundtrip(c) -> bool:
    x = c["x"]
    dim = x.dim
    basis = [
        Vector(RMAX, tuple(unit(RMAX) if i == j else bot(RMAX) for j in range(dim)))
        for i in range(dim)
    ]
    values = [du.eval_form(x, _RMAX_PHI, d) for d in basis]
    return du.represent_form(values, _RMAX_PHI) == x


def _forms_separate(c) -> bool:
    x, y, phi = c["x"], c["w"], _RMAX_PHI
    if x == y:
        return True
    if du.eval_form(x, phi, x) != du.eval_form(x, phi, y):
        return True
    return du.eval_form(y, phi, x) != du.eval_form(y, phi, y)


def _extend_agrees(c) -> bool:
    fam, phi = c["fam"], _RMAX_PHI
    z = c["x"]
    values = [du.eval_form(z, phi, g) for g in fam]
    try:
        _, form = du.extend_form(fam, values, phi)
    except IdemodError:
        return False
    return form(c["vspan"]) == du.eval_form(z, phi, c["vspan"])


_DUALITY_LAWS = [
    ("galois-x-below-biconj", _ed1),
    ("galois-triple-conj", _ed1b),
    ("galois-covector", _ed2),
    ("rmax-all-closed", _rmax_closed),
    ("closed-meet-closed", _meet_closed),
    ("form-additive", _form_additive),
    ("form-homogeneous", _form_homogeneous),
    ("form-maximal", _form_maximal),
    ("riesz-roundtrip", _riesz_roundtrip),
    ("forms-separate", _forms_separate),
    ("extend-agrees-on-span", _extend_agrees),
    ("self-pairing-unit", lambda c: leq(du.eval_form(c["x"], _RMAX_PHI, c["x"]), _RMAX_PHI)),
]


_BOOL_CFG = du.DualPairConfig(du.CANONICAL, default_phi(BOOL))


def _bool_conj_indicator(c) -> bool:
    """<conj(a), x> is bottom exactly when x <= a."""
    a, x = c["a"], c["x"]
    val = du.bracket_eval(_BOOL_CFG, du.conj_left(_BOOL_CFG, a), x)
    return val == (bot(BOOL) if vec_leq(x, a) else top(BOOL))


def _suite_duality(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for _ in range(trials):
        dim = rng.randrange(1, 5)
        nrows = rng.randrange(1, 4)
        fam = rand_family(rng, RMAX, dim, rng.randrange(1, 4))
        a = Matrix(
            RMAX,
            tuple(
                tuple(rand_scalar(rng, RMAX) for _ in range(dim)) for _ in range(nrows)
            ),
        )
        case = {
            "x": rand_vector(rng, RMAX, dim),
            "w": rand_vector(rng, RMAX, dim),
            "ya": rand_vector(rng, RMAX, nrows),
            "lam": rand_scalar(rng, RMAX),
            "A": a,
            "fam": fam,
            "vspan": rand_member(rng, fam),
        }
        if not _check_all(report, _DUALITY_LAWS, case):
            return
    # Boolean semilattice conjugation, exhaustive in low dimension
    carrier = [bot(BOOL), top(BOOL)]
    for dim in (1, 2, 3):
        for a_ent in itertools.product(carrier, repeat=dim):
            for x_ent in itertools.product(carrier, repeat=dim):
                case = {"a": Vector(BOOL, a_ent), "x": Vector(BOOL, x_ent)}
                if not _check(report, "bool-conj-indicator", case, _bool_conj_indicator):
                    return
    report.notes.append("bool conjugation: exhaustive for dim <= 3")


# -- pinned non-reflexivity ------------------------------------------------------


def _suite_nmax_reflexive(rng: random.Random, trials: int, report: SuiteReport) -> None:
    phi = default_phi(NMAX)
    good = [bot(NMAX), unit(NMAX), top(NMAX)]
    if not _check(
        report,
        "nmax-reflexive-on-units",
        {"samples": good},
        lambda c: du.is_reflexive(phi, c["samples"]),
    ):
        return
    lam = fin(NMAX, 2)
    if du.is_reflexive(phi, [lam]):
        case = {"lam": repr(lam)}
        report.failures.append(Failure("nmax-expected-counterexample", case, case))
        return
    report.checks += 1
    report.notes.append(
        "expected-fail pinned: lambda=2 is not closed in nmax "
        "(2\\0 = -inf, 0/(-inf) = +inf != 2)"
    )
    for n in range(1, 9):
        if not _check(
            report,
            "nmax-positive-naturals-open",
            {"lam": fin(NMAX, n)},
            lambda c: not du.is_reflexive(phi, [c["lam"]]),
        ):
            return
    # pinned: conjugation cannot tell 1 from 2 in the canonical pair
    cfg = du.DualPairConfig(du.CANONICAL, phi)
    one = Vector(NMAX, (fin(NMAX, 1),))
    two = Vector(NMAX, (fin(NMAX, 2),))
    if not _check(
        report,
        "nmax-conjugation-blind",
        {"one": one, "two": two},
        lambda c: du.conj_left(cfg, c["one"]) == du.conj_left(cfg, c["two"]),
    ):
        return
    report.notes.append("expected-fail pinned: conjugates of 1 and 2 coincide over nmax")


# -- matrix transfer ---------------------------------------------------------------


def _mat_res_maximal(c) -> bool:
    a, b = c["a"], c["b"]
    r = lres(a, b)
    grid = r.entries
    n = a.semiring.dim
    for i in range(n):
        for j in range(n):
            s = grid[i][j]
            if s == top(RMAX):
                continue
            bumped = fin(RMAX, -100) if s == bot(RMAX) else fin(RMAX, s.value + 1)
            rows = [list(row) for row in grid]
            rows[i][j] = bumped
            if leq(mul(a, mat_of(rows)), b):
                return False
    return True


_MAT2_PHI = default_phi(MAT2)


def _transfer_reflexive(c) -> bool:
    return du.is_reflexive(_MAT2_PHI, [c["lam"]])


_MATRIX_TRANSFER_LAWS = [
    ("transfer-reflexive", _transfer_reflexive),
    ("mat-res-below", lambda c: leq(mul(c["a"], lres(c["a"], c["b"])), c["b"])),
    ("mat-res-maximal", _mat_res_maximal),
]


def _suite_matrix_transfer(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for _ in range(trials):
        case = {
            "lam": rand_matrix_scalar(rng, MAT2, finite_only=True),
            "a": rand_matrix_scalar(rng, MAT2),
            "b": rand_matrix_scalar(rng, MAT2),
        }
        if not _check_all(report, _MATRIX_TRANSFER_LAWS, case):
            return
    # reflexivity also holds at the lattice extremes
    for lam in (bot(MAT2), top(MAT2), unit(MAT2)):
        if not _check(report, "transfer-reflexive-extremes", {"lam": lam}, _transfer_reflexive):
            return


# -- row/column duality --------------------------------------------------------------


def _suite_rowcol(rng: random.Random, trials: int, report: SuiteReport) -> None:
    phi = default_phi(BOOL)
    carrier = [bot(BOOL), top(BOOL)]
    for m, p in itertools.product((1, 2), repeat=2):
        for bits in itertools.product(carrier, repeat=m * p):
            a = Matrix(BOOL, tuple(tuple(bits[i * p + j] for j in range(p)) for i in range(m)))
            case = {"A": a}
            if not _check(report, "rowcol-anti-isomorphism", case, lambda c: _rowcol_ok(c, phi)):
                return
    report.notes.append("rowcol: exhaustive over Boolean matrices up to 2x2")


def _rowcol_ok(c, phi) -> bool:
    rep = du.rowcol_report(c["A"], phi)
    if not (rep.bijective and rep.order_reversing):
        return False
    image = {du.vec_key(z): v for z, v in rep.iso_pairs}
    for z1, v1 in rep.iso_pairs:
        for z2, v2 in rep.iso_pairs:
            joined = CoVector(BOOL, tuple(add(a, b) for a, b in zip(z1.entries, z2.entries)))
            img = image[du.vec_key(joined)]
            if img != du.lattice_meet(list(rep.col_space), v1, v2):
                return False
    return True


# -- Fenchel suite ------------------------------------------------------------------


def _oracle_sup(outer, inner, values) -> list[Scalar]:
    """For each o of outer, sup over i of inner of o*i - v(i), v(i) read from
    values in step with inner: a double loop with explicit infinity cases and
    no residuation calls."""
    out = []
    for o in outer:
        best = bot(RMAX)  # sup over an empty set of finite terms
        for i, v in zip(inner, values):
            if v == top(RMAX):
                term = bot(RMAX)
            elif v == bot(RMAX):
                term = top(RMAX)
            else:
                term = fin(RMAX, o * i - v.value)
            best = add(best, term)
        out.append(best)
    return out


def oracle_transform(f: fe.GridFunction, slopes: fe.SlopeSet) -> list[Scalar]:
    """The conjugate f*(s) = sup over u of s*u - f(u), by the oracle fold."""
    return _oracle_sup(slopes.slopes, f.points, f.values)


def oracle_hull(f: fe.GridFunction, slopes: fe.SlopeSet) -> list[Scalar]:
    """The biconjugate: the same fold with points and slopes exchanged."""
    return _oracle_sup(f.points, slopes.slopes, oracle_transform(f, slopes))


def rand_grid(rng: random.Random, max_points: int = 15) -> fe.GridFunction:
    m = rng.randrange(2, max_points + 1)
    start = rng.randrange(-5, 5)
    pts, cur = [], start
    for _ in range(m):
        pts.append(cur)
        cur += rng.randrange(1, 4)
    vals = []
    for _ in range(m):
        r = rng.random()
        if r < 0.08:
            vals.append(top(RMAX))
        elif r < 0.22:
            vals.append(fin(RMAX, Fraction(rng.randrange(-20, 21), rng.choice((1, 2, 3)))))
        else:
            vals.append(fin(RMAX, rng.randrange(-10, 11)))
    # one -inf value makes every bracket -inf, so it is decided once per grid
    if rng.random() < 0.1:
        vals[rng.randrange(m)] = bot(RMAX)
    return fe.GridFunction(tuple(pts), tuple(vals))


def rand_slopes(rng: random.Random, max_slopes: int = 9) -> fe.SlopeSet:
    k = rng.randrange(1, max_slopes + 1)
    start = rng.randrange(-4, 2)
    out, cur = [], start
    for _ in range(k):
        out.append(cur)
        cur += rng.randrange(1, 3)
    return fe.SlopeSet(tuple(out))


def _hull_monotone(c) -> bool:
    f, s = c["f"], c["S"]
    bigger = fe.GridFunction(
        f.points, tuple(v if v == bot(RMAX) else add(v, fin(RMAX, 1)) for v in f.values)
    )
    hf = fe.lsc_convex_hull(f, s)
    hg = fe.lsc_convex_hull(bigger, s)
    return all(leq(a, b) for a, b in zip(hf.values, hg.values))


_FENCHEL_LAWS = [
    (
        "hull-below-f",
        lambda c: all(
            leq(h, v)
            for h, v in zip(fe.lsc_convex_hull(c["f"], c["S"]).values, c["f"].values)
        ),
    ),
    ("biconjugate-fixed", lambda c: fe.biconjugate_is_fixed(c["f"], c["S"])),
    (
        "transform-matches-oracle",
        lambda c: list(fe.fenchel_transform(c["f"], c["S"]).values)
        == oracle_transform(c["f"], c["S"]),
    ),
    (
        "hull-matches-oracle",
        lambda c: list(fe.lsc_convex_hull(c["f"], c["S"]).values)
        == oracle_hull(c["f"], c["S"]),
    ),
    ("hull-monotone", _hull_monotone),
]


def _suite_fenchel(rng: random.Random, trials: int, report: SuiteReport) -> None:
    for _ in range(trials):
        case = {"f": rand_grid(rng), "S": rand_slopes(rng)}
        if not _check_all(report, _FENCHEL_LAWS, case):
            return


SUITES = {
    "residuation": (_suite_residuation, 2000),
    "freemod": (_suite_freemod, 500),
    "projector": (_suite_projector, 300),
    "separation": (_suite_separation, 300),
    "hilbert": (_suite_hilbert, 300),
    "duality": (_suite_duality, 300),
    "nmax-reflexive": (_suite_nmax_reflexive, 1),
    "matrix-transfer": (_suite_matrix_transfer, 100),
    "rowcol": (_suite_rowcol, 1),
    "fenchel": (_suite_fenchel, 200),
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise SchemaError(f"unknown suite {_excerpt(name)}; known: {', '.join(sorted(SUITES))}")
    fn, default_trials = SUITES[name]
    n = default_trials if trials is None else trials
    report = SuiteReport(name, seed, n)
    fn(random.Random(seed), n, report)
    return report
