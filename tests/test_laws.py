"""The suite runner itself: determinism, failure reporting, shrinking, and
the scalar-law table: the 28 laws of ``laws._SCALAR_LAWS`` read the subterms
that ``laws._scalar_terms`` computes once per case."""
import functools
import itertools
import random
from fractions import Fraction

import pytest

from idemod import IdemodError
from idemod import laws
from idemod import semiring
from idemod.freemod import Vector
from idemod.laws import SUITES, Failure, run_suite, _shrink
from idemod.semiring import (
    BOOL,
    NEG_INF,
    NMAX,
    POS_INF,
    RMAX,
    Scalar,
    add,
    bot,
    fin,
    leq,
    lres,
    mat_of,
    matrix_semiring,
    meet,
    mul,
    rres,
    top,
)
from conftest import perfbench_module


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_smoke(name):
    rep = run_suite(name, seed=5, trials=20)
    assert rep.ok, rep.failures
    assert rep.checks > 0


def test_deterministic_given_seed():
    a = run_suite("projector", seed=9, trials=30)
    b = run_suite("projector", seed=9, trials=30)
    assert (a.checks, a.notes) == (b.checks, b.notes)


def test_unknown_suite():
    with pytest.raises(IdemodError):
        run_suite("no-such-suite")


def test_nmax_suite_reports_pinned_counterexample():
    rep = run_suite("nmax-reflexive", seed=0)
    assert rep.ok
    assert any("expected-fail pinned" in n for n in rep.notes)


def test_shrink_finds_small_counterexample():
    # a deliberately false "law": multiplication never exceeds the left factor
    case = {"a": fin(RMAX, 7), "lam": fin(RMAX, 5)}
    small, steps = _shrink(case, lambda c: leq(mul(c["a"], c["lam"]), c["a"]))
    assert not leq(mul(small["a"], small["lam"]), small["a"])
    # at least one component was simplified away from the original values
    assert small != case and steps >= 1


def test_failure_records_original_case_and_shrink_steps():
    report = laws.SuiteReport("demo", seed=0, trials=1)
    case = {"a": fin(RMAX, 7), "lam": fin(RMAX, 5)}
    assert laws._fail(report, "never", case, lambda c: False) is False
    [failure] = report.failures
    assert failure.original == {"a": repr(fin(RMAX, 7)), "lam": repr(fin(RMAX, 5))}
    assert failure.case != failure.original
    # a predicate that always fails takes each scalar to bottom in one step
    assert failure.case == {"a": repr(bot(RMAX)), "lam": repr(bot(RMAX))}
    assert failure.steps == 2


def test_failure_formatting():
    f = Failure("some-law", {"a": "<rmax 3>"})
    assert "some-law" in str(f)
    assert "<rmax 3>" in str(f)


# -- the scalar-law table and its shared subterms -----------------------------


def _scalar_case_groups():
    # the exhaustive Boolean enumeration of the residuation suite, and 150
    # drawn cases for each of the other instances
    carrier = [bot(BOOL), top(BOOL)]
    subsets = [[bot(BOOL)], [top(BOOL)], carrier]
    groups = {"bool": [
        {"a": a, "b": b, "z": z, "lam": lam, "mu": mu, "nu": nu, "U": U, "L": L}
        for a, b, z, lam, mu, nu in itertools.product(carrier, repeat=6)
        for U in subsets
        for L in subsets
    ]}
    rng = random.Random(20260808)
    for sr, tag in ((RMAX, "rmax"), (NMAX, "nmax"), (laws.MAT2, "mat2")):
        groups[tag] = [laws._scalar_case(rng, sr) for _ in range(150)]
    return groups


# each shared subterm, written out from its key
_TERM_EXPRESSIONS = {
    r"a\b": lambda c: lres(c["a"], c["b"]),
    "a*lam": lambda c: mul(c["a"], c["lam"]),
    "b*lam": lambda c: mul(c["b"], c["lam"]),
    "a/lam": lambda c: rres(c["a"], c["lam"]),
    "a/mu": lambda c: rres(c["a"], c["mu"]),
    "a+b": lambda c: add(c["a"], c["b"]),
    "meet U": lambda c: functools.reduce(meet, c["U"]),
    r"a*(a\b)": lambda c: mul(c["a"], lres(c["a"], c["b"])),
    "(a/lam)*lam": lambda c: mul(rres(c["a"], c["lam"]), c["lam"]),
    r"a\(a*lam)": lambda c: lres(c["a"], mul(c["a"], c["lam"])),
    "(a*lam)/lam": lambda c: rres(mul(c["a"], c["lam"]), c["lam"]),
}


def test_scalar_terms_match_their_expressions():
    """_scalar_terms returns a copy of the case plus exactly the subterms
    above, each equal to the expression its key spells; mat2 cases tell a
    product from its mirror image."""
    for tag, cases in _scalar_case_groups().items():
        for case in cases:
            before = dict(case)
            terms = laws._scalar_terms(case)
            assert case == before
            assert terms.keys() == case.keys() | _TERM_EXPRESSIONS.keys()
            assert all(terms[k] is v for k, v in case.items())
            for key, expr in _TERM_EXPRESSIONS.items():
                assert terms[key] == expr(case), (tag, key, case)


_ONE = {
    "rmax": fin(RMAX, 1),
    "nmax": fin(NMAX, 1),
    "mat": mat_of([[fin(RMAX, 1), bot(RMAX)], [bot(RMAX), fin(RMAX, 1)]]),
}


def _one_too_high(res):
    def broken(x, y):
        if x.semiring is BOOL:
            return top(BOOL)
        return semiring.mul(res(x, y), _ONE[x.semiring.name])

    return broken


def _mul_bottom_is_unit(a, b):
    eps = bot(a.semiring)
    if a == eps:
        return b
    if b == eps:
        return a
    return semiring.mul(a, b)


@pytest.mark.parametrize("broken", [
    None,
    ("lres", _one_too_high(semiring.lres)),
    ("rres", _one_too_high(semiring.rres)),
    ("mul", _mul_bottom_is_unit),
])
def test_scalar_laws_notice_each_broken_op(broken, monkeypatch):
    """With correct ops no scalar case fails; with a broken op monkeypatched
    into laws, some case of every instance fails."""
    groups = _scalar_case_groups()
    if broken is not None:
        monkeypatch.setattr(laws, *broken)
    for tag, cases in groups.items():
        report = laws.SuiteReport("residuation", 0, len(cases))
        for case in cases:
            if not laws._run_scalar_case(report, case, tag):
                break
        if broken is None:
            assert not report.failures, report.failures
        else:
            assert report.failures, f"{tag}: the broken op went unnoticed"
            assert report.failures[0].law.startswith(f"{tag}/")


def test_rand_matrix_scalar_draws_like_rand_scalar():
    """Matrix entries come from the RMAX distribution, with the same RNG calls
    in the same order as drawing an RMAX scalar per entry, row by row."""
    for n in (1, 2, 3):
        for finite_only in (False, True):
            r1, r2 = random.Random(n), random.Random(n)
            for _ in range(50):
                m = laws.rand_matrix_scalar(r1, matrix_semiring(n), finite_only)
                grid = [[laws.rand_scalar(r2, RMAX, finite_only) for _ in range(n)]
                        for _ in range(n)]
                assert m == mat_of(grid)
                assert [type(q) for q in m.value] == [type(q) for q in mat_of(grid).value]
            assert r1.getstate() == r2.getstate()


def _finite_entries(value):
    if isinstance(value, list):
        return sum(_finite_entries(v) for v in value)
    return sum(q is not NEG_INF and q is not POS_INF for q in value.value)


def test_matrix_failures_are_shrunk(monkeypatch):
    real = semiring._mat_lres

    def lres_one_too_high(a, b):
        r = real(a, b)
        return Scalar(r.semiring, tuple(
            q if q is NEG_INF or q is POS_INF else q + 1 for q in r.value
        ))

    monkeypatch.setattr(semiring, "_mat_lres", lres_one_too_high)
    shrunk = []
    real_shrink = laws._shrink

    def recording_shrink(case, pred):
        small, steps = real_shrink(case, pred)
        shrunk.append((case, small))
        return small, steps

    monkeypatch.setattr(laws, "_shrink", recording_shrink)
    rep = run_suite("residuation", seed=20260808, trials=20)
    [failure] = rep.failures
    assert failure.law.startswith("mat2/")
    [(original, small)] = shrunk
    assert failure.case == {k: repr(v) for k, v in small.items()}
    assert failure.original == {k: repr(v) for k, v in original.items()}
    assert _finite_entries(list(small.values())) < _finite_entries(list(original.values()))


def test_matrix_shrink_candidates():
    x = mat_of([[fin(RMAX, 6), bot(RMAX)], [top(RMAX), fin(RMAX, 0)]])
    cands = {tuple(c.value) for c in laws._simpler(x)}
    # each entry moves only down the ranks -inf < 0 < +inf < other finite
    assert cands == {
        (NEG_INF, NEG_INF, POS_INF, 0),  # 6 -> -inf
        (0, NEG_INF, POS_INF, 0),  # 6 -> 0
        (POS_INF, NEG_INF, POS_INF, 0),  # 6 -> +inf
        (3, NEG_INF, POS_INF, 0),  # 6 moved toward 0
        (6, NEG_INF, NEG_INF, 0),  # +inf -> -inf
        (6, NEG_INF, 0, 0),  # +inf -> 0
        (6, NEG_INF, POS_INF, NEG_INF),  # 0 -> -inf
    }
    assert all(c.semiring is x.semiring for c in laws._simpler(x))


def test_scalar_shrink_candidates_have_lower_rank():
    for sr in (RMAX, NMAX, BOOL):
        assert list(laws._simpler(bot(sr))) == []
        assert list(laws._simpler(top(sr))) == [bot(sr)] + ([] if sr is BOOL else [fin(sr, 0)])
    assert list(laws._simpler(fin(RMAX, 0))) == [bot(RMAX)]
    assert list(laws._simpler(fin(RMAX, -1))) == [bot(RMAX), fin(RMAX, 0), top(RMAX)]
    assert list(laws._simpler(fin(RMAX, Fraction(7, 2)))) == [
        bot(RMAX), fin(RMAX, 0), top(RMAX), fin(RMAX, 3)
    ]


def test_always_failing_shrink_reaches_bottom_one_step_per_scalar():
    """With a predicate that never holds, every candidate is taken, and each
    step lowers one scalar (or one matrix entry) straight to bottom."""
    mat2 = matrix_semiring(2)
    case = {
        "a": fin(RMAX, 7),
        "lam": top(RMAX),
        "x": Vector(RMAX, (fin(RMAX, Fraction(5, 2)), bot(RMAX), fin(RMAX, 0))),
        "m": mat_of([[fin(RMAX, 6), bot(RMAX)], [top(RMAX), fin(RMAX, 0)]]),
        "n": fin(NMAX, 4),
    }
    small, steps = _shrink(case, lambda c: False)
    assert small == {
        "a": bot(RMAX),
        "lam": bot(RMAX),
        "x": Vector(RMAX, (bot(RMAX),) * 3),
        "m": bot(mat2),
        "n": bot(NMAX),
    }
    assert steps == 1 + 1 + 2 + 3 + 1


def test_shrink_drops_generators_then_lowers_their_entries():
    """A family first loses generators while the predicate still fails, then
    each entry of the ones left goes to bottom, one step per entry."""
    from idemod.freemod import family

    fam = family(RMAX, [[3, "1/2"], ["+inf", 7], [0, "-inf"]])
    small, steps = _shrink({"fam": fam}, lambda c: len(c["fam"]) < 2)
    assert len(small["fam"]) == 2
    assert all(s == bot(RMAX) for g in small["fam"] for s in g.entries)
    assert steps == 4  # one generator out, then +inf, 7 and 0 to bottom


# -- reported cases, case distributions and the pinned reports ----------------


def test_bool_conj_failure_reports_a_failing_case(monkeypatch):
    """The Boolean indicator law recomputes the conjugate from the case, so a
    shrunk case still fails."""
    from idemod import dual
    from idemod.freemod import CoVector, Vector

    real = dual.conj_left
    e, eps = top(BOOL), bot(BOOL)

    def broken(cfg, x):
        if x.semiring == BOOL and x.entries == (e, eps):
            return CoVector(BOOL, (e, e))
        return real(cfg, x)

    monkeypatch.setattr(dual, "conj_left", broken)
    [failure] = run_suite("duality", seed=1, trials=2).failures
    assert failure.law == "bool-conj-indicator"
    vectors = {
        repr(v): v
        for n in (1, 2, 3)
        for v in (Vector(BOOL, es) for es in itertools.product([eps, e], repeat=n))
    }
    a, x = vectors[failure.case["a"]], vectors[failure.case["x"]]
    assert a.entries == (e, eps)
    cfg = dual.DualPairConfig(dual.CANONICAL, semiring.default_phi(BOOL))
    val = dual.bracket_eval(cfg, broken(cfg, a), x)
    assert val != (eps if all(leq(s, t) for s, t in zip(x.entries, a.entries)) else e)


def test_fenchel_grids_rarely_hold_minus_infinity():
    """One -inf value sends every bracket to -inf; about one fenchel case in
    ten is in that regime."""
    rng = random.Random(20260808)
    cases = [(laws.rand_grid(rng), laws.rand_slopes(rng)) for _ in range(200)]
    assert 5 <= sum(bot(RMAX) in f.values for f, _ in cases) <= 40


def test_traced_functions_exist():
    """The traced benchmark run wraps each (module, function) it names by
    looking it up in the loaded module, so a renamed or deleted one breaks it."""
    import importlib
    import sys

    tracer = perfbench_module("tracer")
    missing = []
    for module, fn in tracer.traced_names():
        importlib.import_module(f"idemod.{module}")
        if not callable(getattr(sys.modules[f"idemod.{module}"], fn, None)):
            missing.append(f"{module}.{fn}")
    assert missing == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_law_report_matches_benchmark_pin(name, capsys):
    """`idemod laws` prints the report the benchmark pins, byte for byte, at
    the benchmark's seed and trials."""
    import hashlib
    import json

    from idemod.cli import main

    inputs = perfbench_module("inputs")
    pins = json.loads((inputs.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    trials = max(1, SUITES[name][1] // inputs.LAWS_TRIALS_DIVISOR)
    assert main(["laws", name, "--seed", str(inputs.DEFAULT_SEED), "--trials", str(trials)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins["laws"][name]
