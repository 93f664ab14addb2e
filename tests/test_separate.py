"""Separation: universal, dual, convex, half-spaces, point pairs."""
import json
import pathlib
import subprocess
import sys
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from idemod import (
    BOOL,
    NMAX,
    RMAX,
    DomainError,
    MismatchError,
    ProjectionResult,
    TheoremViolation,
    Vector,
    act,
    add,
    bot,
    bot_vector,
    convex_projection,
    family,
    fin,
    halfspace,
    halfspace_contains,
    is_member,
    leq,
    lift,
    meet,
    separate_dual,
    separate_from_convex,
    separate_from_module,
    separate_points,
    top,
    top_vector,
    unit,
    vec_lres,
    vector,
    vjoin,
)
from idemod.cli import main
from conftest import families, scalars, vectors

ROOT = pathlib.Path(__file__).resolve().parent.parent

W_LIFTED = family(RMAX, [[0, 0, 0], [1, 3, 0], [3, 4, 0]])
HULL_ABC = family(RMAX, [[0, 0], [1, 3], [3, 4]])
M = vector(RMAX, [-1, 0])


def test_module_separation_of_lifted_point():
    cert = separate_from_module(W_LIFTED, vector(RMAX, [-1, 0, 0]))
    assert cert.projection == vector(RMAX, [-1, 0, -1])
    assert cert.separated


def test_module_separation_of_members():
    assert not separate_from_module(W_LIFTED, W_LIFTED.generators[1]).separated
    assert not separate_from_module(W_LIFTED, bot_vector(RMAX, 3)).separated


def test_convex_separation_of_m():
    sep = separate_from_convex(HULL_ABC, M)
    assert sep.nu == fin(RMAX, -1)
    assert sep.y == vector(RMAX, [-1, 0])
    assert sep.lifted_projection == vector(RMAX, [-1, 0, -1])
    assert not sep.member
    assert sep.normalized == vector(RMAX, [0, 1])
    assert convex_projection(HULL_ABC, M) == vector(RMAX, [0, 1])


def test_convex_separation_of_hull_point():
    x = vector(RMAX, [1, 3])
    sep = separate_from_convex(HULL_ABC, x)
    assert sep.nu == unit(RMAX)
    assert sep.y == x
    assert sep.member
    assert sep.normalized == x
    assert convex_projection(HULL_ABC, x) == x


def test_convex_separation_singular_case():
    """Separating bottom from a hull that misses it: nu and y collapse to
    bottom and no normalised projection exists."""
    c = family(RMAX, [[0], ["+inf"]])
    x = vector(RMAX, ["-inf"])
    sep = separate_from_convex(c, x)
    assert sep.nu == bot(RMAX)
    assert sep.y == bot_vector(RMAX, 1)
    assert not sep.member
    assert sep.normalized is None
    assert convex_projection(c, x) is None


def test_halfspace_from_m():
    h = halfspace(HULL_ABC, M)
    assert h.contains(vector(RMAX, [0, 0]))
    assert h.contains(vector(RMAX, [1, 3]))
    assert h.contains(vector(RMAX, [3, 4]))
    assert h.contains(vector(RMAX, [5, 5]))
    assert not h.contains(M)
    assert halfspace_contains(h, vector(RMAX, [0, 0]))


def test_halfspace_matches_min_form():
    """Over the plane the predicate reduces to min(-1-u, -v, 0) <= -1."""
    h = halfspace(HULL_ABC, M)
    for u in range(-4, 5):
        for v in range(-4, 5):
            expected = min(-1 - u, -v, 0) <= -1
            assert h.contains(vector(RMAX, [u, v])) == expected


def test_convex_separation_needs_semifield():
    with pytest.raises(DomainError):
        separate_from_convex(family(NMAX, [[0, 0]]), vector(NMAX, [1, 1]))
    with pytest.raises(MismatchError):
        separate_from_convex(family(RMAX, [[0, 0]]), vector(RMAX, [1, 1, 1]))


def test_boolean_convex_separation():
    c = family(BOOL, [["e", "eps"]])
    inside = vector(BOOL, ["e", "eps"])
    outside = vector(BOOL, ["e", "e"])
    assert separate_from_convex(c, inside).member
    sep = separate_from_convex(c, outside)
    assert not sep.member
    h = halfspace(c, outside)
    assert h.contains(inside) and not h.contains(outside)


def test_dual_separation():
    w = family(RMAX, [[0, 0]])
    x = vector(RMAX, [-1, -2])
    cert = separate_dual(w, x)
    assert cert.projection == vector(RMAX, [-1, -1])
    assert cert.separated
    # opposite-order span elements are fixed, hence not separated
    assert not separate_dual(w, vector(RMAX, [3, 3])).separated
    assert not separate_dual(w, top_vector(RMAX, 2)).separated


def test_dual_separation_reuses_the_projector_coefficients(monkeypatch):
    """The orthogonality check compares against the x\\g that project_dual
    holds: 2p + 2 residual folds for p generators, member or not (x\\g and
    P(x)\\g per generator, then the membership residuals)."""
    calls = []
    for mod in (sys.modules["idemod.project"], sys.modules["idemod.freemod"]):
        def counted(x, y, _fn=mod._residual):
            calls.append(1)
            return _fn(x, y)

        monkeypatch.setattr(mod, "_residual", counted)
    w = family(RMAX, [[0, 0], [2, -1], [-1, 3]])
    for x, separated in ((vector(RMAX, [0, 5]), True), (w.generators[1], False)):
        calls.clear()
        assert separate_dual(w, x).separated is separated
        assert len(calls) == 2 * len(w) + 2


def test_separate_points():
    assert separate_points(vector(RMAX, [0, 0]), vector(RMAX, [0, 0])) is None
    x, y = vector(RMAX, [0, 0]), vector(RMAX, [1, 0])
    z = separate_points(x, y)
    assert z in (x, y)
    assert vec_lres(x, z) != vec_lres(y, z)
    x2, y2 = vector(RMAX, ["-inf", 0]), vector(RMAX, [0, 0])
    z2 = separate_points(x2, y2)
    assert vec_lres(x2, z2) != vec_lres(y2, z2)


@settings(max_examples=100)
@given(families(dim=3, max_size=4), vectors(dim=3))
def test_universal_separation_iff_membership(fam, x):
    cert = separate_from_module(fam, x)  # orthogonality asserted internally
    assert cert.separated == (not is_member(fam, x))


def _hulls_and_points(sr):
    return st.tuples(families(sr, dim=2, max_size=3).filter(len), vectors(sr, dim=2))


@settings(max_examples=100)
@given(st.sampled_from([RMAX, BOOL]).flatmap(_hulls_and_points))
def test_convex_relations_on_generators(case):
    """The certificate against the convex form of the theorem, written out
    in the plane: lambda_g = g\\x ^ e, nu and y their folds."""
    fam, x = case
    sep = separate_from_convex(fam, x)
    e = unit(x.semiring)
    lams = [meet(vec_lres(g, x), e) for g in fam]
    assert sep.nu == reduce(add, lams)
    assert sep.y == reduce(vjoin, map(act, fam, lams))
    assert sep.member == (sep.y == x and sep.nu == e)
    assert sep.lifted_projection == Vector(x.semiring, sep.y.entries + (sep.nu,))
    for g in fam:
        assert meet(vec_lres(g, x), e) == meet(vec_lres(g, sep.y), sep.nu)

    lhs = meet(vec_lres(x, x), e)
    rhs = meet(vec_lres(x, sep.y), sep.nu)
    if sep.member:
        assert lhs == rhs
    else:
        assert leq(rhs, lhs) and rhs != lhs
    h = halfspace(fam, x)
    assert all(h.contains(g) for g in fam)
    assert sep.member or not h.contains(x)


@given(
    st.sampled_from([RMAX, BOOL]).flatmap(
        lambda sr: st.tuples(vectors(sr, dim=2), vectors(sr, dim=2), scalars(sr))
    )
)
def test_lifted_residuals_meet_the_last_coordinate(case):
    """(v, e)\\(x, e) = v\\x ^ e and (v, e)\\(y, nu) = v\\y ^ nu, nu in
    {-inf, finite, +inf}: e\\e = e and e\\nu = nu."""
    v, x, nu = case
    sr = v.semiring
    assert vec_lres(lift(v), lift(x)) == meet(vec_lres(v, x), unit(sr))
    for n in (bot(sr), nu, top(sr)):
        assert vec_lres(lift(v), Vector(sr, x.entries + (n,))) == meet(vec_lres(v, x), n)


def _lower_first_entry(res):
    p = res.projection
    lowered = Vector(p.semiring, (bot(p.semiring),) + p.entries[1:])
    return ProjectionResult(lowered, res.coefficients, res.fixed)


def _flip_fixed(res):
    return ProjectionResult(res.projection, res.coefficients, not res.fixed)


@pytest.mark.parametrize(
    "fault, message", [(_lower_first_entry, "orthogonality"), (_flip_fixed, "membership")]
)
def test_convex_self_checks_catch_a_faulty_projection(fault, message, monkeypatch, tmp_path, capsys):
    """A projection that breaks orthogonality on a lifted generator, or a
    wrong fixed-point flag, raises for points outside and inside the hull,
    and `idemod separate` exits 1."""
    separate = sys.modules["idemod.separate"]
    monkeypatch.setattr(separate, "project", lambda w, x, _fn=separate.project: fault(_fn(w, x)))
    for x in (M, vector(RMAX, [1, 3])):
        with pytest.raises(TheoremViolation, match=message):
            separate_from_convex(HULL_ABC, x)
    path = tmp_path / "s.json"
    path.write_text(
        json.dumps({"semiring": "rmax", "convex": [["0", "0"], ["1", "3"], ["3", "4"]],
                    "point": ["-1", "0"]}),
        encoding="utf-8",
    )
    assert main(["separate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_worked_example_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_worked_example.py"),
         "--outdir", str(tmp_path), "--samples", "32"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads((tmp_path / "worked_example.json").read_text(encoding="utf-8"))
    assert data["N"] == ["-1", "0", "-1"]
    assert data["nu"] == "-1"
    assert data["P"] == ["0", "1"]
    assert data["halfspace_contains"] == {"A": True, "B": True, "C": True, "M": False}
    assert (tmp_path / "worked_example.svg").is_file()


@settings(max_examples=100)
@given(families(dim=2, max_size=3).filter(lambda f: len(f) > 0), vectors(dim=2))
def test_halfspace_always_covers_hull_points(fam, x):
    h = halfspace(fam, x)
    # a hull element: join of generators scaled by e joined across the family
    v = fam.generators[0]
    for g in fam:
        v = vjoin(v, g)
    assert h.contains(v)


@given(vectors(dim=3), vectors(dim=3))
def test_points_always_witnessed(x, y):
    z = separate_points(x, y)
    if x == y:
        assert z is None
    else:
        assert vec_lres(x, z) != vec_lres(y, z)
