"""Projector, membership, opposite-order projection and the dominating meet."""
import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from idemod import (
    BOOL,
    NMAX,
    RMAX,
    DomainError,
    GeneratingFamily,
    ProjectionResult,
    TheoremViolation,
    Vector,
    act,
    add,
    bot,
    bot_vector,
    column_family,
    family,
    fin,
    inf_dominating,
    is_member,
    leq,
    matrix,
    project,
    project_dual,
    top_vector,
    vec_leq,
    vec_lres,
    vec_rres,
    vector,
    vjoin,
    vmeet,
)
from idemod.laws import rand_family, rand_member, rand_vector
from idemod.project import _checked_member
from idemod.semiring import NEG_INF, POS_INF, Scalar, mul, top
from conftest import MAT2, families, mat2_scalars, scalars, vectors


W_LIFTED = family(RMAX, [[0, 0, 0], [1, 3, 0], [3, 4, 0]])
A_3X2 = matrix(RMAX, [[0, -1], [-1, 0], [0, 0]])


def test_projection_of_lifted_outside_point():
    x = vector(RMAX, [-1, 0, 0])
    res = project(W_LIFTED, x)
    assert res.projection == vector(RMAX, [-1, 0, -1])
    assert not res.fixed
    assert not is_member(W_LIFTED, x)


def test_membership_check_rejects_a_projection_above_the_point():
    """P(x) <= x gives x\\P(x) <= x\\x; a result above x raises even when its
    fixed flag agrees with the residual equality."""
    x = vector(RMAX, [-1, 0, 0])
    above = ProjectionResult(act(x, fin(RMAX, 1)), (), False)
    with pytest.raises(TheoremViolation, match="membership"):
        _checked_member(above, x)


def test_projection_fixes_generators_and_scalings():
    for g in W_LIFTED:
        res = project(W_LIFTED, g)
        assert res.fixed and res.projection == g
        assert is_member(W_LIFTED, act(g, fin(RMAX, 5)))
    assert is_member(W_LIFTED, bot_vector(RMAX, 3))


def test_empty_family_projects_to_bottom():
    empty = GeneratingFamily(RMAX, 3, ())
    res = project(empty, vector(RMAX, [1, 2, 3]))
    assert res.projection == bot_vector(RMAX, 3)
    assert res.coefficients == ()
    assert is_member(empty, bot_vector(RMAX, 3))
    assert not is_member(empty, vector(RMAX, [0, 0, 0]))


def test_projection_by_hand_expansion():
    w = column_family(A_3X2)
    x = vector(RMAX, [-1, -1, 0])
    assert project(w, x).projection == vector(RMAX, [-1, -1, -1])


def test_project_dual_formula():
    w = family(RMAX, [[0, 0]])
    x = vector(RMAX, [-1, -2])
    assert vec_lres(x, w.generators[0]) == fin(RMAX, 1)
    res = project_dual(w, x)
    assert res.projection == vector(RMAX, [-1, -1])
    assert res.coefficients == (fin(RMAX, 1),) and not res.fixed


def test_project_dual_empty_family_is_top():
    res = project_dual(GeneratingFamily(RMAX, 2, ()), vector(RMAX, [0, 0]))
    assert res.projection == top_vector(RMAX, 2) and res.coefficients == ()


def test_project_dual_fixes_op_span():
    w = family(RMAX, [[0, -1], [2, 0]])
    v = vmeet(vec_rres(w.generators[0], fin(RMAX, 3)), vec_rres(w.generators[1], fin(RMAX, -1)))
    assert project_dual(w, v).fixed


def test_dominating_meet_pinned_counterexample():
    w = column_family(A_3X2)
    x = vector(RMAX, [-1, -1, 0])
    q, member = inf_dominating(w, x)
    assert q == x
    assert member is False
    # while the projection from below is a member but differs from x
    assert project(w, x).projection == vector(RMAX, [-1, -1, -1])


def test_dominating_meet_of_member_is_itself():
    w = family(RMAX, [[0, 0]])
    q, member = inf_dominating(w, vector(RMAX, [1, 0]))
    assert q == vector(RMAX, [1, 1])
    assert member is True
    v = act(w.generators[0], fin(RMAX, -2))
    q2, member2 = inf_dominating(w, v)
    assert q2 == v and member2


def test_dominating_meet_no_cover_is_top():
    w = family(RMAX, [[0, "-inf"]])
    q, member = inf_dominating(w, vector(RMAX, [0, 0]))
    assert q == top_vector(RMAX, 2)
    assert member is False


def test_dominating_meet_with_top_generator_entries():
    """Covering through a top entry constrains the coefficient to an open
    interval; the entrywise infimum is still exact."""
    w = family(RMAX, [["+inf"]])
    q, member = inf_dominating(w, vector(RMAX, [5]))
    assert q == vector(RMAX, ["+inf"])
    assert member is True  # top itself is a scaling of the generator

    w2 = family(RMAX, [["+inf", 0]])
    q2, member2 = inf_dominating(w2, vector(RMAX, [3, "-inf"]))
    # dominators are (top, lam) for every lam above bottom, whose meet
    # escapes the span
    assert q2 == vector(RMAX, ["+inf", "-inf"])
    assert member2 is False

    # pinning a coordinate at top forces the coefficient itself to top
    w3 = family(RMAX, [[0, 1]])
    q3, member3 = inf_dominating(w3, vector(RMAX, ["+inf", 0]))
    assert q3 == top_vector(RMAX, 2)
    assert member3 is True


def _dominating_by_grid(w, x, lo=-15, hi=15):
    """Brute-force oracle: meet of the combinations dominating x, with the
    coefficients scanned over a grid wide enough to contain every tight
    coefficient for the integer data used here."""
    grid = [bot(RMAX)] + [fin(RMAX, q) for q in range(lo, hi + 1)]
    best = top_vector(RMAX, x.dim)
    p = len(w)
    for choice in itertools.product(grid, repeat=p):
        v = bot_vector(RMAX, x.dim)
        for g, lam in zip(w, choice):
            v = vjoin(v, act(g, lam))
        if vec_leq(x, v):
            best = vmeet(best, v)
    return best


@pytest.mark.parametrize(
    "gens,point",
    [
        ([[0, -1, 0], [-1, 0, 0]], [-1, -1, 0]),
        ([[0, 0]], [1, 0]),
        ([[0, 2], [1, 0]], [0, 0]),
        ([[0, 1], ["-inf", 1]], [2, 3]),
        ([[3, 0], [0, 2]], [-5, 4]),
        ([[0, "-inf", 1]], [-2, "-inf", -1]),
    ],
)
def test_dominating_meet_matches_grid_oracle(gens, point):
    w = family(RMAX, gens)
    x = vector(RMAX, point)
    q, _ = inf_dominating(w, x)
    assert q == _dominating_by_grid(w, x)


# The choice-enumeration oracle's cover constraints: covering row i with
# column j bounds that column's coefficient: from below by a closed bound,
# to the open interval above bottom (A_ij top), not at all (_ALL: x_i
# bottom), or to nothing (_EMPTY: A_ij bottom cannot cover).  _box_floor is
# the least value of A_ij times a coefficient in that set.

_ALL = 0
_CLOSED = 1
_OPEN = 2  # every lambda strictly above bottom
_EMPTY = 3


def _cover_constraint(a: Scalar, xi: Scalar) -> tuple[int, Scalar | None]:
    x, q = xi.value, a.value
    if x is NEG_INF:
        return (_ALL, None)
    if q is NEG_INF:
        return (_EMPTY, None)
    if q is POS_INF:
        return (_OPEN, None)
    if x is POS_INF:
        return (_CLOSED, top(a.semiring))
    return (_CLOSED, fin(a.semiring, x - q))


def _box_floor(a: Scalar, constraint: tuple) -> Scalar:
    kind, bound = constraint
    sr = a.semiring
    if kind == _ALL:
        return bot(sr)
    if kind == _CLOSED:
        return mul(a, bound)
    # open interval: the infimum of a*lambda over lambda > bottom
    return top(sr) if a.value is POS_INF else bot(sr)


def _tighten(c1: tuple, c2: tuple) -> tuple:
    k1, b1 = c1
    k2, b2 = c2
    if k1 == _EMPTY or k2 == _EMPTY:
        return (_EMPTY, None)
    if k1 == _ALL:
        return c2
    if k2 == _ALL:
        return c1
    if k1 == _OPEN:
        return c2  # closed bounds here are never bottom
    if k2 == _OPEN:
        return c1
    return c1 if leq(b2, b1) else c2


def _dominating_by_choices(w, x):
    """Enumeration oracle: the meet, over every choice of one covering column
    per row, of the least point of the box of coefficients that choice
    allows.  Exact, but p**n choices."""
    n, p = x.dim, len(w)
    if p == 0:
        return x if x == bot_vector(RMAX, n) else top_vector(RMAX, n)
    cols = [g.entries for g in w]
    covers = [[_cover_constraint(cols[j][i], x.entries[i]) for j in range(p)] for i in range(n)]
    q = None
    for choice in itertools.product(range(p), repeat=n):
        constraints = [(_ALL, None)] * p
        for i, j in enumerate(choice):
            constraints[j] = _tighten(constraints[j], covers[i][j])
        if any(c[0] == _EMPTY for c in constraints):
            continue
        entries = []
        for i in range(n):
            acc = _box_floor(cols[0][i], constraints[0])
            for j in range(1, p):
                acc = add(acc, _box_floor(cols[j][i], constraints[j]))
            entries.append(acc)
        v = Vector(RMAX, tuple(entries))
        q = v if q is None else vmeet(q, v)
    return top_vector(RMAX, n) if q is None else q


def _family_and_point(n):
    points = st.one_of(vectors(dim=n), st.just(bot_vector(RMAX, n)))
    return st.tuples(families(dim=n, max_size=4), points)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=4).flatmap(_family_and_point))
def test_dominating_meet_matches_choice_enumeration(case):
    """The closed form equals the meet over all p**n covering choices, with
    infinite entries, empty families and all-bottom points."""
    w, x = case
    q, member = inf_dominating(w, x)
    assert q == _dominating_by_choices(w, x)
    assert member == is_member(w, q)


def test_dominating_meet_past_enumeration_size():
    """20 generators in dimension 6: 6.4e7 covering choices, far beyond any
    enumeration, still answer exactly."""
    rng = random.Random(20260808)
    w = rand_family(rng, RMAX, 6, 20)
    member_point = rand_member(rng, w)
    for x in (member_point, rand_vector(rng, RMAX, 6), rand_vector(rng, RMAX, 6, True)):
        q, member = inf_dominating(w, x)
        assert vec_leq(x, q)
        assert member == is_member(w, q)
    assert inf_dominating(w, member_point) == (member_point, True)


def test_dominating_meet_requires_rmax():
    from idemod import NMAX

    w = family(NMAX, [[0, 0]])
    with pytest.raises(DomainError):
        inf_dominating(w, vector(NMAX, [1, 1]))


@settings(max_examples=80)
@given(families(dim=3, max_size=3), vectors(dim=3))
def test_projection_is_decreasing_and_idempotent(fam, x):
    p = project(fam, x).projection
    assert vec_leq(p, x)
    assert project(fam, p).projection == p


@settings(max_examples=80)
@given(families(dim=2, max_size=3), vectors(dim=2), scalars(), scalars())
def test_projection_maximality(fam, x, l1, l2):
    v = bot_vector(RMAX, 2)
    for g, lam in zip(fam, itertools.cycle([l1, l2])):
        v = vjoin(v, act(g, lam))
    if vec_leq(v, x):
        assert vec_leq(v, project(fam, x).projection)


@settings(max_examples=80)
@given(families(dim=2, max_size=3), vectors(dim=2), vectors(dim=2))
def test_dual_characterization(fam, x, z):
    """The projection is the least point whose residuals against every
    generator dominate those of x."""
    p = project(fam, x).projection
    from idemod import leq

    assert all(leq(vec_lres(g, x), vec_lres(g, p)) for g in fam)
    if all(leq(vec_lres(g, x), vec_lres(g, z)) for g in fam):
        assert vec_leq(p, z)


@settings(max_examples=200)
@given(st.data())
def test_projectors_match_their_generator_by_generator_definitions(data):
    """Oracle independent of the family's matrix: P(x) joins g*(g\\x) from
    the bottom vector, and its mirror meets g/(x\\g) from the top vector,
    over rmax, nmax, bool and the non-commuting mat2, with +-inf entries."""
    sr = data.draw(st.sampled_from([RMAX, NMAX, BOOL, MAT2]), label="semiring")
    n, p = data.draw(st.integers(1, 5), label="n"), data.draw(st.integers(0, 5), label="p")
    entry = mat2_scalars() if sr is MAT2 else scalars(sr)

    def draw_vector():
        return Vector(sr, tuple(data.draw(st.lists(entry, min_size=n, max_size=n))))

    gens = tuple(draw_vector() for _ in range(p))
    x = draw_vector()
    if gens and data.draw(st.booleans(), label="x in the span"):
        x = reduce(vjoin, (act(g, data.draw(entry)) for g in gens))
    w = GeneratingFamily(sr, n, gens)

    coeffs = tuple(vec_lres(g, x) for g in gens)
    want = reduce(vjoin, map(act, gens, coeffs), bot_vector(sr, n))
    assert project(w, x) == ProjectionResult(want, coeffs, want == x)

    coeffs = tuple(vec_lres(x, g) for g in gens)
    want = reduce(vmeet, map(vec_rres, gens, coeffs), top_vector(sr, n))
    assert project_dual(w, x) == ProjectionResult(want, coeffs, want == x)
