"""Conjugations, closed elements, reflexivity, linear forms, row/column
duality."""
import itertools
import random

import pytest
from hypothesis import given, settings

from idemod import (
    BOOL,
    CANONICAL,
    MATRIX,
    NMAX,
    OPPOSITE,
    RMAX,
    CoVector,
    DomainError,
    DualPairConfig,
    LinearForm,
    MismatchError,
    Vector,
    act,
    add,
    bot,
    bot_vector,
    bracket_eval,
    conj_left,
    conj_right,
    covector,
    default_phi,
    eval_form,
    extend_form,
    family,
    fin,
    is_closed,
    is_reflexive,
    leq,
    make_phi,
    matrix,
    matrix_semiring,
    mul,
    opposite_bracket,
    phi_nn,
    represent_form,
    rowcol_report,
    top,
    top_vector,
    unit,
    vec_leq,
    vec_lres,
    vector,
    vjoin,
    vmeet,
)
from idemod.dual import lattice_meet, vec_key
from idemod.laws import rand_scalar, rand_vector
from conftest import mat2_scalars, scalars, vectors

PHI0 = make_phi(fin(RMAX, 0))
CFG = DualPairConfig(CANONICAL, PHI0)
MAT2 = matrix_semiring(2)


def test_canonical_conjugation_negates():
    x = vector(RMAX, [2, -1])
    assert conj_left(CFG, x) == covector(RMAX, [-2, 1])
    assert conj_right(CFG, covector(RMAX, [-2, 1])) == x


def test_conjugation_extremes():
    assert conj_left(CFG, bot_vector(RMAX, 3)) == covector(RMAX, ["+inf"] * 3)
    assert conj_right(CFG, covector(RMAX, ["+inf", "+inf"])) == vector(RMAX, ["-inf", "-inf"])


def test_boolean_conjugation():
    cfg = DualPairConfig(CANONICAL, default_phi(BOOL))
    x = vector(BOOL, ["e", "eps"])
    assert conj_left(cfg, x) == covector(BOOL, ["eps", "e"])
    assert conj_right(cfg, covector(BOOL, ["eps", "eps"])) == vector(BOOL, ["e", "e"])
    # oracle: join of the four covectors satisfying the defining inequality
    eps, e = bot(BOOL), top(BOOL)
    best = None
    for y_ent in itertools.product([eps, e], repeat=2):
        y = CoVector(BOOL, y_ent)
        if leq(bracket_eval(cfg, y, x), cfg.phi):
            joined = tuple(add(a, b) for a, b in zip(best.entries, y.entries)) if best else y_ent
            best = CoVector(BOOL, joined)
    assert conj_left(cfg, x) == best


def test_boolean_conjugate_is_membership_indicator():
    """Exhaustively in dimension <= 4: the conjugate of a, evaluated against
    x, is bottom exactly when x <= a."""
    cfg = DualPairConfig(CANONICAL, default_phi(BOOL))
    eps, e = bot(BOOL), top(BOOL)
    for dim in (1, 2, 3, 4):
        for a_ent in itertools.product([eps, e], repeat=dim):
            a = Vector(BOOL, a_ent)
            adeg = conj_left(cfg, a)
            for x_ent in itertools.product([eps, e], repeat=dim):
                x = Vector(BOOL, x_ent)
                val = bracket_eval(cfg, adeg, x)
                assert (val == eps) == vec_leq(x, a)


def test_nmax_open_element():
    cfg = DualPairConfig(CANONICAL, default_phi(NMAX))
    x = Vector(NMAX, (fin(NMAX, 2),))
    assert conj_left(cfg, x) == CoVector(NMAX, (bot(NMAX),))
    assert conj_right(cfg, CoVector(NMAX, (bot(NMAX),))) == Vector(NMAX, (top(NMAX),))
    assert not is_closed(cfg, x)


def test_nmax_conjugation_cannot_separate():
    """Pinned pathology: 1 and 2 have identical conjugates, so the
    conjugation pair fails to separate points over the naturals, and the
    only genuine linear continuous forms agree on them as well."""
    cfg = DualPairConfig(CANONICAL, default_phi(NMAX))
    one = Vector(NMAX, (fin(NMAX, 1),))
    two = Vector(NMAX, (fin(NMAX, 2),))
    assert one != two
    assert conj_left(cfg, one) == conj_left(cfg, two)
    # the constant-bottom form and multiplication by top cannot tell them apart
    form_bottom = lambda lam: bot(NMAX)
    form_topmul = lambda lam: mul(lam, top(NMAX))
    for f in (form_bottom, form_topmul):
        assert f(fin(NMAX, 1)) == f(fin(NMAX, 2))


def test_reflexivity():
    assert is_reflexive(PHI0, [fin(RMAX, -5), fin(RMAX, 0), fin(RMAX, 3), bot(RMAX), top(RMAX)])
    assert is_reflexive(default_phi(BOOL), [bot(BOOL), top(BOOL)])
    assert not is_reflexive(default_phi(NMAX), [fin(NMAX, 2)])
    assert is_reflexive(default_phi(NMAX), [bot(NMAX), unit(NMAX), top(NMAX)])


def test_matrix_transfer_reflexivity_by_hand():
    phi = default_phi(MAT2)
    assert phi == phi_nn(2, fin(RMAX, 0))
    lam = matrix_scalar([[1, 2], [3, 4]])
    assert is_reflexive(phi, [lam, bot(MAT2), top(MAT2), unit(MAT2)])


def matrix_scalar(rows):
    from idemod import mat_of, scal

    return mat_of([[scal(RMAX, v) for v in row] for row in rows])


@settings(max_examples=60)
@given(mat2_scalars())
def test_matrix_transfer_reflexivity(lam):
    assert is_reflexive(default_phi(MAT2), [lam])


def test_reflexivity_checks_both_sides_over_mat2():
    """Over the noncommutative mat2 the two checks differ: each of these
    fails exactly one of phi/(lam\\phi) = lam and (phi/lam)\\phi = lam."""
    first_fails = matrix_scalar([["-inf", "-9/2"], ["-inf", 7]])
    second_fails = matrix_scalar([["-inf", "-inf"], [2, -6]])
    assert not is_reflexive(unit(MAT2), [first_fails])
    assert not is_reflexive(unit(MAT2), [second_fails])


def _mat2_duality_cases(n=300):
    """Seeded mat2 cases of dimension 1 to 3, phi cycling over e, the default
    phi and a drawn element: (cfg, phi, x, y, z)."""
    rng = random.Random(20261021)
    for i in range(n):
        phi = (unit(MAT2), default_phi(MAT2), rand_scalar(rng, MAT2))[i % 3]
        dim = rng.randint(1, 3)
        x, y, z = (rand_vector(rng, MAT2, dim) for _ in range(3))
        yield DualPairConfig(CANONICAL, phi), phi, x, y, z


def test_mat2_left_conjugate_is_feasible():
    for cfg, phi, x, _, _ in _mat2_duality_cases():
        assert leq(bracket_eval(cfg, conj_left(cfg, x), x), phi), (phi, x)


def test_mat2_right_conjugate_is_feasible():
    for cfg, phi, _, y, _ in _mat2_duality_cases():
        assert leq(bracket_eval(cfg, y, conj_right(cfg, y)), phi), (phi, y)


def test_mat2_form_value_times_residual_stays_below_phi():
    """f_z(x) = phi/(x\\z), so f_z(x) (x\\z) <= phi."""
    for _, phi, x, _, z in _mat2_duality_cases():
        assert leq(mul(eval_form(z, phi, x), vec_lres(x, z)), phi), (phi, x, z)


def test_riesz_eval():
    x = vector(RMAX, [2, -1])
    d1 = vector(RMAX, [0, "-inf"])
    assert eval_form(x, PHI0, d1) == fin(RMAX, -2)
    assert leq(eval_form(x, PHI0, x), PHI0)
    assert eval_form(x, PHI0, bot_vector(RMAX, 2)) == bot(RMAX)


def test_riesz_represent_roundtrip():
    x = represent_form([fin(RMAX, -2), fin(RMAX, 1)], PHI0)
    assert x == vector(RMAX, [2, -1])
    assert represent_form([bot(RMAX), bot(RMAX)], PHI0) == top_vector(RMAX, 2)
    basis = [vector(RMAX, [0, "-inf"]), vector(RMAX, ["-inf", 0])]
    for probe in (vector(RMAX, [1, 5]), vector(RMAX, ["-inf", 2]), top_vector(RMAX, 2)):
        values = [eval_form(probe, PHI0, d) for d in basis]
        assert represent_form(values, PHI0) == probe


def test_represent_form_takes_the_semiring_of_phi():
    # the covector's own checks reject an empty basis and foreign values
    with pytest.raises(MismatchError, match="dimension"):
        represent_form([], PHI0)
    with pytest.raises(MismatchError):
        represent_form([top(BOOL)], PHI0)


def test_extend_form():
    w = family(RMAX, [[0, "-inf"]])
    x, form = extend_form(w, [fin(RMAX, -3)], PHI0)
    assert x == vector(RMAX, [3, "-inf"])
    assert form(w.generators[0]) == fin(RMAX, -3)


def test_extend_form_agrees_with_restriction():
    w = family(RMAX, [[0, 1], [2, 0]])
    z = vector(RMAX, [1, -1])
    values = [eval_form(z, PHI0, g) for g in w]
    _, form = extend_form(w, values, PHI0)
    for coeffs in ([0, 0], [-1, 3], ["-inf", 2]):
        v = bot_vector(RMAX, 2)
        for g, c in zip(w, coeffs):
            from idemod import scal

            v = vjoin(v, act(g, scal(RMAX, c)))
        assert form(v) == eval_form(z, PHI0, v)


def test_extend_form_agrees_with_its_values_over_mat2():
    """A mat2 form with phi = e, drawn with laws.rand_family: its extension
    from the generator value takes value\\phi as the coefficient, and so
    agrees with the value on the generator."""
    g = vector(MAT2, [matrix_scalar([[0, 6], [2, 0]])])
    z = vector(MAT2, [matrix_scalar([[-5, "-inf"], [-3, 6]])])
    w = family(MAT2, [g.entries])
    value = eval_form(z, unit(MAT2), g)
    assert value == matrix_scalar([[5, 11], ["-inf", "-inf"]])
    _, form = extend_form(w, [value], unit(MAT2))
    assert form(g) == value


def test_extend_form_rejects_inconsistent_values():
    # two equal generators cannot carry different values
    w = family(RMAX, [[0, 0], [0, 0]])
    with pytest.raises(DomainError):
        extend_form(w, [fin(RMAX, 0), fin(RMAX, 5)], PHI0)


def test_extend_form_empty_family():
    from idemod import GeneratingFamily

    w = GeneratingFamily(RMAX, 2, ())
    x, form = extend_form(w, [], PHI0)
    assert x == bot_vector(RMAX, 2)
    assert form(vector(RMAX, [0, 0])) == top(RMAX)


def test_opposite_bracket():
    x = vector(RMAX, [1, 4])
    assert opposite_bracket(x, x) == unit(RMAX)
    assert opposite_bracket(bot_vector(RMAX, 2), x) == top(RMAX)


@given(vectors(dim=3))
def test_rmax_vectors_all_closed(x):
    assert is_closed(CFG, x)


@given(vectors(dim=2), vectors(dim=2))
def test_galois_laws_three_brackets(x, w):
    a = matrix(RMAX, [[0, -1], [1, "-inf"]])
    for cfg in (
        CFG,
        DualPairConfig(MATRIX, PHI0, a),
        DualPairConfig(OPPOSITE, PHI0),
    ):
        back = conj_right(cfg, conj_left(cfg, x))
        assert vec_leq(x, back)
        assert conj_left(cfg, back) == conj_left(cfg, x)


@given(vectors(NMAX, dim=2), vectors(NMAX, dim=2))
def test_meet_of_closed_is_closed(y1, y2):
    cfg = DualPairConfig(CANONICAL, default_phi(NMAX))
    c1 = conj_right(cfg, CoVector(NMAX, y1.entries))
    c2 = conj_right(cfg, CoVector(NMAX, y2.entries))
    assert is_closed(cfg, vmeet(c1, c2))


@given(vectors(dim=3), vectors(dim=3))
def test_meet_of_closed_is_closed_matrix_bracket(y1, y2):
    a = matrix(RMAX, [[0, -1, "-inf"], [2, 0, 1]])
    cfg = DualPairConfig(MATRIX, PHI0, a)
    c1 = conj_right(cfg, CoVector(RMAX, y1.entries[:2]))
    c2 = conj_right(cfg, CoVector(RMAX, y2.entries[:2]))
    assert is_closed(cfg, vmeet(c1, c2))


def test_bracket_sides_must_match_for_every_bracket():
    """The covector needs one entry per entry of x, or per row of A when the
    matrix bracket pairs it with A x; neither side is truncated.  Both sides
    live in one semiring: an NMAX covector against an RMAX vector raises."""
    a = matrix(RMAX, [[0, -1], [1, "-inf"], [2, 0]])
    cfg = DualPairConfig(MATRIX, PHI0, a)
    x = vector(RMAX, [0, 1])
    assert bracket_eval(cfg, covector(RMAX, [0, 0, 0]), x) == fin(RMAX, 2)
    for n in (1, 2, 4, 5):
        with pytest.raises(MismatchError):
            bracket_eval(cfg, covector(RMAX, [0] * n), x)
    for n in (1, 3):
        with pytest.raises(MismatchError):
            bracket_eval(CFG, covector(RMAX, [0] * n), x)
    for c, n in ((CFG, 2), (cfg, 3)):
        with pytest.raises(MismatchError):
            bracket_eval(c, covector(NMAX, [1] * n), x)


@given(vectors(dim=2), vectors(dim=2), scalars())
def test_form_linearity(x, y, lam):
    f = LinearForm(vector(RMAX, [1, -2]), PHI0)
    assert f(vjoin(x, y)) == add(f(x), f(y))
    assert f(act(x, lam)) == mul(f(x), lam)


@given(vectors(dim=2), vectors(dim=2))
def test_forms_separate_points(x, y):
    if x != y:
        assert (
            eval_form(x, PHI0, x) != eval_form(x, PHI0, y)
            or eval_form(y, PHI0, x) != eval_form(y, PHI0, y)
        )


def test_rowcol_identity():
    phi = default_phi(BOOL)
    rep = rowcol_report(matrix(BOOL, [["e", "eps"], ["eps", "e"]]), phi)
    assert len(rep.row_space) == len(rep.col_space) == 4
    assert rep.bijective and rep.order_reversing
    # the map complements entries for the identity matrix
    for z, img in rep.iso_pairs:
        flipped = [top(BOOL) if s == bot(BOOL) else bot(BOOL) for s in z.entries]
        assert list(img.entries) == flipped


def test_rowcol_all_bottom():
    phi = default_phi(BOOL)
    rep = rowcol_report(matrix(BOOL, [["eps", "eps"], ["eps", "eps"]]), phi)
    assert len(rep.row_space) == 1 and len(rep.col_space) == 1
    assert rep.bijective and rep.order_reversing


def test_rowcol_triangular():
    phi = default_phi(BOOL)
    rep = rowcol_report(matrix(BOOL, [["e", "e"], ["eps", "e"]]), phi)
    assert len(rep.row_space) == len(rep.col_space)
    assert rep.bijective and rep.order_reversing


def test_rowcol_joins_to_meets():
    phi = default_phi(BOOL)
    a = matrix(BOOL, [["e", "eps", "e"], ["eps", "e", "e"]])
    rep = rowcol_report(a, phi)
    image = {vec_key(z): v for z, v in rep.iso_pairs}
    cols = list(rep.col_space)
    for z1, v1 in rep.iso_pairs:
        for z2, v2 in rep.iso_pairs:
            joined = CoVector(BOOL, tuple(add(s, t) for s, t in zip(z1.entries, z2.entries)))
            assert image[vec_key(joined)] == lattice_meet(cols, v1, v2)


def test_rowcol_is_boolean_only_and_capped():
    with pytest.raises(DomainError):
        rowcol_report(matrix(RMAX, [[0]]), PHI0)
    big = matrix(BOOL, [["e"] * 9])
    with pytest.raises(DomainError):
        rowcol_report(big, default_phi(BOOL))
