"""Vectors, matrices and vector-level residuation."""
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from idemod import Vector

from idemod import (
    BOOL,
    NMAX,
    RMAX,
    CoVector,
    Matrix,
    MismatchError,
    act,
    add,
    bot,
    bot_vector,
    column_family,
    combine,
    covec_mat,
    fin,
    leq,
    lres,
    mat_lres,
    mat_of,
    mat_vec,
    matrix,
    matrix_semiring,
    meet,
    mul,
    top,
    top_vector,
    unit,
    vec_leq,
    vec_lres,
    vec_rres,
    vector,
    vjoin,
    vmeet,
)
from idemod.freemod import GeneratingFamily, _bracket, _residual, identity_matrix
from conftest import families, scalars, vectors


def test_join_meet_entrywise():
    assert vjoin(vector(RMAX, [0, "-inf"]), vector(RMAX, ["-inf", 1])) == vector(RMAX, [0, 1])
    assert vmeet(vector(RMAX, [0, 2]), vector(RMAX, [1, 0])) == vector(RMAX, [0, 0])
    x = vector(RMAX, [3, -1])
    assert vjoin(x, x) == x


def test_act():
    assert act(vector(RMAX, [1, 3, 0]), fin(RMAX, -3)) == vector(RMAX, [-2, 0, -3])
    x = vector(RMAX, [5, "-inf", "1/2"])
    assert act(x, fin(RMAX, 0)) == x
    assert act(x, bot(RMAX)) == bot_vector(RMAX, 3)


def test_combine():
    w = GeneratingFamily(RMAX, 2, (vector(RMAX, [0, 2]), vector(RMAX, [1, "-inf"])))
    assert combine(w, [fin(RMAX, 1), fin(RMAX, -3)]) == vector(RMAX, [1, 3])
    assert combine(w, [bot(RMAX), top(RMAX)]) == vector(RMAX, ["+inf", "-inf"])
    assert combine(GeneratingFamily(RMAX, 3, ()), []) == bot_vector(RMAX, 3)
    with pytest.raises(MismatchError):
        combine(w, [fin(RMAX, 0)])


@given(families(dim=3), st.data())
def test_combine_is_the_join_of_scaled_generators(w, data):
    coeffs = data.draw(st.lists(scalars(), min_size=len(w), max_size=len(w)))
    want = bot_vector(RMAX, 3)
    for g, c in zip(w, coeffs):
        want = vjoin(want, act(g, c))
    assert combine(w, coeffs) == want


def test_vec_lres_values():
    assert vec_lres(vector(RMAX, [1, 3, 0]), vector(RMAX, [-1, 0, 0])) == fin(RMAX, -3)
    assert vec_lres(vector(RMAX, [0, 0, 0]), vector(RMAX, [-1, 0, 0])) == fin(RMAX, -1)
    x = vector(RMAX, [2, -7, "1/2"])
    assert vec_lres(x, x) == fin(RMAX, 0)
    assert vec_lres(bot_vector(RMAX, 2), vector(RMAX, [1, 2])) == top(RMAX)


def test_vec_lres_is_defining_supremum():
    """Oracle: scan candidate multipliers for the greatest one that fits."""
    candidates = [bot(RMAX)] + [fin(RMAX, q) for q in range(-12, 13)] + [top(RMAX)]
    for x, y in [
        (vector(RMAX, [1, 3, 0]), vector(RMAX, [-1, 0, 0])),
        (vector(RMAX, [0, "-inf"]), vector(RMAX, [5, 2])),
        (vector(RMAX, ["+inf", 0]), vector(RMAX, [3, 3])),
        (vector(RMAX, ["+inf", 0]), vector(RMAX, ["+inf", 3])),
    ]:
        best = bot(RMAX)
        for lam in candidates:
            if vec_leq(act(x, lam), y):
                best = lam if leq(best, lam) else best
        assert vec_lres(x, y) == best


def test_vec_rres():
    assert vec_rres(vector(RMAX, [0, 1]), fin(RMAX, -1)) == vector(RMAX, [1, 2])
    x = vector(RMAX, [0, -2])
    assert vec_rres(x, fin(RMAX, 0)) == x
    assert vec_rres(x, bot(RMAX)) == top_vector(RMAX, 2)


def test_mat_vec():
    a = matrix(RMAX, [[0, -1], [-1, 0], [0, 0]])
    assert mat_vec(a, vector(RMAX, [-1, -1])) == vector(RMAX, [-1, -1, -1])
    i3 = identity_matrix(RMAX, 3)
    x = vector(RMAX, [4, "-inf", 0])
    assert mat_vec(i3, x) == x
    zero = matrix(RMAX, [["-inf", "-inf"], ["-inf", "-inf"]])
    assert mat_vec(zero, vector(RMAX, [3, "+inf"])) == bot_vector(RMAX, 2)


def test_covector_is_never_a_vector():
    from idemod import CoVector

    es = (fin(RMAX, 1), bot(RMAX))
    y, x = CoVector(RMAX, es), Vector(RMAX, es)
    assert y != x and x != y and y == CoVector(RMAX, es)
    assert hash(y) == hash((RMAX, es))
    assert repr(y) == f"CoVector(semiring={RMAX!r}, entries={es!r})"
    with pytest.raises(MismatchError):
        CoVector(RMAX, ())


def test_covec_mat():
    from idemod import CoVector, covec_mat, covector

    a = matrix(RMAX, [[0, -1], [-1, 0], [0, 0]])
    y = covector(RMAX, [0, 1, "-inf"])
    assert covec_mat(y, a) == covector(RMAX, [0, 1])
    with pytest.raises(MismatchError):
        covec_mat(covector(RMAX, [0, 0]), a)


def test_mat_lres():
    a = matrix(RMAX, [[0, -1], [-1, 0], [0, 0]])
    y = vector(RMAX, [-1, -1, 0])
    res = mat_lres(a, y)
    assert res == vector(RMAX, [-1, -1])
    assert vec_leq(mat_vec(a, res), y)
    # bumping any coordinate violates the inequality
    for i in range(2):
        entries = list(res.entries)
        entries[i] = fin(RMAX, entries[i].value + Fraction(1, 3))
        bumped = vector(RMAX, entries)
        assert not vec_leq(mat_vec(a, bumped), y)
    i2 = identity_matrix(RMAX, 2)
    assert mat_lres(i2, vector(RMAX, [1, 2])) == vector(RMAX, [1, 2])
    # an all-bottom column is unconstrained
    a2 = matrix(RMAX, [[0, "-inf"], [1, "-inf"]])
    assert mat_lres(a2, vector(RMAX, [0, 0])).entries[1] == top(RMAX)


def test_equal_semiring_tags_need_not_be_identical():
    """A tag built apart from RMAX works wherever RMAX does: interning makes
    it the same object, so the identity checks of vectors, matrices,
    families and the action accept it."""
    from idemod import SemiringId

    rmax = SemiringId("rmax")
    assert rmax is RMAX and rmax == RMAX
    v = Vector(rmax, (fin(RMAX, 1), bot(RMAX)))
    assert v == vector(RMAX, [1, "-inf"])
    a = Matrix(rmax, ((fin(RMAX, 0), fin(RMAX, 2)),))
    assert mat_vec(a, vector(RMAX, [1, 0])) == vector(RMAX, [2])
    assert act(v, fin(rmax, 1)) == vector(RMAX, [2, "-inf"])
    w = GeneratingFamily(rmax, 2, (v,))
    assert w == GeneratingFamily(RMAX, 2, (v,))


def test_family_is_its_generator_matrix():
    """Generator g is column g of the family's matrix, so the matrix kernels
    apply to the family itself."""
    g1, g2 = vector(RMAX, [0, 2, "-inf"]), vector(RMAX, [1, "+inf", -3])
    w = GeneratingFamily(RMAX, 3, (g1, g2))
    a = matrix(RMAX, [[0, 1], [2, "+inf"], ["-inf", -3]])
    assert w.entries == a.entries and (w.rows, w.cols) == (3, 2)
    assert w == column_family(a) and w != a
    assert (len(w), w.dim, w.generators, list(w)) == (2, 3, (g1, g2), [g1, g2])
    x = vector(RMAX, [1, -1])
    assert mat_vec(w, x) == mat_vec(a, x) == combine(w, x.entries)
    with pytest.raises(MismatchError):
        GeneratingFamily(RMAX, 2, (g1,))
    with pytest.raises(MismatchError):
        GeneratingFamily(RMAX, 0, ())


def test_empty_family_is_a_matrix_without_columns():
    """The empty family's matrix has its rows and no columns; a Matrix keeps
    at least one column, and the projector handles p = 0 itself."""
    w = GeneratingFamily(RMAX, 3, ())
    assert w.entries == ((), (), ()) and (len(w), w.dim, w.generators) == (0, 3, ())
    assert list(w) == [] and w != GeneratingFamily(RMAX, 2, ())
    with pytest.raises(MismatchError):
        Matrix(RMAX, ((), (), ()))
    with pytest.raises(MismatchError):
        mat_lres(w, bot_vector(RMAX, 3))  # A\x would be a vector of dimension 0


def test_dimension_mismatch():
    with pytest.raises(MismatchError):
        vjoin(vector(RMAX, [0]), vector(RMAX, [0, 1]))
    with pytest.raises(MismatchError):
        mat_vec(matrix(RMAX, [[0, 1]]), vector(RMAX, [0]))
    with pytest.raises(MismatchError):
        matrix(RMAX, [[0, 1], [2]])


@given(vectors(dim=3), vectors(dim=3), scalars())
def test_act_galois(x, y, lam):
    assert vec_leq(act(x, lam), y) == leq(lam, vec_lres(x, y))


@given(vectors(dim=2), scalars())
def test_rres_galois(x, lam):
    y = vec_rres(x, lam)
    assert vec_leq(act(y, lam), x)
    assert vec_leq(x, vec_rres(act(x, lam), lam))


@settings(max_examples=60)
@given(vectors(dim=2), vectors(dim=2), vectors(dim=2), scalars())
def test_vector_residuation_identities(x, y, z, lam):
    assert act(x, vec_lres(x, act(x, lam))) == act(x, lam)
    assert vec_lres(x, act(x, vec_lres(x, y))) == vec_lres(x, y)
    assert vec_lres(act(x, lam), z) == lres(lam, vec_lres(x, z))
    # finite continuity: join on the left becomes meet of residuals
    assert vec_lres(vjoin(x, y), z) == meet(vec_lres(x, z), vec_lres(y, z))


@settings(max_examples=60)
@given(vectors(dim=2))
def test_mat_lres_is_residuation_of_mat_vec(x):
    a = matrix(RMAX, [[0, -1], [2, "-inf"], [1, 1]])
    y = mat_vec(a, x)
    back = mat_lres(a, y)
    assert vec_leq(x, back)
    assert mat_vec(a, back) == y


@settings(max_examples=40)
@given(st.data())
def test_vectors_over_matrix_semiring(data):
    """The right action and its residuation stay adjoint when the scalars
    themselves do not commute."""
    from conftest import MAT2, mat2_scalars

    entries = data.draw(st.lists(mat2_scalars(), min_size=2, max_size=2))
    x = Vector(MAT2, tuple(entries))
    y = Vector(MAT2, tuple(data.draw(st.lists(mat2_scalars(), min_size=2, max_size=2))))
    lam = data.draw(mat2_scalars())
    assert vec_leq(act(x, lam), y) == leq(lam, vec_lres(x, y))
    assert vec_leq(act(x, vec_lres(x, y)), y)
    assert act(x, vec_lres(x, act(x, lam))) == act(x, lam)


@settings(max_examples=40)
@given(st.data())
def test_matrix_kernels_over_matrix_semiring(data):
    """A x, y A and A\\y keep each operand on its side when the scalars do
    not commute: A x spans the columns with x_j on the right, (y A)_j joins
    y_i * a_ij, and A\\y residuates x -> A x."""
    from conftest import MAT2, mat2_scalars

    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def entries(n):
        return tuple(data.draw(st.lists(mat2_scalars(), min_size=n, max_size=n)))

    a = Matrix(MAT2, tuple(entries(cols) for _ in range(rows)))
    x, z, ys = Vector(MAT2, entries(cols)), Vector(MAT2, entries(cols)), entries(rows)
    span = (act(Vector(MAT2, col), c) for col, c in zip(zip(*a.entries), x.entries))
    assert mat_vec(a, x) == reduce(vjoin, span)  # (+)_g g * x_g over the columns g
    want = (reduce(add, (mul(ys[i], a.entries[i][j]) for i in range(rows))) for j in range(cols))
    assert covec_mat(CoVector(MAT2, ys), a) == CoVector(MAT2, tuple(want))
    y = Vector(MAT2, ys)
    back = mat_lres(a, y)
    assert vec_leq(mat_vec(a, back), y) and vec_leq(z, mat_lres(a, mat_vec(a, z)))
    assert vec_leq(mat_vec(a, z), y) == vec_leq(z, back)


# -- the RMAX, NMAX and BOOL folds against the scalar-op oracle -----------------


def _fold_entries(sr):
    """Entry strategies by kind, so rows can be finite only (no term absorbs),
    infinite only, all top or all bottom (every term absorbs or is neutral).
    BOOL has only eps and e."""
    inf = st.sampled_from([bot(sr), top(sr)])
    if sr is BOOL:
        return st.sampled_from([inf, st.just(bot(sr)), st.just(top(sr))])
    if sr is NMAX:
        ints = st.one_of(st.integers(0, 9), st.integers(10**14, 10**15 - 1))
        finite = ints.map(lambda n: fin(NMAX, n))
    else:
        finite = st.one_of(
            st.integers(-9, 9),
            st.integers(-(10**15) + 1, 10**15 - 1),  # 15-digit ints
            st.fractions(-6, 6, max_denominator=12),
            st.fractions(-(10**15), 10**15, max_denominator=10**6),
        ).map(lambda q: fin(RMAX, q))
    return st.sampled_from([finite, inf, st.just(bot(sr)), st.just(top(sr)),
                            st.one_of(finite, inf, finite)])


@settings(max_examples=300)
@given(st.sampled_from([RMAX, NMAX, BOOL]), st.integers(1, 6), st.data())
def test_raw_folds_match_the_scalar_op_oracle(sr, n, data):
    """_bracket is reduce(add, map(mul, ...)) and _residual is
    reduce(meet, map(lres, ...)) over RMAX, NMAX and BOOL: same value, same
    type of value, and the same object for an interned result."""
    kinds = _fold_entries(sr)
    us, vs = (tuple(data.draw(st.lists(data.draw(kinds), min_size=n, max_size=n)))
              for _ in range(2))
    for got, want in ((_bracket(us, vs), reduce(add, map(mul, us, vs))),
                      (_residual(us, vs), reduce(meet, map(lres, us, vs)))):
        assert got == want and type(got.value) is type(want.value)
        if want == bot(sr) or want == top(sr) or want.value in sr.fins:
            assert got is want


# -- the matrix folds against two oracles --------------------------------------


def _mat_entries():
    """RMAX entry strategies by kind, as for the raw folds above."""
    finite = st.one_of(
        st.integers(-9, 9),
        st.integers(-(10**15) + 1, 10**15 - 1),  # 15-digit ints
        st.fractions(-6, 6, max_denominator=12),
        st.fractions(-(10**15), 10**15, max_denominator=10**6),
    ).map(lambda q: fin(RMAX, q))
    inf = st.sampled_from([bot(RMAX), top(RMAX)])
    return st.sampled_from([finite, inf, st.just(bot(RMAX)), st.just(top(RMAX)),
                            st.one_of(finite, inf, finite)])


def _block_fold(us, vs, join, term, line):
    """Entry [r, c] of a fold, as the join over i and m of
    term(u_i[p, q], v_i[s, t]) on the blocks' RMAX scalars, where
    line(r, c, m) gives ((p, q), (s, t))."""
    n = us[0].semiring.dim
    out = []
    for r in range(n):
        for c in range(n):
            terms = []
            for u, v in zip(us, vs):
                for m in range(n):
                    (p, q), (s, t) = line(r, c, m)
                    terms.append(term(u.entries[p][q], v.entries[s][t]))
            out.append(reduce(join, terms).value)
    return tuple(out)


@settings(max_examples=300)
@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_matrix_folds_match_the_scalar_op_oracle(n, k, data):
    """Over matN, _bracket is reduce(add, map(mul, ...)) and _residual is
    reduce(meet, map(lres, ...)), and both equal the fold of the blocks' RMAX
    scalars entry by entry: (+)_i y_i x_i at [r, c] joins y_i[r, j] x_i[j, c]
    over (i, j), and (^)_i x_i\\y_i at [j, c] meets x_i[r, j]\\y_i[r, c] over
    (i, r).  Same raw entries, same types of entries; mixed tags raise."""
    sr = matrix_semiring(n)

    def block():
        kinds = data.draw(_mat_entries())  # one kind per block: all-top, all-finite, ...
        return mat_of(data.draw(st.lists(st.lists(kinds, min_size=n, max_size=n),
                                         min_size=n, max_size=n)))

    # a top term against a bottom partner: the product absorbs through bottom,
    # and the residual of two tops or two bottoms is top
    assert _bracket((sr.top, sr.bot), (sr.bot, sr.top)).value == sr.bot.value
    assert _residual((sr.top, sr.bot), (sr.top, sr.bot)).value == sr.top.value

    us, vs = (tuple(block() for _ in range(k)) for _ in range(2))
    got = _bracket(us, vs)
    assert got.semiring is sr
    for want in (reduce(add, map(mul, us, vs)).value,
                 _block_fold(us, vs, add, mul, lambda r, c, j: ((r, j), (j, c)))):
        assert got.value == want and [type(q) for q in got.value] == [type(q) for q in want]
    got = _residual(us, vs)
    assert got.semiring is sr
    for want in (reduce(meet, map(lres, us, vs)).value,
                 _block_fold(us, vs, meet, lres, lambda j, c, r: ((r, j), (r, c)))):
        assert got.value == want and [type(q) for q in got.value] == [type(q) for q in want]

    # one term of another tag, anywhere but first (the first term's tag is the fold's)
    other = data.draw(st.sampled_from([fin(RMAX, 1), bot(BOOL), unit(matrix_semiring(n % 3 + 1))]))
    ys, xs = list(us), list(vs)
    i = data.draw(st.integers(0, 2 * k - 2))
    if i < k:
        xs[i] = other
    else:
        ys[i - k + 1] = other
    for fold, oracle in ((_bracket, lambda: reduce(add, map(mul, ys, xs))),
                         (_residual, lambda: reduce(meet, map(lres, ys, xs)))):
        with pytest.raises(MismatchError):
            oracle()
        with pytest.raises(MismatchError):
            fold(ys, xs)
