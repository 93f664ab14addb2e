"""Scalar core: infinity tables, residuation, the Galois connection, and the
matrix instance."""
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from idemod import (
    BOOL,
    NMAX,
    RMAX,
    DomainError,
    IdemodError,
    MismatchError,
    SchemaError,
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
    scal,
    scalar_from_text,
    scalar_to_text,
    top,
    unit,
)
from idemod.jsonio import (
    family_from_json,
    grid_from_json,
    matrix_from_json,
    rational_from_json,
    scalar_from_json,
    scalar_json,
    vector_from_json,
)
from idemod.semiring import ECHO_CHARS, MAX_SCALAR_DIGITS, NEG_INF, POS_INF
from conftest import MAT2, mat2_scalars, scalars


def r(q):
    return fin(RMAX, Fraction(q))


# -- an independent oracle for residuation: scan candidate multipliers --------

_SCAN = [bot(RMAX)] + [r(q) for q in range(-10, 11)] + [r(Fraction(1, 2)), top(RMAX)]


def lres_by_scan(a, b):
    best = None
    for lam in _SCAN:
        if leq(mul(a, lam), b):
            best = lam if best is None else add(best, lam)
    return best


def test_add_basics():
    assert add(r(3), r(5)) == r(5)
    assert add(bot(RMAX), r(7)) == r(7)
    assert add(top(BOOL), top(BOOL)) == top(BOOL)


def test_mul_infinity_table():
    for sr in (RMAX, NMAX):
        # bottom absorbs even against top
        assert mul(bot(sr), top(sr)) == bot(sr)
        assert mul(top(sr), bot(sr)) == bot(sr)
        assert mul(fin(sr, 2), fin(sr, 3)) == fin(sr, 5)
        assert mul(top(sr), top(sr)) == top(sr)
        assert mul(fin(sr, 2), top(sr)) == top(sr) == mul(top(sr), fin(sr, 2))
        assert mul(fin(sr, 2), bot(sr)) == bot(sr) == mul(bot(sr), fin(sr, 2))


def test_lres_infinity_table():
    for sr in (RMAX, NMAX):
        assert lres(bot(sr), fin(sr, 5)) == top(sr)
        # residuation favours top at the extremes
        assert lres(top(sr), top(sr)) == top(sr)
        assert lres(bot(sr), bot(sr)) == top(sr)
        assert lres(top(sr), fin(sr, 5)) == bot(sr)
        assert lres(fin(sr, 3), bot(sr)) == bot(sr)
        assert lres(fin(sr, 3), top(sr)) == top(sr)


# Each semiring's scalars as a chain, listed upward: position is the order.
_LADDERS = (
    (bot(RMAX), r(-1), r(0), r(Fraction(1, 2)), r(3), top(RMAX)),
    (bot(NMAX), fin(NMAX, 0), fin(NMAX, 2), fin(NMAX, 7), top(NMAX)),
    (bot(BOOL), top(BOOL)),
)


def test_order_join_and_meet_follow_each_ladder():
    """leq, add and meet on every ordered pair of a ladder, against the
    two scalars' positions in it."""
    for ladder in _LADDERS:
        for (i, a), (j, b) in itertools.product(enumerate(ladder), repeat=2):
            assert leq(a, b) == (i <= j)
            assert add(a, b) == ladder[max(i, j)]
            assert meet(a, b) == ladder[min(i, j)]


def test_lres_matches_scan_oracle():
    assert lres(r(3), r(5)) == r(2) == lres_by_scan(r(3), r(5))
    assert lres(top(RMAX), r(5)) == lres_by_scan(top(RMAX), r(5))
    for a in (bot(RMAX), r(-2), r(0), r(3), top(RMAX)):
        for b in (bot(RMAX), r(-4), r(0), r(5), top(RMAX)):
            assert lres(a, b) == lres_by_scan(a, b)


def test_nmax_residuation_clamps_to_carrier():
    assert lres(fin(NMAX, 5), fin(NMAX, 3)) == bot(NMAX)
    assert lres(fin(NMAX, 3), fin(NMAX, 5)) == fin(NMAX, 2)
    # oracle: scan the natural carrier
    candidates = [bot(NMAX)] + [fin(NMAX, n) for n in range(12)] + [top(NMAX)]
    for a in candidates:
        for b in candidates:
            best = None
            for lam in candidates:
                if leq(mul(a, lam), b):
                    best = lam if best is None else add(best, lam)
            assert lres(a, b) == best


def test_rres_commutative_case():
    assert rres(r(5), r(3)) == r(2)
    assert rres(r(5), r(3)) == lres(r(3), r(5))


def test_boolean_tables_exhaustive():
    eps, e = bot(BOOL), top(BOOL)
    assert rres(eps, e) == eps
    assert rres(e, eps) == e
    carrier = [eps, e]
    for a, b in itertools.product(carrier, repeat=2):
        # defining property of the residuation by scan
        best = None
        for lam in carrier:
            if leq(mul(a, lam), b):
                best = lam if best is None else add(best, lam)
        assert lres(a, b) == best


def test_nmax_rejects_non_naturals():
    with pytest.raises(DomainError):
        fin(NMAX, -1)
    with pytest.raises(DomainError):
        fin(NMAX, Fraction(1, 2))


def test_mismatched_semirings_raise():
    with pytest.raises(MismatchError):
        add(r(0), fin(NMAX, 0))
    with pytest.raises(MismatchError):
        lres(r(0), top(BOOL))


@given(scalars(), scalars(), scalars())
def test_galois_equivalence_rmax(a, b, lam):
    assert leq(mul(a, lam), b) == leq(lam, lres(a, b)) == leq(a, rres(b, lam))


@given(scalars(NMAX), scalars(NMAX), scalars(NMAX))
def test_galois_equivalence_nmax(a, b, lam):
    assert leq(mul(a, lam), b) == leq(lam, lres(a, b)) == leq(a, rres(b, lam))


@settings(max_examples=60)
@given(mat2_scalars(), mat2_scalars(), mat2_scalars())
def test_galois_equivalence_matrix(a, b, lam):
    assert leq(mul(a, lam), b) == leq(lam, lres(a, b)) == leq(a, rres(b, lam))


@given(scalars(), scalars(), scalars())
def test_commutation_of_residuations(a, mu, nu):
    assert rres(lres(nu, a), mu) == lres(nu, rres(a, mu))


@given(scalars(), scalars())
def test_meet_is_glb(a, b):
    m = meet(a, b)
    assert leq(m, a) and leq(m, b)
    assert meet(a, top(RMAX)) == a
    assert meet(a, a) == a


def test_matrix_identity_and_bottom():
    e2, eps2 = unit(MAT2), bot(MAT2)
    a = mat_of([[r(1), r(2)], [bot(RMAX), r(0)]])
    assert mul(e2, a) == a == mul(a, e2)
    assert mul(eps2, a) == eps2 == mul(a, eps2)


def _assert_maximal(x, violates):
    """Every entry bump of x must violate the residuation inequality."""
    for i in range(2):
        for j in range(2):
            s = x.entries[i][j]
            if s == top(RMAX):
                continue
            for delta in (1, 100):
                bumped = fin(RMAX, -100 + delta) if s == bot(RMAX) else fin(RMAX, s.value + delta)
                rows = [list(row) for row in x.entries]
                rows[i][j] = bumped
                assert violates(mat_of(rows))


@settings(max_examples=60)
@given(mat2_scalars(), mat2_scalars())
def test_matrix_residuation_maximal(a, b):
    x = lres(a, b)
    assert leq(mul(a, x), b)
    _assert_maximal(x, lambda m: not leq(mul(a, m), b))
    y = rres(b, a)
    assert leq(mul(y, a), b)
    _assert_maximal(y, lambda m: not leq(mul(m, a), b))


# -- the flat matrix kernels against an entrywise oracle of RMAX scalar ops --

# halves and quarters, so that sums and differences such as 1/2 + 1/2 and
# 3/4 - (-1/4) come out integral and must be stored as ints
_ENTRY = st.one_of(
    st.sampled_from([bot(RMAX), top(RMAX)]),
    st.integers(min_value=-3, max_value=3).map(r),
    st.sampled_from([Fraction(k, d) for k in range(-7, 8) for d in (2, 4) if k % d]).map(r),
)


@st.composite
def _mat_operands(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    grid = st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    return [mat_of(draw(grid)) for _ in range(2)]


def _fold(op, xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = op(acc, x)
    return acc


def _oracle(a, b):
    n = a.semiring.dim
    A, B = a.entries, b.entries
    rn = range(n)
    return {
        "mul": [[_fold(add, [mul(A[i][j], B[j][k]) for j in rn]) for k in rn] for i in rn],
        "lres": [[_fold(meet, [lres(A[i][j], B[i][k]) for i in rn]) for k in rn] for j in rn],
        # b/a: the greatest mu with mu*a <= b, entry (i, j) meets over k
        "rres": [[_fold(meet, [rres(B[i][k], A[j][k]) for k in rn]) for j in rn] for i in rn],
        "add": [[add(A[i][j], B[i][j]) for j in rn] for i in rn],
        "meet": [[meet(A[i][j], B[i][j]) for j in rn] for i in rn],
    }


def _assert_same_raw(x, grid):
    want = tuple(s.value for row in grid for s in row)
    assert x.value == want
    # equal is not enough: an integral Fraction must have become an int
    assert [type(q) for q in x.value] == [type(q) for q in want]
    assert mat_of(x.entries) == x and hash(mat_of(x.entries)) == hash(x)


@settings(max_examples=300)
@given(_mat_operands())
def test_matrix_kernels_match_entrywise_oracle(ab):
    a, b = ab
    oracle = _oracle(a, b)
    _assert_same_raw(mul(a, b), oracle["mul"])
    _assert_same_raw(lres(a, b), oracle["lres"])
    _assert_same_raw(rres(b, a), oracle["rres"])
    _assert_same_raw(add(a, b), oracle["add"])
    _assert_same_raw(meet(a, b), oracle["meet"])
    pairs = list(zip(sum(a.entries, ()), sum(b.entries, ())))
    assert leq(a, b) == all(leq(x, y) for x, y in pairs)
    assert leq(b, a) == all(leq(y, x) for x, y in pairs)
    assert leq(a, add(a, b)) and leq(meet(a, b), b)
    for x in (a, b):
        _assert_same_raw(x, x.entries)
        same = mul(unit(x.semiring), x)
        assert same == x and hash(same) == hash(x)
        # matrices print and serialise from their raw entries
        texts = [[scalar_to_text(e) for e in row] for row in x.entries]
        assert scalar_json(x) == texts
        assert repr(x) == f"<{x.semiring} [{'; '.join(' '.join(row) for row in texts)}]>"


# 15-digit ints and Fractions with denominators up to 10^6; each entry of b is
# drawn alike or is m - q or m + q for an entry q of a and an int m, so that
# sums a_ij + b_jk and differences b_ik - a_ij of two Fractions come out
# integral often enough to be seen
_INT15 = st.integers(min_value=-(10**15) + 1, max_value=10**15 - 1)
_BIG = st.one_of(_INT15, st.fractions(-(10**15), 10**15, max_denominator=10**6))


@st.composite
def _big_operands(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    a = [draw(_BIG) for _ in range(n * n)]
    b = []
    for _ in range(n * n):
        q, m, how = draw(st.sampled_from(a)), draw(_INT15), draw(st.integers(0, 2))
        b.append(draw(_BIG) if how == 0 else m - q if how == 1 else m + q)
    return tuple(mat_of([[r(q) for q in flat[i:i + n]] for i in range(0, n * n, n)])
                 for flat in (a, b))


_P = Fraction(1, 999_983)  # a prime denominator


@settings(max_examples=300)
@example(ab=(mat_of([[r(_P)]]), mat_of([[r(10**15 - 1 - _P)]])))  # the product is an int
@example(ab=(mat_of([[r(-_P)]]), mat_of([[r(-(10**15) + 1 - _P)]])))  # both residuals are
@given(_big_operands())
def test_matrix_kernels_on_large_entries_give_integral_results_as_ints(ab):
    """mul, lres, rres, add, meet and leq on 15-digit ints and large-denominator
    Fractions agree with the entrywise oracle, and every integral entry of a
    result is an int, never a Fraction."""
    a, b = ab
    oracle = _oracle(a, b)
    for got, want in ((mul(a, b), oracle["mul"]), (lres(a, b), oracle["lres"]),
                      (rres(b, a), oracle["rres"]), (add(a, b), oracle["add"]),
                      (meet(a, b), oracle["meet"])):
        _assert_same_raw(got, want)
        assert all(type(q) is int or q.denominator > 1 for q in got.value)
    pairs = list(zip(sum(a.entries, ()), sum(b.entries, ())))
    assert leq(a, b) == all(leq(x, y) for x, y in pairs)
    assert leq(b, a) == all(leq(y, x) for x, y in pairs)
    assert leq(a, a) and leq(meet(a, b), add(a, b))


def test_scalar_text_roundtrip():
    for s in (bot(RMAX), top(RMAX), r(5), r(-3), r(Fraction(7, 2))):
        assert scalar_from_text(RMAX, scalar_to_text(s)) == s
    assert scalar_to_text(r(Fraction(4, 2))) == "2"  # canonical lowest terms
    assert scalar_to_text(bot(BOOL)) == "eps"
    assert scalar_to_text(top(BOOL)) == "e"
    with pytest.raises(SchemaError):
        scalar_from_text(RMAX, "oops")
    with pytest.raises(SchemaError):
        scalar_from_text(RMAX, "1.5")
    with pytest.raises(SchemaError):
        scalar_from_text(BOOL, "0")
    for sr in (RMAX, NMAX, MAT2, BOOL):  # the grammar has "+inf", not "inf"
        with pytest.raises(SchemaError):
            scalar_from_text(sr, "inf")


def test_scalar_text_grammar():
    """Finite text is [+-]digits[/digits] in ASCII; no padding anywhere."""
    for bad in ("1_000", " 2 ", "2 ", "\t-1", "٣", "1e3", "1E3", "1/2/3", "+", "", "- 1"):
        with pytest.raises(SchemaError):
            scalar_from_text(RMAX, bad)
    for bad in (" -inf", "+inf\n"):
        with pytest.raises(SchemaError):
            scalar_from_text(RMAX, bad)
    with pytest.raises(SchemaError):
        scalar_from_text(BOOL, " e")
    assert scalar_from_text(RMAX, "+3") == r(3)
    assert scalar_from_text(RMAX, "-0") == r(0)
    assert scalar_from_text(RMAX, "06/4") == r(Fraction(3, 2))
    assert scalar_from_text(NMAX, "007") == fin(NMAX, 7)


def _echoed(text: str) -> str:
    """How an error message shows an input text: whole up to ECHO_CHARS
    characters, else its head and its length."""
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


def _readme_rational(text: str):
    """The README's finite-text grammar, written as a regex ([0-9] is ASCII
    in re): the reference that rational_from_text's string tests follow."""
    if re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", text) is None:
        return SchemaError, f"not an exact rational: {_echoed(text)}"
    num, _, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > MAX_SCALAR_DIGITS:
        return SchemaError, (f"not an exact rational: {_echoed(text)} has more than "
                             f"{MAX_SCALAR_DIGITS} digits in its numerator or denominator")
    try:
        q = Fraction(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError):  # over 0, or past a lower PYTHONINTMAXSTRDIGITS
        return SchemaError, f"not an exact rational: {_echoed(text)}"
    return q.numerator if q.denominator == 1 else q


# JSON values a matrix entry may hold: canonical and non-canonical texts,
# interned and large ints, Fractions, and values the grammar refuses
_ENTRY_JSON = st.one_of(
    st.sampled_from(["-inf", "+inf", "inf", "0", "64", "65", "-65", "4/2", "-6/4", "00",
                     "+5", "3/0", "1_0", "1.5", "eps", "e", True, None, 1.5, [1], {}]),
    st.integers(-(10**15), 10**15),
    st.integers(-(10**15), 10**15).map(str),
    st.fractions(-(10**15), 10**15, max_denominator=10**6).map(str),
)


@settings(max_examples=200)
@given(st.integers(1, 3), st.data())
def test_matrix_scalars_parse_like_their_rmax_entries(n, data):
    """scalar_from_json over matN builds the raw entries that mat_of builds
    from the RMAX parse of each entry, with the same entry types, or raises
    the same error."""
    obj = data.draw(st.lists(st.lists(_ENTRY_JSON, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    try:
        want = mat_of([[scalar_from_json(RMAX, e) for e in row] for row in obj])
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            scalar_from_json(matrix_semiring(n), obj)
        assert str(got.value) == str(exc)
        return
    got = scalar_from_json(matrix_semiring(n), obj)
    assert got == want and [type(q) for q in got.value] == [type(q) for q in want.value]


# Texts for the parsing loops of jsonio: signed ints with leading zeros,
# ints at and past int()'s 4300 digits, p/q not in lowest terms or over 0,
# the infinities and the spellings the grammar refuses; and a few non-texts.
_DIGITS = "9" * 4300
_TEXT = st.one_of(
    st.sampled_from(["-inf", "+inf", "inf", "eps", "e", "E", "Eps", "1_000", "٣", "５", "²",
                     " 2", "2 ", "\t-1", "2\n", "1e3", "1.5", "1/2/3", "1/-2", "+1/2", "1/",
                     "/2", "+", "-", "", "- 1", "0/0", "1/ 2", "1/+2", "1/2_0", "+-1", "--1",
                     _DIGITS, "-" + _DIGITS, "0" + _DIGITS,
                     "9" + _DIGITS, "1/" + _DIGITS, "1/9" + _DIGITS, 5, -3, True, None, 1.5]),
    st.builds(lambda sign, zeros, n: sign + "0" * zeros + str(n),
              st.sampled_from(["", "+", "-"]), st.integers(0, 2),
              st.one_of(st.integers(0, 70), st.integers(0, 10**20))),
    st.builds(lambda sign, p, q, k: f"{sign}{p * k}/{q * k}",
              st.sampled_from(["", "+", "-"]), st.integers(0, 10**6), st.integers(0, 12),
              st.integers(1, 4)),
)
_MAT2_ENTRY = st.one_of(_TEXT, st.lists(st.lists(_TEXT, min_size=2, max_size=2),
                                        min_size=2, max_size=2))


def _parsed(fn, *args):
    """fn's result, or the type and message of the IdemodError it raises."""
    try:
        return fn(*args)
    except IdemodError as exc:
        return type(exc), str(exc)


def _same_scalars(got, want, sr) -> None:
    interned = set(map(id, sr.texts.values()))
    for g, w in zip(got, want, strict=True):
        assert g == w and type(g.value) is type(w.value)
        if sr.dim:
            assert list(map(type, g.value)) == list(map(type, w.value))
        if id(w) in interned:
            assert g is w  # table ints and the infinities stay the tag's objects


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((RMAX, NMAX, BOOL, MAT2)), st.integers(1, 4), st.integers(1, 3), st.data())
def test_jsonio_loops_parse_like_scalar_from_json(sr, n, p, data):
    """Vectors, families, matrices and grid values parse entry by entry to
    what scalar_from_json gives, or raise its error for the first bad entry;
    grid points parse as the README grammar reads them."""
    objs = data.draw(st.lists(_MAT2_ENTRY if sr is MAT2 else _TEXT, min_size=n * p,
                              max_size=n * p))
    chunks = [objs[i:i + n] for i in range(0, n * p, n)]  # generators, or matrix rows
    values = objs + ["0"]  # a grid has two points at least
    for parse_sr, entries, fn, args in (
        (sr, objs, vector_from_json, (sr, objs)),
        (sr, [o for row in zip(*chunks) for o in row], family_from_json, (sr, chunks)),
        (sr, objs, matrix_from_json, (sr, chunks)),
        (RMAX, values, grid_from_json, ({"points": list(range(len(values))), "values": values},)),
    ):
        got = _parsed(fn, *args)
        # entries parse in the order of objs: generator after generator, or
        # row after row, so the error is that of the first bad one
        want = [_parsed(scalar_from_json, parse_sr, o) for o in objs]
        bad = next((w for w in want if type(w) is tuple), None)
        if bad is not None:
            assert got == bad, fn
            continue
        if fn is grid_from_json:
            flat = got.values
        elif fn is vector_from_json:
            flat = got.entries
        else:
            flat = [s for row in got.entries for s in row]  # the rows of A, or of the matrix
        _same_scalars(flat, [scalar_from_json(parse_sr, o) for o in entries], parse_sr)
    for o in objs:
        if type(o) is str:
            got, want = _parsed(rational_from_json, o), _readme_rational(o)
            assert got == want and type(got) is type(want)


def test_tags_built_in_racing_threads_are_one_object():
    """Threads that build the same new tag at once all get one object."""
    import sys
    import threading

    from idemod import SemiringId

    dims = range(20, 28)  # matrix dimensions no other test builds
    barrier = threading.Barrier(8, timeout=10)
    got = [[] for _ in range(8)]

    def build(out):
        barrier.wait()
        out.extend(SemiringId("mat", n) for n in dims)

    threads = [threading.Thread(target=build, args=(out,)) for out in got]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(dims) for out in got)
    assert all(sr is SemiringId("mat", n) for out in got for sr, n in zip(out, dims))


def test_scal_coercion():
    assert scal(RMAX, 3) == r(3)
    assert scal(RMAX, "1/2") == r(Fraction(1, 2))
    assert scal(MAT2, [[0, 1], ["-inf", 2]]).entries[1][0] == bot(RMAX)
    with pytest.raises(MismatchError):
        scal(NMAX, r(1))


def test_phi_construction():
    from idemod import make_phi

    assert make_phi(bot(BOOL)) == bot(BOOL)
    with pytest.raises(DomainError):
        make_phi(top(BOOL))  # the two-element semiring only pairs through eps


def test_semiring_id_validation():
    from idemod import SemiringId, matrix_semiring

    with pytest.raises(DomainError):
        matrix_semiring(0)
    with pytest.raises(DomainError):
        SemiringId("weird")


def test_semiring_tags_are_interned():
    """One tag object per semiring however it is reached (built again,
    parsed, copied or unpickled), so tags compare by identity; its bottom,
    top, unit and small finite values are one object each too."""
    import copy
    import pickle

    from idemod import SemiringId, matrix_semiring, vector
    from idemod.jsonio import parse_semiring

    assert SemiringId("rmax") is RMAX and SemiringId("nmax", 0) is NMAX
    assert SemiringId("mat", 3) is matrix_semiring(3) is parse_semiring("mat3")
    assert mat_of([[fin(RMAX, 0), bot(RMAX)], [top(RMAX), fin(RMAX, 1)]]).semiring is MAT2
    assert all(parse_semiring(str(sr)) is sr for sr in (RMAX, BOOL, NMAX))
    assert repr(RMAX) == "SemiringId(name='rmax', dim=0)" and str(MAT2) == "mat2"
    assert len({RMAX, SemiringId("rmax"), NMAX}) == 2
    # copies and pickles keep the tag object, and a copied matrix still
    # computes: its infinite entries are the two sentinels
    m = mat_of([[fin(RMAX, 0), bot(RMAX)], [top(RMAX), fin(RMAX, Fraction(1, 2))]])
    v = vector(RMAX, [1, "-inf"])
    for obj, sr in ((RMAX, RMAX), (MAT2, MAT2), (v, RMAX), (m, MAT2)):
        for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert back == obj and (back if obj is sr else back.semiring) is sr
    assert mul(copy.deepcopy(m), pickle.loads(pickle.dumps(unit(MAT2)))) == m
    # the tag's constants, however the tag was reached
    for sr, again in ((RMAX, SemiringId("rmax")), (NMAX, parse_semiring("nmax")),
                      (BOOL, copy.deepcopy(BOOL)), (MAT2, pickle.loads(pickle.dumps(MAT2)))):
        assert again is sr
        assert bot(again) is bot(sr) and top(again) is top(sr) and unit(again) is unit(sr)
    assert fin(SemiringId("rmax"), -64) is fin(parse_semiring("rmax"), -64)
    assert fin(SemiringId("nmax"), 64) is fin(NMAX, 64) and fin(NMAX, 0) is unit(NMAX)
    assert unit(BOOL) is top(BOOL)


def test_integral_fractions_are_interned_like_their_ints():
    """An integral Fraction is normalised to its int before the lookup of the
    interned small values, whichever op produced it."""
    half, three_halves = fin(RMAX, Fraction(1, 2)), fin(RMAX, Fraction(3, 2))
    assert fin(RMAX, Fraction(4, 2)) is fin(RMAX, 2)
    assert mul(half, three_halves) is fin(RMAX, 2)
    assert lres(half, fin(RMAX, Fraction(5, 2))) is fin(RMAX, 2)
    assert fin(RMAX, Fraction(-128, 2)) is fin(RMAX, -64)
    assert fin(NMAX, Fraction(6, 3)) is fin(NMAX, 2)
    assert fin(NMAX, Fraction(0, 5)) is unit(NMAX)
    big = fin(RMAX, Fraction(2**70, 2))
    assert type(big.value) is int and big == fin(RMAX, 2**69)
    with pytest.raises(DomainError):
        fin(NMAX, Fraction(-4, 2))


def _slow_scalar_from_text(sr, text):
    """Text to scalar without the tag's text table."""
    from idemod.semiring import rational_from_text

    if sr is BOOL:
        return {"eps": bot(sr), "e": top(sr)}[text]
    if text in ("-inf", "+inf"):
        return bot(sr) if text == "-inf" else top(sr)
    return fin(sr, rational_from_text(text))


def test_text_table_is_the_slow_path():
    """Each entry of a tag's text table is the scalar the grammar gives its
    text, as the same object; other spellings still parse through the grammar,
    and everything outside it is still refused."""
    for sr in (RMAX, NMAX, BOOL, MAT2):
        want = {"eps", "e"} if sr is BOOL else {"-inf", "+inf"} | set(map(str, sr.fins))
        assert set(sr.texts) == want
        for text, s in sr.texts.items():
            assert scalar_from_text(sr, text) is s
            assert s == _slow_scalar_from_text(sr, text) and s is _slow_scalar_from_text(sr, text)
            assert sr is MAT2 or scalar_to_text(s) == text
    for sr in (RMAX, NMAX):
        assert scalar_from_text(sr, "+5") is fin(sr, 5)
        assert scalar_from_text(sr, "-0") is unit(sr)
        assert scalar_from_text(sr, "007") is fin(sr, 7)
        assert scalar_from_text(sr, "65") == fin(sr, 65)
    assert scalar_from_text(RMAX, "-65") == fin(RMAX, -65)
    assert scalar_from_text(RMAX, "8/4") is fin(RMAX, 2)
    for sr in (RMAX, NMAX, BOOL, MAT2):
        for bad in ("1_000", " 5", "5 ", "inf", "-inf ", "٥", "５", "E", "Eps"):
            with pytest.raises(SchemaError):
                scalar_from_text(sr, bad)
    for sr, bad in ((NMAX, "-1"), (BOOL, "0"), (BOOL, "-inf"), (BOOL, "+inf"), (MAT2, "0")):
        with pytest.raises(SchemaError):
            scalar_from_text(sr, bad)


# -- one raw encoding of the infinities ----------------------------------------

_MATS = tuple(matrix_semiring(n) for n in (1, 2, 3))


def test_infinities_carry_the_sentinels():
    """Bottom and top hold NEG_INF and POS_INF as their value in the scalar
    semirings, and in every entry over matrices."""
    for sr in (RMAX, NMAX, BOOL):
        assert bot(sr).value is NEG_INF and top(sr).value is POS_INF
    for sr in _MATS:
        assert len(bot(sr).value) == len(top(sr).value) == sr.dim ** 2
        assert all(q is NEG_INF for q in bot(sr).value)
        assert all(q is POS_INF for q in top(sr).value)


def test_of_raw_inverts_value():
    from idemod.semiring import of_raw

    for sr in (RMAX, NMAX, BOOL):
        for s in (bot(sr), top(sr), *sr.fins.values()):
            assert of_raw(sr, s.value) is s


def test_a_scalar_is_its_semiring_and_its_raw_value():
    """No second field restates which infinity or kind a scalar is."""
    from idemod import semiring
    from idemod.semiring import Scalar

    assert Scalar.__slots__ == ("semiring", "value")
    assert not any(hasattr(semiring, name) for name in ("BOT", "FIN", "TOP", "MAT"))
    assert not any(hasattr(s, "kind") for s in (bot(RMAX), r(3), top(BOOL), unit(MAT2)))


def test_copies_and_pickles_keep_the_sentinels():
    import copy
    import pickle

    for sr in (RMAX, NMAX, BOOL, *_MATS):
        for s in (bot(sr), top(sr)):
            for back in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert back == s and back.semiring is sr
                if sr.name == "mat":
                    assert all(q is p for q, p in zip(back.value, s.value))
                else:
                    assert back.value is s.value


def _kind_sort_key(s):
    """sort_key as a ladder on the kinds bottom, top and finite, found by
    comparing with bot and top; a matrix entry by entry."""
    sr = s.semiring
    if sr.name == "mat":
        return tuple(_kind_sort_key(e) for row in s.entries for e in row)
    return (0, 0) if s == bot(sr) else (2, 0) if s == top(sr) else (1, s.value)


def _kind_text(s):
    """scalar_to_text as a ladder on the same kinds."""
    sr = s.semiring
    if sr.name == "bool":
        return "eps" if s == bot(sr) else "e"
    if sr.name == "mat":
        raise DomainError("matrix scalars encode as nested arrays, not text")
    if s == bot(sr):
        return "-inf"
    if s == top(sr):
        return "+inf"
    return str(s.value)


def _any_scalars():
    def matrices(n):
        row = st.lists(scalars(RMAX), min_size=n, max_size=n)
        return st.lists(row, min_size=n, max_size=n).map(mat_of)

    return st.one_of(*(scalars(sr) for sr in (RMAX, NMAX, BOOL)), *map(matrices, (1, 2, 3)))


@settings(max_examples=300)
@given(_any_scalars())
def test_sort_key_and_text_match_the_kind_ladders(s):
    from idemod.semiring import sort_key

    assert sort_key(s) == _kind_sort_key(s)
    if s.semiring.name == "mat":
        with pytest.raises(DomainError):
            _kind_text(s)
        with pytest.raises(DomainError):
            scalar_to_text(s)
    else:
        assert scalar_to_text(s) == _kind_text(s)


def test_a_bool_is_not_a_rational():
    """True and False are ints to Python, not finite scalars: every way in
    refuses them, as JSON true and false are refused."""
    from idemod import grid_function, slope_set, vector

    for build in (lambda: fin(RMAX, True), lambda: fin(NMAX, True), lambda: fin(RMAX, False),
                  lambda: scal(RMAX, True), lambda: scal(NMAX, False),
                  lambda: vector(RMAX, [True, 2]),
                  lambda: grid_function([True, 2], [0, 1]),
                  lambda: grid_function([0, 2], [False, 1]),
                  lambda: slope_set([False, 1])):
        with pytest.raises(DomainError):
            build()
    assert fin(RMAX, 1) is fin(RMAX, Fraction(1)) and slope_set([0, 1]).slopes == (0, 1)


def test_scalar_text_digit_limit():
    """MAX_SCALAR_DIGITS digits parse in a numerator and a denominator, one
    more does not, and the message names the limit in a short line."""
    digits = "9" * MAX_SCALAR_DIGITS
    assert scalar_from_text(RMAX, "-" + digits) == fin(RMAX, -int(digits))
    assert scalar_from_text(RMAX, f"1/{digits}") == fin(RMAX, Fraction(1, int(digits)))
    for text in ("1" + digits, "-1" + digits, "+1" + digits, f"1/1{digits}", "0" * 200_000):
        with pytest.raises(SchemaError, match=f"more than {MAX_SCALAR_DIGITS} digits") as exc:
            scalar_from_text(RMAX, text)
        assert len(str(exc.value)) < 200 and f"({len(text)} characters)" in str(exc.value)
    for sr, text in ((RMAX, "x" * 200_000), (BOOL, "1" * 200_000), (MAT2, "1" * 200_000)):
        with pytest.raises(SchemaError) as exc:
            scalar_from_text(sr, text)
        assert len(str(exc.value)) < 200 and "(200000 characters)" in str(exc.value)


def test_raw_value_folds_stay_in_semiring():
    """Above the scalar layer no module reads raw values: none names the
    infinity sentinels or a rational's numerator or denominator, so every
    raw-value fold is semiring's."""
    import importlib
    import pathlib

    for name in ("freemod", "project", "separate", "metric", "dual", "jsonio", "cli"):
        source = pathlib.Path(importlib.import_module(f"idemod.{name}").__file__).read_text()
        for word in ("NEG_INF", "POS_INF", ".numerator", ".denominator"):
            assert word not in source, (name, word)
