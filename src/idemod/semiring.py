"""Complete idempotent semirings with exact arithmetic and residuation.

Four instances are supported:

* ``RMAX``  -- reals with both infinities, (max, +).  Complete semifield.
* ``BOOL``  -- two elements {eps, e}, (or, and).  eps is bottom, e is top.
* ``NMAX``  -- naturals with both infinities, (max, +).  Complete but not
  a semifield: residuation results are clamped to the carrier.
* ``matrix_semiring(n)`` -- n x n matrices over RMAX with the (max, +)
  product; order, sups and infs are entrywise (Cuninghame-Green, *Minimax
  Algebra*, 1979, ch. 2; Butkovic, *Max-linear Systems*, 2010, 1.2).

A scalar is its semiring and its raw value, and nothing else: an int or a
Fraction when finite, the sentinel ``NEG_INF`` for the bottom and
``POS_INF`` for the top of RMAX, NMAX and BOOL, and for a matrix the flat
row-major tuple of its entries' raw values.  Bottom and top are carrier
elements like any other, told apart by testing the value for the sentinels
by identity; a matrix is told by its tag's ``dim``, and each other
instance by its tag's identity.  ``of_raw`` turns a raw value back into a
scalar, and the module folds ``bracket`` and ``residual`` loop over raw
values directly, in one loop each for RMAX, NMAX and BOOL.

Each instance is one ``SemiringId`` object: building a tag for the same
(name, dim) again returns it, so "the same semiring" is ``is`` everywhere,
and the tag holds the instance's bottom, top and unit and its interned
small ints, which ``bot``, ``top``, ``unit`` and ``fin`` return, and its
text table: the canonical text of each of those scalars, which
``scalar_from_text`` looks up before it parses.

Everything is exact: finite values are ints or ``fractions.Fraction``
(an integral Fraction is always normalised to int), infinities are
symbolic.  The two conventionally ambiguous expressions are fixed once and
for all: the product absorbs through bottom
(``-inf + +inf = -inf`` under ``mul``) while residuation favours top
(``lres(-inf, -inf) = lres(+inf, +inf) = +inf``).

All values are immutable; all operations are pure functions, safe for
unsynchronised concurrent use.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError, MismatchError, SchemaError

Rational = int | Fraction

# The most digits in the numerator or denominator of a scalar text: CPython's
# default int() limit, checked first so that PYTHONINTMAXSTRDIGITS cannot raise it.
MAX_SCALAR_DIGITS = 4300
ECHO_CHARS = 40  # the most characters of an input an error message echoes


class SemiringId:
    """Tag selecting one of the four concrete instances, one object per
    (name, dim): equality and hash are identity.  ``fins`` maps the ints
    -64..64 of RMAX and 0..64 of NMAX to their scalars (empty for BOOL and
    matrices).  ``texts`` maps the canonical text of each of those, and
    "-inf"/"+inf" ("eps"/"e" for BOOL), to its scalar.  Immutable by
    convention, like Scalar."""

    __slots__ = ("name", "dim", "bot", "top", "unit", "fins", "texts")

    def __new__(cls, name: str, dim: int = 0) -> "SemiringId":
        try:
            return _TAGS[name, dim]
        except (KeyError, TypeError):
            pass
        if name not in ("rmax", "bool", "nmax", "mat"):
            raise DomainError(f"unknown semiring {name!r}")
        if name == "mat" and dim < 1:
            raise DomainError("matrix semiring needs dimension >= 1")
        if name != "mat" and dim != 0:
            raise DomainError("dim is only meaningful for matrix semirings")
        sr = object.__new__(cls)
        sr.name, sr.dim = name, dim
        small = range(-64, 65) if name == "rmax" else range(65) if name == "nmax" else ()
        sr.fins = {q: Scalar(sr, q) for q in small}
        if name == "mat":
            r = range(dim)
            sr.bot = Scalar(sr, (NEG_INF,) * (dim * dim))
            sr.top = Scalar(sr, (POS_INF,) * (dim * dim))
            sr.unit = Scalar(sr, tuple(0 if i == j else NEG_INF for i in r for j in r))
        else:
            sr.bot, sr.top = Scalar(sr, NEG_INF), Scalar(sr, POS_INF)
            sr.unit = sr.top if name == "bool" else sr.fins[0]
        sr.texts = {str(q): s for q, s in sr.fins.items()}
        if name == "bool":
            sr.texts.update(eps=sr.bot, e=sr.top)
        else:
            sr.texts.update({"-inf": sr.bot, "+inf": sr.top})
        return _TAGS.setdefault((name, dim), sr)  # one winner if two threads race

    def __reduce__(self):
        return SemiringId, (self.name, self.dim)

    def __repr__(self) -> str:
        return f"SemiringId(name={self.name!r}, dim={self.dim!r})"

    def __str__(self) -> str:
        return f"mat{self.dim}" if self.name == "mat" else self.name


class _Infinity:
    """The raw value of an infinity.  There are exactly two, compared by
    ``is`` (copies and pickles give the same two back); ``str`` gives the
    scalar text."""

    __slots__ = ("_text",)

    def __init__(self, text: str) -> None:
        self._text = text

    def __reduce__(self) -> str:
        return "NEG_INF" if self is NEG_INF else "POS_INF"

    def __repr__(self) -> str:
        return self._text


NEG_INF = _Infinity("-inf")
POS_INF = _Infinity("+inf")


class Scalar:
    """One element of a complete idempotent semiring: its semiring and its
    raw value, and nothing else.

    ``value`` is an int or a Fraction (never an integral one) when finite,
    ``NEG_INF`` for bottom and ``POS_INF`` for top; a matrix, recognised by
    its tag's ``dim``, holds its n*n entries' raw values as one flat
    row-major tuple.  ``entries`` reads a matrix as an n x n grid of RMAX
    scalars, built on each access.
    Immutable by convention: nothing in the library writes to a Scalar after
    construction, and small values are interned.
    """

    __slots__ = ("semiring", "value")

    def __init__(self, semiring: SemiringId, value) -> None:
        self.semiring = semiring
        self.value = value

    @property
    def entries(self) -> tuple[tuple["Scalar", ...], ...] | None:
        if not self.semiring.dim:
            return None
        return tuple(tuple(of_raw(RMAX, q) for q in row) for row in mat_rows(self))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.semiring is other.semiring and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value, self.semiring))

    def __repr__(self) -> str:
        if self.semiring.dim:
            rows = "; ".join(" ".join(map(str, row)) for row in mat_rows(self))
            return f"<{self.semiring} [{rows}]>"
        return f"<{self.semiring} {scalar_to_text(self)}>"


_TAGS: dict[tuple[str, int], SemiringId] = {}
RMAX = SemiringId("rmax")
BOOL = SemiringId("bool")
NMAX = SemiringId("nmax")


def matrix_semiring(n: int) -> SemiringId:
    """The n x n matrix semiring."""
    return SemiringId("mat", n)


def mat_rows(s: Scalar) -> list[tuple]:
    """The rows of a matrix element's raw entries."""
    n, flat = s.semiring.dim, s.value
    return [flat[i:i + n] for i in range(0, n * n, n)]


def of_raw(sr: SemiringId, q) -> Scalar:
    """The scalar of ``sr`` whose value is the raw value ``q``."""
    if q is NEG_INF:
        return sr.bot
    if q is POS_INF:
        return sr.top
    return fin(sr, q)


def bot(sr: SemiringId) -> Scalar:
    """Zero element (neutral for the join, absorbing for the product)."""
    return sr.bot


def top(sr: SemiringId) -> Scalar:
    """Greatest element."""
    return sr.top


def unit(sr: SemiringId) -> Scalar:
    """Unit of the product.  Coincides with top for BOOL."""
    return sr.unit


def fin(sr: SemiringId, q: Rational) -> Scalar:
    """Finite element.  NMAX only admits naturals; a bool is no rational."""
    if type(q) is int:
        s = sr.fins.get(q)
        if s is not None:
            return s
        if sr is RMAX or sr is NMAX and q >= 0:
            return Scalar(sr, q)
    elif type(q) is Fraction and sr is RMAX and q.denominator != 1:
        return Scalar(sr, q)
    elif isinstance(q, Fraction) and q.denominator == 1:
        return fin(sr, int(q))  # an integral Fraction is its int, interned like it
    if sr is BOOL:
        raise DomainError("the Boolean semiring has no finite elements besides eps/e")
    if sr.dim:
        raise DomainError("matrix elements are built with mat_of, not fin")
    if sr is NMAX and not (isinstance(q, int) and q >= 0):
        raise DomainError(f"{_shown(q)} is not in the natural carrier")
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise DomainError(f"finite values must be exact rationals, got {type(q)}")
    return Scalar(sr, q)


def mat_of(rows: list[list[Scalar]] | tuple) -> Scalar:
    """Matrix-semiring element from a square grid of RMAX scalars."""
    n = len(rows)
    if n < 1 or any(len(r) != n for r in rows):
        raise MismatchError("matrix-semiring elements must be square")
    if any(s.semiring is not RMAX for r in rows for s in r):
        raise MismatchError("matrix entries must be RMAX scalars")
    return Scalar(SemiringId("mat", n), tuple(s.value for r in rows for s in r))


def scal(sr: SemiringId, v) -> Scalar:
    """Coerce ints, Fractions, strings or Scalars into ``sr``."""
    if isinstance(v, Scalar):
        if v.semiring is not sr:
            raise MismatchError(f"scalar of {v.semiring} used in {sr}")
        return v
    if isinstance(v, str):
        return scalar_from_text(sr, v)
    if isinstance(v, (int, Fraction)):
        return fin(sr, v)
    if sr.dim and isinstance(v, (list, tuple)):
        return mat_of([[scal(RMAX, e) for e in row] for row in v])
    raise DomainError(f"cannot coerce {v!r} into {sr}")


def _need_same(a: Scalar, b: Scalar) -> None:
    if a.semiring is not b.semiring:
        raise MismatchError(f"mixed semirings {a.semiring} and {b.semiring}")


def _le(x: Rational, y: Rational) -> bool:
    """x <= y for two finite raw matrix entries, by cross-multiplication
    (the caller compares two ints itself)."""
    return x.numerator * y.denominator <= y.numerator * x.denominator


def leq(a: Scalar, b: Scalar) -> bool:
    """Natural order a <= b.  Total for the scalars, entrywise for matrices."""
    sr = a.semiring
    if sr is not b.semiring:
        _need_same(a, b)
    if sr.dim:
        for x, y in zip(a.value, b.value):
            if x is NEG_INF or y is POS_INF:
                continue
            if x is POS_INF or y is NEG_INF:
                return False
            if not (x <= y if type(x) is int and type(y) is int else _le(x, y)):
                return False
        return True
    x, y = a.value, b.value
    if x is NEG_INF or y is POS_INF:
        return True
    if y is NEG_INF or x is POS_INF:
        return False
    return x <= y


def add(a: Scalar, b: Scalar) -> Scalar:
    """Join: the least upper bound of {a, b}."""
    sr = a.semiring
    if sr is not b.semiring:
        _need_same(a, b)
    if sr.dim:
        return Scalar(sr, tuple(
            y if x is NEG_INF or y is POS_INF
            else x if y is NEG_INF or x is POS_INF
            or (x >= y if type(x) is int and type(y) is int else _le(y, x))
            else y
            for x, y in zip(a.value, b.value)
        ))
    x, y = a.value, b.value
    if x is NEG_INF:
        return b
    if y is NEG_INF:
        return a
    if x is POS_INF or y is POS_INF:
        return sr.top
    return a if x >= y else b


def meet(a: Scalar, b: Scalar) -> Scalar:
    """Greatest lower bound of {a, b}."""
    sr = a.semiring
    if sr is not b.semiring:
        _need_same(a, b)
    if sr.dim:
        return Scalar(sr, tuple(
            y if x is POS_INF or y is NEG_INF
            else x if y is POS_INF or x is NEG_INF
            or (x <= y if type(x) is int and type(y) is int else _le(x, y))
            else y
            for x, y in zip(a.value, b.value)
        ))
    x, y = a.value, b.value
    if x is POS_INF:
        return b
    if y is POS_INF:
        return a
    if x is NEG_INF or y is NEG_INF:
        return sr.bot
    return a if x <= y else b


def mul(a: Scalar, b: Scalar) -> Scalar:
    """Semiring product.  Bottom absorbs on both sides, even against top."""
    sr = a.semiring
    if sr is not b.semiring:
        _need_same(a, b)
    if sr.dim:
        return _mat_mul(a, b)
    x, y = a.value, b.value
    if x is NEG_INF or y is NEG_INF:
        return sr.bot
    if x is POS_INF or y is POS_INF:
        return sr.top
    return fin(sr, x + y)


def lres(a: Scalar, b: Scalar) -> Scalar:
    r"""Left residuation a\b: the greatest lambda with a*lambda <= b."""
    sr = a.semiring
    if sr is not b.semiring:
        _need_same(a, b)
    if sr.dim:
        return _mat_lres(a, b)
    x, y = a.value, b.value
    if x is NEG_INF or y is POS_INF:
        return sr.top
    if x is POS_INF or y is NEG_INF:
        return sr.bot
    # both finite
    if sr is NMAX and y < x:
        return sr.bot  # the sup must stay inside the natural carrier
    return fin(sr, y - x)


def rres(b: Scalar, a: Scalar) -> Scalar:
    """Right residuation b/a: the greatest mu with mu*a <= b."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    if b.semiring.dim:
        return _mat_rres(b, a)
    return lres(a, b)  # scalar instances are commutative


# The raw folds.  A module bracket <y, x> = (+)_i y_i x_i and residual
# x\y = (^)_i x_i\y_i fold the raw values of their terms in closed form
# (Butkovic, *Max-linear Systems*, 2010, 1.2; Cohen-Gaubert-Quadrat, LAA 379,
# 2004).  Over RMAX and NMAX, ``bracket`` is max_i (y_i + x_i) and
# ``residual`` min_i (y_i - x_i), with NMAX's clamp applied once, to the
# minimum.  BOOL's eps and e are the raw values -inf and +inf, so the same
# loop folds them: each term is neutral or absorbs the fold, and the result
# is bottom or top.  Over matrices the product and both residuals are two folds, each
# over k >= 1 pairs of operands, so that one call also folds a bracket or
# residual of k terms:
#
#   _maxplus:  (+)_i a_i b_i   entry [r,c] = max over (i, j) of a_i[r,j] + b_i[j,c]
#   _minminus: (^)_i a_i \ b_i entry [j,k] = min over (i, r) of b_i[r,k] - a_i[r,j]
#
# A cached plan lists, per result entry in row-major order, the (index into
# a_i, index into b_i) pairs of its line: ``_mul_plan`` for the product,
# ``_lres_plan`` for a\b (columns of a against columns of b) and
# ``_rres_plan`` for b/a (rows of a against rows of b).  Every fold leaves
# at the first term that absorbs it: top for the max (bottom absorbs a term
# first, even against top), bottom for the min.  An int-int term stays an
# int; any other term is an unreduced pair num/den (den > 0) compared by
# cross-multiplication, so each result or result entry builds at most one
# Fraction, and an integral one is normalised to int.  Finite entries of
# add/meet/leq compare the same way.
#
# The scalar loops of ``bracket``/``residual`` and the matrix loops of
# ``_maxplus``/``_minminus`` do the same arithmetic but stay apart on
# purpose.  Three prototypes merged them into one kernel over raw pairs,
# called per fold or per matrix line; each cost 12-30% on the projector,
# hilbert and separation law suites and up to 30% on residuation,
# in-process, and one of them +14% laws p50, +23% laws p96 and +5% ops-mix
# p50 in the benchmark, because a fold of few terms pays the second call in
# full.


@functools.cache
def _mul_plan(n: int) -> tuple:
    # (ab)[i][k] = join over j of a[i][j] * b[j][k]
    r = range(n)
    return tuple(tuple((i * n + j, j * n + k) for j in r) for i in r for k in r)


@functools.cache
def _lres_plan(n: int) -> tuple:
    # (a\b)[j][k] = meet over i of a[i][j] \ b[i][k]
    r = range(n)
    return tuple(tuple((i * n + j, i * n + k) for i in r) for j in r for k in r)


@functools.cache
def _rres_plan(n: int) -> tuple:
    # (b/a)[i][j] = meet over k of b[i][k] / a[j][k] = meet over k of a[j][k] \ b[i][k]
    r = range(n)
    return tuple(tuple((j * n + k, i * n + k) for k in r) for i in r for j in r)


def _ratio(n: int, d: int):
    """n/d, an int when integral."""
    if d == 1:
        return n
    q = Fraction(n, d)
    return q.numerator if q.denominator == 1 else q


def _maxplus(sr: SemiringId, pairs, plan: tuple) -> Scalar:
    out = []
    for line in plan:
        n, d = None, 1  # the greatest term so far is n/d; None while every term is bottom
        for af, bf in pairs:
            for ix, iy in line:
                x = af[ix]
                y = bf[iy]
                if x is NEG_INF or y is NEG_INF:
                    continue  # bottom absorbs the term, even against top
                if x is POS_INF or y is POS_INF:
                    n = POS_INF
                    break
                if type(x) is int and type(y) is int:
                    if d == 1:
                        s = x + y
                        if n is None or s > n:
                            n = s
                        continue
                    tn, td = x + y, 1
                else:
                    xd = x.denominator
                    yd = y.denominator
                    tn, td = x.numerator * yd + y.numerator * xd, xd * yd
                if n is None or tn * d > n * td:
                    n, d = tn, td
            else:
                continue
            break  # an absorbing term decided the entry
        out.append(NEG_INF if n is None else n if d == 1 or n is POS_INF else _ratio(n, d))
    return Scalar(sr, tuple(out))


def _minminus(sr: SemiringId, pairs, plan: tuple) -> Scalar:
    out = []
    for line in plan:
        n, d = None, 1  # the least term so far is n/d; None while every term is top
        for af, bf in pairs:
            for ix, iy in line:
                x = af[ix]
                y = bf[iy]
                if x is NEG_INF or y is POS_INF:
                    continue  # the term x\y is top
                if x is POS_INF or y is NEG_INF:
                    n = NEG_INF
                    break
                if type(x) is int and type(y) is int:
                    if d == 1:
                        s = y - x
                        if n is None or s < n:
                            n = s
                        continue
                    tn, td = y - x, 1
                else:
                    xd = x.denominator
                    yd = y.denominator
                    tn, td = y.numerator * xd - x.numerator * yd, xd * yd
                if n is None or tn * d < n * td:
                    n, d = tn, td
            else:
                continue
            break  # an absorbing term decided the entry
        out.append(POS_INF if n is None else n if d == 1 or n is NEG_INF else _ratio(n, d))
    return Scalar(sr, tuple(out))


def _mat_mul(a: Scalar, b: Scalar) -> Scalar:
    return _maxplus(a.semiring, ((a.value, b.value),), _mul_plan(a.semiring.dim))


def _mat_lres(a: Scalar, b: Scalar) -> Scalar:
    return _minminus(a.semiring, ((a.value, b.value),), _lres_plan(a.semiring.dim))


def _mat_rres(b: Scalar, a: Scalar) -> Scalar:
    return _minminus(a.semiring, ((a.value, b.value),), _rres_plan(a.semiring.dim))


def _mat_pairs(sr: SemiringId, us, vs) -> list:
    pairs = []
    for u, v in zip(us, vs):
        if u.semiring is not sr or v.semiring is not sr:
            raise MismatchError(f"mixed semirings {u.semiring} and {v.semiring} in {sr}")
        pairs.append((u.value, v.value))
    return pairs


def bracket(ys, xs) -> Scalar:
    """<y, x> = (+)_i y_i * x_i over equal-length nonempty sequences of one
    semiring's scalars."""
    sr = ys[0].semiring
    if sr.dim:
        return _maxplus(sr, _mat_pairs(sr, ys, xs), _mul_plan(sr.dim))
    n = d = None  # the greatest term so far is n/d; None while every term is bottom
    for y, x in zip(ys, xs):
        a = y.value
        b = x.value
        if type(a) is int and type(b) is int:
            tn, td = a + b, 1
        elif a is NEG_INF or b is NEG_INF:
            continue  # bottom absorbs the term, even against top
        elif a is POS_INF or b is POS_INF:
            return sr.top
        else:
            tn = a.numerator * b.denominator + b.numerator * a.denominator
            td = a.denominator * b.denominator
        if n is None or tn * d > n * td:
            n, d = tn, td
    if n is None:
        return sr.bot
    return fin(sr, n if d == 1 else Fraction(n, d))


def residual(xs, ys, plan=_lres_plan) -> Scalar:
    r"""x\y = (^)_i x_i\y_i over equal-length nonempty sequences of one
    semiring's scalars.  With ``plan=_rres_plan`` it folds (^)_i y_i/x_i
    instead, which differs over matrices only."""
    sr = xs[0].semiring
    if sr.dim:
        return _minminus(sr, _mat_pairs(sr, xs, ys), plan(sr.dim))
    n = d = None  # the least term so far is n/d; None while every term is top
    for x, y in zip(xs, ys):
        a = x.value
        b = y.value
        if type(a) is int and type(b) is int:
            tn, td = b - a, 1
        elif a is NEG_INF or b is POS_INF:
            continue  # the term x\y is top
        elif a is POS_INF or b is NEG_INF:
            return sr.bot
        else:
            tn = b.numerator * a.denominator - a.numerator * b.denominator
            td = a.denominator * b.denominator
        if n is None or tn * d < n * td:
            n, d = tn, td
    if n is None:
        return sr.top
    if n < 0 and sr is NMAX:
        return sr.bot  # the sup must stay inside the natural carrier
    return fin(sr, n if d == 1 else Fraction(n, d))


def make_phi(value: Scalar) -> Scalar:
    """The pairing element phi: any scalar, but eps over the Boolean semiring."""
    if value.semiring is BOOL and value.value is not NEG_INF:
        raise DomainError("over the Boolean semiring phi must be eps")
    return value


def default_phi(sr: SemiringId) -> Scalar:
    """RMAX and NMAX use 0, BOOL uses eps, matrices use the 0/top pattern."""
    if sr.dim:
        return phi_nn(sr.dim, unit(RMAX))
    return sr.bot if sr is BOOL else sr.unit


def phi_nn(n: int, diag: Scalar) -> Scalar:
    """Matrix with ``diag`` on the diagonal and top off-diagonal."""
    t = top(RMAX)
    return mat_of([[diag if i == j else t for j in range(n)] for i in range(n)])


def _raw_key(q):
    return (0, 0) if q is NEG_INF else (2, 0) if q is POS_INF else (1, q)


def sort_key(s: Scalar):
    """Total key for deterministic enumeration output, natural-order compatible
    on each chain."""
    if s.semiring.dim:
        return tuple(map(_raw_key, s.value))
    return _raw_key(s.value)


def scalar_to_text(s: Scalar) -> str:
    """Canonical text form: "-inf", "+inf", lowest-terms "p/q" (integers bare);
    Boolean uses "eps"/"e"."""
    if s.semiring.dim:
        raise DomainError("matrix scalars encode as nested arrays, not text")
    if s.semiring is BOOL:
        return "eps" if s.value is NEG_INF else "e"
    return str(s.value)


def _excerpt(obj) -> str:
    """repr(obj), or past ECHO_CHARS characters of the text (or of another
    object's repr) the repr of its head and its length: a short message."""
    text = obj if type(obj) is str else repr(obj)
    if len(text) <= ECHO_CHARS:
        return repr(obj)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


def _shown(q) -> str:
    """str(q), unquoted, up to ECHO_CHARS characters; past them, its excerpt."""
    text = str(q)
    return text if len(text) <= ECHO_CHARS else _excerpt(text)


def rational_from_text(text: str) -> Rational:
    """Finite scalar text, as the README states it: an optional sign, ASCII
    digits and an optional "/" with ASCII digits, at most MAX_SCALAR_DIGITS
    of them in the numerator and in the denominator.  No padding, "_",
    decimal point or exponent ("1e2000000" would build a 6.6-million-bit
    int).  String tests decide it (``str.isdigit`` is exact on ASCII)."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if text.isascii() and digits.isdigit() and (not slash or den.isdigit()):
        if len(text) > MAX_SCALAR_DIGITS and max(len(digits), len(den)) > MAX_SCALAR_DIGITS:
            raise SchemaError(
                f"not an exact rational: {_excerpt(text)} has more than "
                f"{MAX_SCALAR_DIGITS} digits in its numerator or denominator"
            )
        try:  # int() refuses past a lower PYTHONINTMAXSTRDIGITS, the division a zero q
            return _ratio(int(num), int(den)) if slash else int(num)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"not an exact rational: {_excerpt(text)}")


def scalar_from_text(sr: SemiringId, text: str) -> Scalar:
    if not isinstance(text, str):
        raise SchemaError(f"scalar text expected, got {_excerpt(text)}")
    s = sr.texts.get(text)
    if s is not None:
        return s
    if sr is BOOL:
        raise SchemaError(f"Boolean scalars are 'eps' or 'e', got {_excerpt(text)}")
    if sr.dim:
        raise SchemaError(
            f"{sr} scalars are {sr.dim}x{sr.dim} arrays of rmax scalars, or '-inf' or '+inf'; "
            f"got {_excerpt(text)}"
        )
    try:
        return fin(sr, rational_from_text(text))
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc
