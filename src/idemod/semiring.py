"""Complete idempotent semirings with exact arithmetic and residuation.

Four instances are supported:

* ``RMAX``  -- reals with both infinities, (max, +).  Complete semifield.
* ``BOOL``  -- two elements {eps, e}, (or, and).  eps is bottom, e is top.
* ``NMAX``  -- naturals with both infinities, (max, +).  Complete but not
  a semifield: residuation results are clamped to the carrier.
* ``matrix_semiring(n)`` -- n x n matrices over RMAX with the (max, +)
  product; order, sups and infs are entrywise.

Everything is exact: finite values are ints or ``fractions.Fraction``,
infinities are symbolic.  The two conventionally ambiguous expressions are
fixed once and for all: the product absorbs through bottom
(``-inf + +inf = -inf`` under ``mul``) while residuation favours top
(``lres(-inf, -inf) = lres(+inf, +inf) = +inf``).

All values are immutable; all operations are pure functions, safe for
unsynchronised concurrent use.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, MismatchError, SchemaError

BOT = "bot"
FIN = "fin"
TOP = "top"
MAT = "mat"

Rational = int | Fraction


@dataclass(frozen=True, slots=True)
class SemiringId:
    """Tag selecting one of the four concrete instances."""

    name: str  # "rmax" | "bool" | "nmax" | "mat"
    dim: int = 0

    def __post_init__(self) -> None:
        if self.name not in ("rmax", "bool", "nmax", "mat"):
            raise DomainError(f"unknown semiring {self.name!r}")
        if self.name == "mat" and self.dim < 1:
            raise DomainError("matrix semiring needs dimension >= 1")
        if self.name != "mat" and self.dim != 0:
            raise DomainError("dim is only meaningful for matrix semirings")

    def __str__(self) -> str:
        return f"mat{self.dim}" if self.name == "mat" else self.name


RMAX = SemiringId("rmax")
BOOL = SemiringId("bool")
NMAX = SemiringId("nmax")

# filled in after the constructors below exist
_RMAX_BOT: "Scalar"
_RMAX_TOP: "Scalar"


@functools.cache
def matrix_semiring(n: int) -> SemiringId:
    """The n x n matrix semiring, one interned tag per n, so operands built
    apart share the ``is`` fast path of the binary ops."""
    return SemiringId("mat", n)


class Scalar:
    """One element of a complete idempotent semiring.

    ``kind`` is one of BOT/FIN/TOP for the scalar instances; matrix-semiring
    elements use kind MAT and carry an n x n grid of RMAX scalars in
    ``entries``.  Immutable by convention: nothing in the library writes to a
    Scalar after construction, and small values are interned.
    """

    __slots__ = ("semiring", "kind", "value", "entries")

    def __init__(
        self,
        semiring: SemiringId,
        kind: str,
        value: Rational | None = None,
        entries: tuple[tuple["Scalar", ...], ...] | None = None,
    ) -> None:
        self.semiring = semiring
        self.kind = kind
        self.value = value
        self.entries = entries

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.value == other.value
            and (self.semiring is other.semiring or self.semiring == other.semiring)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.value, self.semiring, self.entries))

    def __repr__(self) -> str:
        if self.kind == MAT:
            rows = "; ".join(
                " ".join(scalar_to_text(s) for s in row) for row in self.entries
            )
            return f"<{self.semiring} [{rows}]>"
        return f"<{self.semiring} {scalar_to_text(self)}>"


_BOTS: dict[tuple[str, int], Scalar] = {}
_TOPS: dict[tuple[str, int], Scalar] = {}
_UNITS: dict[tuple[str, int], Scalar] = {}


def bot(sr: SemiringId) -> Scalar:
    """Zero element (neutral for the join, absorbing for the product)."""
    key = (sr.name, sr.dim)
    s = _BOTS.get(key)
    if s is None:
        if sr.name == "mat":
            row = (bot(RMAX),) * sr.dim
            s = Scalar(sr, MAT, entries=(row,) * sr.dim)
        else:
            s = Scalar(sr, BOT)
        _BOTS[key] = s
    return s


def top(sr: SemiringId) -> Scalar:
    """Greatest element."""
    key = (sr.name, sr.dim)
    s = _TOPS.get(key)
    if s is None:
        if sr.name == "mat":
            row = (top(RMAX),) * sr.dim
            s = Scalar(sr, MAT, entries=(row,) * sr.dim)
        else:
            s = Scalar(sr, TOP)
        _TOPS[key] = s
    return s


def unit(sr: SemiringId) -> Scalar:
    """Unit of the product.  Coincides with top for BOOL."""
    key = (sr.name, sr.dim)
    s = _UNITS.get(key)
    if s is None:
        if sr.name == "bool":
            s = top(sr)
        elif sr.name == "mat":
            e, eps = unit(RMAX), bot(RMAX)
            rows = tuple(
                tuple(e if i == j else eps for j in range(sr.dim))
                for i in range(sr.dim)
            )
            s = Scalar(sr, MAT, entries=rows)
        else:
            s = Scalar(sr, FIN, 0)
        _UNITS[key] = s
    return s


_FINS_RMAX: dict[int, Scalar] = {}
_FINS_NMAX: dict[int, Scalar] = {}


def fin(sr: SemiringId, q: Rational) -> Scalar:
    """Finite element.  NMAX only admits naturals."""
    if type(q) is int:
        nm = sr.name
        if nm == "rmax":
            if -64 <= q <= 64:
                s = _FINS_RMAX.get(q)
                if s is None:
                    s = _FINS_RMAX[q] = Scalar(sr, FIN, q)
                return s
            return Scalar(sr, FIN, q)
        if nm == "nmax" and q >= 0:
            if q <= 64:
                s = _FINS_NMAX.get(q)
                if s is None:
                    s = _FINS_NMAX[q] = Scalar(sr, FIN, q)
                return s
            return Scalar(sr, FIN, q)
    if sr.name == "bool":
        raise DomainError("the Boolean semiring has no finite elements besides eps/e")
    if sr.name == "mat":
        raise DomainError("matrix elements are built with mat_of, not fin")
    if isinstance(q, Fraction) and q.denominator == 1:
        q = int(q)
    if sr.name == "nmax" and not (isinstance(q, int) and q >= 0):
        raise DomainError(f"{q!r} is not in the natural carrier")
    if not isinstance(q, (int, Fraction)):
        raise DomainError(f"finite values must be exact rationals, got {type(q)}")
    return Scalar(sr, FIN, q)


def mat_of(rows: list[list[Scalar]] | tuple) -> Scalar:
    """Matrix-semiring element from a square grid of RMAX scalars."""
    n = len(rows)
    if n < 1 or any(len(r) != n for r in rows):
        raise MismatchError("matrix-semiring elements must be square")
    for r in rows:
        for s in r:
            if s.semiring != RMAX:
                raise MismatchError("matrix entries must be RMAX scalars")
    return Scalar(matrix_semiring(n), MAT, entries=tuple(tuple(r) for r in rows))


def scal(sr: SemiringId, v) -> Scalar:
    """Coerce ints, Fractions, strings or Scalars into ``sr``."""
    if isinstance(v, Scalar):
        if v.semiring != sr:
            raise MismatchError(f"scalar of {v.semiring} used in {sr}")
        return v
    if isinstance(v, str):
        return scalar_from_text(sr, v)
    if isinstance(v, (int, Fraction)):
        return fin(sr, v)
    if sr.name == "mat" and isinstance(v, (list, tuple)):
        return mat_of([[scal(RMAX, e) for e in row] for row in v])
    raise DomainError(f"cannot coerce {v!r} into {sr}")


def _need_same(a: Scalar, b: Scalar) -> None:
    if a.semiring is not b.semiring and a.semiring != b.semiring:
        raise MismatchError(f"mixed semirings {a.semiring} and {b.semiring}")


def leq(a: Scalar, b: Scalar) -> bool:
    """Natural order a <= b.  Total for the scalars, entrywise for matrices."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    ka, kb = a.kind, b.kind
    if ka == MAT:
        return all(
            leq(x, y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb)
        )
    if ka == BOT or kb == TOP:
        return True
    if kb == BOT or ka == TOP:
        return False
    return a.value <= b.value


def add(a: Scalar, b: Scalar) -> Scalar:
    """Join: the least upper bound of {a, b}."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    ka, kb = a.kind, b.kind
    if ka == MAT:
        return Scalar(
            a.semiring,
            MAT,
            entries=tuple(
                tuple(add(x, y) for x, y in zip(ra, rb))
                for ra, rb in zip(a.entries, b.entries)
            ),
        )
    if ka == BOT:
        return b
    if kb == BOT:
        return a
    if ka == TOP or kb == TOP:
        return top(a.semiring)
    return a if a.value >= b.value else b


def meet(a: Scalar, b: Scalar) -> Scalar:
    """Greatest lower bound of {a, b}."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    ka, kb = a.kind, b.kind
    if ka == MAT:
        return Scalar(
            a.semiring,
            MAT,
            entries=tuple(
                tuple(meet(x, y) for x, y in zip(ra, rb))
                for ra, rb in zip(a.entries, b.entries)
            ),
        )
    if ka == TOP:
        return b
    if kb == TOP:
        return a
    if ka == BOT or kb == BOT:
        return bot(a.semiring)
    return a if a.value <= b.value else b


def mul(a: Scalar, b: Scalar) -> Scalar:
    """Semiring product.  Bottom absorbs on both sides, even against top."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    ka, kb = a.kind, b.kind
    if ka == MAT:
        return _mat_mul(a, b)
    if ka == BOT or kb == BOT:
        return bot(a.semiring)
    if ka == TOP or kb == TOP:
        return top(a.semiring)
    return fin(a.semiring, a.value + b.value)


def lres(a: Scalar, b: Scalar) -> Scalar:
    r"""Left residuation a\b: the greatest lambda with a*lambda <= b."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    ka, kb = a.kind, b.kind
    if ka == MAT:
        return _mat_lres(a, b)
    if ka == BOT:
        return top(a.semiring)
    if kb == TOP:
        return top(a.semiring)
    if ka == TOP or kb == BOT:
        return bot(a.semiring)
    # both finite
    if a.semiring.name == "nmax" and b.value < a.value:
        return bot(a.semiring)  # the sup must stay inside the natural carrier
    return fin(a.semiring, b.value - a.value)


def rres(b: Scalar, a: Scalar) -> Scalar:
    """Right residuation b/a: the greatest mu with mu*a <= b."""
    if a.semiring is not b.semiring:
        _need_same(a, b)
    if b.kind == MAT:
        return _mat_rres(b, a)
    return lres(a, b)  # scalar instances are commutative


# Unchecked RMAX entry ops for the matrix inner loops; operands are known to
# be RMAX scalars, so the tag checks and dispatch of the public ops are skipped.


def _r_mul(a: Scalar, b: Scalar) -> Scalar:
    ka, kb = a.kind, b.kind
    if ka == BOT or kb == BOT:
        return _RMAX_BOT
    if ka == TOP or kb == TOP:
        return _RMAX_TOP
    return fin(RMAX, a.value + b.value)


def _r_add(a: Scalar, b: Scalar) -> Scalar:
    ka, kb = a.kind, b.kind
    if ka == BOT:
        return b
    if kb == BOT:
        return a
    if ka == TOP or kb == TOP:
        return _RMAX_TOP
    return a if a.value >= b.value else b


def _r_meet(a: Scalar, b: Scalar) -> Scalar:
    ka, kb = a.kind, b.kind
    if ka == TOP:
        return b
    if kb == TOP:
        return a
    if ka == BOT or kb == BOT:
        return _RMAX_BOT
    return a if a.value <= b.value else b


def _r_lres(a: Scalar, b: Scalar) -> Scalar:
    ka, kb = a.kind, b.kind
    if ka == BOT or kb == TOP:
        return _RMAX_TOP
    if ka == TOP or kb == BOT:
        return _RMAX_BOT
    return fin(RMAX, b.value - a.value)


def _mat_mul(a: Scalar, b: Scalar) -> Scalar:
    n = a.semiring.dim
    ae, be = a.entries, b.entries
    rows = []
    for i in range(n):
        ai = ae[i]
        row = []
        for k in range(n):
            acc = _r_mul(ai[0], be[0][k])
            for j in range(1, n):
                acc = _r_add(acc, _r_mul(ai[j], be[j][k]))
            row.append(acc)
        rows.append(tuple(row))
    return Scalar(a.semiring, MAT, entries=tuple(rows))


def _mat_lres(a: Scalar, b: Scalar) -> Scalar:
    # (a\b)[j][k] = meet over i of a[i][j] \ b[i][k]
    n = a.semiring.dim
    ae, be = a.entries, b.entries
    rows = []
    for j in range(n):
        row = []
        for k in range(n):
            acc = _r_lres(ae[0][j], be[0][k])
            for i in range(1, n):
                acc = _r_meet(acc, _r_lres(ae[i][j], be[i][k]))
            row.append(acc)
        rows.append(tuple(row))
    return Scalar(a.semiring, MAT, entries=tuple(rows))


def _mat_rres(b: Scalar, a: Scalar) -> Scalar:
    # (b/a)[i][j] = meet over k of b[i][k] / a[j][k]
    n = a.semiring.dim
    ae, be = a.entries, b.entries
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _r_lres(ae[j][0], be[i][0])
            for k in range(1, n):
                acc = _r_meet(acc, _r_lres(ae[j][k], be[i][k]))
            row.append(acc)
        rows.append(tuple(row))
    return Scalar(b.semiring, MAT, entries=tuple(rows))


def is_invertible(s: Scalar) -> bool:
    """True when some t satisfies s*t = t*s = e."""
    sr = s.semiring
    if sr.name == "rmax":
        return s.kind == FIN
    if sr.name == "bool":
        return s.kind == TOP
    if sr.name == "nmax":
        return s.kind == FIN and s.value == 0
    # matrices: exactly one finite entry per row and per column, rest bottom
    n = sr.dim
    col_seen = [0] * n
    for row in s.entries:
        fin_in_row = 0
        for j, x in enumerate(row):
            if x.kind == FIN:
                fin_in_row += 1
                col_seen[j] += 1
            elif x.kind != BOT:
                return False
        if fin_in_row != 1:
            return False
    return all(c == 1 for c in col_seen)


def inverse(s: Scalar) -> Scalar:
    if not is_invertible(s):
        raise DomainError(f"{s!r} is not invertible")
    sr = s.semiring
    if sr.name == "rmax":
        return fin(sr, -s.value)
    if sr.name in ("bool", "nmax"):
        return s  # only the unit is invertible
    n = sr.dim
    eps = bot(RMAX)
    rows = [[eps] * n for _ in range(n)]
    for i, row in enumerate(s.entries):
        for j, x in enumerate(row):
            if x.kind == FIN:
                rows[j][i] = fin(RMAX, -x.value)
    return mat_of(rows)


@dataclass(frozen=True, slots=True)
class Phi:
    """Distinguished pairing element used by conjugations and reflexivity."""

    value: Scalar
    invertible: bool


def make_phi(value: Scalar) -> Phi:
    if value.semiring.name == "bool" and value.kind != BOT:
        raise DomainError("over the Boolean semiring phi must be eps")
    return Phi(value, is_invertible(value))


def default_phi(sr: SemiringId) -> Phi:
    """RMAX and NMAX use 0, BOOL uses eps, matrices use the 0/top pattern."""
    if sr.name == "bool":
        return make_phi(bot(sr))
    if sr.name in ("rmax", "nmax"):
        return make_phi(unit(sr))
    return make_phi(phi_nn(sr.dim, unit(RMAX)))


def phi_nn(n: int, diag: Scalar) -> Scalar:
    """Matrix with ``diag`` on the diagonal and top off-diagonal."""
    t = top(RMAX)
    return mat_of([[diag if i == j else t for j in range(n)] for i in range(n)])


_RMAX_BOT = bot(RMAX)
_RMAX_TOP = top(RMAX)


def sort_key(s: Scalar):
    """Total key for deterministic enumeration output, natural-order compatible
    on each chain."""
    if s.kind == MAT:
        return tuple(sort_key(x) for row in s.entries for x in row)
    if s.kind == BOT:
        return (0, 0)
    if s.kind == TOP:
        return (2, 0)
    return (1, Fraction(s.value))


def scalar_to_text(s: Scalar) -> str:
    """Canonical text form: "-inf", "+inf", lowest-terms "p/q" (integers bare);
    Boolean uses "eps"/"e"."""
    if s.semiring.name == "bool":
        return "eps" if s.kind == BOT else "e"
    if s.kind == BOT:
        return "-inf"
    if s.kind == TOP:
        return "+inf"
    if s.kind == MAT:
        raise DomainError("matrix scalars encode as nested arrays, not text")
    return str(s.value)


# Finite scalar text, as the README states it: an optional sign, ASCII
# digits and an optional "/" with ASCII digits.  No padding, "_", decimal
# point or exponent ("1e2000000" would build a 6.6-million-bit int).
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rational_from_text(text: str) -> Rational:
    if not _RATIONAL_TEXT.fullmatch(text):
        raise SchemaError(f"not an exact rational: {text!r}")
    num, _, den = text.partition("/")
    try:  # int() refuses more than 4300 digits, Fraction a zero denominator
        if not den:
            return int(num)
        q = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not an exact rational: {text!r}") from exc
    return int(q) if q.denominator == 1 else q


def scalar_from_text(sr: SemiringId, text: str) -> Scalar:
    if not isinstance(text, str):
        raise SchemaError(f"scalar text expected, got {text!r}")
    if sr.name == "bool":
        if text == "eps":
            return bot(sr)
        if text == "e":
            return top(sr)
        raise SchemaError(f"Boolean scalars are 'eps' or 'e', got {text!r}")
    if text == "-inf":
        return bot(sr)
    if text in ("+inf", "inf"):
        return top(sr)
    try:
        return fin(sr, rational_from_text(text))
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc
