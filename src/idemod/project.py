"""Canonical projector onto a finitely generated complete subsemimodule,
its opposite-order mirror, and the meet of dominating elements.

A family is its generator matrix A, and P(x) = A(A\\x): the coefficients
g\\x fold A's columns against x, the projection folds A's rows against them.
The opposite-order mirror meets g/(x\\g) from the top vector, and both
return their coefficients and whether x is fixed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, MismatchError, TheoremViolation
from .freemod import (
    GeneratingFamily,
    Vector,
    _residual,
    combine,
    mat_lres,
    top_vector,
    vec_leq,
    vec_lres,
)
from .semiring import NEG_INF, POS_INF, RMAX, Scalar, _rres_plan, bot, fin, leq, mul, residual, top


@dataclass(frozen=True, slots=True)
class ProjectionResult:
    projection: Vector
    coefficients: tuple[Scalar, ...]  # g\x (x\g for the dual) per generator
    fixed: bool  # projection == x


def _check_family(w: GeneratingFamily, x: Vector) -> None:
    if w.semiring is not x.semiring:
        raise MismatchError("family and point live in different semirings")
    if w.dim != x.dim:
        raise MismatchError(f"family dim {w.dim} vs point dim {x.dim}")


def _dual_coefficients(w: GeneratingFamily, x: Vector) -> tuple[Scalar, ...]:
    """x\\g per generator g: the residual fold of x against each column of A."""
    return tuple(_residual(x.entries, g) for g in zip(*w.entries))


def project(w: GeneratingFamily, x: Vector) -> ProjectionResult:
    """Greatest element of span(w) below x: A(A\\x) for the generator matrix A."""
    _check_family(w, x)
    coeffs = mat_lres(w, x).entries if len(w) else ()  # A\x; none when A has no columns
    p = combine(w, coeffs)
    return ProjectionResult(p, coeffs, p == x)


def is_member(w: GeneratingFamily, x: Vector) -> bool:
    """x belongs to span(w).

    Decided by the projection fixed point; the residuation form
    x\\P(x) = x\\x is recomputed as a cross-check and must agree.
    """
    return _checked_member(project(w, x), x)


def _checked_member(res: ProjectionResult, x: Vector) -> bool:
    """res.fixed for res = project(w, x), cross-checked against the
    residuation form of membership: P(x) <= x gives x\\P(x) <= x\\x, with
    equality exactly when x is a member."""
    xp, xx = vec_lres(x, res.projection), vec_lres(x, x)
    if not leq(xp, xx) or res.fixed != (xp == xx):
        raise TheoremViolation(
            f"membership tests disagree on {x!r}: fixed={res.fixed} "
            f"x\\P(x)={xp!r} x\\x={xx!r}"
        )
    return res.fixed


def project_dual(w: GeneratingFamily, x: Vector) -> ProjectionResult:
    """Projection onto the opposite-order span of w: its least element above
    x, the meet of g/(x\\g) over generators, each row of A folded as one
    right residual.  Empty family yields the all-top vector."""
    _check_family(w, x)
    coeffs = _dual_coefficients(w, x)
    if coeffs:
        p = Vector(x.semiring, tuple(residual(coeffs, row, _rres_plan) for row in w.entries))
    else:
        p = top_vector(x.semiring, x.dim)
    return ProjectionResult(p, coeffs, p == x)


# -- meet of dominating span elements ---------------------------------------
#
# inf{v in span(w) : v >= x} computed exactly over RMAX, in closed form.
# A*t >= x holds iff every row k with x_k above bottom is covered by some
# column j, which bounds t_j from below (closed, or open when A_kj is top).
# The feasible coefficients are therefore the union, over choices of one
# covering column per row, of boxes whose bound on t_j is the max of the
# bounds of the rows that chose j.  The infimum of (A*t)_i over such a box is
# a max over rows of _box_floor(A_ij, bound), since _box_floor distributes
# over the max of bounds.  Each row picks its column independently, so the
# meet over all choices of that max over rows is the max over rows of the
# meet over columns:
#
#     q_i = max_k min_{j covers k} _box_floor(A_ij, cover(A_kj, x_k)),
#
# with an empty min being top (no choice exists) and an empty max bottom.
# _dominating_entry folds this on the raw values of A and the bounds, as
# freemod's folds do, and builds one scalar per entry; _box_floor is one term
# of it written on scalars, the form the tests enumerate choices with.

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


def _dominating_entry(sr, row: tuple, covers: list) -> Scalar:
    """max over covers of the min over their columns j of
    _box_floor(row[j], bound), on raw values: a min leaves at its first
    bottom term and the max at its first top min; each term row[j] + bound
    is an unreduced pair num/den, compared by cross-multiplication."""
    best_n = best_d = None  # the greatest min so far; None while every min is bottom
    for cover in covers:
        n = d = None  # the least term so far; None while every term is top
        for j, (kind, bound) in cover:
            x = row[j].value
            if x is NEG_INF or (kind == _OPEN and x is not POS_INF):
                break  # a bottom term
            if kind == _OPEN or x is POS_INF or bound.value is POS_INF:
                continue  # a top term
            y = bound.value
            tn = x.numerator * y.denominator + y.numerator * x.denominator
            td = x.denominator * y.denominator
            if n is None or tn * d < n * td:
                n, d = tn, td
        else:
            if n is None:
                return sr.top
            if best_n is None or n * best_d > best_n * d:
                best_n, best_d = n, d
    if best_n is None:
        return sr.bot
    return fin(sr, best_n if best_d == 1 else Fraction(best_n, best_d))


def inf_dominating(w: GeneratingFamily, x: Vector) -> tuple[Vector, bool]:
    """Entrywise meet of the span elements dominating x, and whether that
    meet itself belongs to the span (it need not).  RMAX only."""
    _check_family(w, x)
    sr = x.semiring
    if sr is not RMAX:
        raise DomainError("dominating meet is implemented over RMAX only")
    covers = []  # for each row k with x_k above bottom: its covering columns j and bounds
    for k, xk in enumerate(x.entries):
        if xk.value is not NEG_INF:
            bounds = [(j, _cover_constraint(a, xk)) for j, a in enumerate(w.entries[k])]
            covers.append([(j, c) for j, c in bounds if c[0] != _EMPTY])
    q = Vector(sr, tuple(_dominating_entry(sr, row, covers) for row in w.entries))
    if not vec_leq(x, q):
        raise TheoremViolation("dominating meet fell below the point")
    return q, is_member(w, q)
