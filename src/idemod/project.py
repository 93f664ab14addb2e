"""Canonical projector onto a finitely generated complete subsemimodule,
its opposite-order mirror, and the meet of dominating elements, (A/A)x.

A family is its generator matrix A, and P(x) = A(A\\x): the coefficients
g\\x fold A's columns against x, the projection folds A's rows against them.
The opposite-order mirror meets g/(x\\g) from the top vector, and both
return their coefficients and whether x is fixed.
"""
from __future__ import annotations

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
from .record import Record
from .semiring import RMAX, Scalar, _rres_plan, bracket, leq, residual


class ProjectionResult(Record):
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


def inf_dominating(w: GeneratingFamily, x: Vector) -> tuple[Vector, bool]:
    """Entrywise meet of the span elements dominating x, and whether that
    meet itself belongs to the span (it need not).  RMAX only.

    The meet is (A/A)x, q_i = (+)_k x_k (r_k\\r_i) over the rows r_k of A:
    a bracket of row residuals against x, each top when A has no columns.
    It is exact: lres(-inf, .) = +inf drops the columns that cannot cover a
    row; lres(+inf, y) = -inf unless y = +inf, the open interval of a top
    entry; bottom absorbs the rows with x_k = -inf; and A/A >= I and
    (A/A)A = A are the laws dominating-meet-above and dominating-meet-of-member.
    """
    _check_family(w, x)
    sr = x.semiring
    if sr is not RMAX:
        raise DomainError("dominating meet is implemented over RMAX only")
    rows = w.entries
    aa = ([residual(rk, ri) if ri else sr.top for rk in rows] for ri in rows)  # rows of A/A
    q = Vector(sr, tuple(bracket(row, x.entries) for row in aa))
    if not vec_leq(x, q):
        raise TheoremViolation("dominating meet fell below the point")
    return q, is_member(w, q)
