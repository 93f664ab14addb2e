"""Separation theorems: universal (submodule) form, opposite-order form,
point-vs-point, and the convex form with explicit certificate, normalised
projection and half-space extraction.

The universal and opposite-order forms check orthogonality against the
coefficients their projector returns: A\\P(x) = A\\x, and P(x)\\g = x\\g.

Convex separation is universal separation one dimension up: (x, e) against
the lifted generators (g, e).  Since e\\e = e and e\\nu = nu, a residual
against a lifted vector is the plane residual met with the last coordinate.
"""
from __future__ import annotations

from .errors import DomainError, MismatchError, TheoremViolation
from .freemod import GeneratingFamily, Vector, _family_of_rows, act, mat_lres, vec_lres
from .project import _check_family, _checked_member, _dual_coefficients, project, project_dual
from .record import Record
from .semiring import BOOL, RMAX, Scalar, leq, lres, meet, mul, unit


class SeparationCertificate(Record):
    """Projection of x onto the span, with the two residuation facts that make
    it a separation: orthogonality on every generator, checked before the
    certificate is built, and the membership residual that is strict exactly
    when x is outside."""

    projection: Vector
    separated: bool


class ConvexSeparation(Record):
    nu: Scalar
    y: Vector
    lifted_projection: Vector  # (y, nu) in dimension n+1
    member: bool
    normalized: Vector | None  # y * (nu\e) when nu * (nu\e) = e, i.e. nu is invertible


class HalfSpace(Record):
    """Region {v : v\\x_ref ^ e <= v\\y ^ nu}.  Contains the convex set the
    certificate was built from and excludes x_ref whenever x_ref is outside."""

    x_ref: Vector
    y: Vector
    nu: Scalar

    def contains(self, v: Vector) -> bool:
        return halfspace_contains(self, v)


def separate_from_module(w: GeneratingFamily, x: Vector) -> SeparationCertificate:
    """Universal separation: P(x) is orthogonal to the span in the residuation
    pairing, and separates x from it iff x is not a member."""
    res = project(w, x)
    p = res.projection
    if len(w) and mat_lres(w, p).entries != res.coefficients:  # A\x, computed by project
        raise TheoremViolation(f"orthogonality failed: A\\P(x) differs from A\\x for x = {x!r}")
    return SeparationCertificate(p, not _checked_member(res, x))


def separate_dual(w: GeneratingFamily, x: Vector) -> SeparationCertificate:
    """Opposite-order mirror: the dual projection agrees with x against every
    generator, and separates iff x is outside the opposite-order span."""
    res = project_dual(w, x)
    p = res.projection
    if _dual_coefficients(w, p) != res.coefficients:  # x\g, computed by project_dual
        raise TheoremViolation(f"dual orthogonality failed: P(x)\\g differs from x\\g for x = {x!r}")
    return SeparationCertificate(p, vec_lres(p, x) != vec_lres(x, x))


def separate_points(x: Vector, y: Vector) -> Vector | None:
    """Witness z in {x, y} with x\\z != y\\z, or None when x == y."""
    if x == y:
        return None
    if vec_lres(x, x) != vec_lres(y, x):
        return x
    if vec_lres(x, y) != vec_lres(y, y):
        return y
    raise TheoremViolation(f"no witness among the pair {x!r}, {y!r}")


def _check_convex(c: GeneratingFamily, x: Vector) -> None:
    _check_family(c, x)
    if len(c) == 0:
        raise MismatchError("convex separation needs a nonempty generating family")
    if c.semiring is not RMAX and c.semiring is not BOOL:
        raise DomainError("convex separation requires a complete semifield instance")


def lift(v: Vector) -> Vector:
    """(v, e): v with the unit appended as a last coordinate."""
    return Vector(v.semiring, v.entries + (unit(v.semiring),))


def lift_family(c: GeneratingFamily) -> GeneratingFamily:
    """The lifted generators (g, e) of c: A with a row of units appended."""
    return _family_of_rows(c.semiring, c.entries + ((unit(c.semiring),) * len(c),))


def separate_from_convex(c: GeneratingFamily, x: Vector) -> ConvexSeparation:
    """Separate x from the convex hull of c.

    (y, nu) is the projection of the lifted point (x, e) onto the span of the
    lifted generators (g, e); x belongs to the hull iff that projection is
    (x, e) itself.  The self-checks of ``separate_from_module`` make the
    half-space (x, y, nu) hold every generator and exclude x when outside.
    """
    _check_convex(c, x)
    cert = separate_from_module(lift_family(c), lift(x))
    lifted = cert.projection
    y = Vector(x.semiring, lifted.entries[:-1])
    nu = lifted.entries[-1]
    e = unit(x.semiring)
    inv = lres(nu, e)  # nu^-1 when nu is invertible, which nu * (nu\e) = e tells
    normalized = act(y, inv) if mul(nu, inv) == e else None
    return ConvexSeparation(nu, y, lifted, not cert.separated, normalized)


def convex_projection(c: GeneratingFamily, x: Vector) -> Vector | None:
    """y * (nu\\e), the projection of x onto the convex hull; None when nu is
    not invertible, i.e. nu * (nu\\e) != e (over RMAX that means nu = -inf)."""
    return separate_from_convex(c, x).normalized


def halfspace(c: GeneratingFamily, x: Vector) -> HalfSpace:
    """The half-space of the convex separation of x from the hull of c."""
    sep = separate_from_convex(c, x)
    return HalfSpace(x, sep.y, sep.nu)


def halfspace_contains(h: HalfSpace, v: Vector) -> bool:
    e = unit(v.semiring)
    lhs = meet(vec_lres(v, h.x_ref), e)
    rhs = meet(vec_lres(v, h.y), h.nu)
    return leq(lhs, rhs)
