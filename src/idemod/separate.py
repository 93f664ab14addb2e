"""Separation theorems: universal (submodule) form, opposite-order form,
point-vs-point, and the convex form with explicit certificate, normalised
projection and half-space extraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import DomainError, MismatchError, TheoremViolation
from .freemod import GeneratingFamily, Vector, act, combine, vec_lres
from .project import _check_family, _checked_member, project, project_dual
from .semiring import Scalar, add, inverse, is_invertible, leq, meet, unit


@dataclass(frozen=True, slots=True)
class SeparationCertificate:
    """Projection of x onto the span, with the two residuation facts that make
    it a separation: orthogonality on every generator, and the membership
    residual that is strict exactly when x is outside."""

    projection: Vector
    orthogonality_checked: bool
    separated: bool


@dataclass(frozen=True, slots=True)
class ConvexSeparation:
    nu: Scalar
    y: Vector
    lifted_projection: Vector  # (y, nu) in dimension n+1
    member: bool
    normalized: Vector | None  # y * nu^-1 when nu is invertible


@dataclass(frozen=True, slots=True)
class HalfSpace:
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
    for g in w:
        if vec_lres(g, p) != vec_lres(g, x):
            raise TheoremViolation(f"orthogonality failed on generator {g!r}")
    return SeparationCertificate(p, True, not _checked_member(res, x))


def separate_dual(w: GeneratingFamily, x: Vector) -> SeparationCertificate:
    """Opposite-order mirror: the dual projection agrees with x against every
    generator, and separates iff x is outside the opposite-order span."""
    p = project_dual(w, x)
    for g in w:
        if vec_lres(p, g) != vec_lres(x, g):
            raise TheoremViolation(f"dual orthogonality failed on generator {g!r}")
    separated = vec_lres(p, x) != vec_lres(x, x)
    return SeparationCertificate(p, True, separated)


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
    if c.semiring.name not in ("rmax", "bool"):
        raise DomainError("convex separation requires a complete semifield instance")


def _lifted_projection(c: GeneratingFamily, x: Vector) -> tuple[Scalar, Vector]:
    """(nu, y) with lambda_g = g\\x ^ e, nu = (+)_g lambda_g and
    y = (+)_g g * lambda_g: the projection of the lifted point (x, e) onto
    the span of the lifted generators (g, e).  c is nonempty; nothing is
    checked."""
    e = unit(x.semiring)
    lams = [meet(vec_lres(g, x), e) for g in c]
    return reduce(add, lams), combine(c, lams)


def separate_from_convex(c: GeneratingFamily, x: Vector) -> ConvexSeparation:
    """Separate x from the convex hull of c.

    (y, nu) is the projection of the lifted point (x, e) onto the span of the
    lifted generators (g, e); x belongs to the hull iff that projection is
    (x, e) itself.
    """
    _check_convex(c, x)
    e = unit(x.semiring)
    nu, y = _lifted_projection(c, x)
    member = y == x and nu == e
    for g in c:
        if meet(vec_lres(g, x), e) != meet(vec_lres(g, y), nu):
            raise TheoremViolation(f"convex separation equality failed on {g!r}")
    lhs = meet(vec_lres(x, x), e)
    rhs = meet(vec_lres(x, y), nu)
    if member:
        if lhs != rhs:
            raise TheoremViolation("member point not on the separating locus")
    else:
        if not (leq(rhs, lhs) and rhs != lhs):
            raise TheoremViolation("strict separation failed for a non-member")
    normalized = act(y, inverse(nu)) if is_invertible(nu) else None
    lifted = Vector(x.semiring, tuple(y.entries) + (nu,))
    return ConvexSeparation(nu, y, lifted, member, normalized)


def convex_projection(c: GeneratingFamily, x: Vector) -> Vector | None:
    """y * nu^-1, the projection of x onto the convex hull; None when nu is
    not invertible (over RMAX that means nu = -inf)."""
    return separate_from_convex(c, x).normalized


def halfspace(c: GeneratingFamily, x: Vector) -> HalfSpace:
    return _checked_halfspace(c, x, separate_from_convex(c, x))


def _checked_halfspace(c: GeneratingFamily, x: Vector, sep: ConvexSeparation) -> HalfSpace:
    """The half-space of sep = separate_from_convex(c, x), checked to contain
    every generator of c and to exclude x when x is outside."""
    h = HalfSpace(x, sep.y, sep.nu)
    for g in c:
        if not halfspace_contains(h, g):
            raise TheoremViolation(f"half-space misses generator {g!r}")
    if not sep.member and halfspace_contains(h, x):
        raise TheoremViolation("half-space failed to exclude the outside point")
    return h


def halfspace_contains(h: HalfSpace, v: Vector) -> bool:
    e = unit(v.semiring)
    lhs = meet(vec_lres(v, h.x_ref), e)
    rhs = meet(vec_lres(v, h.y), h.nu)
    return leq(lhs, rhs)
