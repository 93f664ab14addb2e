"""Legendre-Fenchel conjugation as residuation on one-dimensional grids.

Functions are sampled on a finite strictly increasing grid; the span of a
finite set of linear functions u -> s*u plays the role of the convex cone.
The conjugate of f at slope s is the residuation bracket s\\f of the
linear function against f, residuated against the unit: (s\\f)\\e.
Projecting onto the span of the linear functions computes the greatest
convex minorant expressible with those slopes.  Only the operator
identities are claimed; coincidence with the classical geometric hull
depends on slope coverage.

The brackets are computed by the exact linear-time Legendre transform
(Lucet, Numer. Algorithms 16, 1997), in O(P + S) for P grid points and S
slopes.  ``_brackets`` takes the lower convex hull of the finite points
(u, f(u)) and moves one pointer along it as s grows, giving
c_s = min_u (f(u) - s*u).  ``_envelope`` is the same sweep with points and
slopes exchanged: the upper envelope of the lines s*u + c_s, read as u
grows.  The infinities split into three regimes: one value -inf makes
every bracket -inf, all values +inf make every bracket +inf, and otherwise
the brackets come from the finite points only.  An infinite bracket makes
the envelope that same constant.  Inside a sweep every grid point, value
and slope is a pair (num, den) with den > 0, and each difference an
unreduced pair, so each hull test and pointer step is one comparison of
cross-multiplied ints and no Fraction is built; each output value is built
once, through ``semiring._ratio`` and ``fin``.  Operands stay the size of a
few entries: there is no common denominator of the whole grid.

The biconjugate check needs only one more sweep: the hull is the envelope
of f's brackets, so once the hull's brackets equal f's, hulling the hull
gives that same envelope back, and idempotence follows.
"""
from __future__ import annotations

from .errors import DomainError, MismatchError
from .record import Record
from .semiring import NEG_INF, POS_INF, RMAX, Rational, Scalar, _ratio, bot, fin, lres, scal, top, unit


class GridFunction(Record):
    points: tuple[Rational, ...]  # strictly increasing
    values: tuple[Scalar, ...]  # RMAX, may be +-inf

    def __init__(self, points: tuple[Rational, ...], values: tuple[Scalar, ...]) -> None:
        if len(points) < 2:
            raise MismatchError("grids need at least two points")
        if len(points) != len(values):
            raise MismatchError("one value per grid point")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise MismatchError("grid points must be strictly increasing")
        for v in values:
            if v.semiring is not RMAX:
                raise MismatchError("grid values must be RMAX scalars")
        self.points, self.values = points, values


class SlopeSet(Record):
    slopes: tuple[Rational, ...]

    def __init__(self, slopes: tuple[Rational, ...]) -> None:
        if not slopes:
            raise MismatchError("need at least one slope")
        if any(b <= a for a, b in zip(slopes, slopes[1:])):
            raise MismatchError("slopes must be strictly increasing")
        self.slopes = slopes


class Transform(Record):
    slopes: SlopeSet
    values: tuple[Scalar, ...]  # conjugate values, one per slope


def grid_function(points, values) -> GridFunction:
    return GridFunction(
        tuple(_rat(p) for p in points), tuple(scal(RMAX, v) for v in values)
    )


def slope_set(slopes) -> SlopeSet:
    return SlopeSet(tuple(_rat(s) for s in slopes))


def _rat(x) -> Rational:
    """A grid point or slope: what ``scal`` accepts over RMAX, bar the infinities."""
    q = scal(RMAX, x).value
    if q is NEG_INF or q is POS_INF:
        raise DomainError(f"grid points and slopes must be finite, got {x!r}")
    return q


def _lower_hull(xs, ys) -> list[tuple]:
    """Vertices (xn, xd, yn, yd) of the lower convex hull of the points
    (xs[i], ys[i]), each coordinate a pair (num, den) with den > 0 and xs
    strictly increasing.  Points on a hull edge are dropped."""
    h: list = []
    for (pxn, pxd), (pyn, pyd) in zip(xs, ys):
        while len(h) >= 2:
            axn, axd, ayn, ayd = h[-2]
            bxn, bxd, byn, byd = h[-1]
            # pop b while it lies on or above the segment from a to p:
            # slope(a, b) >= slope(a, p), each difference an unreduced pair,
            # multiplied out over the positive denominators
            if ((byn * ayd - ayn * byd) * (pxn * axd - axn * pxd) * pyd * bxd
                    < (pyn * ayd - ayn * pyd) * (bxn * axd - axn * bxd) * byd * pxd):
                break
            h.pop()
        h.append((pxn, pxd, pyn, pyd))
    return h


def _sweep_min(xs, ys, ts) -> list[tuple[int, int]]:
    """min_i (ys[i] - t*xs[i]) for each t of the strictly increasing ts, all
    given as (num, den) pairs with den > 0; each minimum is an unreduced
    pair."""
    h = _lower_hull(xs, ys)
    j, last = 0, len(h) - 1
    xn, xd, yn, yd = h[0]
    out = []
    for tn, td in ts:
        # the minimiser moves right along the hull as t grows: step over
        # every edge that is no steeper than t, (yb - y)/(xb - x) <= t
        while j < last:
            bxn, bxd, byn, byd = h[j + 1]
            if (byn * yd - yn * byd) * td * bxd * xd > tn * (bxn * xd - xn * bxd) * byd * yd:
                break
            j += 1
            xn, xd, yn, yd = bxn, bxd, byn, byd
        out.append((yn * td * xd - tn * xn * yd, yd * td * xd))
    return out


def _pairs(qs) -> list[tuple[int, int]]:
    return [q.as_integer_ratio() for q in qs]


def _brackets(f: GridFunction, slopes) -> tuple[Scalar, ...]:
    """The brackets s\\f = min_u (f(u) - s*u) for the increasing slopes."""
    xs, ys = [], []
    for u, v in zip(f.points, f.values):
        if v.value is NEG_INF:
            return (bot(RMAX),) * len(slopes)
        if v.value is not POS_INF:
            xs.append(u.as_integer_ratio())
            ys.append(v.value.as_integer_ratio())
    if not xs:
        return (top(RMAX),) * len(slopes)
    lows = _sweep_min(xs, ys, _pairs(slopes))
    return tuple(fin(RMAX, _ratio(n, d)) for n, d in lows)


def _envelope(points, slopes, brackets) -> tuple[Scalar, ...]:
    """max_s (s*u + c_s) at each of the increasing points u, where c_s are
    the brackets of the increasing slopes s."""
    c = brackets[0].value
    if c is NEG_INF or c is POS_INF:  # every bracket is this same infinity
        return (brackets[0],) * len(points)
    # max_s (s*u + c_s) = -min_s (-c_s - u*s): the bracket sweep with the
    # roles of points and slopes exchanged
    negs = [(-n, d) for n, d in _pairs(b.value for b in brackets)]
    lows = _sweep_min(_pairs(slopes), negs, _pairs(points))
    return tuple(fin(RMAX, _ratio(-n, d)) for n, d in lows)


def slope_bracket(slope: Rational, f: GridFunction) -> Scalar:
    """Residuation of the linear function u -> slope*u against f: the
    greatest constant c with slope*u + c <= f(u) on the grid."""
    return _brackets(f, (_rat(slope),))[0]


def fenchel_transform(f: GridFunction, slopes: SlopeSet) -> Transform:
    """Conjugate values sup_u(s*u - f(u)), computed as (s\\f)\\e."""
    return Transform(slopes, tuple(lres(c, unit(RMAX)) for c in _brackets(f, slopes.slopes)))


def lsc_convex_hull(f: GridFunction, slopes: SlopeSet) -> GridFunction:
    """Projection of f onto the span of the slope functions: the pointwise
    join of the affine minorants s*u + (s\\f).  Never exceeds f."""
    brackets = _brackets(f, slopes.slopes)
    return GridFunction(f.points, _envelope(f.points, slopes.slopes, brackets))


class HullReport(Record):
    transform: Transform
    hull: GridFunction
    fixed_point: bool  # the biconjugate check of biconjugate_is_fixed


def hull_report(f: GridFunction, slopes: SlopeSet) -> HullReport:
    """The conjugate, the hull and the biconjugate check from one bracket
    sweep of f, one envelope and one bracket sweep of the hull."""
    brackets = _brackets(f, slopes.slopes)
    hull = GridFunction(f.points, _envelope(f.points, slopes.slopes, brackets))
    return HullReport(
        Transform(slopes, tuple(lres(c, unit(RMAX)) for c in brackets)),
        hull,
        _brackets(hull, slopes.slopes) == brackets,
    )


def biconjugate_is_fixed(f: GridFunction, slopes: SlopeSet) -> bool:
    """The hull has the same conjugate as f, and hulling is idempotent.
    A False return is a library bug, not a data property."""
    return hull_report(f, slopes).fixed_point
