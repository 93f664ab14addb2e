"""Dual-pair machinery: conjugations, closed elements, reflexivity,
representation and extension of linear forms, the opposite bracket, and the
row/column lattice anti-isomorphism for Boolean matrices.

Three brackets are supported.  The canonical one pairs row and column
vectors through join-of-products; the matrix bracket inserts a fixed
rectangular matrix in the middle; the opposite bracket pairs a semimodule
with itself through residuation, valued in the order-reversed scalars.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .errors import DomainError, MismatchError, TheoremViolation
from .freemod import (
    CoVector,
    GeneratingFamily,
    Matrix,
    Vector,
    _bracket,
    act,
    combine,
    covec_mat,
    mat_vec,
    vec_leq,
    vec_lres,
    vec_rres,
    vjoin,
)
from .record import Record
from .semiring import (
    BOOL,
    Scalar,
    bot,
    lres,
    rres,
    sort_key,
    top,
)

CANONICAL = "canonical"
MATRIX = "matrix"
OPPOSITE = "opposite"

# Largest row or column count rowcol_report enumerates (2^8 vectors a side).
ROWCOL_CAP = 8


class DualPairConfig(Record):
    bracket: str
    phi: Scalar
    matrix: Matrix | None

    def __init__(self, bracket: str, phi: Scalar, matrix: Matrix | None = None) -> None:
        if bracket not in (CANONICAL, MATRIX, OPPOSITE):
            raise DomainError(f"unknown bracket {bracket!r}")
        if bracket == MATRIX and matrix is None:
            raise DomainError("matrix bracket needs its matrix")
        self.bracket, self.phi, self.matrix = bracket, phi, matrix


def bracket_eval(cfg: DualPairConfig, y, x: Vector) -> Scalar:
    """<y, x> for the configured bracket.  For the opposite bracket the result
    lives in the order-reversed scalars; callers compare accordingly."""
    if cfg.bracket == OPPOSITE:
        return vec_lres(x, y)
    if cfg.bracket == MATRIX:
        x = mat_vec(cfg.matrix, x)
    if y.semiring is not x.semiring:
        raise MismatchError("bracket sides in different semirings")
    if len(y.entries) != len(x.entries):
        raise MismatchError("bracket sides of unequal dimension")
    return _bracket(y.entries, x.entries)


def conj_left(cfg: DualPairConfig, x: Vector):
    """Conjugate of x: the greatest y with <y, x> <= phi."""
    phi = cfg.phi
    if cfg.bracket == OPPOSITE:
        return act(x, phi)  # the op-greatest y with x\y >= phi is x*phi
    if cfg.bracket == MATRIX:
        x = mat_vec(cfg.matrix, x)
    return CoVector(x.semiring, tuple(rres(phi, xi) for xi in x.entries))


def conj_right(cfg: DualPairConfig, y) -> Vector:
    """Conjugate of y: the greatest x with <y, x> <= phi."""
    phi = cfg.phi
    if cfg.bracket == OPPOSITE:
        return vec_rres(y, phi)
    if cfg.bracket == MATRIX:
        y = covec_mat(y, cfg.matrix)
    return Vector(y.semiring, tuple(lres(yi, phi) for yi in y.entries))


def is_closed(cfg: DualPairConfig, x: Vector) -> bool:
    return conj_right(cfg, conj_left(cfg, x)) == x


def is_reflexive(phi: Scalar, samples: Iterable[Scalar]) -> bool:
    """Check phi/(lam\\phi) = lam and (phi/lam)\\phi = lam on the samples."""
    for lam in samples:
        if rres(phi, lres(lam, phi)) != lam:
            return False
        if lres(rres(phi, lam), phi) != lam:
            return False
    return True


def eval_form(x: Vector, phi: Scalar, y: Vector) -> Scalar:
    """The linear continuous form represented by x: y -> phi/(y\\x)."""
    return rres(phi, vec_lres(y, x))


def represent_form(values_on_basis: Sequence[Scalar], phi: Scalar) -> Vector:
    """Representer of the form whose values on the coordinate basis are given:
    x_i = f(delta_i)\\phi."""
    cfg = DualPairConfig(CANONICAL, phi)
    return conj_right(cfg, CoVector(phi.semiring, tuple(values_on_basis)))


class LinearForm(Record):
    representer: Vector
    phi: Scalar

    def __call__(self, y: Vector) -> Scalar:
        return eval_form(self.representer, self.phi, y)


def extend_form(
    w: GeneratingFamily, values: Sequence[Scalar], phi: Scalar
) -> tuple[Vector, LinearForm]:
    """Extend a linear continuous form given by its generator values to the
    whole space.

    The representer is the greatest span element on which the form stays
    below phi; inputs that do not actually restrict a linear continuous form
    on the span are rejected.
    """
    x = combine(w, [lres(val, phi) for val in values])
    form = LinearForm(x, phi)
    for g, val in zip(w, values):
        if form(g) != val:
            raise DomainError("values do not define a linear continuous form on V")
    return x, form


def opposite_bracket(x: Vector, y: Vector) -> Scalar:
    """<y, x> = x\\y, the pairing of a semimodule with its order-reversed
    self."""
    return vec_lres(x, y)


class LatticeReport(Record):
    row_space: tuple[CoVector, ...]
    col_space: tuple[Vector, ...]
    iso_pairs: tuple[tuple[CoVector, Vector], ...]
    order_reversing: bool
    bijective: bool


def vec_key(v) -> tuple:
    return tuple(sort_key(s) for s in v.entries)


def lattice_meet(elements: Sequence[Vector], a: Vector, b: Vector) -> Vector:
    """Meet inside a finite join-closed family: join of the members below both
    a and b.  Differs from the entrywise meet in general."""
    acc = None
    for v in elements:
        if vec_leq(v, a) and vec_leq(v, b):
            acc = v if acc is None else vjoin(acc, v)
    if acc is None:
        raise TheoremViolation("join-closed family without a bottom element")
    return acc


def rowcol_report(a: Matrix, phi: Scalar) -> LatticeReport:
    """Row space, column space, and the residuation map between them, all by
    exhaustive enumeration.  Boolean matrices only."""
    if a.semiring is not BOOL:
        raise DomainError("exhaustive row/column duality is Boolean-only")
    if a.rows > ROWCOL_CAP or a.cols > ROWCOL_CAP:
        raise DomainError(f"matrix exceeds the enumeration cap {ROWCOL_CAP}")
    carrier = (bot(BOOL), top(BOOL))

    rows: dict[tuple, CoVector] = {}
    for ye in product(carrier, repeat=a.rows):
        z = covec_mat(CoVector(BOOL, ye), a)
        rows.setdefault(vec_key(z), z)
    cols: dict[tuple, Vector] = {}
    for xe in product(carrier, repeat=a.cols):
        v = mat_vec(a, Vector(BOOL, xe))
        cols.setdefault(vec_key(v), v)
    row_space = tuple(rows[k] for k in sorted(rows))
    col_space = tuple(cols[k] for k in sorted(cols))

    cfg = DualPairConfig(CANONICAL, phi)
    pairs = [(z, mat_vec(a, conj_right(cfg, z))) for z in row_space]

    images = {vec_key(img) for _, img in pairs}
    bijective = len(images) == len(row_space) and images == set(cols)
    order_reversing = all(
        vec_leq(vj, vi) for zi, vi in pairs for zj, vj in pairs if vec_leq(zi, zj)
    )
    return LatticeReport(row_space, col_space, tuple(pairs), order_reversing, bijective)
