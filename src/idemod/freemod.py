"""Finite free semimodules: column vectors, row covectors, rectangular
matrices, and their residuations.

Index sets are always {0..n-1}; every supremum in the library is a finite
fold, so completeness never needs an actual infinite join.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import MismatchError
from .semiring import (
    Scalar,
    SemiringId,
    add,
    bot,
    leq,
    lres,
    meet,
    mul,
    rres,
    scal,
    top,
    unit,
)


@dataclass(frozen=True, slots=True)
class Vector:
    """Column vector over one semiring; order is entrywise."""

    semiring: SemiringId
    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise MismatchError("vectors have dimension >= 1")
        for s in self.entries:
            if s.semiring != self.semiring:
                raise MismatchError("vector entries must share the semiring")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Vector({self.semiring}, {list(self.entries)!r})"


@dataclass(frozen=True, slots=True)
class CoVector(Vector):
    """Row vector: the left-semimodule counterpart of Vector, never equal
    to one."""


@dataclass(frozen=True, slots=True)
class Matrix:
    """Rectangular matrix; entries share one semiring tag."""

    semiring: SemiringId
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1 or len(self.entries[0]) < 1:
            raise MismatchError("matrices need at least one row and column")
        p = len(self.entries[0])
        for row in self.entries:
            if len(row) != p:
                raise MismatchError("ragged matrix")
            for s in row:
                if s.semiring != self.semiring:
                    raise MismatchError("matrix entries must share the semiring")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


@dataclass(frozen=True, slots=True)
class GeneratingFamily:
    """Finite family of equal-dimension vectors; may be empty, in which case
    it generates only the bottom vector."""

    semiring: SemiringId
    dim: int
    generators: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.semiring != self.semiring or g.dim != self.dim:
                raise MismatchError("family generators must share semiring and dimension")

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def vector(sr: SemiringId, values) -> Vector:
    return Vector(sr, tuple(scal(sr, v) for v in values))


def covector(sr: SemiringId, values) -> CoVector:
    return CoVector(sr, tuple(scal(sr, v) for v in values))


def matrix(sr: SemiringId, rows) -> Matrix:
    return Matrix(sr, tuple(tuple(scal(sr, v) for v in row) for row in rows))


def family(sr: SemiringId, vectors_) -> GeneratingFamily:
    vs = tuple(v if isinstance(v, Vector) else vector(sr, v) for v in vectors_)
    if not vs:
        raise MismatchError("use GeneratingFamily(sr, dim, ()) for the empty family")
    return GeneratingFamily(sr, vs[0].dim, vs)


def column_family(a: Matrix) -> GeneratingFamily:
    """The columns of ``a`` as a generating family."""
    cols = tuple(Vector(a.semiring, col) for col in zip(*a.entries))
    return GeneratingFamily(a.semiring, a.rows, cols)


def bot_vector(sr: SemiringId, n: int) -> Vector:
    return Vector(sr, (bot(sr),) * n)


def top_vector(sr: SemiringId, n: int) -> Vector:
    return Vector(sr, (top(sr),) * n)


def _need_like(x: Vector, y: Vector) -> None:
    if x.semiring != y.semiring:
        raise MismatchError("mixed semirings")
    if x.dim != y.dim:
        raise MismatchError(f"dimension mismatch {x.dim} vs {y.dim}")


# The two pairings of entry sequences, which vec_lres, bracket_eval and the
# matrix kernels fold.  They look the scalar ops up when called, so a
# rebinding of those names in this module reaches every kernel.


def _bracket(ys, xs) -> Scalar:
    """<y, x> = (+)_i y_i * x_i over equal-length entry sequences."""
    return reduce(add, map(mul, ys, xs))


def _residual(xs, ys) -> Scalar:
    r"""x\y = (^)_i x_i\y_i over equal-length entry sequences."""
    return reduce(meet, map(lres, xs, ys))


def vec_leq(x: Vector, y: Vector) -> bool:
    _need_like(x, y)
    return all(leq(a, b) for a, b in zip(x.entries, y.entries))


def vjoin(x: Vector, y: Vector) -> Vector:
    _need_like(x, y)
    return Vector(x.semiring, tuple(add(a, b) for a, b in zip(x.entries, y.entries)))


def vmeet(x: Vector, y: Vector) -> Vector:
    _need_like(x, y)
    return Vector(x.semiring, tuple(meet(a, b) for a, b in zip(x.entries, y.entries)))


def act(x: Vector, lam: Scalar) -> Vector:
    """Right action x * lam, entrywise."""
    if lam.semiring != x.semiring:
        raise MismatchError("scalar from a different semiring")
    return Vector(x.semiring, tuple(mul(a, lam) for a in x.entries))


def combine(w: GeneratingFamily, coeffs) -> Vector:
    """The span element (+)_g g * c_g, one coefficient per generator of w;
    the bottom vector when w is empty."""
    if len(coeffs) != len(w):
        raise MismatchError(f"{len(coeffs)} coefficients for {len(w)} generators")
    terms = list(map(act, w, coeffs))
    return reduce(vjoin, terms) if terms else bot_vector(w.semiring, w.dim)


def vec_lres(x: Vector, y: Vector) -> Scalar:
    r"""x\y: the greatest lambda with x*lambda <= y."""
    _need_like(x, y)
    return _residual(x.entries, y.entries)


def vec_rres(x: Vector, lam: Scalar) -> Vector:
    """x/lam: the greatest y with y*lam <= x, entrywise."""
    if lam.semiring != x.semiring:
        raise MismatchError("scalar from a different semiring")
    return Vector(x.semiring, tuple(rres(a, lam) for a in x.entries))


def mat_vec(a: Matrix, x: Vector) -> Vector:
    if a.semiring != x.semiring:
        raise MismatchError("mixed semirings")
    if a.cols != x.dim:
        raise MismatchError(f"matrix with {a.cols} columns applied to dim {x.dim}")
    return Vector(a.semiring, tuple(_bracket(row, x.entries) for row in a.entries))


def covec_mat(y: CoVector, a: Matrix) -> CoVector:
    if a.semiring != y.semiring:
        raise MismatchError("mixed semirings")
    if a.rows != y.dim:
        raise MismatchError(f"covector of dim {y.dim} applied to {a.rows} rows")
    return CoVector(a.semiring, tuple(_bracket(y.entries, col) for col in zip(*a.entries)))


def mat_lres(a: Matrix, y: Vector) -> Vector:
    r"""a\y: the greatest x with a*x <= y (residuation of x -> a*x)."""
    if a.semiring != y.semiring:
        raise MismatchError("mixed semirings")
    if a.rows != y.dim:
        raise MismatchError(f"matrix with {a.rows} rows residuated against dim {y.dim}")
    return Vector(a.semiring, tuple(_residual(col, y.entries) for col in zip(*a.entries)))


def identity_matrix(sr: SemiringId, n: int) -> Matrix:
    e, eps = unit(sr), bot(sr)
    return Matrix(
        sr, tuple(tuple(e if i == j else eps for j in range(n)) for i in range(n))
    )
