"""Finite free semimodules: column vectors, row covectors, rectangular
matrices, generating families, and their residuations.

Index sets are always {0..n-1}; every supremum in the library is a finite
fold, so completeness never needs an actual infinite join.  The classes are
records (``idemod.record``) that write out their own init, equality and hash.
"""
from __future__ import annotations

from .errors import MismatchError
from .record import Record
from .semiring import (
    Scalar,
    SemiringId,
    add,
    bot,
    leq,
    meet,
    mul,
    rres,
    scal,
    top,
    unit,
)
from .semiring import bracket as _bracket, residual as _residual


class Vector(Record):
    """Column vector over one semiring; order is entrywise."""

    semiring: SemiringId
    entries: tuple[Scalar, ...]

    def __init__(self, semiring: SemiringId, entries: tuple[Scalar, ...]) -> None:
        if len(entries) < 1:
            raise MismatchError("vectors have dimension >= 1")
        for s in entries:
            if s.semiring is not semiring:
                raise MismatchError("vector entries must share the semiring")
        self.semiring, self.entries = semiring, entries

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.semiring is other.semiring and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.semiring, self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Vector({self.semiring}, {list(self.entries)!r})"


class CoVector(Vector):
    """Row vector: the left-semimodule counterpart of Vector, never equal
    to one."""

    __repr__ = Record.__repr__  # the field form, not Vector's


class Matrix(Record):
    """Rectangular matrix; entries share one semiring tag."""

    semiring: SemiringId
    entries: tuple[tuple[Scalar, ...], ...]

    def __init__(self, semiring: SemiringId, entries: tuple[tuple[Scalar, ...], ...]) -> None:
        if len(entries) < 1 or len(entries[0]) < 1:
            raise MismatchError("matrices need at least one row and column")
        p = len(entries[0])
        for row in entries:
            if len(row) != p:
                raise MismatchError("ragged matrix")
            for s in row:
                if s.semiring is not semiring:
                    raise MismatchError("matrix entries must share the semiring")
        self.semiring, self.entries = semiring, entries

    __eq__, __hash__ = Vector.__eq__, Vector.__hash__  # the same two fields

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


class GeneratingFamily(Matrix):
    """Finite family of equal-dimension vectors, stored as its generator matrix
    A (rows in ``entries``, generator g in column g), so the matrix kernels
    apply to it.  An empty A has no columns and spans only the bottom vector."""

    def __init__(self, semiring: SemiringId, dim: int, generators) -> None:
        if dim < 1:
            raise MismatchError("families have dimension >= 1")
        if any(g.semiring is not semiring or g.dim != dim for g in generators):
            raise MismatchError("family generators must share semiring and dimension")
        rows = tuple(zip(*(g.entries for g in generators))) or ((),) * dim
        self.semiring, self.entries = semiring, rows

    dim = Matrix.rows  # of the generators
    generators = property(tuple)  # the columns of A as vectors

    def __len__(self) -> int:
        return len(self.entries[0])

    def __iter__(self):
        return (Vector(self.semiring, col) for col in zip(*self.entries))


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
    """The columns of ``a`` as a generating family, whose matrix is ``a``."""
    return _family_of_rows(a.semiring, a.entries)


def _family_of_rows(sr: SemiringId, rows) -> GeneratingFamily:
    # rows must already be equal-length rows of scalars over sr
    w = object.__new__(GeneratingFamily)
    w.semiring, w.entries = sr, rows
    return w


def bot_vector(sr: SemiringId, n: int) -> Vector:
    return Vector(sr, (bot(sr),) * n)


def top_vector(sr: SemiringId, n: int) -> Vector:
    return Vector(sr, (top(sr),) * n)


def _need_like(x: Vector, y: Vector) -> None:
    if x.semiring is not y.semiring:
        raise MismatchError("mixed semirings")
    if x.dim != y.dim:
        raise MismatchError(f"dimension mismatch {x.dim} vs {y.dim}")


# vec_lres, bracket_eval and the matrix kernels fold entry sequences through
# the two pairings ``_bracket`` and ``_residual``: ``semiring.bracket`` and
# ``semiring.residual``, which fold raw values.


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
    if lam.semiring is not x.semiring:
        raise MismatchError("scalar from a different semiring")
    return Vector(x.semiring, tuple(mul(a, lam) for a in x.entries))


def combine(w: GeneratingFamily, coeffs) -> Vector:
    """The span element A*c = (+)_g g * c_g of the generator matrix A of w,
    one coefficient per generator; the bottom vector when w is empty."""
    if len(coeffs) != len(w):
        raise MismatchError(f"{len(coeffs)} coefficients for {len(w)} generators")
    return mat_vec(w, Vector(w.semiring, tuple(coeffs))) if coeffs else bot_vector(w.semiring, w.dim)


def vec_lres(x: Vector, y: Vector) -> Scalar:
    r"""x\y: the greatest lambda with x*lambda <= y."""
    _need_like(x, y)
    return _residual(x.entries, y.entries)


def vec_rres(x: Vector, lam: Scalar) -> Vector:
    """x/lam: the greatest y with y*lam <= x, entrywise."""
    if lam.semiring is not x.semiring:
        raise MismatchError("scalar from a different semiring")
    return Vector(x.semiring, tuple(rres(a, lam) for a in x.entries))


def mat_vec(a: Matrix, x: Vector) -> Vector:
    if a.semiring is not x.semiring:
        raise MismatchError("mixed semirings")
    if a.cols != x.dim:
        raise MismatchError(f"matrix with {a.cols} columns applied to dim {x.dim}")
    return Vector(a.semiring, tuple(_bracket(row, x.entries) for row in a.entries))


def covec_mat(y: CoVector, a: Matrix) -> CoVector:
    if a.semiring is not y.semiring:
        raise MismatchError("mixed semirings")
    if a.rows != y.dim:
        raise MismatchError(f"covector of dim {y.dim} applied to {a.rows} rows")
    return CoVector(a.semiring, tuple(_bracket(y.entries, col) for col in zip(*a.entries)))


def mat_lres(a: Matrix, y: Vector) -> Vector:
    r"""a\y: the greatest x with a*x <= y (residuation of x -> a*x)."""
    if a.semiring is not y.semiring:
        raise MismatchError("mixed semirings")
    if a.rows != y.dim:
        raise MismatchError(f"matrix with {a.rows} rows residuated against dim {y.dim}")
    return Vector(a.semiring, tuple(_residual(col, y.entries) for col in zip(*a.entries)))


def identity_matrix(sr: SemiringId, n: int) -> Matrix:
    e, eps = unit(sr), bot(sr)
    return Matrix(
        sr, tuple(tuple(e if i == j else eps for j in range(n)) for i in range(n))
    )
