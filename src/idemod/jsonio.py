"""JSON schemas shared by the CLI and the tests.

Scalars travel as canonical text ("-inf", "+inf", lowest-terms "p/q",
"eps"/"e" for Boolean); vectors as arrays of scalar texts; matrices as
arrays of row arrays.  A top-level "semiring" field selects the instance.
Output is always canonically serialised: sorted keys, compact separators,
trailing newline.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .dual import CANONICAL, MATRIX, OPPOSITE
from .errors import DomainError, MismatchError, SchemaError
from .fenchel import GridFunction, SlopeSet
from .freemod import GeneratingFamily, Matrix, Vector, _family_of_rows
from .record import Record
from .semiring import (
    BOOL,
    NMAX,
    RMAX,
    Scalar,
    SemiringId,
    _excerpt,
    default_phi,
    fin,
    make_phi,
    mat_rows,
    matrix_semiring,
    rational_from_text,
    scalar_from_text,
    scalar_to_text,
)

# Bounds the N x N phi built for a "matN" tag before any other check.
MAX_MAT_DIM = 16

_NAMES = {"rmax": RMAX, "bool": BOOL, "nmax": NMAX}


def parse_semiring(tag) -> SemiringId:
    if not isinstance(tag, str):
        raise SchemaError(f"semiring tag must be a string, got {tag!r}")
    if tag in _NAMES:
        return _NAMES[tag]
    m = re.fullmatch(r"mat([0-9]+)", tag)
    if m:
        digits = m.group(1).lstrip("0") or "0"
        # compare lengths first: int() refuses strings of thousands of digits
        if len(digits) > len(str(MAX_MAT_DIM)) or int(digits) > MAX_MAT_DIM:
            raise SchemaError(f"matrix semiring dimension above {MAX_MAT_DIM}")
        return matrix_semiring(int(digits))
    raise SchemaError(f"unknown semiring tag {tag!r}")


def scalar_from_json(sr: SemiringId, obj) -> Scalar:
    if type(obj) is str:
        return scalar_from_text(sr, obj)
    if isinstance(obj, bool):
        raise SchemaError(f"not a scalar: {_excerpt(obj)}")
    if isinstance(obj, (int, str)):
        return scalar_from_text(sr, str(obj))
    if sr.dim and isinstance(obj, list):
        if len(obj) != sr.dim or any(not isinstance(r, list) or len(r) != sr.dim for r in obj):
            raise MismatchError(f"matrix scalar must be {sr.dim}x{sr.dim}")
        return Scalar(sr, tuple(s.value for s in _scalars(RMAX, [e for r in obj for e in r])))
    raise SchemaError(f"not a scalar: {_excerpt(obj)}")


def _scalars(sr: SemiringId, objs) -> tuple[Scalar, ...]:
    """``scalar_from_json`` of each of ``objs`` over ``sr``, in one loop.  A
    text is looked up in the tag's text table first, then read by
    ``rational_from_text`` and ``fin``.  Every other value, and every text
    those refuse, goes to ``scalar_from_json``, which raises the error of
    the first bad entry."""
    texts = sr.texts
    out = []
    for obj in objs:
        if type(obj) is str:
            s = texts.get(obj)
            if s is None:
                try:
                    s = fin(sr, rational_from_text(obj))
                except (SchemaError, DomainError):
                    pass
            if s is not None:
                out.append(s)
                continue
        out.append(scalar_from_json(sr, obj))
    return tuple(out)


def scalar_json(s: Scalar):
    try:
        if s.semiring.dim:
            # raw entries print as their text: "-inf", "+inf" or str(q)
            return [[str(q) for q in row] for row in mat_rows(s)]
        return scalar_to_text(s)
    except ValueError as exc:  # str() of an int past the interpreter's limit
        limit = sys.get_int_max_str_digits()
        raise DomainError(
            f"an exact result passes the {limit}-digit int text limit (PYTHONINTMAXSTRDIGITS)"
        ) from exc


def _vector_entries(sr: SemiringId, obj) -> tuple[Scalar, ...]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"vector must be a nonempty array, got {_excerpt(obj)}")
    return _scalars(sr, obj)


def vector_from_json(sr: SemiringId, obj, dim: int | None = None) -> Vector:
    v = Vector(sr, _vector_entries(sr, obj))
    if dim is not None and v.dim != dim:
        raise MismatchError(f"expected dimension {dim}, got {v.dim}")
    return v


def vector_json(v) -> list:
    return [scalar_json(s) for s in v.entries]


def matrix_from_json(sr: SemiringId, obj) -> Matrix:
    if not isinstance(obj, list) or not obj or any(not isinstance(r, list) for r in obj):
        raise SchemaError(f"matrix must be an array of row arrays, got {_excerpt(obj)}")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise MismatchError("ragged matrix rows")
    return Matrix(sr, tuple(_scalars(sr, row) for row in obj))


def family_from_json(sr: SemiringId, obj, point_dim: int | None = None) -> GeneratingFamily:
    if not isinstance(obj, list):
        raise SchemaError(f"generating family must be an array, got {_excerpt(obj)}")
    # each generator is a column of A: parse the columns, then zip them into rows
    cols = [_vector_entries(sr, g) for g in obj]
    if cols:
        dim = len(cols[0])
        if any(len(c) != dim for c in cols):
            raise MismatchError("generators of unequal dimension")
    elif point_dim is not None:
        dim = point_dim
    else:
        raise SchemaError("empty family needs a point to fix the dimension")
    if point_dim is not None and dim != point_dim:
        raise MismatchError(f"generators of dim {dim} against point of dim {point_dim}")
    return _family_of_rows(sr, tuple(zip(*cols)) or ((),) * dim)


def rational_from_json(obj) -> Fraction | int:
    if isinstance(obj, str):
        return rational_from_text(obj)
    if isinstance(obj, bool):
        raise SchemaError(f"not a rational: {_excerpt(obj)}")
    if isinstance(obj, int):
        return rational_from_text(str(obj))  # held to the text's digit limit
    raise SchemaError(f"not a rational: {_excerpt(obj)}")


def grid_from_json(obj) -> GridFunction:
    if not isinstance(obj, dict) or "points" not in obj or "values" not in obj:
        raise SchemaError('grid function needs {"points": [...], "values": [...]}')
    pts = obj["points"]
    vals = obj["values"]
    if not isinstance(pts, list) or not isinstance(vals, list):
        raise SchemaError("grid points and values must be arrays")
    if len(pts) != len(vals):
        raise MismatchError("grid points and values of different lengths")
    return GridFunction(
        tuple(rational_from_json(p) for p in pts),
        _scalars(RMAX, vals),
    )


def grid_json(g: GridFunction) -> dict:
    return {
        "points": [str(p) for p in g.points],
        "values": [scalar_json(v) for v in g.values],
    }


def slopes_from_json(obj) -> SlopeSet:
    if not isinstance(obj, list):
        raise SchemaError("slopes must be an array")
    return SlopeSet(tuple(rational_from_json(s) for s in obj))


class Problem(Record):
    semiring: SemiringId
    phi: Scalar
    generators: GeneratingFamily | None = None
    convex: GeneratingFamily | None = None
    point: Vector | None = None
    point2: Vector | None = None
    matrix: Matrix | None = None
    bracket: str = CANONICAL
    grid: GridFunction | None = None
    slopes: SlopeSet | None = None


_PROBLEM_KEYS = set(Problem._fields)


def problem_from_json(obj, semiring_override: str | None = None, phi_override: str | None = None) -> Problem:
    if not isinstance(obj, dict):
        raise SchemaError("problem file must hold a JSON object")
    unknown = set(obj) - _PROBLEM_KEYS
    if unknown:
        raise SchemaError(f"unknown problem fields: {sorted(unknown)}")
    tag = semiring_override or obj.get("semiring")
    if tag is None and ("grid" in obj or "slopes" in obj):
        tag = "rmax"  # grid functions are RMAX-valued
    if tag is None:
        raise SchemaError('problem needs a "semiring" field')
    sr = parse_semiring(tag)
    phi_text = phi_override if phi_override is not None else obj.get("phi")
    phi = default_phi(sr) if phi_text is None else make_phi(scalar_from_json(sr, phi_text))

    point = vector_from_json(sr, obj["point"]) if "point" in obj else None
    point2 = vector_from_json(sr, obj["point2"]) if "point2" in obj else None
    pdim = point.dim if point is not None else None
    generators = (
        family_from_json(sr, obj["generators"], pdim) if "generators" in obj else None
    )
    convex = family_from_json(sr, obj["convex"], pdim) if "convex" in obj else None
    mat = matrix_from_json(sr, obj["matrix"]) if "matrix" in obj else None
    bracket = obj.get("bracket", CANONICAL)
    if bracket not in (CANONICAL, MATRIX, OPPOSITE):
        raise SchemaError(f"unknown bracket {bracket!r}")
    grid = grid_from_json(obj["grid"]) if "grid" in obj else None
    slopes = slopes_from_json(obj["slopes"]) if "slopes" in obj else None
    return Problem(sr, phi, generators, convex, point, point2, mat, bracket, grid, slopes)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an int literal past 4300 digits, or nesting past
        # the interpreter's recursion limit
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"
