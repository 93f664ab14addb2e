"""Additive Hilbert-type projective distance (x\\y)(y\\x).

The distance of a point to any span element never exceeds its distance to
the canonical projection; ``projection_maximizes_distance`` checks that on
explicit samples.
"""
from __future__ import annotations

from typing import Iterable

from .freemod import Vector, vec_lres
from .semiring import Scalar, leq, mul


def hilbert_distance(x: Vector, y: Vector) -> Scalar:
    return mul(vec_lres(x, y), vec_lres(y, x))


def projection_maximizes_distance(
    x: Vector, projection: Vector, v_samples: Iterable[Vector]
) -> bool:
    """True iff d(x, v) <= d(x, P(x)) for every sample, given the projection
    P(x) of x onto a span.  Samples must come from that span; a False return
    indicates a library bug."""
    bound = hilbert_distance(x, projection)
    return all(leq(hilbert_distance(x, v), bound) for v in v_samples)
