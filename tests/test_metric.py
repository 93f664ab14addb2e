"""Hilbert-type projective distance."""
from hypothesis import given, settings

from idemod import (
    NMAX,
    RMAX,
    act,
    family,
    fin,
    hilbert_distance,
    leq,
    meet,
    mul,
    project,
    projection_maximizes_distance,
    unit,
    vec_lres,
    vector,
)
from conftest import families, scalars, vectors


def test_distance_values():
    assert hilbert_distance(vector(RMAX, [0, 0]), vector(RMAX, [1, 3])) == fin(RMAX, -2)
    x = vector(RMAX, [2, -1, 0])
    assert hilbert_distance(x, x) == unit(RMAX)
    assert hilbert_distance(x, act(x, fin(RMAX, 7))) == unit(RMAX)


def test_worked_example_distances():
    """The projection of the lifted point is at maximal distance among the
    generators."""
    w = family(RMAX, [[0, 0, 0], [1, 3, 0], [3, 4, 0]])
    x = vector(RMAX, [-1, 0, 0])
    p = project(w, x).projection
    bound = hilbert_distance(x, p)
    assert bound == fin(RMAX, -1)
    for g in w:
        assert leq(hilbert_distance(x, g), bound)
    assert projection_maximizes_distance(x, p, list(w))


@given(vectors(dim=3), vectors(dim=3))
def test_symmetry(x, y):
    assert hilbert_distance(x, y) == hilbert_distance(y, x)


@given(vectors(dim=2), vectors(dim=2), vectors(dim=2))
def test_anti_triangular(x, y, z):
    assert leq(
        mul(hilbert_distance(x, y), hilbert_distance(y, z)), hilbert_distance(x, z)
    )


@given(vectors(dim=3), vectors(dim=3))
def test_definiteness_witness(x, y):
    """When the distance is the unit, the residual coefficient scales y
    back onto x."""
    if hilbert_distance(x, y) == unit(RMAX):
        assert x == act(y, vec_lres(y, x))


@given(vectors(dim=3), vectors(dim=3))
def test_nonpositive(x, y):
    d = hilbert_distance(x, y)
    assert leq(d, vec_lres(x, x))
    assert leq(d, meet(vec_lres(x, x), vec_lres(y, y)))


@given(vectors(NMAX, dim=2), vectors(NMAX, dim=2), vectors(NMAX, dim=2))
def test_anti_triangular_nmax(x, y, z):
    assert leq(
        mul(hilbert_distance(x, y), hilbert_distance(y, z)), hilbert_distance(x, z)
    )


@settings(max_examples=60)
@given(families(dim=3, max_size=3), vectors(dim=3), scalars(), scalars())
def test_projection_maximizes(fam, x, l1, l2):
    samples = [act(g, lam) for g in fam for lam in (l1, l2)]
    assert projection_maximizes_distance(x, project(fam, x).projection, samples)
