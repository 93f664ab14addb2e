"""Discrete Fenchel conjugation and the greatest convex minorant."""
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from idemod import (
    RMAX,
    DomainError,
    MismatchError,
    SchemaError,
    biconjugate_is_fixed,
    bot,
    fenchel_transform,
    fin,
    grid_function,
    hull_report,
    leq,
    lsc_convex_hull,
    slope_bracket,
    slope_set,
    top,
)
from idemod.laws import oracle_hull, oracle_transform, rand_grid, rand_slopes
import random

ABS = grid_function([-1, 0, 1], [1, 0, 1])  # |u| on the three-point grid
S3 = slope_set([-1, 0, 1])


def test_bracket_values():
    flat = grid_function([-1, 0, 1], [0, 0, 0])
    assert slope_bracket(0, flat) == fin(RMAX, 0)
    assert slope_bracket(1, ABS) == fin(RMAX, 0)
    plus_inf = grid_function([-1, 0, 1], ["+inf", "+inf", "+inf"])
    assert slope_bracket(0, plus_inf) == top(RMAX)


def test_transform_of_abs():
    tr = fenchel_transform(ABS, S3)
    assert list(tr.values) == [fin(RMAX, 0)] * 3


def test_transform_of_bottom_function():
    """The conjugate of the identically bottom function is identically top:
    each bracket collapses to bottom and negation sends it to top."""
    f = grid_function([-1, 0, 1], ["-inf", "-inf", "-inf"])
    assert slope_bracket(0, f) == bot(RMAX)
    tr = fenchel_transform(f, S3)
    assert list(tr.values) == [top(RMAX)] * 3
    assert list(tr.values) == oracle_transform(f, S3)


def test_transform_single_support_point():
    f = grid_function([-2, 1, 3], ["+inf", 0, "+inf"])
    tr = fenchel_transform(f, S3)
    assert list(tr.values) == [fin(RMAX, s * 1) for s in (-1, 0, 1)]


def test_hull_of_convex_function_is_itself():
    assert lsc_convex_hull(ABS, S3) == ABS


def test_hull_flattens_bump():
    f = grid_function([-1, 0, 1], [0, 1, 0])
    tr = fenchel_transform(f, S3)
    assert list(tr.values) == [fin(RMAX, 1), fin(RMAX, 0), fin(RMAX, 1)]
    hull = lsc_convex_hull(f, S3)
    assert hull == grid_function([-1, 0, 1], [0, 0, 0])


def test_hull_of_top_function():
    f = grid_function([0, 1], ["+inf", "+inf"])
    hull = lsc_convex_hull(f, S3)
    # brackets are all top, so the hull saturates to top as well
    assert list(hull.values) == [top(RMAX), top(RMAX)]
    assert biconjugate_is_fixed(f, S3)


def test_biconjugate_fixed_on_examples():
    for f in (
        ABS,
        grid_function([-1, 0, 1], [0, 1, 0]),
        grid_function([0, 2, 5], ["-inf", 3, "+inf"]),
    ):
        assert biconjugate_is_fixed(f, S3)


def test_grid_validation():
    with pytest.raises(MismatchError):
        grid_function([0], [1])
    with pytest.raises(MismatchError):
        grid_function([0, 0], [1, 2])
    with pytest.raises(MismatchError):
        grid_function([0, 1], [1])
    with pytest.raises(MismatchError):
        slope_set([])
    with pytest.raises(MismatchError):
        slope_set([1, 1])


def test_points_and_slopes_take_the_scalar_grammar():
    """Grid points and slopes are what scal(RMAX, .) accepts, bar the
    infinities: a DomainError for what is no finite rational, a SchemaError
    for text outside the exact-rational grammar."""
    for bad in (0.1, 0.5, Decimal("0.5"), None, "+inf", "-inf", bot(RMAX), top(RMAX)):
        for build in (lambda: grid_function([bad, 1], [0, 1]), lambda: slope_set([bad]),
                      lambda: slope_bracket(bad, ABS)):
            with pytest.raises(DomainError):
                build()
    for bad in ("1_000", "1.5", "1e3", " 1/2 ", "inf", "nan", "abc", "1/0"):
        with pytest.raises(SchemaError):
            slope_set([bad])
        with pytest.raises(SchemaError):
            grid_function([0, bad], [0, 1])
    assert slope_set(["-1/2", 0, 1]).slopes == (Fraction(-1, 2), 0, 1)
    assert slope_set([fin(RMAX, 2), "5/2"]).slopes == (2, Fraction(5, 2))


def test_fractional_grid():
    f = grid_function(["-1/2", 0, "1/2"], ["1/2", 0, "1/2"])
    s = slope_set([-1, 0, 1])
    assert list(fenchel_transform(f, s).values) == oracle_transform(f, s)
    hull = lsc_convex_hull(f, s)
    assert all(leq(h, v) for h, v in zip(hull.values, f.values))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_functions_match_oracle(seed):
    rng = random.Random(seed)
    f = rand_grid(rng)
    s = rand_slopes(rng)
    assert list(fenchel_transform(f, s).values) == oracle_transform(f, s)
    hull = lsc_convex_hull(f, s)
    assert list(hull.values) == oracle_hull(f, s)
    assert all(leq(h, v) for h, v in zip(hull.values, f.values))
    assert lsc_convex_hull(hull, s) == hull
    assert biconjugate_is_fixed(f, s)


# The sweeps against the definitional double loops.  rand_grid puts -inf in
# about one grid in ten, where every bracket is -inf and the sweeps do no
# work; these grids choose their regime first, so each regime gets its share.
RATS = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
REGIMES = ("finite", "some-top", "all-top", "one-bot", "collinear", "large")
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97)


@st.composite
def over_primes(draw, n, lo, hi):
    """n ints in [lo, hi], each whole or over its own prime up to 97."""
    nums = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    whole = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    dens = draw(st.permutations(PRIMES))
    return [k if w else Fraction(k, d) for k, w, d in zip(nums, whole, dens)]


@st.composite
def sweep_cases(draw):
    regime = draw(st.sampled_from(REGIMES))
    m = draw(st.integers(min_value=2, max_value=14))
    if regime == "large":
        # sized like the benchmark's hulls: values are ints up to 10^15, and
        # the values, point steps and slopes are fractions over pairwise
        # coprime denominators up to 97, so every cross product runs at size
        steps = draw(over_primes(m - 1, 1, 10**6))
        start = draw(over_primes(1, -(10**6), 10**6))[0]
    else:
        steps = draw(st.lists(
            st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
            min_size=m - 1, max_size=m - 1,
        ))
        start = draw(st.fractions(min_value=-6, max_value=6, max_denominator=2))
    points = list(accumulate(steps, initial=start))
    if regime == "collinear":
        # the max (convex) or min (concave) of two affine pieces: long runs
        # of collinear points, on the hull or above it
        a1, b1, a2, b2 = (draw(st.integers(min_value=-6, max_value=6)) for _ in range(4))
        op = draw(st.sampled_from((max, min)))
        values = [op(a1 * u + b1, a2 * u + b2) for u in points]
    elif regime == "large":
        values = draw(over_primes(m, -(10**15), 10**15))
    else:
        values = draw(st.lists(RATS, min_size=m, max_size=m))
    if regime == "all-top":
        values = ["+inf"] * m
    elif regime in ("some-top", "one-bot"):
        tops = draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m - 1))
        values = ["+inf" if i in tops else v for i, v in enumerate(values)]
    if regime == "one-bot":
        values[draw(st.integers(min_value=0, max_value=m - 1))] = "-inf"
    if regime == "large":
        slopes = sorted(set(draw(over_primes(draw(st.integers(1, 9)), -(10**6), 10**6))))
    else:
        slopes = sorted(draw(st.lists(RATS, min_size=1, max_size=9, unique=True)))
    if draw(st.booleans()):
        # steeper than every hull edge: the sweep stays at an end vertex
        steep = 10**7 if regime == "large" else 1000
        slopes = [-steep] + slopes + [steep]
    return grid_function(points, values), slope_set(slopes)


def _typed(values):
    return [(v.value, type(v.value)) for v in values]


def _negated(s):
    return top(RMAX) if s == bot(RMAX) else bot(RMAX) if s == top(RMAX) else fin(RMAX, -s.value)


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_sweeps_match_oracles(case):
    f, s = case
    want_transform = oracle_transform(f, s)
    want_hull = oracle_hull(f, s)
    rep = hull_report(f, s)
    assert _typed(fenchel_transform(f, s).values) == _typed(want_transform)
    assert _typed(rep.transform.values) == _typed(want_transform)
    assert _typed(lsc_convex_hull(f, s).values) == _typed(want_hull)
    assert _typed(rep.hull.values) == _typed(want_hull)
    assert [slope_bracket(t, f) for t in s.slopes] == [_negated(c) for c in want_transform]
    # the definitional fixed point: the hull has f's conjugate and is its own hull
    assert oracle_transform(rep.hull, s) == want_transform
    assert oracle_hull(rep.hull, s) == want_hull
    assert rep.fixed_point is True and biconjugate_is_fixed(f, s)


def test_sweep_regimes():
    f = grid_function([0, 1, 2, 3], [0, "+inf", "-inf", 5])  # one -inf rules
    assert hull_report(f, S3).hull.values == (bot(RMAX),) * 4
    assert fenchel_transform(f, S3).values == (top(RMAX),) * 3
    f = grid_function([0, 1, 2, 3], ["+inf", 2, "+inf", "+inf"])  # one finite point
    # brackets 2 - s, so the hull is 2 + max_s s*(u - 1)
    assert lsc_convex_hull(f, S3).values == tuple(fin(RMAX, v) for v in (3, 2, 3, 4))
