"""Closed-form region rows and interval classification of line rows against
per-sample classification, and the byte gate on the README figure."""
import hashlib
from fractions import Fraction
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from idemod import (
    RMAX,
    GeneratingFamily,
    Vector,
    add,
    bot,
    fin,
    leq,
    mul,
    separate_from_convex,
    top,
    unit,
)
from idemod.errors import SchemaError
from idemod.render import (
    _BOT,
    _LINE_COLORS,
    _MARGIN,
    _TOP,
    _W,
    MAX_SAMPLES,
    LineSpec,
    Scene,
    _crossings,
    _halfspace_rows,
    _hull_rows,
    _line_breaks,
    _line_side,
    _pixels,
    _row_classes,
    render_scene,
    scene_from_json,
)
from idemod.separate import HalfSpace, halfspace_contains

from conftest import scalars, vectors

# grids whose steps (1/2, 1/4, 3/5, ...) land on the quarter-integer
# coordinates and breakpoints that scalars() draws, plus two irregular ones,
# the last with steps 1/3 and 2/7 that divide no quarter and a corner in fifths
GRIDS = [
    ((-4, 4, -4, 4), 17),
    ((-4, 4, -4, 4), 33),
    ((-3, 6, -3, 6), 16),
    ((Fraction(-5, 2), 3, -2, Fraction(7, 3)), 19),
    ((Fraction(-5, 2), Fraction(5, 2), Fraction(-11, 5), Fraction(73, 35)), 16),
]


def samples(viewport, n):
    xmin, xmax, ymin, ymax = (Fraction(t) for t in viewport)
    us = [xmin + (xmax - xmin) * i / (n - 1) for i in range(n)]
    vs = [ymin + (ymax - ymin) * j / (n - 1) for j in range(n)]
    return us, vs


def point(u, v):
    return Vector(RMAX, (fin(RMAX, u), fin(RMAX, v)))


def runs(row):
    """(stop, value) of each maximal run of equal values in row, in order."""
    out = []
    stop = 0
    for value, group in groupby(row):
        stop += len(list(group))
        out.append((stop, value))
    return out


def per_sample(us, breaks, classify):
    """The oracle: every sample classified on its own, then cut into runs."""
    return runs([classify(u) for u in us])


points2 = vectors(RMAX, dim=2)
halfspaces = st.builds(HalfSpace, points2, points2, scalars())
coefs = st.tuples(st.sampled_from(["+", "-", "."]), scalars())
lines = st.builds(LineSpec, coefs, coefs, coefs)
grid_rows = st.sampled_from(GRIDS).flatmap(
    lambda g: st.tuples(st.just(g), st.integers(min_value=0, max_value=g[1] - 1))
)


def within(bounds, u):
    """u lies in the closed interval of ranked bounds (lo, hi)."""
    lo, hi = bounds
    return lo <= (1, u) <= hi


@settings(max_examples=300)
@given(st.lists(points2, min_size=1, max_size=4), grid_rows)
def test_hull_row_matches_per_sample(gens, grid_row):
    (viewport, n), j = grid_row
    us, vs = samples(viewport, n)
    v = vs[j]
    fam = GeneratingFamily(RMAX, 2, tuple(gens))
    bounds = _hull_rows(gens)(v)
    assert [within(bounds, u) for u in us] == [
        separate_from_convex(fam, point(u, v)).member for u in us
    ]


@settings(max_examples=300)
@given(halfspaces, grid_rows)
def test_halfspace_row_matches_per_sample(h, grid_row):
    (viewport, n), j = grid_row
    us, vs = samples(viewport, n)
    v = vs[j]
    bounds = _halfspace_rows(h)(v)
    assert [within(bounds, u) for u in us] == [halfspace_contains(h, point(u, v)) for u in us]


@settings(max_examples=300)
@given(lines, grid_rows)
def test_line_row_matches_per_sample(spec, grid_row):
    (viewport, n), j = grid_row
    us, vs = samples(viewport, n)
    v = vs[j]
    classify = lambda u: _line_side(spec, u, v)  # noqa: E731
    assert _row_classes(us, _line_breaks(spec, v), classify) == per_sample(us, None, classify)


def line_side_oracle(spec, u, v):
    """Sign of lhs - rhs in max-plus arithmetic: a bottom coefficient drops
    its term, a top one makes its side +inf."""
    lhs = rhs = bot(RMAX)
    for (tag, coef), arg in ((spec.a, fin(RMAX, u)), (spec.b, fin(RMAX, v)), (spec.c, unit(RMAX))):
        term = mul(coef, arg)
        if tag != "-":
            lhs = add(lhs, term)
        if tag != "+":
            rhs = add(rhs, term)
    return leq(rhs, lhs) - leq(lhs, rhs)


infinite_coefs = st.tuples(st.sampled_from(["+", "-", "."]), st.sampled_from([bot(RMAX), top(RMAX)]))
lines_with_infinities = st.builds(LineSpec, *[st.one_of(coefs, infinite_coefs)] * 3)


@settings(max_examples=300)
@given(lines_with_infinities, grid_rows)
def test_line_row_matches_maxplus_oracle(spec, grid_row):
    (viewport, n), j = grid_row
    us, vs = samples(viewport, n)
    v = vs[j]
    row = _row_classes(us, _line_breaks(spec, v), lambda u: _line_side(spec, u, v))
    assert row == runs([line_side_oracle(spec, u, v) for u in us])


@pytest.mark.parametrize("tag, cells", [("+", 0), ("-", 0), (".", 16 * 16)])
def test_top_line_coefficient(tag, cells):
    """A +inf coefficient makes its side +inf: the line max(+inf + u, 3) =
    v never holds, and with the coefficient on both sides it holds everywhere."""
    scene = scene_from_json({
        "viewport": ["-4", "4", "-4", "4"],
        "samples_per_axis": 16,
        "lines": [{"a": [tag, "+inf"], "b": ["-", "0"], "c": ["+", "3"]}],
    })
    svg, _ = render_scene(scene)
    assert svg.count('fill="#1f4e9c"') == cells


def test_row_classes_calls_once_per_interval_and_break():
    us = [Fraction(i, 2) for i in range(-8, 9)]  # -4, -7/2, ..., 4
    calls = []
    flags = _row_classes(us, [Fraction(1, 3), 1, 1, 9], lambda u: calls.append(u) or u > 1)
    assert flags == runs([u > 1 for u in us]) == [(11, False), (17, True)]
    # (-inf, 1/3), (1/3, 1), the sample on 1, (1, 9); 9 lies past the grid
    assert calls == [-4, Fraction(1, 2), 1, Fraction(3, 2)]


def crossings_per_cell(row, below):
    """The oracle: every cell tested against its right and lower neighbours."""
    n = len(row)
    return [
        i for i, s in enumerate(row)
        if s == 0 or (i + 1 < n and row[i + 1] != s) or below[i] != s
    ]


sign_rows = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.tuples(*[st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)
                          .map(sorted if runny else list)
                          for runny in (True, True, False, False)])
)


@settings(max_examples=300)
@given(sign_rows)
def test_crossings_match_per_cell(rows):
    for row in rows:
        for below in rows:
            assert list(_crossings(runs(row), runs(below))) == crossings_per_cell(row, below)


def pixels_per_sample(viewport, n):
    """The oracle for pixel centres: px and py of each exact sample."""
    xmin, xmax, ymin, ymax = (Fraction(t) for t in viewport)
    us, vs = samples(viewport, n)
    inner = _W - 2 * _MARGIN
    xs = [float(_MARGIN + (u - xmin) / (xmax - xmin) * inner) for u in us]
    ys = [float(_W - _MARGIN - (v - ymin) / (ymax - ymin) * inner) for v in vs]
    return xs, ys


@pytest.mark.parametrize("grid", GRIDS + [((-4, 4, -4, 4), MAX_SAMPLES)])
def test_pixels_match_exact_samples(grid):
    assert _pixels(grid[1]) == pixels_per_sample(*grid)


def line_rects_per_sample(scene):
    """The oracle for lines: signs from the max-plus operations on the exact
    samples, and one rect per cell that crossings_per_cell picks."""
    n = scene.samples
    us, vs = samples(scene.viewport, n)
    xs, ys = pixels_per_sample(scene.viewport, n)
    step = (_W - 2 * _MARGIN) / (n - 1)
    half = step / 2
    rects = []
    for li, spec in enumerate(scene.lines):
        color = _LINE_COLORS[li % len(_LINE_COLORS)]
        signs = [[line_side_oracle(spec, u, v) for u in us] for v in vs]
        for j, y in enumerate(ys):
            for i in crossings_per_cell(signs[j], signs[min(j + 1, n - 1)]):
                rects.append(
                    f'<rect x="{xs[i] - half:.2f}" y="{y - half:.2f}" '
                    f'width="{step:.2f}" height="{step:.2f}" fill="{color}"/>'
                )
    return rects


@settings(max_examples=60)
@given(st.sampled_from(GRIDS), st.lists(lines_with_infinities, min_size=1, max_size=2))
def test_line_rects_match_maxplus_oracle(grid, ls):
    """The line rects of a render are the cells that the max-plus sign oracle
    on the exact rational samples picks, whatever lattice the render uses."""
    viewport, n = grid
    scene = Scene(viewport, n, lines=ls)
    svg, _ = render_scene(scene)
    parts = render_scene(Scene(viewport, n))[0].split("\n")
    # line rects come right after the svg header, the comment and the background
    assert svg == "\n".join(parts[:3] + line_rects_per_sample(scene) + parts[3:])


def region_rects_per_sample(scene):
    """The oracle for region shading: every sample classified on its own with
    the library predicates, and one rect per run of inside samples."""
    n = scene.samples
    us, vs = samples(scene.viewport, n)
    xs, ys = pixels_per_sample(scene.viewport, n)
    step = (_W - 2 * _MARGIN) / (n - 1)
    half = step / 2
    regions = [
        (lambda p, h=h: halfspace_contains(h, p), "#b8b8b8", "0.6") for h in scene.halfspaces
    ]
    if scene.generators:
        fam = GeneratingFamily(RMAX, 2, tuple(scene.generators))
        regions.append((lambda p: separate_from_convex(fam, p).member, "#4a4a4a", "0.85"))
    rects = []
    for contains, color, opacity in regions:
        for v, y in zip(vs, ys):
            start = 0
            for stop, inside in runs([contains(point(u, v)) for u in us]):
                if inside:
                    x0, x1 = xs[start] - half, xs[stop - 1] + half
                    rects.append(
                        f'<rect x="{x0:.2f}" y="{y - half:.2f}" width="{x1 - x0:.2f}" '
                        f'height="{step:.2f}" fill="{color}" fill-opacity="{opacity}"/>'
                    )
                start = stop
    return rects


@settings(max_examples=40)
@given(
    st.sampled_from(GRIDS),
    st.lists(points2, max_size=3),
    st.lists(halfspaces, max_size=2),
    st.lists(lines, max_size=2),
)
def test_svg_bytes_match_per_sample_render(grid, gens, hs, ls):
    """Regions shaded per sample and line rows classified per sample give the
    same bytes as the closed-form rows and the interval classification."""
    viewport, n = grid
    scene = Scene(viewport, n, gens, [], hs, ls)
    svg, _ = render_scene(scene)
    no_region = lambda _: lambda v: (_TOP, _BOT)  # noqa: E731
    with mock.patch("idemod.render._row_classes", per_sample), mock.patch(
        "idemod.render._hull_rows", no_region
    ), mock.patch("idemod.render._halfspace_rows", no_region):
        rest, _ = render_scene(scene)
    # region rects come right after the svg header, the comment and the background
    parts = rest.split("\n")
    oracle = "\n".join(parts[:3] + region_rects_per_sample(scene) + parts[3:])
    assert svg == oracle


README_SCENE = {
    "viewport": ["-3", "6", "-3", "6"],
    "samples_per_axis": 400,
    "generators": [["0", "0"], ["1", "3"], ["3", "4"]],
    "points": [{"label": "M", "coords": ["-1", "0"]}],
    "halfspaces": [{"x_ref": ["-1", "0"], "y": ["-1", "0"], "nu": "-1"}],
    "lines": [{"a": ["+", "2"], "b": ["-", "0"], "c": [".", "3"]}],
}


def test_readme_figure_bytes():
    """The README scene at 400 samples per axis, pinned byte for byte."""
    svg, classification = render_scene(scene_from_json(README_SCENE))
    assert classification == {"M": {"in_convex": False, "in_halfspace_0": False}}
    assert (
        hashlib.sha256(svg.encode("utf-8")).hexdigest()
        == "ab2fa23ab5b696ec6564ba51b633932cebf8e30358591095f5c837feabd86c45"
    )


def test_samples_per_axis_cap():
    assert scene_from_json(dict(README_SCENE, samples_per_axis=MAX_SAMPLES)).samples == MAX_SAMPLES
    with pytest.raises(SchemaError):
        scene_from_json(dict(README_SCENE, samples_per_axis=MAX_SAMPLES + 1))
