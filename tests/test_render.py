"""Region rows decided per row type and memoised classification of line rows
against per-sample classification, point pixels against their exact
coordinates, the lattice cap, and the byte gate on the README figure."""
import hashlib
import re
from fractions import Fraction
from itertools import groupby, product
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
    FRAME_CACHE,
    MAX_LATTICE_BITS,
    MAX_SAMPLES,
    LineSpec,
    Scene,
    _check_lattice,
    _crossings,
    _frame,
    _halfspace_fold,
    _halfspace_rows,
    _hull_fold,
    _hull_rows,
    _is_xml_text,
    _line_rows,
    _line_side,
    _pixels,
    render_scene,
    scene_from_json,
)
from idemod.semiring import NEG_INF, POS_INF
from idemod.separate import HalfSpace, halfspace_contains

from conftest import scalars, vectors
from test_acceptance import c10_scene, c11_scene

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


def rows_per_sample(spec, us, vs, side=_line_side):
    """The oracle: every sample of every row classified on its own, then
    each row cut into runs."""
    return [runs([side(spec, u, v) for u in us]) for v in vs]


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


def grid_scalars(grid):
    """Scalars on the grid's samples, so that rows lie on cuts, or any
    scalar, infinities included."""
    us, vs = samples(*grid)
    return st.one_of(st.sampled_from(sorted(set(us + vs))).map(lambda q: fin(RMAX, q)), scalars())


def grid_hull(grid):
    """Generators whose g2 come from a pool of at most three, so that they tie."""
    entry = grid_scalars(grid)
    return st.lists(entry, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(
            st.tuples(entry, st.sampled_from(pool)).map(lambda g: Vector(RMAX, g)),
            min_size=1,
            max_size=5,
        )
    )


def grid_halfspace(grid):
    """Half-spaces whose x2, y2, x2 - nu and y2 - nu often lie on rows: nu is
    often a difference of two rows of the (evenly spaced) grid."""
    _, vs = samples(*grid)
    entry = grid_scalars(grid)
    nus = st.one_of(
        st.tuples(st.sampled_from(vs), st.sampled_from(vs)).map(lambda p: fin(RMAX, p[0] - p[1])),
        scalars(),
    )
    pair = st.tuples(entry, entry).map(lambda e: Vector(RMAX, e))
    return st.builds(HalfSpace, pair, pair, nus)


def rows_ascending_then_descending(row, contains, grid):
    """One row closure asked for every row of the grid, bottom to top and
    then top to bottom, against the per-sample predicate."""
    us, vs = samples(*grid)
    oracle = {v: [contains(point(u, v)) for u in us] for v in vs}
    for v in vs + vs[::-1]:
        bounds = row(v)
        assert [within(bounds, u) for u in us] == oracle[v], v


@settings(max_examples=100)
@given(st.sampled_from(GRIDS).flatmap(lambda g: st.tuples(st.just(g), grid_hull(g))))
def test_hull_rows_one_closure_over_every_row(grid_gens):
    grid, gens = grid_gens
    fam = GeneratingFamily(RMAX, 2, tuple(gens))
    contains = lambda p: separate_from_convex(fam, p).member  # noqa: E731
    rows_ascending_then_descending(_hull_rows(gens), contains, grid)


@settings(max_examples=100)
@given(st.sampled_from(GRIDS).flatmap(lambda g: st.tuples(st.just(g), grid_halfspace(g))))
def test_halfspace_rows_one_closure_over_every_row(grid_h):
    grid, h = grid_h
    contains = lambda p: halfspace_contains(h, p)  # noqa: E731
    rows_ascending_then_descending(_halfspace_rows(h), contains, grid)


def counting_fold(fold):
    """A stand-in for a region fold that records the region of each call
    (the region itself, so that no two regions share an id)."""
    calls = []

    def counted(region, v):
        calls.append(region)
        return fold(region, v)

    return counted, calls


@pytest.mark.parametrize("n, viewport", [(16, (-5, 10, -5, 10)), (400, (-5, 2, -5, 2))])
def test_region_folds_per_row_type_are_bounded(n, viewport):
    """One render folds each hull at most 2 * (distinct finite g2) + 1 times
    and each half-space at most 9 times, whatever the sample count: once per
    row type.  Every integer is a row here, so rows lie on the cuts."""
    gens = [point(0, 0), point(1, 3), point(3, 4), point(2, 3), point(-1, -1)]
    gens += [Vector(RMAX, e) for e in [(bot(RMAX), fin(RMAX, 1)), (fin(RMAX, 1), bot(RMAX)),
                                       (top(RMAX), fin(RMAX, 2))]]
    g2s = {g.entries[1].value for g in gens} - {NEG_INF, POS_INF}
    hs = [
        HalfSpace(point(-1, 0), point(-1, 0), fin(RMAX, -1)),
        HalfSpace(point(0, 1), point(2, -1), fin(RMAX, 1)),
        HalfSpace(point(2, -3), point(1, 2), fin(RMAX, -2)),
        HalfSpace(point(0, 1), Vector(RMAX, (fin(RMAX, 1), top(RMAX))), bot(RMAX)),
    ]
    hull_fold, hull_calls = counting_fold(_hull_fold)
    halfspace_fold, halfspace_calls = counting_fold(_halfspace_fold)
    with mock.patch("idemod.render._hull_fold", hull_fold), mock.patch(
        "idemod.render._halfspace_fold", halfspace_fold
    ):
        render_scene(Scene(viewport, n, gens, [], hs, []))
    assert 0 < len(hull_calls) <= 2 * len(g2s) + 1
    regions = {id(r): r for r in halfspace_calls}
    per_halfspace = [sum(r is q for r in halfspace_calls) for q in regions.values()]
    assert len(per_halfspace) == len(hs) and max(per_halfspace) <= 9


@settings(max_examples=300)
@given(lines, st.sampled_from(GRIDS))
def test_line_row_matches_per_sample(spec, grid):
    us, vs = samples(*grid)
    assert _line_rows(spec, us, vs) == rows_per_sample(spec, us, vs)


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
@given(lines_with_infinities, st.sampled_from(GRIDS))
def test_line_row_matches_maxplus_oracle(spec, grid):
    us, vs = samples(*grid)
    assert _line_rows(spec, us, vs) == rows_per_sample(spec, us, vs, line_side_oracle)


def pinned_to_grid(spec, grid, i, j):
    """spec with c moved so that b + v = c on row j and, when a is finite, a
    moved so that a + u = c at column i: every breakpoint and row type met
    on the grid.  Infinite coefficients stay as they are."""
    us, vs = samples(*grid)
    (ta, a), (tb, b), (tc, c) = spec.a, spec.b, spec.c
    inf = (bot(RMAX), top(RMAX))
    if b not in inf and c not in inf:
        c = fin(RMAX, b.value + vs[j])
    if a not in inf and c not in inf:
        a = fin(RMAX, c.value - us[i])
    return LineSpec((ta, a), (tb, b), (tc, c))


lines_on_grids = st.sampled_from(GRIDS).flatmap(
    lambda g: st.tuples(
        st.builds(
            pinned_to_grid,
            lines_with_infinities,
            st.just(g),
            st.integers(min_value=0, max_value=g[1] - 1),
            st.integers(min_value=0, max_value=g[1] - 1),
        ),
        st.just(g),
    )
)


@settings(max_examples=300)
@given(lines_on_grids)
def test_line_rows_match_maxplus_oracle_where_b_plus_v_meets_c(spec_grid):
    """Every row of a grid with a row on v = c - b, so all three row types
    occur, and a sample on a + u = c, against the max-plus sign oracle."""
    spec, grid = spec_grid
    us, vs = samples(*grid)
    assert _line_rows(spec, us, vs) == rows_per_sample(spec, us, vs, line_side_oracle)


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


def counting_line_side():
    """A stand-in for _line_side that records the (u, v) of each call."""
    calls = []

    def side(spec, u, v):
        calls.append((u, v))
        return _line_side(spec, u, v)

    return side, calls


def test_line_rows_classify_once_per_type_and_slot():
    # max(u) = max(v, 1): along row v, a + u meets b + v at u = v and c at u = 1
    spec = LineSpec(("+", fin(RMAX, 0)), ("-", fin(RMAX, 0)), ("-", fin(RMAX, 1)))
    us = [Fraction(i, 2) for i in range(-8, 9)]  # -4, -7/2, ..., 4
    vs = [Fraction(1, 3), 0, 1, 2, 3]
    side, calls = counting_line_side()
    with mock.patch("idemod.render._line_side", side):
        rows = _line_rows(spec, us, vs)
    assert rows == rows_per_sample(spec, us, vs)
    assert rows[0] == [(10, -1), (11, 0), (17, 1)]  # u < 1, u = 1, u > 1
    third = Fraction(1, 3)
    assert calls == [
        # v = 1/3, type b + v < c: below u = 1, the sample on it, above it
        (-4, third), (1, third), (Fraction(3, 2), third),
        # v = 0 is of the same type; v = 1, type b + v = c: the same slots
        (-4, 1), (1, 1), (Fraction(3, 2), 1),
        # v = 2, type b + v > c: below u = 2, on it, above it; v = 3 is of the same type
        (-4, 2), (2, 2), (Fraction(5, 2), 2),
    ]


@pytest.mark.parametrize("n", [17, 401])
def test_line_side_calls_per_line_are_bounded(n):
    """One render makes at most 3 + 3 + 3 sign classifications per line,
    whatever the sample count: one per (row type, slot).  On [-4, 4] at
    these sizes the row v = c - b and every breakpoint fall on samples, so
    every row type and slot occurs."""
    tags = [t for t in product("+-.", repeat=3) if "+" in t and "-" in t]
    values = [fin(RMAX, 0), fin(RMAX, 0), fin(RMAX, 1)]
    specs = [LineSpec(*zip(t, values)) for t in tags]
    # and lines with an infinite coefficient in each place
    specs += [
        LineSpec(*((t, inf if k == m else x) for k, (t, x) in enumerate(zip("+-+", values))))
        for m in range(3) for inf in (bot(RMAX), top(RMAX))
    ]
    for spec in specs:
        side, calls = counting_line_side()
        with mock.patch("idemod.render._line_side", side):
            render_scene(Scene((-4, 4, -4, 4), n, lines=[spec]))
        assert 0 < len(calls) <= 9, spec


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
            cells = [i for lo, hi in _crossings(runs(row), runs(below)) for i in range(lo, hi)]
            assert cells == crossings_per_cell(row, below)


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


@pytest.mark.parametrize("n", sorted({n for _, n in GRIDS} | {MAX_SAMPLES}))
def test_frame_matches_per_cell_formatting(n):
    """The memoised frame holds what render_scene formatted per cell: the
    pixels of ``_pixels`` and each cell's x and y text, half a step back."""
    xs, ys = _pixels(n)
    step = (_W - 2 * _MARGIN) / (n - 1)
    half = step / 2
    frame = _frame(n)
    assert (frame.xs, frame.ys, frame.step, frame.half) == (tuple(xs), tuple(ys), step, half)
    assert frame.x_attrs == tuple(f'<rect x="{x - half:.2f}" y="' for x in xs)
    assert frame.y_attrs == tuple(f'{y - half:.2f}" ' for y in ys)
    assert _frame(n) is frame
    assert _frame.cache_info().maxsize == FRAME_CACHE == 4


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
    same bytes as the closed-form rows and the memoised line classification."""
    viewport, n = grid
    scene = Scene(viewport, n, gens, [], hs, ls)
    svg, _ = render_scene(scene)
    no_region = lambda _: lambda v: (_TOP, _BOT)  # noqa: E731
    with mock.patch("idemod.render._line_rows", rows_per_sample), mock.patch(
        "idemod.render._hull_rows", no_region
    ), mock.patch("idemod.render._halfspace_rows", no_region):
        rest, _ = render_scene(scene)
    # region rects come right after the svg header, the comment and the background
    parts = rest.split("\n")
    oracle = "\n".join(parts[:3] + region_rects_per_sample(scene) + parts[3:])
    assert svg == oracle


wide_scalars = st.one_of(
    scalars(), st.integers(min_value=-10**30, max_value=10**30).map(lambda q: fin(RMAX, q))
)
wide_points = st.tuples(wide_scalars, wide_scalars).map(lambda e: Vector(RMAX, e))
CIRCLE = re.compile(r'<circle cx="([^"]*)" cy="([^"]*)"')
ARROW = re.compile(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)" stroke="#222222"')


@settings(max_examples=60)
@given(st.sampled_from(GRIDS), st.lists(wide_points, max_size=3), st.lists(wide_points, max_size=3))
def test_point_and_arrow_pixels_match_exact_coordinates(grid, gens, pts):
    """Every generator, labelled point and arrow end sits at the pixel of its
    exact coordinates; points at infinity, or too far out for a float, are
    not drawn."""
    viewport, n = grid
    labelled = [(f"P{i}", p) for i, p in enumerate(pts)] + [("far", point(10**400, 0))]
    svg, _ = render_scene(Scene(viewport, n, gens, labelled))
    xmin, xmax, ymin, ymax = (Fraction(t) for t in viewport)
    inner = _W - 2 * _MARGIN

    def xy(p):
        u, v = (s.value for s in p.entries)
        if {u, v} & {NEG_INF, POS_INF}:
            return None
        try:
            x = float(_MARGIN + (u - xmin) / (xmax - xmin) * inner)
            y = float(_W - _MARGIN - (v - ymin) / (ymax - ymin) * inner)
        except OverflowError:
            return None
        return f"{x:.2f}", f"{y:.2f}"

    arrows = []
    if gens:
        fam = GeneratingFamily(RMAX, 2, tuple(gens))
        for _, p in labelled:
            proj = separate_from_convex(fam, p).normalized
            if proj is not None and proj != p and xy(p) and xy(proj):
                arrows.append(xy(p) + xy(proj))
    circles = [xy(p) for p in gens + [p for _, p in labelled] if xy(p)]
    assert CIRCLE.findall(svg) == circles
    assert ARROW.findall(svg) == arrows


README_SCENE = {
    "viewport": ["-3", "6", "-3", "6"],
    "samples_per_axis": 400,
    "generators": [["0", "0"], ["1", "3"], ["3", "4"]],
    "points": [{"label": "M", "coords": ["-1", "0"]}],
    "halfspaces": [{"x_ref": ["-1", "0"], "y": ["-1", "0"], "nu": "-1"}],
    "lines": [{"a": ["+", "2"], "b": ["-", "0"], "c": [".", "3"]}],
}


README_SVG_SHA256 = "ab2fa23ab5b696ec6564ba51b633932cebf8e30358591095f5c837feabd86c45"


def test_readme_figure_bytes():
    """The README scene at 400 samples per axis, pinned byte for byte."""
    svg, classification = render_scene(scene_from_json(README_SCENE))
    assert classification == {"M": {"in_convex": False, "in_halfspace_0": False}}
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == README_SVG_SHA256


def test_renders_do_not_depend_on_order():
    """The README scene at 64, 400 and 64 samples in one process, from an
    empty frame cache: the 400 picture keeps its pin and the two 64 pictures
    are the same bytes, so no state passes from one scene to the next."""
    _frame.cache_clear()
    first, pinned, again = (
        render_scene(scene_from_json(dict(README_SCENE, samples_per_axis=n)))[0] for n in (64, 400, 64)
    )
    assert hashlib.sha256(pinned.encode("utf-8")).hexdigest() == README_SVG_SHA256
    assert first == again


def test_samples_per_axis_cap():
    assert scene_from_json(dict(README_SCENE, samples_per_axis=MAX_SAMPLES)).samples == MAX_SAMPLES
    with pytest.raises(SchemaError):
        scene_from_json(dict(README_SCENE, samples_per_axis=MAX_SAMPLES + 1))


def test_lattice_cap():
    """samples - 1 times the least common multiple of every denominator may
    have MAX_LATTICE_BITS bits and no more; every scene the tests and the
    benchmark render stays under it."""
    scene = dict(README_SCENE, samples_per_axis=17)  # samples - 1 = 2**4
    for bits, admitted in ((MAX_LATTICE_BITS, True), (MAX_LATTICE_BITS + 1, False)):
        edge = dict(scene, generators=[["0", f"1/{2 ** (bits - 5)}"]])  # 2**4 * 2**(bits - 5)
        if admitted:
            scene_from_json(edge)
        else:
            with pytest.raises(SchemaError, match=str(MAX_LATTICE_BITS)):
                scene_from_json(edge)
    for samples in (16, 64, 400, MAX_SAMPLES):
        scene_from_json(dict(README_SCENE, samples_per_axis=samples))
    for viewport, n in GRIDS:
        _check_lattice(Scene(viewport, n))
    _check_lattice(c10_scene())
    _check_lattice(c11_scene())


def test_xml_text_test_matches_the_char_production():
    """The label test agrees with a regex of XML 1.0's Char production on
    every code point, lone surrogates included, and on strings mixing them."""
    xml_chars = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")
    bad = [c for c in map(chr, range(0x110000)) if _is_xml_text(c) != bool(xml_chars.fullmatch(c))]
    assert bad == []
    for s in ("", "a b", "tab\there", "\U0001f600x", "a\ud800", "\x7f\x85", "ok\ufffe", "\x00"):
        assert _is_xml_text(s) == bool(xml_chars.fullmatch(s)), s
