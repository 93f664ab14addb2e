"""SVG rendering of 2-D max-plus scenes: convex hulls, half-spaces,
labelled points with projection arrows, and the generic line shapes
max(a+u, b+v, c) = max(a'+u, b'+v, c').

Regions are rasterised on a grid of exact sample points, one row at a
time.  The raster runs on the scene scaled once by k, the least common
multiple of every denominator in it (viewport corner, sample steps and
finite entries), so samples, bounds and breakpoints are ints.  That is
exact: every raster quantity is built from max, min, + and -, which commute
with multiplication by k > 0, so no comparison changes.  Labelled points are
classified on the unscaled scene.  Each row of a hull or a half-space is one
closed interval in u (every axis-parallel slice of a tropical polytope is a
segment) with exact bounds in closed form.  Each bound is a constant, v plus
a constant, or the max of the two, and its form changes only where v
crosses a cut: a generator's g2, or a half-space's x2, y2, x2 - nu or
y2 - nu.  So region rows are decided per row type, where v lies among the
region's cuts: a region folds its generators or branches once per type, at
most 33 times for a hull and 9 for a half-space, and a row costs two bisects
and at most two additions.  A line's sign along a row changes only at one
exact breakpoint, u = max(b + v, c) - a, so a row has three slots: below,
on and above it.  Which sign a slot has depends only on the slot and on the
row's type, the sign of b + v - c: each line classifies each (type, slot)
once, at most 9 times whatever the sample count, and a row costs one
bisect.  So only the picture is approximate, never the algebra.  What
depends on the sample count alone, the pixel of each sample and the text of
each cell's x and y, is built once per count (``_frame``) and shared by
every scene drawn at that count.  Output bytes are a pure function of the
scene and the library version.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import __version__
from .errors import SchemaError
from .freemod import GeneratingFamily, Vector
from .jsonio import rational_from_json, scalar_from_json, vector_from_json
from .record import Record
from .semiring import NEG_INF, POS_INF, RMAX, Scalar, _excerpt, fin, sort_key
from .separate import HalfSpace, halfspace_contains, separate_from_convex

_TAGS = ("+", "-", ".")
# Samples per axis when a scene names none.
DEFAULT_SAMPLES = 400
# Far beyond the 560-pixel drawing area; bounds the raster a scene can ask for.
MAX_SAMPLES = 2048
# Render time grows with each list's length; bounds what one scene can ask for.
MAX_SCENE_ITEMS = 16
# Every raster int carries the bits of the lattice factor k (see the module
# docstring); bounds how much one scene's arithmetic can cost.
MAX_LATTICE_BITS = 4096


def _is_xml_text(s: str) -> bool:
    """s holds only characters XML 1.0 admits in text (its Char production):
    tab, LF, CR, U+0020-U+D7FF, U+E000-U+FFFD and U+10000-U+10FFFF.  A label
    holding any other cannot be drawn.  Every printable character is one."""
    return s.isprintable() or all(
        " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000" or c in "\t\n\r"
        for c in s
    )


class LineSpec(Record):
    """Signed coefficients of a generic line; tag "+" puts the coefficient on
    the left side of the equation, "-" on the right, "." on both."""

    a: tuple[str, Scalar]
    b: tuple[str, Scalar]
    c: tuple[str, Scalar]


class Scene(Record):
    viewport: tuple[Fraction | int, Fraction | int, Fraction | int, Fraction | int]
    samples: int = DEFAULT_SAMPLES
    generators: list[Vector] = list
    points: list[tuple[str, Vector]] = list
    halfspaces: list[HalfSpace] = list
    lines: list[LineSpec] = list


def _coef_from_json(obj) -> tuple[str, Scalar]:
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or obj[0] not in _TAGS
    ):
        raise SchemaError(f'line coefficient must be ["+"|"-"|".", scalar], got {_excerpt(obj)}')
    return obj[0], scalar_from_json(RMAX, obj[1])


def scene_from_json(obj) -> Scene:
    if not isinstance(obj, dict):
        raise SchemaError("scene file must hold a JSON object")
    vp = obj.get("viewport")
    if not isinstance(vp, list) or len(vp) != 4:
        raise SchemaError('scene needs "viewport": [xmin, xmax, ymin, ymax]')
    xmin, xmax, ymin, ymax = (rational_from_json(v) for v in vp)
    if not (xmin < xmax and ymin < ymax):
        raise SchemaError("viewport must be nonempty")
    samples = obj.get("samples_per_axis", DEFAULT_SAMPLES)
    if not isinstance(samples, int) or not 16 <= samples <= MAX_SAMPLES:
        raise SchemaError(f"samples_per_axis must be an integer in [16, {MAX_SAMPLES}]")
    lists = {key: obj.get(key, []) for key in ("generators", "points", "halfspaces", "lines")}
    for key, items in lists.items():
        if not isinstance(items, list) or len(items) > MAX_SCENE_ITEMS:
            raise SchemaError(f'"{key}" must be an array of at most {MAX_SCENE_ITEMS} entries')
    scene = Scene((xmin, xmax, ymin, ymax), samples)
    labels = set()
    for g in lists["generators"]:
        scene.generators.append(vector_from_json(RMAX, g, 2))
    for p in lists["points"]:
        if not isinstance(p, dict) or "label" not in p or "coords" not in p:
            raise SchemaError('scene points need {"label": ..., "coords": [...]}')
        label = str(p["label"])
        if not _is_xml_text(label):
            raise SchemaError(f"point label {label!r} has a character XML text does not allow")
        if label in labels:
            # the JSON classification is keyed by label: a repeat would hide a point
            raise SchemaError(f"point label {label!r} is used twice")
        labels.add(label)
        scene.points.append((label, vector_from_json(RMAX, p["coords"], 2)))
    for h in lists["halfspaces"]:
        if not isinstance(h, dict) or not {"x_ref", "y", "nu"} <= set(h):
            raise SchemaError('half-spaces need {"x_ref", "y", "nu"}')
        scene.halfspaces.append(
            HalfSpace(
                vector_from_json(RMAX, h["x_ref"], 2),
                vector_from_json(RMAX, h["y"], 2),
                scalar_from_json(RMAX, h["nu"]),
            )
        )
    for l in lists["lines"]:
        if not isinstance(l, dict) or not {"a", "b", "c"} <= set(l):
            raise SchemaError('lines need coefficients "a", "b", "c"')
        scene.lines.append(
            LineSpec(_coef_from_json(l["a"]), _coef_from_json(l["b"]), _coef_from_json(l["c"]))
        )
    _check_lattice(scene)
    return scene


def _raster_values(scene: Scene) -> list:
    """The finite raw values of the generators, half-spaces and lines: with
    the viewport, everything the raster scales by k."""
    scalars = [s for g in scene.generators for s in g.entries]
    for h in scene.halfspaces:
        scalars += [*h.x_ref.entries, *h.y.entries, h.nu]
    for spec in scene.lines:
        scalars += [spec.a[1], spec.b[1], spec.c[1]]
    return [s.value for s in scalars if s.value is not NEG_INF and s.value is not POS_INF]


def _check_lattice(scene: Scene) -> None:
    """SchemaError when samples - 1 times the least common multiple of every
    denominator of the viewport and of ``_raster_values`` has more than
    MAX_LATTICE_BITS bits.  The raster's k divides that product, as a sample
    step is the viewport's width over samples - 1.  The fold stops at the
    first denominator that takes the product past the cap, so it never
    builds a multiple much larger than the cap."""
    m, multiple = scene.samples - 1, 1
    for q in (*scene.viewport, *_raster_values(scene)):
        multiple = lcm(multiple, q.denominator)
        if (m * multiple).bit_length() > MAX_LATTICE_BITS:
            raise SchemaError(
                "samples_per_axis - 1 times the least common multiple of the scene's "
                f"denominators must have at most {MAX_LATTICE_BITS} bits"
            )


def _xml_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# A bound, or a side of a line's equation, ranked as ``sort_key`` ranks a
# scalar: (0, 0) is -inf, (1, value) a finite value and (2, 0) +inf, so that
# tuple order is the order of the extended line.
_BOT = (0, 0)
_TOP = (2, 0)


def _minus(a: tuple, b: tuple) -> tuple:
    """a - b for ranked a and b; an infinite b decides alone: a - (-inf) is
    +inf and a - (+inf) is -inf."""
    if b[0] == 1:
        return (1, a[1] - b[1]) if a[0] == 1 else a
    return _TOP if b == _BOT else _BOT


def _typed_rows(cuts: list, fold, region):
    """v -> ranked (lo, hi) for a region whose row bounds change form only
    where v crosses a cut.  A row's type is where v lies among the distinct
    cuts: below, on or above each.  fold(region, v) gives the bounds of
    every row of v's type as (lo, lo_off, hi, hi_off), from ``_bound``: the
    row's lower bound is max(lo, v + lo_off), or lo when lo_off is None, and
    so is its upper bound.  So fold runs at most 2 * len(cuts) + 1 times,
    whatever the number of rows."""
    cuts = sorted(set(cuts))
    memo: dict = {}

    def row(v):
        key = bisect_left(cuts, v) + bisect_right(cuts, v)  # 2i off cut i, 2i + 1 on it
        bounds = memo.get(key)
        if bounds is None:
            bounds = memo[key] = fold(region, v)
        lo, lo_off, hi, hi_off = bounds
        if lo_off is not None and (1, v + lo_off) > lo:
            lo = (1, v + lo_off)
        if hi_off is not None and (1, v + hi_off) > hi:
            hi = (1, v + hi_off)
        return lo, hi

    return row


def _bound(const: tuple, off: tuple) -> tuple:
    """max(const, v + off) for ranked const and offset off, as ``_typed_rows``
    stores it: (const, c) for off = (1, c); an infinite off is its own sum."""
    return (const, off[1]) if off[0] == 1 else (max(const, off), None)


def _hull_rows(gens: list[Vector]):
    """v -> ranked (lo, hi): the hull's row at height v is lo <= u <= hi.
    With lambda_g = min(u - g1, v - g2, 0), the lifted projection fixes
    (u, v, e) iff some lambda_g is e (u >= L1), some lambda_g + g2 is v
    (u >= L3) and some lambda_g + g1 is u (u <= R).  Which generator enters
    which bound depends only on where v lies among the finite g2."""
    ranked = [tuple(map(sort_key, g.entries)) for g in gens]
    ranked = [g for g in ranked if _TOP not in g]  # lambda_g = -inf bounds nothing
    return _typed_rows([g2[1] for _, g2 in ranked if g2[0] == 1], _hull_fold, ranked)


def _hull_fold(gens: list[tuple], v) -> tuple:
    """The bounds of the hull rows of v's type, for ``_typed_rows``.  A
    generator with g2 <= v gives L1 and R its g1; one with g2 >= v gives L3
    and R g1 + v - g2, the offset g1 - g2 from v."""
    vr = (1, v)
    l1 = l3 = _TOP
    r = r3 = _BOT
    for g1, g2 in gens:
        if g2 <= vr:
            l1 = min(l1, g1)
            r = max(r, g1)
        if g2 >= vr:
            shift = _minus(g1, g2)
            l3 = min(l3, shift)
            r3 = max(r3, shift)
    return _bound(l1, l3) + _bound(r, r3)


def _halfspace_rows(h: HalfSpace):
    """v -> ranked (lo, hi), as ``_hull_rows``.  With c1 = min(x2 - v, 0) and
    c2 = min(y2 - v, nu) the row is {u : min(x1 - u, c1) <= min(y1 - u, c2)}:
    u <= y1 - c1 unless x1 <= y1 or c1 = -inf, and u >= x1 - c2 unless
    c1 <= c2 or x1 = -inf.  Which branch of each min holds, and whether
    c1 <= c2, change only where v crosses x2, y2, x2 - nu or y2 - nu."""
    (x1, x2), (y1, y2) = (tuple(map(sort_key, p.entries)) for p in (h.x_ref, h.y))
    nu = sort_key(h.nu)
    cuts = [c[1] for c in (x2, y2, _minus(x2, nu), _minus(y2, nu)) if c[0] == 1]
    return _typed_rows(cuts, _halfspace_fold, (x1, x2, y1, y2, nu))


def _halfspace_fold(h: tuple, v) -> tuple:
    """The bounds of the half-space rows of v's type, for ``_typed_rows``:
    y1 - c1 with c1 = x2 - v is the offset y1 - x2 from v, and x1 - c2 with
    c2 = y2 - v the offset x1 - y2."""
    x1, x2, y1, y2, nu = h
    vr = (1, v)
    c1 = min(_minus(x2, vr), (1, 0))
    c2 = min(_minus(y2, vr), nu)
    if c1 <= c2 or x1 == _BOT:
        lo = (_BOT, None)
    elif c2 < nu:  # c2 = y2 - v
        lo = _bound(_BOT, _minus(x1, y2))
    else:
        lo = (_minus(x1, c2), None)
    if x1 <= y1 or c1 == _BOT:
        hi = (_TOP, None)
    elif c1 < (1, 0):  # c1 = x2 - v
        hi = _bound(_BOT, _minus(y1, x2))
    else:
        hi = (y1, None)
    return lo + hi


def _line_rows(spec: LineSpec, us: list, vs: list) -> list[list[tuple[int, int]]]:
    """For each v in vs, (stop, sign) of each maximal run of equal values in
    [_line_side(spec, u, v) for u in us], for ascending samples us.

    A sign depends only on which terms attain the maximum.  Along the row at
    height v, b + v and c are constants, so a + u changes that set only at
    u = m - a, with m the larger of the finite ones.  Below it the set is
    fixed by the row's type, the sign of b + v - c; on it a + u joins the
    set; above it a + u is alone.  (A +inf b or c is the maximum in every
    slot, so the slots share one sign and merge into one run.)  So each
    (type, slot) is classified once, on the first sample found in it: at
    most 3 + 3 + 3 calls of _line_side per line, whatever the sample count.
    An infinite a, or an infinite b and c, leaves one slot."""
    a, b, c = spec.a[1].value, spec.b[1].value, spec.c[1].value
    b_finite = b is not NEG_INF and b is not POS_INF
    c_finite = c is not NEG_INF and c is not POS_INF
    split = a is not NEG_INF and a is not POS_INF and (b_finite or c_finite)
    n = len(us)
    signs: dict = {}
    rows = []
    for v in vs:
        row_type, m = 0, b + v if b_finite else c  # m: the larger finite constant
        if b_finite and c_finite:
            row_type, m = (m > c) - (m < c), max(m, c)
        stops = (n,)
        if split:
            u = m - a  # the row's one breakpoint
            i = bisect_left(us, u)
            stops = (i, i + 1 if i < n and us[i] == u else i, n)
        row: list = []
        start = 0
        for slot, stop in enumerate(stops):
            if stop > start:
                sign = signs.get((row_type, slot))
                if sign is None:
                    sign = signs[row_type, slot] = _line_side(spec, us[start], v)
                if row and row[-1][1] == sign:
                    row[-1] = (stop, sign)  # adjacent slots of one sign make one run
                else:
                    row.append((stop, sign))
                start = stop
        rows.append(row)
    return rows


def _crossings(runs: list, runs_below: list):
    """Ascending, disjoint ranges (start, stop) that together hold the i with
    row[i] == 0, row[i] != row[i + 1] or row[i] != below[i] for the sign rows
    with these runs (as ``_line_rows`` gives them): the cells of a line's
    sign row that the line crosses.  Walks the segments on which both rows
    are constant, so the cost is in runs, not cells."""
    n = runs[-1][0]
    start = a = b = 0
    while start < n:
        (stop_a, s), (stop_b, t) = runs[a], runs_below[b]
        stop = stop_a if stop_a < stop_b else stop_b
        if s == 0 or s != t:
            yield start, stop
        elif stop == stop_a < n:
            yield stop - 1, stop  # row changes sign between stop - 1 and stop
        a += stop == stop_a
        b += stop == stop_b
        start = stop


def _line_side(spec: LineSpec, u, v):
    """Sign of lhs - rhs at exact coordinates: -1, 0, or 1."""
    lhs = rhs = _BOT
    for (tag, coef), term_arg in ((spec.a, u), (spec.b, v), (spec.c, None)):
        q = coef.value
        if q is NEG_INF:
            continue
        term = _TOP if q is POS_INF else (1, q if term_arg is None else q + term_arg)
        if tag != "-" and term > lhs:
            lhs = term
        if tag != "+" and term > rhs:
            rhs = term
    return (lhs > rhs) - (lhs < rhs)


_W = 640
_MARGIN = 40
_LINE_COLORS = ("#1f4e9c", "#9c1f1f", "#1f7a3c", "#7a1f9c")


def _pixels(n: int) -> tuple[list[float], list[float]]:
    """The pixel x of sample column i and y of sample row j on an n x n grid:
    px and py of the sample, as exact ratios of ints.  int / int rounds
    correctly, as float(Fraction) does, so the floats are the same."""
    inner, m = _W - 2 * _MARGIN, n - 1
    xs = [(_MARGIN * m + i * inner) / m for i in range(n)]
    ys = [((_W - _MARGIN) * m - j * inner) / m for j in range(n)]
    return xs, ys


class _Frame(Record):
    """What an n x n picture draws with that depends on n alone: the pixels
    of ``_pixels`` as tuples, the cell size ``step`` and ``half`` of it, the
    text '<rect x="X" y="' of each column's cell and 'Y" ' of each row's."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    step: float
    half: float
    x_attrs: tuple[str, ...]
    y_attrs: tuple[str, ...]


# Frames kept at once; one at MAX_SAMPLES holds under 0.5 MB.
FRAME_CACHE = 4


@lru_cache(maxsize=FRAME_CACHE)
def _frame(n: int) -> _Frame:
    """The frame of every scene with n samples per axis, built once."""
    xs, ys = _pixels(n)
    step = (_W - 2 * _MARGIN) / (n - 1)
    half = step / 2
    return _Frame(
        tuple(xs),
        tuple(ys),
        step,
        half,
        tuple(f'<rect x="{x - half:.2f}" y="' for x in xs),
        tuple(f'{y - half:.2f}" ' for y in ys),
    )


def _scaled(s: Scalar, k: int) -> Scalar:
    return s if s.value is NEG_INF or s.value is POS_INF else fin(RMAX, s.value * k)


def _scaled_vector(p: Vector, k: int) -> Vector:
    return Vector(RMAX, tuple(_scaled(s, k) for s in p.entries))


def render_scene(scene: Scene) -> tuple[str, dict]:
    """Build the SVG text plus an exact classification of the labelled
    points (hull membership and half-space membership)."""
    xmin, xmax, ymin, ymax = (Fraction(t) for t in scene.viewport)
    n = scene.samples
    span_x, span_y = xmax - xmin, ymax - ymin
    dx, dy = span_x / (n - 1), span_y / (n - 1)
    inner = _W - 2 * _MARGIN

    # the raster runs on the scene scaled by k, on ints (see the module docstring)
    k = lcm(*(q.denominator for q in (xmin, ymin, dx, dy, *_raster_values(scene))))
    u0, v0, du, dv = (int(q * k) for q in (xmin, ymin, dx, dy))
    sx, sy = du * (n - 1), dv * (n - 1)

    # the pixel of an exact coordinate p/q, as one int / int division that
    # rounds correctly, as float(Fraction) does (see ``_pixels``)
    def px(u) -> float:
        p, q = u.numerator, u.denominator
        return (_MARGIN * q * sx + (p * k - u0 * q) * inner) / (q * sx)

    def py(v) -> float:
        p, q = v.numerator, v.denominator
        return ((_W - _MARGIN) * q * sy - (p * k - v0 * q) * inner) / (q * sy)

    us = [u0 + i * du for i in range(n)]
    vs = [v0 + j * dv for j in range(n)]
    frame = _frame(n)
    xs, step, half = frame.xs, frame.step, frame.half
    x_attrs, y_attrs = frame.x_attrs, frame.y_attrs

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_W}" '
        f'viewBox="0 0 {_W} {_W}">',
        f"<!-- idemod {__version__} -->",
        f'<rect x="0" y="0" width="{_W}" height="{_W}" fill="#ffffff"/>',
    ]

    def emit_region(rows, color: str, opacity: str) -> None:
        tail = f'height="{step:.2f}" fill="{color}" fill-opacity="{opacity}"/>'
        for j, v in enumerate(vs):
            (lo_rank, lo), (hi_rank, hi) = rows(v)
            # a bound of -inf lies before sample 0, one of +inf after sample n - 1
            start = bisect_left(us, lo) if lo_rank == 1 else (n if lo_rank else 0)
            stop = bisect_right(us, hi) if hi_rank == 1 else (n if hi_rank else 0)
            if start < stop:
                width = (xs[stop - 1] + half) - (xs[start] - half)  # x1 - x0: rounds as it always has
                parts.append(f'{x_attrs[start]}{y_attrs[j]}width="{width:.2f}" {tail}')

    for h in scene.halfspaces:
        h = HalfSpace(_scaled_vector(h.x_ref, k), _scaled_vector(h.y, k), _scaled(h.nu, k))
        emit_region(_halfspace_rows(h), "#b8b8b8", "0.6")
    fam = GeneratingFamily(RMAX, 2, tuple(scene.generators))
    if fam:
        gens = [_scaled_vector(g, k) for g in scene.generators]
        emit_region(_hull_rows(gens), "#4a4a4a", "0.85")

    for li, spec in enumerate(scene.lines):
        spec = LineSpec(*((tag, _scaled(coef, k)) for tag, coef in (spec.a, spec.b, spec.c)))
        tail = (
            f'width="{step:.2f}" height="{step:.2f}" '
            f'fill="{_LINE_COLORS[li % len(_LINE_COLORS)]}"/>'
        )
        runs = _line_rows(spec, us, vs)
        for j in range(n):
            below = runs[j + 1] if j + 1 < n else runs[j]
            row_tail = y_attrs[j] + tail
            # the rects of cells start..stop - 1, joined as "\n".join(parts) would
            sep = row_tail + "\n"
            parts += [sep.join(x_attrs[lo:hi]) + row_tail for lo, hi in _crossings(runs[j], below)]

    # axes through the origin when visible
    if xmin <= 0 <= xmax:
        parts.append(
            f'<line x1="{px(0):.2f}" y1="{_MARGIN}" x2="{px(0):.2f}" '
            f'y2="{_W - _MARGIN}" stroke="#888888" stroke-width="1"/>'
        )
    if ymin <= 0 <= ymax:
        parts.append(
            f'<line x1="{_MARGIN}" y1="{py(0):.2f}" x2="{_W - _MARGIN}" '
            f'y2="{py(0):.2f}" stroke="#888888" stroke-width="1"/>'
        )

    classification: dict[str, dict] = {}
    arrows = []
    labels = []
    for label, p in scene.points:
        info: dict = {}
        if fam:
            sep = separate_from_convex(fam, p)
            info["in_convex"] = sep.member
            proj = sep.normalized
            if proj is not None and proj != p:
                arrows.append((p, proj))
        for hi, h in enumerate(scene.halfspaces):
            info[f"in_halfspace_{hi}"] = halfspace_contains(h, p)
        classification[label] = info
        labels.append((label, p, info))

    parts.append(
        '<defs><marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
        'markerWidth="6" markerHeight="6" orient="auto">'
        '<path d="M0,0 L8,4 L0,8 z" fill="#222222"/></marker></defs>'
    )
    def finite_xy(p: Vector) -> tuple[float, float] | None:
        a, b = (s.value for s in p.entries)
        if a is NEG_INF or a is POS_INF or b is NEG_INF or b is POS_INF:
            return None  # points at infinity are classified but not drawn
        try:
            return px(a), py(b)
        except OverflowError:
            return None  # nor are points too far out for a float pixel

    for src, dst in arrows:
        s_xy, d_xy = finite_xy(src), finite_xy(dst)
        if s_xy is None or d_xy is None:
            continue
        parts.append(
            f'<line x1="{s_xy[0]:.2f}" y1="{s_xy[1]:.2f}" x2="{d_xy[0]:.2f}" '
            f'y2="{d_xy[1]:.2f}" stroke="#222222" stroke-width="1.5" '
            'marker-end="url(#arrow)"/>'
        )
    for g in scene.generators:
        g_xy = finite_xy(g)
        if g_xy is not None:
            parts.append(
                f'<circle cx="{g_xy[0]:.2f}" cy="{g_xy[1]:.2f}" r="4" fill="#111111"/>'
            )
    for label, p, info in labels:
        p_xy = finite_xy(p)
        if p_xy is None:
            continue
        x, y = p_xy
        data = "".join(
            f' data-{k.replace("_", "-")}="{str(v).lower()}"' for k, v in sorted(info.items())
        )
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#c02020"{data}/>'
        )
        parts.append(
            f'<text x="{x + 7:.2f}" y="{y - 7:.2f}" font-family="monospace" '
            f'font-size="14" fill="#111111">{_xml_text(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n", classification
