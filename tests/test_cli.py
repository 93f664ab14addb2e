"""CLI contract: JSON in/out, exit codes, rendering."""
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from idemod.cli import main
from idemod.errors import TheoremViolation
from idemod.jsonio import canonical_dumps
from idemod.render import scene_from_json
from idemod.semiring import scalar_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


PROJECT_FILE = {
    "semiring": "rmax",
    "generators": [["0", "0", "0"], ["1", "3", "0"], ["3", "4", "0"]],
    "point": ["-1", "0", "0"],
}
SEPARATE_FILE = {
    "semiring": "rmax",
    "convex": [["0", "0"], ["1", "3"], ["3", "4"]],
    "point": ["-1", "0"],
}


def test_project_worked_example(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "project", write(tmp_path, "p.json", PROJECT_FILE))
    assert code == 0
    data = json.loads(out)
    assert data["projection"] == ["-1", "0", "-1"]
    assert data["member"] is False
    # canonical serialisation: round-trip is byte-identical
    assert out == canonical_dumps(data)


def test_separate_worked_example(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "separate", write(tmp_path, "s.json", SEPARATE_FILE))
    assert code == 0
    data = json.loads(out)
    assert data["nu"] == "-1"
    assert data["y"] == ["-1", "0"]
    assert data["normalized"] == ["0", "1"]
    assert data["member"] is False
    assert data["halfspace"] == {"nu": "-1", "x_ref": ["-1", "0"], "y": ["-1", "0"]}


def test_separate_member_point(tmp_path, capsys):
    obj = dict(SEPARATE_FILE, point=["1", "3"])
    code, out, _ = run_cli(capsys, "separate", write(tmp_path, "s.json", obj))
    data = json.loads(out)
    assert code == 0
    assert data["member"] is True
    assert data["nu"] == "0"
    assert data["normalized"] == ["1", "3"]


def test_member_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "member", write(tmp_path, "m.json", PROJECT_FILE))
    assert code == 0 and json.loads(out) == {"member": False}


def test_project_empty_family(tmp_path, capsys):
    obj = {"semiring": "rmax", "generators": [], "point": ["1", "2"]}
    code, out, _ = run_cli(capsys, "project", write(tmp_path, "e.json", obj))
    assert code == 0
    data = json.loads(out)
    assert data["projection"] == ["-inf", "-inf"]
    assert data["coefficients"] == []
    assert data["member"] is False


def test_exit_codes(tmp_path, capsys):
    bad_scalar = dict(SEPARATE_FILE, point=["oops", "0"])
    code, _, err = run_cli(capsys, "separate", write(tmp_path, "b.json", bad_scalar))
    assert code == 2 and "oops" in err

    wrong_dim = dict(PROJECT_FILE, point=["0", "0"])
    code, _, _ = run_cli(capsys, "project", write(tmp_path, "d.json", wrong_dim))
    assert code == 3

    not_json = tmp_path / "x.json"
    not_json.write_text("{", encoding="utf-8")
    code, _, _ = run_cli(capsys, "project", str(not_json))
    assert code == 2

    code, _, _ = run_cli(capsys, "project", str(tmp_path / "missing.json"))
    assert code == 2

    code, _, _ = run_cli(capsys, "laws", "no-such-suite")
    assert code == 2


def test_matrix_dimension_cap(tmp_path, capsys, monkeypatch):
    """A "matN" tag past the cap exits 2 before its N x N phi is built."""
    from idemod.jsonio import MAX_MAT_DIM

    def no_phi(sr):
        raise AssertionError(f"phi built for {sr!r}")

    monkeypatch.setattr(sys.modules["idemod.semiring"], "default_phi", no_phi)
    tag = f"mat{MAX_MAT_DIM + 1}"
    obj = {"semiring": tag, "generators": [], "point": []}
    code, out, err = run_cli(capsys, "project", write(tmp_path, "m.json", obj))
    assert code == 2 and out == "" and str(MAX_MAT_DIM) in err
    path = write(tmp_path, "p.json", PROJECT_FILE)
    code, out, _ = run_cli(capsys, "--semiring", tag, "member", path)
    assert code == 2 and out == ""
    # "²" is a digit to str.isdigit but not to int(); "٣" is a digit to both
    for tag in ("mat²", "mat٣"):
        code, out, _ = run_cli(capsys, "--semiring", tag, "member", path)
        assert code == 2 and out == ""


def _count_calls(monkeypatch, name, *modules):
    """Count the calls of the function ``name`` through each module's binding."""
    calls = []
    for mod in modules:
        def counted(*args, _fn=getattr(mod, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_project_projects_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "project", sys.modules["idemod.cli"],
                         sys.modules["idemod.project"])
    code, out, _ = run_cli(capsys, "project", write(tmp_path, "p.json", PROJECT_FILE))
    assert code == 0 and json.loads(out)["member"] is False
    assert len(calls) == 1


def test_separate_separates_once(tmp_path, capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "separate_from_convex", sys.modules["idemod.cli"],
                         sys.modules["idemod.separate"])
    for point in (["-1", "0"], ["1", "3"]):  # outside, then a generator
        obj = dict(SEPARATE_FILE, point=point)
        code, _, _ = run_cli(capsys, "separate", write(tmp_path, "s.json", obj))
        assert code == 0
    assert len(calls) == 2


HULL_FILE = {
    "grid": {"points": ["-2", "-1", "0", "1/2", "2"], "values": ["3", "0", "1", "+inf", "1/3"]},
    "slopes": ["-2", "-1/2", "0", "1", "4"],
}


def test_hull_sweeps_f_once_and_the_hull_once(tmp_path, capsys, monkeypatch):
    fenchel = sys.modules["idemod.fenchel"]
    swept = []

    def counted(f, slopes, _fn=fenchel._brackets):
        swept.append([scalar_to_text(v) for v in f.values])
        return _fn(f, slopes)

    monkeypatch.setattr(fenchel, "_brackets", counted)
    envelopes = _count_calls(monkeypatch, "_envelope", fenchel)
    single = _count_calls(monkeypatch, "slope_bracket", fenchel)
    code, out, _ = run_cli(capsys, "hull", write(tmp_path, "g.json", HULL_FILE))
    data = json.loads(out)
    assert code == 0 and data["fixed_point"] is True
    assert swept == [HULL_FILE["grid"]["values"], data["hull"]["values"]]
    assert len(envelopes) == 1 and single == []


def test_rational_text_is_strict(tmp_path, capsys):
    """Grid points, slopes and scalars take only [+-]digits[/digits] in ASCII."""
    for bad in ("1e2000000", "1.5", "1_000", " 2 ", "2\n", "٣", "1/-2", "1/0"):
        for obj in (
            dict(HULL_FILE, slopes=[bad]),
            dict(HULL_FILE, grid={"points": [bad, "9"], "values": ["0", "0"]}),
            dict(HULL_FILE, grid={"points": ["0", "9"], "values": [bad, "0"]}),
        ):
            code, out, err = run_cli(capsys, "hull", write(tmp_path, "g.json", obj))
            assert code == 2 and out == "" and "rational" in err, (bad, obj)
    # a JSON integer literal past the 4300 digits that int() converts
    big = tmp_path / "big.json"
    big.write_text('{"grid": {"points": [0, 1], "values": ["0", "0"]}, "slopes": [%s]}'
                   % ("9" * 5000), encoding="utf-8")
    code, out, _ = run_cli(capsys, "hull", str(big))
    assert code == 2 and out == ""
    obj = {"grid": {"points": ["-1", "+0", "007/2"], "values": ["6/4", "-0", "+inf"]},
           "slopes": ["-2/2", "+3"]}
    code, out, _ = run_cli(capsys, "hull", write(tmp_path, "g.json", obj))
    assert code == 0 and json.loads(out)["hull"]["points"] == ["-1", "0", "7/2"]


def test_trials_cap(tmp_path, capsys):
    from idemod.cli import MAX_TRIALS

    assert MAX_TRIALS >= 10_000  # C3 runs residuation at 10^4 trials
    for trials in (-5, 0, MAX_TRIALS + 1, 10**30):
        code, out, err = run_cli(capsys, "laws", "fenchel", "--trials", str(trials))
        assert code == 2 and out == "" and str(MAX_TRIALS) in err
    code, out, _ = run_cli(capsys, "laws", "fenchel", "--trials", "1")
    assert code == 0 and json.loads(out)["trials"] == 1


def test_semiring_override(tmp_path, capsys):
    obj = {"generators": [["e", "eps"]], "point": ["e", "eps"]}
    path = write(tmp_path, "bool.json", obj)
    code, out, _ = run_cli(capsys, "--semiring", "bool", "member", path)
    assert code == 0 and json.loads(out)["member"] is True


def test_dual_command(tmp_path, capsys):
    obj = {"semiring": "rmax", "point": ["2", "-1"]}
    code, out, _ = run_cli(capsys, "dual", write(tmp_path, "d.json", obj))
    data = json.loads(out)
    assert code == 0
    assert data["conj_left"] == ["-2", "1"]
    assert data["closed"] is True


def test_dual_opposite_bracket(tmp_path, capsys):
    obj = {"semiring": "rmax", "point": ["2", "-1"], "bracket": "opposite", "phi": "0"}
    code, out, _ = run_cli(capsys, "dual", write(tmp_path, "d.json", obj))
    assert code == 0 and json.loads(out)["closed"] is True


def test_hilbert_command(tmp_path, capsys):
    obj = {
        "semiring": "rmax",
        "point": ["0", "0"],
        "point2": ["1", "3"],
        "generators": [["0", "0"], ["1", "3"]],
    }
    code, out, _ = run_cli(capsys, "hilbert", write(tmp_path, "h.json", obj))
    data = json.loads(out)
    assert code == 0
    assert data["distance"] == "-2"
    assert data["projection_maximizes"] is True


def test_hull_command(tmp_path, capsys):
    obj = {
        "grid": {"points": ["-1", "0", "1"], "values": ["0", "1", "0"]},
        "slopes": ["-1", "0", "1"],
    }
    code, out, _ = run_cli(capsys, "hull", write(tmp_path, "g.json", obj))
    data = json.loads(out)
    assert code == 0
    assert data["transform"] == ["1", "0", "1"]
    assert data["hull"]["values"] == ["0", "0", "0"]
    assert data["fixed_point"] is True


def test_rowcol_command(tmp_path, capsys):
    obj = {"semiring": "bool", "matrix": [["e", "eps"], ["eps", "e"]]}
    code, out, _ = run_cli(capsys, "rowcol", write(tmp_path, "r.json", obj))
    data = json.loads(out)
    assert code == 0
    assert data["bijective"] is True and data["order_reversing"] is True
    assert len(data["row_space"]) == 4


def test_laws_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "laws", "residuation", "--trials", "30", "--seed", "4")
    data = json.loads(out)
    assert code == 0 and data["ok"] is True and data["checks"] > 0
    # identical seed, identical bytes
    code2, out2, _ = run_cli(capsys, "laws", "residuation", "--trials", "30", "--seed", "4")
    assert code2 == 0 and out2 == out


def test_json_roundtrip_is_reparseable(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "project", write(tmp_path, "p.json", PROJECT_FILE))
    again = canonical_dumps(json.loads(out))
    assert again == out


def test_json_roundtrip_matches_in_memory(tmp_path, capsys):
    """Output parsed back through the schema equals the in-process result."""
    from idemod import RMAX, family, project, vector
    from idemod.jsonio import scalar_from_json, vector_from_json

    _, out, _ = run_cli(capsys, "project", write(tmp_path, "p.json", PROJECT_FILE))
    data = json.loads(out)
    fam = family(RMAX, PROJECT_FILE["generators"])
    res = project(fam, vector(RMAX, PROJECT_FILE["point"]))
    assert vector_from_json(RMAX, data["projection"]) == res.projection
    assert tuple(scalar_from_json(RMAX, c) for c in data["coefficients"]) == res.coefficients


def test_phi_override(tmp_path, capsys):
    obj = {"semiring": "rmax", "point": ["2", "-1"]}
    path = write(tmp_path, "d.json", obj)
    code, out, _ = run_cli(capsys, "dual", path, "--phi", "5")
    assert code == 0
    assert json.loads(out)["conj_left"] == ["3", "6"]  # 5 - x entrywise


def test_hilbert_point_pair_only(tmp_path, capsys):
    obj = {"semiring": "rmax", "point": ["0", "0"], "point2": ["1", "3"]}
    code, out, _ = run_cli(capsys, "hilbert", write(tmp_path, "h.json", obj))
    assert code == 0 and json.loads(out) == {"distance": "-2"}


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "idemod.cli", "laws", "nmax-reflexive"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_python_dash_m_idemod(tmp_path):
    path = write(tmp_path, "g.json", HULL_FILE)
    codes = [
        subprocess.run([sys.executable, "-m", "idemod", *argv], capture_output=True).returncode
        for argv in (["hull", path], ["laws", "fenchel", "--trials", "0"])
    ]
    assert codes == [0, 2]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    cli = sys.modules["idemod.cli"]
    builds = _count_calls(monkeypatch, "build_parser", cli)
    cli._parser.cache_clear()
    path = write(tmp_path, "p.json", PROJECT_FILE)
    for argv in (["project", path], ["member", path], ["laws", "fenchel", "--trials", "1"]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    with pytest.raises(SystemExit):
        main(["project"])
    assert builds == ["build_parser"]


def test_no_state_leaks_between_calls(tmp_path, capsys):
    """A flag given to one call does not reach the next, and neither does a
    usage error."""
    cli = sys.modules["idemod.cli"]
    naturals = {"semiring": "rmax", "generators": [["0", "0"], ["1", "3"]], "point": ["2", "1"]}
    project = write(tmp_path, "p.json", naturals)
    dual = write(tmp_path, "d.json", {"semiring": "rmax", "point": ["2", "-1"]})
    laws = ["laws", "fenchel", "--trials", "3"]
    for flags, argv in (
        (["--semiring", "nmax"], ["project", project]),
        (["--phi", "5"], ["dual", dual]),
        (["--seed", "7"], laws),
    ):
        cli._parser.cache_clear()
        alone = run_cli(capsys, *argv)
        flagged = run_cli(capsys, *flags, *argv)
        assert alone[0] == flagged[0] == 0 and flagged[1] != alone[1], flags
        assert run_cli(capsys, *argv) == alone, flags
    alone = run_cli(capsys, "dual", dual)
    for bad in (["project"], ["--seed", "x", "dual", dual], ["nosuch", dual]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, "dual", dual) == alone, bad


def test_laws_module_loads_only_for_laws():
    probe = ("import sys, idemod.cli as c; "
             "print('idemod.laws' in sys.modules, c._parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.split() == ["False", "0"]
    proc = subprocess.run([sys.executable, "-m", "idemod", "laws", "nosuch"],
                          capture_output=True, text=True)
    from idemod.laws import SUITES

    assert proc.returncode == 2 and proc.stdout == ""
    assert all(name in proc.stderr for name in SUITES)


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    """An unexpected exception is one stderr line and exit 5; a theorem
    violation stays exit 1."""
    cli = sys.modules["idemod.cli"]
    path = write(tmp_path, "p.json", PROJECT_FILE)

    def raises(exc):
        def command(args):
            raise exc
        return command

    monkeypatch.setitem(cli._COMMANDS, "project", raises(RuntimeError("boom\nagain")))
    code, out, err = run_cli(capsys, "project", path)
    assert code == cli.EXIT_INTERNAL == 5 and out == ""
    assert err == "internal error: RuntimeError: boom again\n"
    assert "Traceback" not in err
    monkeypatch.setitem(cli._COMMANDS, "project", raises(TheoremViolation("x")))
    code, _, err = run_cli(capsys, "project", path)
    assert code == 1 and "Traceback" not in err


SCENE = {
    "viewport": ["-3", "6", "-3", "6"],
    "samples_per_axis": 32,
    "generators": [["0", "0"], ["1", "3"], ["3", "4"]],
    "points": [
        {"label": "A", "coords": ["0", "0"]},
        {"label": "B", "coords": ["1", "3"]},
        {"label": "C", "coords": ["3", "4"]},
        {"label": "M", "coords": ["-1", "0"]},
    ],
    "halfspaces": [{"x_ref": ["-1", "0"], "y": ["-1", "0"], "nu": "-1"}],
    "lines": [{"a": ["+", "2"], "b": ["-", "0"], "c": [".", "3"]}],
}


def test_render_classifies_labeled_points(tmp_path, capsys):
    scene = write(tmp_path, "scene.json", SCENE)
    out_svg = str(tmp_path / "scene.svg")
    code, out, _ = run_cli(capsys, "render", scene, "--out", out_svg)
    assert code == 0
    points = json.loads(out)["points"]
    for label in ("A", "B", "C"):
        assert points[label] == {"in_convex": True, "in_halfspace_0": True}
    assert points["M"] == {"in_convex": False, "in_halfspace_0": False}
    svg = open(out_svg, encoding="utf-8").read()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'data-in-convex="false"' in svg
    assert 'marker-end="url(#arrow)"' in svg  # projection arrow from M


def test_render_deterministic_bytes(tmp_path, capsys):
    scene = write(tmp_path, "scene.json", SCENE)
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    assert run_cli(capsys, "render", scene, "--out", a)[0] == 0
    assert run_cli(capsys, "render", scene, "--out", b)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_render_exit_codes(tmp_path, capsys):
    scene = write(tmp_path, "scene.json", SCENE)
    code, _, _ = run_cli(capsys, "render", scene, "--out", str(tmp_path / "no" / "x.svg"))
    assert code == 4
    bad = write(tmp_path, "bad.json", dict(SCENE, samples_per_axis=4))
    code, _, _ = run_cli(capsys, "render", bad, "--out", str(tmp_path / "x.svg"))
    assert code == 2
    huge = write(tmp_path, "huge.json", dict(SCENE, samples_per_axis=10**7))
    code, _, err = run_cli(capsys, "render", huge, "--out", str(tmp_path / "x.svg"))
    assert code == 2 and "samples_per_axis" in err
    code, _, _ = run_cli(capsys, "render", scene)
    assert code == 2


def test_render_scene_lists_checked(tmp_path, capsys):
    """Scene lists must be arrays no longer than the cap; both are checked
    before any entry is parsed, and a failure exits 2."""
    from idemod.render import MAX_SCENE_ITEMS

    out_svg = str(tmp_path / "x.svg")
    bare = {"viewport": ["-3", "6", "-3", "6"], "samples_per_axis": 16, "generators": 5}
    code, out, _ = run_cli(capsys, "render", write(tmp_path, "g.json", bare), "--out", out_svg)
    assert code == 2 and out == ""
    for key in ("generators", "points", "halfspaces", "lines"):
        for bad in (5, "ab", {"0": ["0", "0"]}, None):
            path = write(tmp_path, "bad.json", dict(SCENE, **{key: bad}))
            code, _, err = run_cli(capsys, "render", path, "--out", out_svg)
            assert code == 2 and key in err
        # entries that would not parse: the length is what gets reported
        path = write(tmp_path, "many.json", dict(SCENE, **{key: [7] * (MAX_SCENE_ITEMS + 1)}))
        code, _, err = run_cli(capsys, "render", path, "--out", out_svg)
        assert code == 2 and key in err and str(MAX_SCENE_ITEMS) in err
        full = scene_from_json(dict(SCENE, **{key: SCENE[key][:1] * MAX_SCENE_ITEMS}))
        assert len(getattr(full, key)) == MAX_SCENE_ITEMS


def test_render_empty_scene(tmp_path, capsys):
    scene = write(tmp_path, "empty.json", {"viewport": [-1, 1, -1, 1], "samples_per_axis": 16})
    out_svg = str(tmp_path / "empty.svg")
    code, out, _ = run_cli(capsys, "render", scene, "--out", out_svg)
    assert code == 0
    svg = open(out_svg, encoding="utf-8").read()
    assert "<line" in svg  # axes only
    assert json.loads(out)["points"] == {}


def test_render_pixels_agree_with_exact_predicates(tmp_path, capsys):
    """Re-derive the sampled classification for one row of the raster and
    check the emitted rectangles cover exactly the samples the predicate
    accepts."""
    from idemod import RMAX, family, separate_from_convex, vector
    from idemod.render import render_scene, scene_from_json

    scene = scene_from_json(SCENE)
    svg, _ = render_scene(scene)
    # dark rectangles carry fill #4a4a4a; collect their x-extents per y
    rects = re.findall(
        r'<rect x="([-0-9.]+)" y="([-0-9.]+)" width="([-0-9.]+)" height="([-0-9.]+)" '
        r'fill="#4a4a4a"', svg)
    assert rects, "expected a shaded convex region"
    fam = family(RMAX, [[0, 0], [1, 3], [3, 4]])
    n = scene.samples
    xmin, xmax, ymin, ymax = (Fraction(t) for t in scene.viewport)
    inner = 640 - 2 * 40
    js = [0, n // 3, n // 2, n - 1]
    for j in js:
        v = ymin + (ymax - ymin) * j / (n - 1)
        ypx = float(40 + (1 - (v - ymin) / (ymax - ymin)) * inner)
        row = [r for r in rects if abs(float(r[1]) + float(r[3]) / 2 - ypx) < 0.02]
        covered = []
        for r in row:
            x0, w = float(r[0]), float(r[2])
            covered.append((x0, x0 + w))
        for i in range(n):
            u = xmin + (xmax - xmin) * i / (n - 1)
            xpx = float(40 + (u - xmin) / (xmax - xmin) * inner)
            inside = separate_from_convex(fam, vector(RMAX, [u, v])).member
            drawn = any(x0 - 0.02 <= xpx <= x1 + 0.02 for x0, x1 in covered)
            assert drawn == inside, (i, j)
