"""CLI contract: JSON in/out, exit codes, rendering."""
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from idemod import NMAX, RMAX, hilbert_distance, project, projection_maximizes_distance
from idemod.cli import main
from idemod.dual import ROWCOL_CAP
from idemod.errors import TheoremViolation
from idemod.jsonio import MAX_MAT_DIM, canonical_dumps, scalar_json, vector_json
from idemod.render import MAX_LATTICE_BITS, MAX_SAMPLES, MAX_SCENE_ITEMS, scene_from_json
from idemod.semiring import scalar_to_text
from conftest import BENCH_DIR, families, perfbench_module, vectors


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
    def no_phi(sr):
        raise AssertionError(f"phi built for {sr!r}")

    monkeypatch.setattr(sys.modules["idemod.jsonio"], "default_phi", no_phi)
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


def test_hilbert_projects_once(tmp_path, capsys, monkeypatch):
    # every projection folds its span A(A\x) exactly once, whoever calls project
    folds = _count_calls(monkeypatch, "mat_vec", sys.modules["idemod.freemod"])
    code, out, _ = run_cli(capsys, "hilbert", write(tmp_path, "h.json", PROJECT_FILE))
    data = json.loads(out)
    assert code == 0 and data["projection"] == ["-1", "0", "-1"]
    assert data["projection_maximizes"] is True
    assert len(folds) == 1


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(st.sampled_from([RMAX, NMAX]), st.integers(1, 4)).flatmap(
    lambda sd: st.tuples(families(*sd, max_size=5), vectors(*sd))))
def test_hilbert_compares_every_generator_as_the_metric_does(tmp_path, capsys, wx):
    """The CLI takes each generator's distance from the residuals project and
    its dual already hold; its verdict and bound are those of
    projection_maximizes_distance(x, P(x), generators)."""
    w, x = wx
    obj = {"semiring": str(w.semiring), "point": vector_json(x),
           "generators": [vector_json(g) for g in w]}
    code, out, _ = run_cli(capsys, "hilbert", write(tmp_path, "h.json", obj))
    p = project(w, x).projection
    assert code == 0 and json.loads(out) == {
        "projection": vector_json(p),
        "distance_to_projection": scalar_json(hilbert_distance(x, p)),
        "projection_maximizes": projection_maximizes_distance(x, p, list(w)),
    }


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
    """Grid points, slopes and scalars take only [+-]digits[/digits] in ASCII
    (scalars also "-inf" and "+inf", but not a bare "inf")."""
    for bad in ("1e2000000", "1.5", "1_000", " 2 ", "2\n", "٣", "1/-2", "1/0", "inf"):
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


def _run_with_int_limit(limit, *argv):
    """The CLI in a fresh process, with PYTHONINTMAXSTRDIGITS unset (None) or set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    proc = subprocess.run([sys.executable, "-m", "idemod", *argv], capture_output=True,
                          text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_result_past_the_int_text_limit_exits_2(tmp_path):
    """An exact result whose text the interpreter refuses to build (here a
    denominator of about 6 000 digits from two of 3 001) is an input the
    CLI cannot answer: exit 2 with a message naming the limit, not exit 5."""
    d1, d3 = "1/1" + "0" * 2999 + "1", "1/1" + "0" * 2999 + "3"
    for cmd, obj in (
        ("project", {"semiring": "rmax", "generators": [[d1, "0"]], "point": [d3, "5"]}),
        ("hilbert", {"semiring": "rmax", "point": [d1, "0"], "point2": [d3, "5"]}),
    ):
        code, out, err = _run_with_int_limit("4300", cmd, write(tmp_path, "big.json", obj))
        assert code == 2 and out == "" and "4300-digit" in err and err.count("\n") == 1, cmd


def test_scalar_text_digit_limit_ignores_the_environment(tmp_path):
    """A numerator or denominator past MAX_SCALAR_DIGITS exits 2 whatever
    PYTHONINTMAXSTRDIGITS allows, with one short stderr line naming the limit."""
    from idemod.semiring import MAX_SCALAR_DIGITS

    digits = "7" * 5000
    files = [write(tmp_path, f"{i}.json", {"semiring": "rmax", "generators": [["0"]],
                                           "point": [text]})
             for i, text in enumerate((digits, "-" + digits, "1/" + digits))]
    big_int = tmp_path / "int.json"
    big_int.write_text('{"grid": {"points": [0, 1], "values": ["0", "0"]}, "slopes": [%s]}'
                       % digits, encoding="utf-8")
    for limit in (None, "0"):
        for path in files:
            code, out, err = _run_with_int_limit(limit, "project", path)
            assert code == 2 and out == "", (limit, path)
            assert f"more than {MAX_SCALAR_DIGITS} digits" in err and len(err) < 1024
        # a JSON integer that the environment lets json read is held to the same limit
        code, out, err = _run_with_int_limit(limit, "hull", str(big_int))
        assert code == 2 and out == "" and str(MAX_SCALAR_DIGITS) in err and len(err) < 1024


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


def test_dual_command_over_mat2(tmp_path, capsys):
    """Over the noncommutative mat2 each conjugate entry is phi/x_i, the
    greatest y with y x_i <= phi, and not x_i\\phi."""
    obj = {
        "semiring": "mat2",
        "phi": [["0", "-inf"], ["-inf", "0"]],
        "point": [[["1", "-inf"], ["3", "0"]], [["-2", "5"], ["+inf", "-1"]]],
    }
    code, out, _ = run_cli(capsys, "dual", write(tmp_path, "d.json", obj))
    assert code == 0
    assert out == (
        '{"biconjugate":[[["1","-inf"],["+inf","+inf"]],[["+inf","+inf"],["+inf","+inf"]]],'
        '"closed":false,'
        '"conj_left":[[["-1","-inf"],["-inf","-inf"]],[["-inf","-inf"],["-inf","-inf"]]]}\n'
    )


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


def test_hull_refuses_other_semirings(tmp_path, capsys):
    """Grid functions are RMAX-valued: a hull over any other semiring, from
    the file or from --semiring, exits 2 and names the tag."""
    path = write(tmp_path, "g.json", HULL_FILE)
    for tag in ("bool", "nmax", "mat2"):
        tagged = write(tmp_path, f"{tag}.json", dict(HULL_FILE, semiring=tag))
        for argv in (["hull", path, "--semiring", tag], ["hull", tagged]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and f"not {tag}" in err, argv
    tagged = write(tmp_path, "rmax.json", dict(HULL_FILE, semiring="rmax"))
    for argv in (["hull", path, "--semiring", "rmax"], ["hull", tagged]):
        assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("flag,value", [("--semiring", "bool"), ("--semiring", "rmax"), ("--phi", "9")])
def test_render_and_laws_refuse_overrides(tmp_path, capsys, flag, value):
    """render and laws read neither --semiring nor --phi: given either,
    before or after the command, they exit 2 and name the flag, and render
    writes no SVG."""
    scene = write(tmp_path, "scene.json", SCENE)
    out_svg = tmp_path / "scene.svg"
    render = ["render", scene, "--out", str(out_svg)]
    laws = ["laws", "fenchel", "--trials", "2"]
    for argv in (render + [flag, value], [flag, value] + render, laws + [flag, value], [flag, value] + laws):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and f"takes no {flag}" in err, argv
    assert not out_svg.exists()
    assert run_cli(capsys, *render)[0] == run_cli(capsys, *laws, "--seed", "3")[0] == 0


@pytest.mark.parametrize("flag", ["--semiring", "--phi", "--seed", "--out"])
@pytest.mark.parametrize(
    "command", ["project", "member", "separate", "dual", "hilbert", "hull", "rowcol", "laws", "render"]
)
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    """A global flag the command reads runs, before or after the command; any
    other exits 2, names the flag and writes no SVG."""
    reads = {
        "--semiring": command not in ("laws", "render"),
        "--phi": command in ("dual", "rowcol"),
        "--seed": command == "laws",
        "--out": command == "render",
    }[flag]
    files = {
        "project": PROJECT_FILE,
        "member": PROJECT_FILE,
        "separate": SEPARATE_FILE,
        "dual": {"semiring": "rmax", "point": ["2", "-1"]},
        "hilbert": {"semiring": "rmax", "point": ["0", "0"], "point2": ["1", "3"]},
        "hull": HULL_FILE,
        "rowcol": {"semiring": "bool", "matrix": [["e", "eps"], ["eps", "e"]]},
        "render": SCENE,
    }
    out_svg = tmp_path / "x.svg"
    if command == "laws":
        argv = ["laws", "fenchel", "--trials", "2"]
    else:
        argv = [command, write(tmp_path, "f.json", files[command])]
    if command == "render" and flag != "--out":
        argv += ["--out", str(out_svg)]
    boolean = command == "rowcol"
    value = {"--semiring": "bool" if boolean else "rmax", "--phi": "eps" if boolean else "0",
             "--seed": "7", "--out": str(out_svg)}[flag]
    for given in ([flag, value, *argv], [*argv, flag, value]):
        code, out, err = run_cli(capsys, *given)
        if reads:
            assert code == 0 and err == "", given
        else:
            assert code == 2 and out == "" and err == f"error: {command} takes no {flag}\n", given
    assert out_svg.exists() == (reads and flag == "--out")


def test_readme_lists_the_flags_each_command_reads():
    """The README's per-command flag table is cli._READS."""
    readme = (BENCH_DIR.parent / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ((?:`--\w+` ?)+) \|$", cli_section, re.M)
    listed = {command: tuple(re.findall(r"--(\w+)", flags)) for command, flags in rows}
    assert listed == sys.modules["idemod.cli"]._READS


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


def test_laws_failure_record_carries_original_and_steps(capsys, monkeypatch):
    from idemod import RMAX, fin, laws

    def failing(suite, seed, trials):
        report = laws.SuiteReport(suite, seed, trials or 1)
        laws._fail(report, "never", {"a": fin(RMAX, 7)}, lambda c: False)
        return report

    monkeypatch.setattr(laws, "run_suite", failing)
    code, out, _ = run_cli(capsys, "laws", "residuation")
    [failure] = json.loads(out)["failures"]
    assert code == 1 and failure["law"] == "never"
    assert failure["original"] == {"a": repr(fin(RMAX, 7))} != failure["case"]
    assert failure["steps"] >= 1 and sorted(failure) == ["case", "law", "original", "steps"]


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


def test_scalar_messages_name_what_was_written(tmp_path, capsys):
    """A matN scalar given as a number or a finite text, and a fraction over
    nmax, exit 2 with a message about the input, not about library calls."""
    mat = {"semiring": "mat2", "point": ["-inf", "+inf"]}
    rmax = write(tmp_path, "r.json", {"semiring": "rmax", "point": ["2", "-1"]})
    for argv in (
        ("dual", write(tmp_path, "m.json", dict(mat, phi=3))),
        ("dual", write(tmp_path, "m.json", dict(mat, phi="3"))),
        ("--semiring", "mat2", "dual", rmax, "--phi", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "mat2 scalars are 2x2 arrays" in err, argv
        assert "mat_of" not in err
    for phi in ("-inf", "+inf"):
        code, _, _ = run_cli(capsys, "dual", write(tmp_path, "m.json", dict(mat, phi=phi)))
        assert code == 0
    nmax = write(tmp_path, "n.json", {"semiring": "nmax", "point": ["1/2", "1"]})
    code, out, err = run_cli(capsys, "dual", nmax)
    assert code == 2 and out == "" and "1/2 is not in the natural carrier" in err
    assert "Fraction" not in err


def test_natural_carrier_message_is_bounded(tmp_path, capsys):
    """A negative nmax entry of MAX_SCALAR_DIGITS digits exits 2 with one
    short stderr line: past ECHO_CHARS characters the value is cut."""
    from idemod.semiring import MAX_SCALAR_DIGITS

    point = ["-" + "7" * MAX_SCALAR_DIGITS]
    path = write(tmp_path, "n.json", {"semiring": "nmax", "generators": [["0"]], "point": point})
    code, out, err = run_cli(capsys, "project", path)
    assert code == 2 and out == "" and "is not in the natural carrier" in err
    assert len(err.encode("utf-8")) < 200 and err.count("\n") == 1


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
        items = SCENE[key][:1] * MAX_SCENE_ITEMS
        if key == "points":  # a label may be used once
            items = [dict(p, label=f"P{i}") for i, p in enumerate(items)]
        full = scene_from_json(dict(SCENE, **{key: items}))
        assert len(getattr(full, key)) == MAX_SCENE_ITEMS


def test_render_lattice_cap(tmp_path, capsys):
    """A scene whose denominators are pairwise coprime, the Fermat numbers
    2^(2^i) + 1 up to F13 (2467 digits, within int()'s 4300), exits 2 at
    once; the benchmark's render scenes are admitted."""
    fermat = [2 ** 2 ** i + 1 for i in range(14)]
    gens = [[f"1/{a}", f"-1/{b}"] for a, b in zip(fermat[::2], fermat[1::2])]
    path = write(tmp_path, "coprime.json", dict(SCENE, samples_per_axis=MAX_SAMPLES, generators=gens))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "render", path, "--out", str(tmp_path / "x.svg"))
    assert time.monotonic() - t0 < 1.0
    assert code == 2 and out == "" and str(MAX_LATTICE_BITS) in err
    inputs = perfbench_module("inputs")
    for item in inputs.render_scenes(inputs.DEFAULT_SEED):
        scene_from_json(item["scene"])


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


@pytest.mark.parametrize("command", ["project", "render"])
def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys, command):
    """Nesting past the recursion limit exits 2 like any other invalid JSON."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    out_flag = ["--out", str(tmp_path / "x.svg")] if command == "render" else []
    code, out, err = run_cli(capsys, command, str(deep), *out_flag)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "invalid JSON" in err


def test_render_escapes_labels(tmp_path, capsys):
    """Labels are text inside <text>: the SVG parses and reads them back,
    and the JSON classification keys the raw labels."""
    import xml.etree.ElementTree as ET

    labels = ["a<b&c", "<script>x</script>"]
    scene = dict(SCENE, points=[
        {"label": labels[0], "coords": ["-1", "0"]},
        {"label": labels[1], "coords": ["1", "3"]},
    ])
    out_svg = str(tmp_path / "x.svg")
    code, out, _ = run_cli(capsys, "render", write(tmp_path, "s.json", scene), "--out", out_svg)
    assert code == 0
    assert sorted(json.loads(out)["points"]) == sorted(labels)
    root = ET.parse(out_svg).getroot()
    svg_ns = "{http://www.w3.org/2000/svg}"
    assert [t.text for t in root.iter(svg_ns + "text")] == labels
    assert not list(root.iter(svg_ns + "script"))
    # a lone surrogate cannot be written as UTF-8, a control character not as XML
    for bad in ("\ud800", "a\x01b"):
        scene = dict(SCENE, points=[{"label": bad, "coords": ["-1", "0"]}])
        code, out, err = run_cli(capsys, "render", write(tmp_path, "s.json", scene), "--out", out_svg)
        assert code == 2 and out == "" and "label" in err


@pytest.mark.parametrize("labels", [["A", "A"], [1, "1"]], ids=["same", "same-str"])
def test_render_rejects_repeated_labels(tmp_path, capsys, labels):
    """The JSON classification is keyed by str(label), so a label used twice
    would keep one entry for two drawn points."""
    scene = dict(SCENE, points=[
        {"label": labels[0], "coords": ["0", "0"]},
        {"label": labels[1], "coords": ["5", "-2"]},
    ])
    out_svg = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, "render", write(tmp_path, "s.json", scene), "--out", str(out_svg))
    assert code == 2 and out == "" and "twice" in err
    assert not out_svg.exists()


def test_render_skips_points_too_far_out_to_draw(tmp_path, capsys):
    """A finite point whose pixel coordinate overflows a float is classified
    but, like a point at infinity, not drawn."""
    far = str(10**400)
    scene = dict(SCENE, generators=SCENE["generators"] + [[far, "0"]],
                 points=[{"label": "F", "coords": ["0", far]}])
    out_svg = str(tmp_path / "x.svg")
    code, out, err = run_cli(capsys, "render", write(tmp_path, "s.json", scene), "--out", out_svg)
    assert code == 0, err
    assert json.loads(out)["points"]["F"]["in_convex"] is False
    svg = open(out_svg, encoding="utf-8").read()
    assert "<text" not in svg and svg.count("<circle") == len(SCENE["generators"])


# -- fuzzing the commands that read a file ------------------------------------


class _Raw(str):
    """JSON text spliced into a document as it stands."""


def _dumps(obj) -> str:
    # json.dumps, except that _Raw text goes in verbatim: int literals past
    # the 4300-digit limit and nesting past the recursion limit
    if isinstance(obj, _Raw):
        return obj
    if isinstance(obj, list):
        return "[" + ",".join(map(_dumps, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in obj.items()) + "}"
    return json.dumps(obj)


_INFINITIES = st.sampled_from([float("inf"), float("-inf"), "+inf", "-inf", "inf", "Infinity"])
_HUGE = st.sampled_from([
    _Raw("9" * 4301), _Raw("-" + "9" * 5000), 10**400, str(10**400), f"1/{10**400}", _Raw("1e400"),
])
_DEEP = st.sampled_from([_Raw("[" * 100_000), _Raw('{"a":' * 100_000), _Raw("[" * 300 + "]" * 300)])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["1_000", "0x1", " 2", "", "1/0", "eps", "e"]) | _INFINITIES | _HUGE | _DEEP,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_RATIONALS = st.sampled_from(["0", "1", "-3", "7/4", "-1/2", 2, -5])
_TEXTS = {
    "rmax": _RATIONALS | st.sampled_from(["+inf", "-inf"]),
    "nmax": st.sampled_from(["0", "1", "3", 2, "+inf", "-inf"]),
    "bool": st.sampled_from(["eps", "e"]),
}


def _lists(elements, cap, least=0, unique_by=None):
    # short lists, and lists right at the cap and one past it
    sizes = st.sampled_from([n for n in (0, 1, 2, 3) if n >= least] + [cap, cap + 1])
    return sizes.flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n, unique_by=unique_by))


def _ascending(elements, least, most):
    return st.lists(elements, min_size=least, max_size=most, unique_by=Fraction).map(
        lambda qs: sorted(qs, key=Fraction))


def _problems(tag):
    n = int(tag[3:]) if tag.startswith("mat") else 0
    scalar = _TEXTS["rmax"].map(lambda t: [[t] * n] * n) if n else _TEXTS[tag]

    def of_dim(d):
        vector = st.lists(scalar, min_size=d, max_size=d)
        family = st.lists(vector, max_size=3)
        return st.fixed_dictionaries({
            "semiring": st.just(tag),
            "point": vector,
            "generators": family,
            "convex": family,
            "matrix": _lists(_lists(scalar, ROWCOL_CAP, 1) if tag == "bool" else vector,
                             ROWCOL_CAP, 1),
            "grid": st.integers(2, 4).flatmap(lambda m: st.fixed_dictionaries({
                "points": _ascending(_RATIONALS, m, m),
                "values": st.lists(_TEXTS["rmax"], min_size=m, max_size=m),
            })),
            "slopes": _ascending(_RATIONALS, 1, 4),
        }, optional={
            "phi": scalar,
            "point2": vector,
            "bracket": st.sampled_from(["canonical", "matrix", "opposite"]),
        })

    return st.integers(1, 3).flatmap(of_dim)


_POINT = st.lists(_TEXTS["rmax"], min_size=2, max_size=2)
_LABELS = st.text(max_size=4) | st.sampled_from(["a<b&c", "\ud800", "a\x01b"])
_SCENES = st.fixed_dictionaries(
    {
        "viewport": st.tuples(*[_ascending(_RATIONALS, 2, 2)] * 2).map(lambda xy: xy[0] + xy[1]),
        # never the default of 400: scenes at the list caps take seconds there
        "samples_per_axis": st.sampled_from([15, 16, 17, 24, MAX_SAMPLES + 1]),
    },
    optional={
        "generators": _lists(_POINT, MAX_SCENE_ITEMS),
        # labels differ, or the scene stops at its second use of one
        "points": _lists(st.fixed_dictionaries({"label": _LABELS, "coords": _POINT}),
                         MAX_SCENE_ITEMS, unique_by=lambda p: p["label"]),
        "halfspaces": _lists(st.fixed_dictionaries({"x_ref": _POINT, "y": _POINT,
                                                    "nu": _TEXTS["rmax"]}), MAX_SCENE_ITEMS),
        "lines": _lists(st.fixed_dictionaries({
            k: st.tuples(st.sampled_from(["+", "-", "."]), _TEXTS["rmax"]).map(list) for k in "abc"
        }), MAX_SCENE_ITEMS),
    },
)


def _slots(doc):
    # every (container, key) pair inside a document
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


def _with_one_slot_replaced(docs):
    """Documents, each either as drawn or with one slot (a field, an entry or
    the whole document) replaced by junk: wrong types, deep nesting, huge
    integer literals, infinities."""
    def replace(drawn):
        doc, pick, junk = drawn
        slots = list(_slots(doc))
        if pick is None:
            return doc
        if pick >= len(slots):
            return junk
        container, key = slots[pick]
        container[key] = junk
        return doc

    return st.tuples(docs, st.none() | st.integers(0, 40), _JUNK).map(replace)


_TAGS = ["rmax", "nmax", "bool", "mat2", f"mat{MAX_MAT_DIM}", f"mat{MAX_MAT_DIM + 1}"]
_FILE_COMMANDS = ["project", "member", "separate", "dual", "hilbert", "hull", "rowcol"]
_FUZZ_CASES = st.one_of(
    st.tuples(st.sampled_from(_FILE_COMMANDS),
              _with_one_slot_replaced(st.sampled_from(_TAGS).flatmap(_problems))),
    # rowcol runs on Boolean matrices only
    st.tuples(st.just("rowcol"), _with_one_slot_replaced(_problems("bool"))),
    st.tuples(st.just("render"), _with_one_slot_replaced(_SCENES)),
)


@settings(max_examples=150, derandomize=True, suppress_health_check=list(HealthCheck))
@given(_FUZZ_CASES)
def test_fuzzed_files_exit_cleanly(tmp_path, capsys, command_and_doc):
    """Malformed problem and scene files end in exit 0, 2 or 3 with at most
    one stderr line and no traceback, within a time bound."""
    command, doc = command_and_doc
    path = tmp_path / "fuzz.json"
    path.write_text(_dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    out_flag = ["--out", str(tmp_path / "fuzz.svg")] if command == "render" else []
    code, _, err = run_cli(capsys, command, str(path), *out_flag)
    assert time.perf_counter() - start < 5, "one file took more than 5 s"
    assert code in (0, 2, 3), err
    assert "Traceback" not in err and err.count("\n") <= 1


def test_ops_mix_pass_matches_benchmark_pin(tmp_path, monkeypatch):
    """One pass over the benchmark's ops-mix requests at its default seed
    prints the bytes the benchmark pins."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # worker.py imports inputs by name
    run, worker = perfbench_module("run"), perfbench_module("worker")
    workdir = tmp_path / "ops-mix"
    run.write_inputs("ops-mix", run.inputs.DEFAULT_SEED, workdir)
    calls = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))["calls"]
    answers = "".join(worker.ops_call(entry)[0] for entry in calls)
    pins = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    assert len(calls) == 300
    assert hashlib.sha256(answers.encode("utf-8")).hexdigest() == pins["ops-mix"]
