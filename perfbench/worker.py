"""Benchmark worker: one fresh interpreter per measurement.

Run by run.py, never by hand:

    python3 perfbench/worker.py setup   <workdir>
    python3 perfbench/worker.py measure <workdir> --seconds S [--trace]

``<workdir>`` holds ``manifest.json`` and the input files run.py wrote.
``setup`` times importing idemod and idemod.cli and parsing the inputs.
``measure`` repeats whole passes over the inputs in a closed loop with one
client until ``S`` seconds have passed, then checks every output outside
the timed region.  Both print one JSON object as their last line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import random
import re
import resource
import sys
import time

from inputs import DEFAULT_SEED, LAWS_TRIALS_DIVISOR  # pure Python: imports no idemod

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"


def add_src_path() -> None:
    """Make the checkout's own idemod importable, and only that one."""
    src = ROOT / "src"
    if not (src / "idemod" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no idemod sources under {src}")
    sys.path.insert(0, str(src))


def mod(name: str):
    # through sys.modules: the package rebinds some submodule names (for
    # example ``idemod.project`` is the function), and the tracer patches
    # the module namespaces, so look functions up at call time
    return importlib.import_module(f"idemod.{name}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CallFailed(Exception):
    pass


# -- one call of each workload -------------------------------------------------


def ops_call(entry: dict) -> tuple[str, dict]:
    kind, path = entry["kind"], entry["path"]
    if kind == "dominating":
        jsonio = mod("jsonio")
        p = jsonio.problem_from_json(jsonio.load_json(path))
        q, member = mod("project").inf_dominating(p.generators, p.point)
        return jsonio.canonical_dumps({"inf": jsonio.vector_json(q), "member": member}), {}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mod("cli").main([kind, path])
    if code != 0:
        raise CallFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue(), {}


def laws_report_json(report) -> str:
    # the fields and the serialisation of `idemod laws <suite>`
    out = {
        "suite": report.suite,
        "seed": report.seed,
        "trials": report.trials,
        "checks": report.checks,
        "ok": report.ok,
        "notes": report.notes,
        "failures": [{"law": f.law, "case": f.case} for f in report.failures],
    }
    return json.dumps(out, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def laws_call(entry: dict) -> tuple[str, dict]:
    report = mod("laws").run_suite(entry["name"], seed=entry["seed"], trials=entry["trials"])
    return laws_report_json(report), {"checks": report.checks}


def render_call(entry: dict) -> tuple[str, dict]:
    render = mod("render")
    scene = render.scene_from_json(mod("jsonio").load_json(entry["path"]))
    svg, classification = render.render_scene(scene)
    return svg, {"classification": classification, "samples": scene.samples**2}


CALLS = {"ops-mix": ops_call, "laws": laws_call, "render": render_call}


def call_name(workload: str, entry: dict) -> str:
    if workload == "ops-mix":
        return f"ops.{entry['kind']}"
    return f"{workload}.{entry['name']}"


# -- output checks (outside the timed region) --------------------------------


def _vec(sr, obj):
    return mod("jsonio").vector_from_json(sr, obj)


def check_ops(kind: str, problem_obj: dict, output: str) -> list[str]:
    """Oracle checks of one ops-mix answer; returns the problems found."""
    fm, pr, se = mod("freemod"), mod("project"), mod("separate")
    p = mod("jsonio").problem_from_json(problem_obj)
    out = json.loads(output)
    bad = []

    def projection_ok(fam, x, proj) -> None:
        if not fm.vec_leq(proj, x):
            bad.append("projection is not below the point")
        if pr.project(fam, proj).projection != proj:
            bad.append("projection is not idempotent")

    if kind == "project":
        proj = _vec(p.semiring, out["projection"])
        projection_ok(p.generators, p.point, proj)
        if out["member"] != (proj == p.point):
            bad.append("member flag disagrees with the projection")
    elif kind == "member":
        if out["member"] != (pr.project(p.generators, p.point).projection == p.point):
            bad.append("member flag disagrees with the projection")
    elif kind == "hilbert":
        if "projection" in out:
            projection_ok(p.generators, p.point, _vec(p.semiring, out["projection"]))
            if out["projection_maximizes"] is not True:
                bad.append("projection does not maximise the distance")
    elif kind == "separate":
        h = out["halfspace"]
        jsonio = mod("jsonio")
        space = se.HalfSpace(_vec(p.semiring, h["x_ref"]), _vec(p.semiring, h["y"]),
                             jsonio.scalar_from_json(p.semiring, h["nu"]))
        if any(not se.halfspace_contains(space, g) for g in p.convex):
            bad.append("half-space misses a generator")
        if not out["member"] and se.halfspace_contains(space, p.point):
            bad.append("half-space holds the outside point")
        if out["member"] and space.x_ref != p.point:
            bad.append("half-space reference is not the point")
    elif kind == "dual":
        du = mod("dual")
        back = _vec(p.semiring, out["biconjugate"])
        if out["closed"] != (back == p.point):
            bad.append("closed flag disagrees with the biconjugate")
        cfg = du.DualPairConfig(p.bracket, p.phi, p.matrix if p.bracket == "matrix" else None)
        if du.conj_right(cfg, du.conj_left(cfg, back)) != back:
            bad.append("biconjugate is not closed")
    elif kind == "hull":
        fe, sr = mod("fenchel"), mod("semiring")
        hull = mod("jsonio").grid_from_json(out["hull"])
        if any(not sr.leq(a, b) for a, b in zip(hull.values, p.grid.values)):
            bad.append("hull exceeds the function")
        if fe.lsc_convex_hull(hull, p.slopes) != hull:
            bad.append("hull is not idempotent")
        if out["fixed_point"] is not True:
            bad.append("biconjugate is not a fixed point")
    elif kind == "rowcol":
        if out["bijective"] is not True or out["order_reversing"] is not True:
            bad.append("row/column map is not an order-reversing bijection")
    elif kind == "dominating":
        q = _vec(p.semiring, out["inf"])
        if not fm.vec_leq(p.point, q):
            bad.append("dominating meet is below the point")
        if out["member"] != pr.is_member(p.generators, q):
            bad.append("member flag of the dominating meet is wrong")
    return bad


_DATA_ATTR = re.compile(r'<circle [^>]*?(data-[^/]*)/>')


def check_render(scene_obj: dict, svg: str, classification: dict, pinned: str | None) -> list[str]:
    """Labelled points classified as separate_from_convex says, in the
    result and in the SVG, and the SVG bytes equal the pinned digest."""
    render, se, fm = mod("render"), mod("separate"), mod("freemod")
    scene = render.scene_from_json(scene_obj)
    bad = []
    if pinned is not None and sha256(svg) != pinned:
        bad.append("SVG differs from the pinned reference")
    if scene.generators:
        fam = fm.GeneratingFamily(scene.generators[0].semiring, 2, tuple(scene.generators))
        for label, p in scene.points:
            member = se.separate_from_convex(fam, p).member
            if classification.get(label, {}).get("in_convex") != member:
                bad.append(f"point {label} misclassified")
    drawn = [m.group(1) for m in _DATA_ATTR.finditer(svg)]
    for (label, _), attrs in zip(scene.points, drawn):
        want = "true" if classification.get(label, {}).get("in_convex") else "false"
        if scene.generators and f'data-in-convex="{want}"' not in attrs:
            bad.append(f"SVG marks point {label} differently")
    return bad


def load_reference(workload: str, seed: int):
    """Pinned digests that apply to this run: ops-mix is pinned at the
    default seed only; law suites always run at the pinned seed, and render
    scenes do not depend on the seed."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if workload == "ops-mix" and seed != ref["seed"]:
        return None
    return ref[workload]


def check_pass(workload: str, manifest: dict, outputs: list, aux: list) -> list[list[str]]:
    """Problems found in each call's output of one pass.  A law suite or a
    render scene without a pinned digest fails its check."""
    calls = manifest["calls"]
    ref = load_reference(workload, manifest["seed"])
    found: list[list[str]] = [[] for _ in calls]
    for i, (entry, out) in enumerate(zip(calls, outputs)):
        if out is None:
            continue
        if workload == "ops-mix":
            problem = json.loads(pathlib.Path(entry["path"]).read_text(encoding="utf-8"))
            found[i] += check_ops(entry["kind"], problem, out)
            continue
        pinned = ref.get(entry["name"])
        if pinned is None:
            found[i].append("no pinned reference digest")
        if workload == "laws":
            if not json.loads(out)["ok"]:
                found[i].append("law suite reported a violation")
            if pinned is not None and sha256(out) != pinned:
                found[i].append("law report differs from the pinned reference")
        else:
            scene_obj = json.loads(pathlib.Path(entry["path"]).read_text(encoding="utf-8"))
            found[i] += check_render(scene_obj, out, aux[i]["classification"], pinned)
    if workload == "ops-mix" and ref is not None and None not in outputs:
        if sha256("".join(outputs)) != ref:
            for problems in found:
                problems.append("ops-mix outputs differ from the pinned reference")
    return found


# -- modes ---------------------------------------------------------------------


def setup(workdir: pathlib.Path) -> dict:
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    add_src_path()
    t0 = time.perf_counter()
    importlib.import_module("idemod")
    importlib.import_module("idemod.cli")
    jsonio, render = mod("jsonio"), mod("render")
    for entry in manifest["calls"]:
        if manifest["workload"] == "ops-mix":
            jsonio.problem_from_json(jsonio.load_json(entry["path"]))
        elif manifest["workload"] == "render":
            render.scene_from_json(jsonio.load_json(entry["path"]))
    return {"setup_s": time.perf_counter() - t0}


def measure(workdir: pathlib.Path, seconds: float, trace: bool) -> dict:
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    workload = manifest["workload"]
    add_src_path()
    importlib.import_module("idemod")
    importlib.import_module("idemod.cli")
    calls = manifest["calls"]
    if workload == "laws":
        # every suite at the acceptance seed of tests/test_acceptance.py and a
        # fraction of its default trials; the benchmark's seed only orders them
        suites = mod("laws").SUITES
        calls = manifest["calls"] = [
            {"name": name, "seed": DEFAULT_SEED, "trials": max(1, trials // LAWS_TRIALS_DIVISOR)}
            for name, (_, trials) in suites.items()
        ]
        random.Random(manifest["seed"]).shuffle(calls)
    names = [call_name(workload, e) for e in calls]
    run = CALLS[workload]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    durations: list[list[float]] = []
    first: list | None = None
    first_aux: list = []
    mismatched = [0] * len(calls)
    raised: list[str | None] = [None] * len(calls)
    units = 0
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        times, outputs, aux = [], [], []
        for i, entry in enumerate(calls):
            if tracer is not None:
                tracer.request = i
                tracer.open_span(names[i])
            t0 = time.perf_counter()
            try:
                out, extra = run(entry)
            except Exception as exc:  # every failure is counted, not fatal
                out, extra = None, {}
                raised[i] = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close_span(names[i])
            outputs.append(out)
            aux.append(extra)
        durations.append(times)
        if first is None:
            first, first_aux = outputs, aux
            units = pass_units(workload, aux, len(calls))
        else:
            for i, out in enumerate(outputs):
                mismatched[i] += out != first[i]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = layer_metrics(tracer, workload, calls, first, first_aux, len(durations)) if tracer else None

    problems = check_pass(workload, manifest, first, first_aux)
    failed, messages = 0, []
    passes = len(durations)
    for i in range(len(calls)):
        why = list(problems[i])
        if raised[i] is not None:
            why.append(raised[i])
        if why:
            failed += passes
            messages.append(f"{names[i]}: {'; '.join(why)}")
        elif mismatched[i]:
            failed += mismatched[i]
            messages.append(f"{names[i]}: output changed between passes")
    result = {
        "names": names,
        "durations": durations,
        "units_per_pass": units,
        "attempted": passes * len(calls),
        "failed": failed,
        "messages": messages[:20],
        "peak_rss_mb": peak_rss_mb,
        "digests": [None if out is None else sha256(out) for out in first],
        "pass_digest": None if None in first else sha256("".join(first)),
    }
    if tracer is not None:
        result["layers"] = layers
        tracer.write_spans(workdir / "spans.jsonl")
    return result


def pass_units(workload: str, aux: list, ncalls: int) -> int:
    """Work in one pass: requests, law checks or rendered sample points."""
    if workload == "laws":
        return sum(a.get("checks", 0) for a in aux)
    if workload == "render":
        return sum(a.get("samples", 0) for a in aux)
    return ncalls


def layer_metrics(tracer, workload, calls, outputs, aux, passes: int) -> dict:
    """Per-layer counts and self times, per pass, from the traced run."""
    from tracer import (CLI_KINDS, ERROR_MODULES, FREEMOD_FNS, JSONIO_FNS, OPERATOR_FNS,
                        SEMIRING_KINDS, SEMIRING_OPS)

    t = tracer
    m: dict[str, float] = {}
    per = 1.0 / passes
    for kind in SEMIRING_KINDS:
        m[f"semiring.calls.{kind}"] = t.kind_calls[kind] * per
        m[f"semiring.self_s.{kind}"] = t.kind_self_s[kind] * per
    m["semiring.fin.calls"] = t.calls["semiring.fin"] * per
    m["semiring.self_s"] = sum(t.self_s[f"semiring.{op}"] for op in SEMIRING_OPS + ("fin",)) * per
    fns = [("freemod", fn) for fn in FREEMOD_FNS]
    fns += [(mod_, fn) for mod_, group in OPERATOR_FNS.items() for fn in group]
    fns += [("jsonio", fn) for fn in JSONIO_FNS] + [("render", "scene_from_json")]
    for module, fn in fns:
        m[f"{module}.{fn}.calls"] = t.calls[f"{module}.{fn}"] * per
        m[f"{module}.{fn}.self_s"] = t.self_s[f"{module}.{fn}"] * per
    for suite in mod("laws").SUITES:
        name = f"laws.{suite}"
        m[f"{name}.s"] = sum(s[2] - s[1] for s in t.spans if s[0] == name) * per
        m[f"{name}.checks"] = sum(a.get("checks", 0) for e, a in zip(calls, aux)
                                  if e.get("name") == suite)
    m["render.render_scene.self_s"] = t.self_s["render.render_scene"] * per
    m["render.samples"] = sum(a.get("samples", 0) for a in aux)
    m["render.svg_bytes"] = (sum(len(o.encode()) for o in outputs if o) if workload == "render"
                             else 0)
    # input files read and canonical JSON written; laws reads and writes none
    m["jsonio.bytes_in"] = sum(pathlib.Path(e["path"]).stat().st_size for e in calls if "path" in e)
    m["jsonio.bytes_out"] = (sum(len(o.encode()) for o in outputs if o) if workload == "ops-mix"
                             else 0)
    for kind in CLI_KINDS:
        m[f"cli.cmd_{kind}.self_s"] = t.self_s[f"cli.cmd_{kind}"] * per
    for module in ERROR_MODULES:
        m[f"{module}.errors"] = t.errors[module] * per
    m["cli.cmd_project.project_calls"] = calls_under(t.spans, "project.project", "cli.cmd_project")
    m["cli.cmd_separate.separate_calls"] = calls_under(
        t.spans, "separate.separate_from_convex", "cli.cmd_separate")
    m["trace.spans"] = len(t.spans) * per
    return m


def calls_under(spans: list, fn: str, cmd: str) -> float:
    """Calls of ``fn`` made inside one ``cmd`` span, on average."""
    inside = 0
    for span in spans:
        if span[0] != fn:
            continue
        parent = span[3]
        while parent >= 0 and not spans[parent][0].startswith("cli."):
            parent = spans[parent][3]
        inside += parent >= 0 and spans[parent][0] == cmd
    cmds = sum(span[0] == cmd for span in spans)
    return inside / cmds if cmds else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("workdir", type=pathlib.Path)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.mode == "setup":
        result = setup(args.workdir)
    else:
        result = measure(args.workdir, args.seconds, args.trace)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
