"""Tests of the benchmark itself: its output checks reject corrupted
outputs, the metric names it prints are the ones BENCHMARK.json declares,
and a one-pass run of each workload passes every check.

    python3 -m pytest perfbench/tests
"""
import json
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import worker  # noqa: E402

worker.add_src_path()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def answer(tmp_path, req: dict) -> str:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(req["problem"]), encoding="utf-8")
    out, _ = worker.ops_call({"kind": req["kind"], "path": str(path)})
    return out


def first_outside(tmp_path, kind: str) -> tuple[dict, dict]:
    """The first request of ``kind`` whose point is outside, and its answer."""
    for req in inputs.ops_mix(inputs.DEFAULT_SEED):
        if req["kind"] == kind:
            out = json.loads(answer(tmp_path, req))
            if not out["member"]:
                return req, out
    raise AssertionError(f"no {kind} request with an outside point")


def test_checker_accepts_a_true_projection_and_rejects_corrupted_ones(tmp_path):
    req, out = first_outside(tmp_path, "project")
    assert worker.check_ops("project", req["problem"], json.dumps(out)) == []
    above = dict(out, projection=["+inf"] * len(out["projection"]))
    assert "projection is not below the point" in worker.check_ops(
        "project", req["problem"], json.dumps(above))
    itself = dict(out, projection=req["problem"]["point"])  # below x, not in the span
    assert "projection is not idempotent" in worker.check_ops(
        "project", req["problem"], json.dumps(itself))


def test_checker_rejects_a_halfspace_holding_the_outside_point(tmp_path):
    req, out = first_outside(tmp_path, "separate")
    out["halfspace"]["nu"] = "+inf"
    out["halfspace"]["y"] = ["+inf"] * len(out["halfspace"]["y"])
    assert worker.check_ops("separate", req["problem"], json.dumps(out))


def render_readme(tmp_path):
    scene = next(s for s in inputs.render_scenes(inputs.DEFAULT_SEED) if s["name"] == "readme")
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(scene["scene"]), encoding="utf-8")
    svg, aux = worker.render_call({"name": "readme", "path": str(path)})
    pinned = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))["render"]["readme"]
    return scene["scene"], svg, aux["classification"], pinned


def test_checker_accepts_the_pinned_svg_and_rejects_a_corrupted_one(tmp_path):
    scene, svg, classification, pinned = render_readme(tmp_path)
    assert worker.check_render(scene, svg, classification, pinned) == []
    assert worker.check_render(scene, svg.replace("#4a4a4a", "#4a4a4b", 1), classification, pinned)
    flipped = svg.replace('data-in-convex="false"', 'data-in-convex="true"')
    assert flipped != svg
    assert worker.check_render(scene, flipped, classification, None)


def run_bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_the_declared_end_to_end_metrics(workload):
    code, result = run_bench(workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_the_declared_per_layer_metrics():
    code, result = run_bench("render", 1)
    assert code == 0 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_a_law_suite_without_a_pinned_digest_fails_its_check():
    report = json.dumps({"suite": "unpinned", "ok": True})
    manifest = {"seed": inputs.DEFAULT_SEED, "calls": [{"name": "unpinned"}]}
    assert "no pinned reference digest" in worker.check_pass("laws", manifest, [report], [{}])[0]
