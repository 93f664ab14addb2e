#!/usr/bin/env python3
"""Run the idemod benchmark on one workload.

    python3 perfbench/run.py --workload ops-mix --seed 20260808 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``ops-mix``: a seeded stream of CLI requests, run in-process through
  ``idemod.cli.main(argv)``, plus direct ``inf_dominating`` calls;
* ``laws``: every suite of ``idemod.laws.SUITES`` at 1/16 of its default trials;
* ``render``: the README scene and the twelve generic lines.

All load comes from one client in one thread, in a closed loop: the next
call starts when the previous one has returned.  Each measurement runs in a
fresh worker process (perfbench/worker.py), one at a time.  The inputs are
written before any timing starts.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` an untraced and then a traced worker run, and the result holds
the per-layer metrics and the tracing overhead.  Human-readable lines (every
metric with its unit, sample count and quartiles, and the run's context)
come first; the last line is one JSON object.  The exit code is 1 when any
output check failed and 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("ops-mix", "laws", "render")
SETUP_RUNS = 15  # fresh workers timed for setup_s, half before and half after
# the measurement, so that they sample the machine twice; the median is reported
# the highest percentile with at least 10 of ops-mix's 300 calls beyond it
TAIL_QUANTILE = 0.96
RUN_LIMIT_S = 170  # every worker of a run ends within this many seconds

sys.path.insert(0, str(BENCH_DIR))
import inputs  # noqa: E402


def write_inputs(workload: str, seed: int, workdir: pathlib.Path) -> None:
    """Write the workload's input files and manifest.json into workdir."""
    workdir.mkdir(parents=True)
    calls = []
    manifest = {"workload": workload, "seed": seed, "calls": calls}
    if workload == "ops-mix":
        for i, req in enumerate(inputs.ops_mix(seed)):
            path = workdir / f"req{i:04d}.json"
            path.write_text(json.dumps(req["problem"]), encoding="utf-8")
            calls.append({"kind": req["kind"], "path": str(path)})
    elif workload == "render":
        for item in inputs.render_scenes(seed):
            path = workdir / f"{item['name']}.json"
            path.write_text(json.dumps(item["scene"]), encoding="utf-8")
            calls.append({"name": item["name"], "path": str(path)})
    # laws: the worker runs every suite of idemod.laws.SUITES at the seed
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion, killing it at the deadline."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- statistics ----------------------------------------------------------------


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Value at quantile q by nearest rank, and how many samples lie beyond."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload: str, setups: list[float], res: dict) -> dict:
    """name -> (value, unit, note with sample count and quartiles).

    ops_per_s is the work of every pass over the wall time of every pass,
    so every pause inside the timed region counts.  A call's latency is the
    fastest of its repetitions, one per pass: on a shared machine,
    interference only ever adds time, and a median over passes still moves
    with how busy the neighbours were during the run.
    """
    passes = res["durations"]
    rates = [res["units_per_pass"] / sum(times) for times in passes]
    rq1, rq3 = quartiles(rates)
    lat = sorted(min(ts) * 1000 for ts in zip(*passes))
    tail, beyond = nearest_rank(lat, TAIL_QUANTILE)
    lq1, lq3 = quartiles(lat)
    sq1, sq3 = quartiles(setups)
    unit_name = {"ops-mix": "requests", "laws": "law checks", "render": "sample points"}[workload]
    calls = f"n={len(lat)} distinct calls, fastest of {len(passes)} passes each"
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh workers, q1={sq1:.4f} q3={sq3:.4f}"),
        "ops_per_s": (res["units_per_pass"] * len(passes) / sum(map(sum, passes)), "1/s",
                      f"{unit_name}: {res['units_per_pass']} per pass over {len(passes)} passes, "
                      f"per-pass q1={rq1:.1f} q3={rq3:.1f}"),
        "latency_p50_ms": (statistics.median(lat), "ms", f"{calls}, q1={lq1:.3f} q3={lq3:.3f}"),
        "latency_p96_ms": (tail, "ms", f"p96 by nearest rank, {calls}, {beyond} beyond it"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "maximum resident set of the worker"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    m = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
    fastest = {}
    for name, ts in zip(plain["names"], zip(*plain["durations"])):
        fastest.setdefault(name, []).append(min(ts) * 1000)
    for kind in inputs.OPS_WEIGHTS:
        samples = fastest.get(f"ops.{kind}", [0.0])
        m[f"ops.{kind}.p50_ms"] = (statistics.median(samples), "ms")
    pass_plain = statistics.median(sum(times) for times in plain["durations"])
    pass_traced = statistics.median(sum(times) for times in traced["durations"])
    m["trace.overhead_ratio"] = (pass_traced / pass_plain, "ratio")
    return m


def layer_unit(name: str) -> str:
    if "self_s" in name or name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description="idemod benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "idemod" / "__init__.py").is_file():
        print(f"perfbench: no idemod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        write_inputs(args.workload, args.seed, workdir)
        setups = []
        if not args.trace:
            setups += [run_worker(["setup", str(workdir)], deadline)["setup_s"]
                       for _ in range(SETUP_RUNS // 2)]
        plain = run_worker(["measure", str(workdir), "--seconds", str(args.seconds)], deadline)
        if args.trace:
            traced = run_worker(["measure", str(workdir), "--seconds", str(args.seconds),
                                 "--trace"], deadline)
            shutil.copy(workdir / "spans.jsonl",
                        OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(plain, traced)
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            messages = plain["messages"] + traced["messages"]
        else:
            setups += [run_worker(["setup", str(workdir)], deadline)["setup_s"]
                       for _ in range(SETUP_RUNS - len(setups))]
            e2e = end_to_end(args.workload, setups, plain)
            metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
            attempted, failed, messages = plain["attempted"], plain["failed"], plain["messages"]
            for name, (value, unit, note) in e2e.items():
                print(f"{args.workload:8s} {name:16s} {value:14.6f} {unit:4s} {note}")
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:8s} {name:48s} {value:16.6f} {unit}")
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "commit": git_commit(), "inputs": inputs.describe()}
    print("context " + json.dumps(context, sort_keys=True))
    print(f"{args.workload:8s} fail_ratio {failed / attempted:.6f} ({failed} of {attempted} calls "
          "raised or failed a check)")
    for msg in messages:
        print(f"FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
