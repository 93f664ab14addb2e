#!/usr/bin/env python3
"""Check, or pin again, the output digests the benchmark relies on.

    python3 perfbench/references.py           # check; exit 1 on any mismatch
    python3 perfbench/references.py --write   # pin again after an intended change

reference.json holds the sha256 of every workload's outputs at the default
seed: the concatenated CLI stdout of one ops-mix pass, each law report, and
each render scene's SVG at inputs.RENDER_SAMPLES (render scenes do not
depend on the seed).  Every benchmark run compares against it.

svg_gate.json holds the sha256 of the SVG that ``idemod render`` writes for
the README scene at 400 samples per axis, and of the twelve SVGs that
scripts/render_generic_lines.py writes at its default size.  A change to
rendering must reproduce them byte for byte.  Checking them takes about half
a minute; no benchmark run does it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import inputs  # noqa: E402
import run  # noqa: E402

REFERENCE = BENCH_DIR / "reference.json"
SVG_GATE = BENCH_DIR / "svg_gate.json"
README_SAMPLES = 400


def file_digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def workload_digests() -> dict:
    ref = {"seed": inputs.DEFAULT_SEED}
    for workload in run.WORKLOADS:
        workdir = run.OUT_DIR / f"ref-{workload}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.write_inputs(workload, inputs.DEFAULT_SEED, workdir)
            res = run.run_worker(["measure", str(workdir), "--seconds", "0"],
                                 time.monotonic() + 900)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if workload == "ops-mix":
            ref[workload] = res["pass_digest"]
        else:
            prefix = len(workload) + 1
            ref[workload] = {n[prefix:]: d for n, d in zip(res["names"], res["digests"])}
    return ref


def svg_digests() -> dict:
    workdir = run.OUT_DIR / f"svg-gate-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        scene = json.loads(inputs.README_SCENE.read_text(encoding="utf-8"))
        scene["samples_per_axis"] = README_SAMPLES
        (workdir / "readme.json").write_text(json.dumps(scene), encoding="utf-8")
        subprocess.run([sys.executable, "-m", "idemod.cli", "render", str(workdir / "readme.json"),
                        "--out", str(workdir / "readme.svg")],
                       cwd=ROOT, env=env, check=True, capture_output=True, timeout=600)
        subprocess.run([sys.executable, str(ROOT / "scripts" / "render_generic_lines.py"),
                        "--outdir", str(workdir / "lines")],
                       cwd=ROOT, env=env, check=True, capture_output=True, timeout=600)
        lines = sorted((workdir / "lines").glob("*.svg"))
        return {
            f"readme_{README_SAMPLES}": file_digest(workdir / "readme.svg"),
            "generic_lines": {p.name: file_digest(p) for p in lines},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="pin the current outputs")
    args = ap.parse_args()
    fresh = {REFERENCE: workload_digests(), SVG_GATE: svg_digests()}
    status = 0
    for path, digests in fresh.items():
        text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
        if args.write:
            path.write_text(text, encoding="utf-8")
            print("wrote", path.relative_to(ROOT))
        elif json.loads(path.read_text(encoding="utf-8")) != digests:
            print("MISMATCH", path.relative_to(ROOT))
            status = 1
        else:
            print("ok", path.relative_to(ROOT))
    return status


if __name__ == "__main__":
    sys.exit(main())
