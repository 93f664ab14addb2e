#!/usr/bin/env python3
"""Digest the law-suite reports of the CLI.

For each seed and suite, ``idemod laws <suite> --seed S`` runs at its
default trials through ``idemod.cli.main`` in this process, and one sha256
is taken over its stdout and exit code.  For each seed the script prints
one line per suite and one overall ``all:`` digest, so two trees give the
same law reports when they print the same digests:

    PYTHONPATH=src python3 scripts/laws_digest.py --seeds 20260808
    PYTHONPATH=src python3 scripts/laws_digest.py --seeds 4240-4242 residuation fenchel
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys

from idemod import cli
from idemod.laws import SUITES
from ops_mix_digest import parse_seeds  # this script's own directory is on sys.path


def suite_digest(suite: str, seed: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["laws", suite, "--seed", str(seed)])
    return hashlib.sha256(json.dumps([out.getvalue(), code]).encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("suites", nargs="*", default=list(SUITES), help="suites to run (default: all)")
    ap.add_argument("--seeds", default="20260808", help="a seed or an inclusive range, e.g. 1-20")
    args = ap.parse_args()
    for seed in parse_seeds(args.seeds):
        overall = hashlib.sha256()
        for suite in args.suites:
            digest = suite_digest(suite, seed)
            overall.update(digest.encode("ascii"))
            print(f"{suite}: {digest}")
        print(f"all: {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
