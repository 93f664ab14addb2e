#!/usr/bin/env python3
"""Digest the CLI's answers to the benchmark's ops-mix requests.

For each seed, every request of ``perfbench/inputs.ops_mix(seed)`` runs
through ``idemod.cli.main`` in this process, and one sha256 is taken over
(kind, stdout, stderr, exit code) of all of them.  The ``dominating``
requests have no CLI command; they run through ``inf_dominating`` and
contribute its canonical JSON answer (or the exception) in the same way.
The script prints one line per seed, one line per request kind (a sha256
over that kind's requests of every seed, in order) and one overall digest,
so two trees behave the same on these requests when they print the same
digests, and a change to one operator can be shown to leave its own
requests' answers byte-identical by that kind's line:

    PYTHONPATH=src python3 scripts/ops_mix_digest.py --seeds 1-20
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py: pure Python, imports no idemod)

from idemod import cli, inf_dominating  # noqa: E402
from idemod.jsonio import canonical_dumps, load_json, problem_from_json, vector_json  # noqa: E402

REQUEST = "request.json"  # a fixed relative name, so messages naming it match


def answer(kind: str) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one request read from REQUEST."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if kind == "dominating":
            try:
                p = problem_from_json(load_json(REQUEST))
                q, member = inf_dominating(p.generators, p.point)
                print(canonical_dumps({"inf": vector_json(q), "member": member}), end="")
                code = 0
            except Exception as exc:  # recorded, so a new failure changes the digest
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
        else:
            code = cli.main([kind, REQUEST])
    return out.getvalue(), err.getvalue(), code


def seed_digest(seed: int, kinds: dict) -> tuple[str, int]:
    """The seed's digest and request count; each request's record is also
    added to ``kinds[kind]``, a [sha256, count] pair."""
    h = hashlib.sha256()
    reqs = inputs.ops_mix(seed)
    for req in reqs:
        kind = req["kind"]
        pathlib.Path(REQUEST).write_text(json.dumps(req["problem"]), encoding="utf-8")
        stdout, stderr, code = answer(kind)
        record = json.dumps([kind, stdout, stderr, code]).encode("utf-8") + b"\n"
        h.update(record)
        entry = kinds.setdefault(kind, [hashlib.sha256(), 0])
        entry[0].update(record)
        entry[1] += 1
    return h.hexdigest(), len(reqs)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-20", help="a seed or an inclusive range, e.g. 1-20")
    args = ap.parse_args()
    overall = hashlib.sha256()
    total = 0
    kinds: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for seed in parse_seeds(args.seeds):
            digest, count = seed_digest(seed, kinds)
            total += count
            overall.update(digest.encode("ascii"))
            print(f"seed {seed}: {count} requests {digest}")
    for kind, (h, count) in sorted(kinds.items()):
        print(f"kind {kind}: {count} requests {h.hexdigest()}")
    print(f"all: {total} requests {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
