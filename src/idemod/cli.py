"""Command-line front end.

Subcommands: project | member | separate | dual | hilbert | hull | rowcol |
laws | render.  Inputs are UTF-8 JSON problem files; results go to stdout as
canonical JSON (sorted keys, compact separators); render writes an SVG to
--out.

Each command takes one operand, a file (laws: a suite name), and the global
flags ``_READS`` names: every command but laws and render reads --semiring,
dual and rowcol also --phi, laws --seed and --trials, render --out.  A flag is
``--flag value`` or ``--flag=value``, before or after the command, and the
last of a repeated flag wins.  Any other flag (``<command> takes no
--<flag>``), a flag without its value, a wrong operand count or an unknown
command exits 2 before any input is read.  Flags are not abbreviated and
there is no --help.

Exit codes: 0 ok, 1 theorem violation (library bug), 2 input or schema
error, 3 dimension mismatch, 4 output I/O error, 5 internal error (any
other exception, reported on one stderr line).

``main(argv)`` returns the exit code and may be called repeatedly in one
process.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace

from . import dual as du
from .errors import DomainError, MismatchError, SchemaError, TheoremViolation
from .fenchel import hull_report
from .jsonio import (
    Problem,
    canonical_dumps,
    grid_json,
    load_json,
    problem_from_json,
    scalar_json,
    vector_json,
)
from .metric import hilbert_distance
from .project import _checked_member, _dual_coefficients, is_member, project
from .render import render_scene, scene_from_json
from .semiring import RMAX, _excerpt, _shown, leq, mul
from .separate import separate_from_convex

EXIT_OK = 0
EXIT_THEOREM = 1
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

# Bounds the work of one `laws` run; C3 runs the residuation suite at 10^4.
MAX_TRIALS = 10_000


def _load_problem(args) -> Problem:
    return problem_from_json(
        load_json(args.file),
        semiring_override=args.semiring,
        phi_override=args.phi,
    )


def _require(problem: Problem, attr: str):
    value = getattr(problem, attr)
    if value is None:
        raise SchemaError(f"this command needs {attr!r} in the problem file")
    return value


def cmd_project(args) -> dict:
    p = _load_problem(args)
    x = _require(p, "point")
    fam = _require(p, "generators")
    res = project(fam, x)
    return {
        "projection": vector_json(res.projection),
        "coefficients": [scalar_json(c) for c in res.coefficients],
        "member": _checked_member(res, x),
    }


def cmd_member(args) -> dict:
    p = _load_problem(args)
    x = _require(p, "point")
    fam = _require(p, "generators")
    return {"member": is_member(fam, x)}


def cmd_separate(args) -> dict:
    p = _load_problem(args)
    x = _require(p, "point")
    fam = _require(p, "convex")
    sep = separate_from_convex(fam, x)
    out = {
        "nu": scalar_json(sep.nu),
        "y": vector_json(sep.y),
        "member": sep.member,
        "halfspace": {
            "x_ref": vector_json(x),
            "y": vector_json(sep.y),
            "nu": scalar_json(sep.nu),
        },
    }
    if sep.normalized is not None:
        out["normalized"] = vector_json(sep.normalized)
    return out


def cmd_dual(args) -> dict:
    p = _load_problem(args)
    x = _require(p, "point")
    if p.bracket == du.MATRIX:
        mat = _require(p, "matrix")
        cfg = du.DualPairConfig(du.MATRIX, p.phi, mat)
    else:
        cfg = du.DualPairConfig(p.bracket, p.phi)
    conj = du.conj_left(cfg, x)
    back = du.conj_right(cfg, conj)
    return {
        "conj_left": vector_json(conj),
        "biconjugate": vector_json(back),
        "closed": back == x,
    }


def cmd_hilbert(args) -> dict:
    p = _load_problem(args)
    x = _require(p, "point")
    out: dict = {}
    if p.point2 is not None:
        out["distance"] = scalar_json(hilbert_distance(x, p.point2))
    if p.generators is not None:
        res = project(p.generators, x)
        bound = hilbert_distance(x, res.projection)
        out["projection"] = vector_json(res.projection)
        out["distance_to_projection"] = scalar_json(bound)
        # d(x, g) = (x\g)(g\x) for every generator g, as in
        # projection_maximizes_distance, from residuals already at hand:
        # g\x is g's projection coefficient, x\g its dual coefficient
        out["projection_maximizes"] = all(
            leq(mul(xg, gx), bound)
            for xg, gx in zip(_dual_coefficients(p.generators, x), res.coefficients)
        )
    if not out:
        raise SchemaError('hilbert needs "point2" or "generators"')
    return out


def cmd_hull(args) -> dict:
    p = _load_problem(args)
    if p.semiring is not RMAX:  # grid functions are RMAX-valued
        raise SchemaError(f"hull computes over rmax only, not {p.semiring}")
    grid = _require(p, "grid")
    slopes = _require(p, "slopes")
    rep = hull_report(grid, slopes)
    return {
        "transform": [scalar_json(v) for v in rep.transform.values],
        "hull": grid_json(rep.hull),
        "fixed_point": rep.fixed_point,
    }


def cmd_rowcol(args) -> dict:
    p = _load_problem(args)
    mat = _require(p, "matrix")
    rep = du.rowcol_report(mat, p.phi)
    return {
        "row_space": [vector_json(z) for z in rep.row_space],
        "col_space": [vector_json(v) for v in rep.col_space],
        "pairs": [[vector_json(z), vector_json(v)] for z, v in rep.iso_pairs],
        "bijective": rep.bijective,
        "order_reversing": rep.order_reversing,
    }


def cmd_laws(args) -> tuple[dict, int]:
    from . import laws as la  # only this command needs the law suites

    if args.trials is not None and not 1 <= args.trials <= MAX_TRIALS:
        raise SchemaError(f"--trials must lie in [1, {MAX_TRIALS}], got {_shown(args.trials)}")
    report = la.run_suite(args.suite, seed=args.seed or 0, trials=args.trials)
    out = {
        "suite": report.suite,
        "seed": report.seed,
        "trials": report.trials,
        "checks": report.checks,
        "ok": report.ok,
        "notes": report.notes,
        "failures": [dict(law=f.law, case=f.case, original=f.original, steps=f.steps) for f in report.failures],
    }
    return out, EXIT_OK if report.ok else EXIT_THEOREM


def cmd_render(args) -> dict:
    if not args.out:
        raise SchemaError("render needs --out for the SVG path")
    scene = scene_from_json(load_json(args.file))
    svg, classification = render_scene(scene)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise _OutputError(str(exc)) from exc
    return {"out": args.out, "points": classification}


class _OutputError(Exception):
    pass


_COMMANDS = {
    "project": cmd_project,
    "member": cmd_member,
    "separate": cmd_separate,
    "dual": cmd_dual,
    "hilbert": cmd_hilbert,
    "hull": cmd_hull,
    "rowcol": cmd_rowcol,
    "render": cmd_render,
}

# The global flags each command reads; _parse refuses any other it is given.
_READS = {
    "project": ("semiring",), "member": ("semiring",), "separate": ("semiring",),
    "hilbert": ("semiring",), "hull": ("semiring",),
    "dual": ("semiring", "phi"), "rowcol": ("semiring", "phi"),
    "laws": ("seed", "trials"), "render": ("out",),
}


def _parse(argv) -> SimpleNamespace:
    """The command, its operand and every global flag (None if not given)."""
    flags, operands = {}, []
    words = iter(argv)
    for word in words:
        if not word.startswith("--"):
            operands.append(word)
            continue
        name, eq, value = word[2:].partition("=")
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--"):
                raise SchemaError(f"--{_shown(name)} needs a value")
        flags[name] = value
    command = operands.pop(0) if operands else ""
    if command not in _READS:
        raise SchemaError(f"the command is one of {', '.join(_READS)}; got {_excerpt(command)}")
    for name in flags:
        if name not in _READS[command]:
            raise SchemaError(f"{command} takes no --{_shown(name)}")
    operand = "suite" if command == "laws" else "file"
    if len(operands) != 1:
        raise SchemaError(f"{command} takes one {operand}, got {len(operands)}")
    args = dict.fromkeys(("semiring", "phi", "seed", "out", "trials"))
    args.update(flags)
    for name in ("seed", "trials"):
        if args[name] is not None:
            try:
                args[name] = int(args[name])
            except ValueError:
                raise SchemaError(f"--{name} takes an integer, got {_excerpt(args[name])}") from None
    return SimpleNamespace(command=command, **{operand: operands[0]}, **args)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.command == "laws":
            out, code = cmd_laws(args)
            sys.stdout.write(canonical_dumps(out))
            for f in out["failures"]:
                sys.stderr.write(f"violation in {f['law']}: {f['case']}\n")
            return code
        out = _COMMANDS[args.command](args)
        sys.stdout.write(canonical_dumps(out))
        return EXIT_OK
    except _OutputError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return EXIT_IO
    except MismatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIMENSION
    except (SchemaError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except TheoremViolation as exc:
        sys.stderr.write(f"internal error (theorem violation): {exc}\n")
        return EXIT_THEOREM
    except Exception as exc:
        msg = " ".join(str(exc).splitlines())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {msg}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
