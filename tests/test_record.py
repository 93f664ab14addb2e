"""The plain records of ``idemod.record``: reprs, equality, hashes,
validation and defaults as the library's callers see them, and an import
path that stays clear of ``dataclasses``."""
import subprocess
import sys
from fractions import Fraction

import pytest

from idemod import (
    CANONICAL,
    MATRIX,
    NMAX,
    RMAX,
    CoVector,
    DualPairConfig,
    GeneratingFamily,
    GridFunction,
    SlopeSet,
    Vector,
    covector,
    family,
    fin,
    halfspace,
    matrix,
    vector,
)
from idemod.errors import DomainError, MismatchError
from idemod.laws import Failure, SuiteReport


def test_import_path_has_no_dataclasses():
    """A fresh interpreter that imports the package, its CLI and its law
    suites loads neither ``dataclasses`` nor the ``inspect`` it pulls in."""
    code = ("import sys, idemod, idemod.cli, idemod.laws\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_reprs_are_pinned():
    """Law failure records and TheoremViolation messages hold these reprs,
    so they stay byte for byte as pinned here."""
    es = [1, "-inf", Fraction(1, 2)]
    assert repr(vector(RMAX, es)) == "Vector(rmax, [<rmax 1>, <rmax -inf>, <rmax 1/2>])"
    assert repr(covector(RMAX, es)) == (
        "CoVector(semiring=SemiringId(name='rmax', dim=0), "
        "entries=(<rmax 1>, <rmax -inf>, <rmax 1/2>))"
    )
    assert repr(matrix(RMAX, [[0, 1], ["+inf", "-inf"]])) == (
        "Matrix(semiring=SemiringId(name='rmax', dim=0), "
        "entries=((<rmax 0>, <rmax 1>), (<rmax +inf>, <rmax -inf>)))"
    )
    w = family(RMAX, [[0, 1], [2, "-inf"]])
    assert repr(w) == (
        "GeneratingFamily(semiring=SemiringId(name='rmax', dim=0), "
        "entries=((<rmax 0>, <rmax 2>), (<rmax 1>, <rmax -inf>)))"
    )
    assert repr(GeneratingFamily(NMAX, 2, ())) == (
        "GeneratingFamily(semiring=SemiringId(name='nmax', dim=0), entries=((), ()))"
    )
    assert repr(halfspace(w, vector(RMAX, [5, 5]))) == (
        "HalfSpace(x_ref=Vector(rmax, [<rmax 5>, <rmax 5>]), "
        "y=Vector(rmax, [<rmax 2>, <rmax 1>]), nu=<rmax 0>)"
    )


def test_equality_and_hash():
    es = (fin(RMAX, 1), fin(RMAX, Fraction(1, 2)))
    x, y = Vector(RMAX, es), Vector(RMAX, tuple(es))
    assert x == y and hash(x) == hash(y) == hash((RMAX, es)) and len({x, y}) == 1
    assert CoVector(RMAX, es) != x and x != CoVector(RMAX, es)
    assert vector(RMAX, [1, 2]) != vector(RMAX, [1, 3]) and vector(RMAX, [0]) != vector(NMAX, [0])
    a, b = matrix(RMAX, [[0, 1]]), matrix(RMAX, [[0, 1]])
    assert a == b and hash(a) == hash(b) and a != family(RMAX, [[0], [1]])
    w = family(RMAX, [[0, 1], [2, 3]])
    assert w == family(RMAX, [vector(RMAX, [0, 1]), [2, 3]]) and hash(w) == hash(family(RMAX, [[0, 1], [2, 3]]))
    phi = fin(RMAX, 0)
    assert DualPairConfig(CANONICAL, phi) == DualPairConfig(CANONICAL, phi, None)
    assert DualPairConfig(CANONICAL, phi) != DualPairConfig(CANONICAL, fin(RMAX, 1))


def test_validation_messages():
    phi, m = fin(RMAX, 0), matrix(RMAX, [[0]])
    assert DualPairConfig(MATRIX, phi, m).matrix is m
    for args, message in (
        (("weird", phi), "unknown bracket 'weird'"),
        ((MATRIX, phi), "matrix bracket needs its matrix"),
    ):
        with pytest.raises(DomainError, match=message):
            DualPairConfig(*args)
    zero = fin(RMAX, 0)
    for points, values, message in (
        ((0,), (zero,), "grids need at least two points"),
        ((0, 1), (zero,), "one value per grid point"),
        ((1, 0), (zero, zero), "grid points must be strictly increasing"),
        ((0, 1), (zero, fin(NMAX, 0)), "grid values must be RMAX scalars"),
    ):
        with pytest.raises(MismatchError, match=message):
            GridFunction(points, values)
    for slopes, message in (((), "need at least one slope"),
                            ((1, 1), "slopes must be strictly increasing")):
        with pytest.raises(MismatchError, match=message):
            SlopeSet(slopes)


def test_law_report_defaults_and_keywords():
    f, g = Failure("some-law", {"a": "1"}), Failure("other", {})
    assert (f.original, f.steps) == ({}, 0) and f.original is not g.original
    assert Failure(law="l", case={}, steps=3) == Failure("l", {}, {}, 3)
    r = SuiteReport("demo", seed=0, trials=1)
    assert (r.suite, r.seed, r.trials, r.checks, r.failures, r.notes, r.ok) == ("demo", 0, 1, 0, [], [], True)
    assert r.notes is not SuiteReport("demo", 0, 1).notes
    assert repr(r) == "SuiteReport(suite='demo', seed=0, trials=1, checks=0, failures=[], notes=[])"
    with pytest.raises(TypeError):
        SuiteReport("demo", seed=0)
    with pytest.raises(TypeError):
        Failure("l", {}, wrong=1)
