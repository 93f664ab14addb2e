"""Shared hypothesis strategies for scalars, vectors and families, and a
loader for the benchmark's modules."""
import importlib.util
import os
import pathlib
from fractions import Fraction

from hypothesis import settings, strategies as st

# exact-arithmetic examples vary widely in cost; wall-clock deadlines only flake
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

# pytest puts src/ on its own path (pyproject.toml); the tests that start a
# fresh interpreter need it there too when the package is not installed
_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = str(_ROOT / "src")
BENCH_DIR = _ROOT / "perfbench"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from idemod import (
    RMAX,
    GeneratingFamily,
    Matrix,
    Vector,
    bot,
    fin,
    matrix_semiring,
    top,
)

MAT2 = matrix_semiring(2)


def rationals():
    return st.one_of(
        st.integers(min_value=-8, max_value=8),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
    )


def scalars(sr=RMAX, finite_only=False):
    if sr.name == "bool":
        return st.sampled_from([bot(sr), top(sr)])
    if sr.name == "nmax":
        finite = st.integers(min_value=0, max_value=9).map(lambda n: fin(sr, n))
    else:
        finite = rationals().map(lambda q: fin(sr, Fraction(q)))
    if finite_only:
        return finite
    return st.one_of(finite, st.just(bot(sr)), st.just(top(sr)), finite, finite)


def mat2_scalars(finite_only=False):
    from idemod import mat_of

    entry = scalars(RMAX, finite_only)
    return st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2).map(
        mat_of
    )


def vectors(sr=RMAX, dim=None, finite_only=False):
    dims = st.just(dim) if dim else st.integers(min_value=1, max_value=4)
    return dims.flatmap(
        lambda n: st.lists(scalars(sr, finite_only), min_size=n, max_size=n).map(
            lambda es: Vector(sr, tuple(es))
        )
    )


def matrices(sr=RMAX, rows=None, cols=None):
    r = st.just(rows) if rows else st.integers(min_value=1, max_value=3)
    c = st.just(cols) if cols else st.integers(min_value=1, max_value=3)
    return st.tuples(r, c).flatmap(
        lambda rc: st.lists(
            st.lists(scalars(sr), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(lambda rows_: Matrix(sr, tuple(tuple(row) for row in rows_)))
    )


def families(sr=RMAX, dim=None, max_size=4):
    dims = st.just(dim) if dim else st.integers(min_value=1, max_value=4)
    return dims.flatmap(
        lambda n: st.lists(vectors(sr, n), min_size=0, max_size=max_size).map(
            lambda vs: GeneratingFamily(sr, n, tuple(vs))
        )
    )


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
