"""Shared fixtures for the quiver_regrade test suite."""

from __future__ import annotations

import os
import pathlib
import warnings

import pytest

from quiver_regrade import QQ, DegreeWindow, GradedMorphism, IdealPresentation, Matrix
from quiver_regrade.catalog import (
    bridge_quiver,
    heavy_loop_quiver,
    kxy_diagonal_rep,
    kxy_presentation,
    kxy_split_presentation,
)

# Hypothesis imports this module to report a falsifying example; through
# libcst it raises a DeprecationWarning that the "error" warning filter
# would turn into an INTERNALERROR ending the run.  Imported once here with
# only that warning ignored, it is cached for the report.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def dense_rref(m: Matrix) -> tuple[list[list], list[int]]:
    """The reduced row echelon form of ``m`` as dense rows, zero rows last,
    and its pivot columns: plain Gauss-Jordan elimination on lists.

    A reference for the tests of the sparse ``linalg.Echelon`` kernel and of
    what is built on it, so it shares no code with it.
    """
    f = m.field
    work = [list(row) for row in m.entries]
    pivots: list[int] = []
    for c in range(m.cols):
        r = len(pivots)
        found = [i for i in range(r, m.rows) if not f.is_zero(work[i][c])]
        if not found:
            continue
        work[r], work[found[0]] = work[found[0]], work[r]
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, a) for a in work[r]]
        for i in range(m.rows):
            coef = work[i][c]
            if i != r and not f.is_zero(coef):
                work[i] = [f.sub(a, f.mul(coef, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


def dense_nullspace(m: Matrix) -> Matrix:
    """A basis of {x : m x = 0} read off :func:`dense_rref`: column k has a one
    at the k-th free column, zeros at the others, and minus that column of
    the reduced form at the pivot columns."""
    f = m.field
    red, pivots = dense_rref(m)
    cols = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        vec = [f.zero] * m.cols
        vec[fc] = f.one
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(red[r][fc])
        cols.append(vec)
    entries = tuple(tuple(col[i] for col in cols) for i in range(m.cols))
    return Matrix(m.cols, len(cols), entries, f)


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Fresh interpreters that tests start import the package from src/, as
    pytest's own ``pythonpath`` setting makes this one do."""
    paths = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture
def golden_dir() -> pathlib.Path:
    return GOLDEN_DIR


@pytest.fixture
def kxy():
    """Single vertex, loops x (degree 1) and y (degree 2), relation xy - yx."""
    return kxy_presentation()


@pytest.fixture
def kxy_split():
    """The degree-1 regrade of kxy: y split into y' (v -> z) and y'' (z -> v)."""
    return kxy_split_presentation()


@pytest.fixture
def bridge():
    """Vertices u, v; loops a (u) and d (v); bridge arrows b (degree 2), c (degree 1)."""
    return bridge_quiver(bridge_degree=2)


@pytest.fixture
def bridge3():
    return bridge_quiver(bridge_degree=3)


@pytest.fixture
def heavy_loop():
    """Single vertex with one degree-3 loop."""
    return heavy_loop_quiver(degree=3)


@pytest.fixture
def window() -> DegreeWindow:
    return DegreeWindow(-2, 10)


@pytest.fixture
def small_window() -> DegreeWindow:
    return DegreeWindow(0, 5)


@pytest.fixture
def diag_rep(small_window):
    """Commuting diagonal representation of kxy on the small window."""
    return kxy_diagonal_rep(small_window, QQ, 2)


@pytest.fixture
def diag_identity(diag_rep):
    """The identity morphism of ``diag_rep``: a shared identity block per slot."""
    blocks = {slot: Matrix.identity(QQ, n) for slot, n in diag_rep.dims.items()}
    return GradedMorphism(diag_rep, diag_rep, blocks)


@pytest.fixture
def empty_ideal() -> IdealPresentation:
    return IdealPresentation(generators=())
