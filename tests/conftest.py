"""Shared fixtures for the quiver_regrade test suite."""

from __future__ import annotations

import os
import pathlib

import pytest

from quiver_regrade import QQ, DegreeWindow, GradedMorphism, IdealPresentation, Matrix
from quiver_regrade.catalog import (
    bridge_quiver,
    heavy_loop_quiver,
    kxy_diagonal_rep,
    kxy_presentation,
    kxy_split_presentation,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


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
