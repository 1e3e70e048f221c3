"""Built-in presentations used as fixed test instances.

These are small enough to compute with by hand, and each exercises a
different corner: a commuting pair of loops with unequal degrees, a pair of
parallel arrows where only one needs splitting, and a single loop whose
degree forces two consecutive splits.
"""

from __future__ import annotations

import random

from .fields import QQ, Field
from .linalg import Matrix
from .paths import IdealPresentation, PathSum, UniformElement, path_from_arrows
from .quiver import Arrow, WeightedQuiver
from .representation import DegreeWindow, GradedRep


def kxy_presentation() -> tuple[WeightedQuiver, IdealPresentation]:
    """One vertex, loops x (degree 1) and y (degree 2), relation x*y - y*x.

    The quotient is the polynomial ring in x and y with y placed in degree
    two, so the graded dimensions follow the two-variable partition count.
    """
    q = WeightedQuiver.build(
        ["v"], [Arrow("x", "v", "v", 1), Arrow("y", "v", "v", 2)]
    )
    rel = PathSum.of_path(QQ, path_from_arrows(q, ["x", "y"])).sub(
        PathSum.of_path(QQ, path_from_arrows(q, ["y", "x"]))
    )
    return q, IdealPresentation.of([UniformElement.from_sum(rel)])


def kxy_split_presentation() -> tuple[WeightedQuiver, IdealPresentation]:
    """The expected outcome of regrading :func:`kxy_presentation` by hand."""
    q = WeightedQuiver.build(
        ["v", "z"],
        [
            Arrow("x", "v", "v", 1),
            Arrow("y'", "v", "z", 1),
            Arrow("y''", "z", "v", 1),
        ],
    )
    rel = PathSum.of_path(QQ, path_from_arrows(q, ["x", "y'", "y''"])).sub(
        PathSum.of_path(QQ, path_from_arrows(q, ["y'", "y''", "x"]))
    )
    return q, IdealPresentation.of([UniformElement.from_sum(rel)])


def bridge_quiver(bridge_degree: int = 2) -> WeightedQuiver:
    """Two vertices joined by parallel arrows b (heavy) and c (degree 1),
    with a degree-1 loop on each end.  Only b ever needs splitting."""
    return WeightedQuiver.build(
        ["u", "v"],
        [
            Arrow("a", "u", "u", 1),
            Arrow("b", "u", "v", bridge_degree),
            Arrow("c", "u", "v", 1),
            Arrow("d", "v", "v", 1),
        ],
    )


def heavy_loop_quiver(degree: int = 3) -> WeightedQuiver:
    """A single loop of the given degree; regrading unrolls it to a cycle."""
    return WeightedQuiver.build(["v"], [Arrow("w", "v", "v", degree)])


def kxy_diagonal_rep(
    window: DegreeWindow,
    field: Field,
    dim: int,
    rng: random.Random | None = None,
) -> GradedRep:
    """A relation-satisfying representation of the x, y loop quiver.

    Every component has the same dimension and both loops act by constant
    diagonal matrices, which commute, so x*y - y*x acts by zero wherever it
    can be evaluated.
    """
    if dim < 0:
        raise ValueError(f"negative dimension {dim}")
    q, _ = kxy_presentation()
    if rng is None:
        x_diag = [field.from_int(i + 1) for i in range(dim)]
        y_diag = [field.from_int(dim + i + 1) for i in range(dim)]
    else:
        lo, hi = (-3, 3) if field.char == 0 else (0, field.char - 1)
        x_diag = [field.from_int(rng.randint(lo, hi)) for _ in range(dim)]
        y_diag = [field.from_int(rng.randint(lo, hi)) for _ in range(dim)]

    def diagonal(values) -> Matrix:
        rows = [
            [values[i] if i == j else field.zero for j in range(dim)]
            for i in range(dim)
        ]
        return Matrix.from_rows(field, rows, dim)

    dims = {("v", d): dim for d in window.degrees()}
    mats = {}
    for d in window.degrees():
        if window.contains(d + 1):
            mats[("x", d)] = diagonal(x_diag)
        if window.contains(d + 2):
            mats[("y", d)] = diagonal(y_diag)
    return GradedRep._trusted(q, window, field, dims, mats)
