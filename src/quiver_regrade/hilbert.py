"""Graded-piece dimensions of a path algebra modulo uniform relations.

The degree-d piece of the two-sided ideal (r_1, ..., r_n) is spanned by the
products p * r_i * s over all composable path pairs with matching total
degree.  Each product becomes one sparse row ``{basis index: coefficient}``
over the degree-d path basis, and the rows go straight into the sparse
elimination of :func:`~quiver_regrade.linalg.rank_of_rows`.  The quotient
dimension is the path count minus that exact rank.  The naive route spreads
the same rows out dense for the independent :func:`rank_naive`.
"""

from __future__ import annotations

from typing import Iterator

from .fields import QQ, Field
from .linalg import Matrix, rank_naive, rank_of_rows
from .paths import IdealPresentation, PathSum, enumerate_paths, multiply_paths
from .quiver import WeightedQuiver

DEFAULT_MAX_DEGREE = 12
DEFAULT_MAX_PATHS = 100_000


def _relation_rows(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    degree: int,
    vertex: str | None,
    field: Field,
    basis_index: dict,
    max_paths: int | None,
) -> Iterator[dict]:
    for gen in ideal:
        sum_in_field = gen.sum.to_field(field) if gen.sum.field != field else gen.sum
        if degree < gen.degree:
            continue
        for left_deg in range(degree - gen.degree + 1):
            right_deg = degree - gen.degree - left_deg
            lefts = enumerate_paths(q, left_deg, source=vertex, target=gen.source, limit=max_paths)
            if not lefts:
                continue
            rights = enumerate_paths(q, right_deg, source=gen.target, limit=max_paths)
            # p*mid*s is injective in mid for fixed p and s, and PathSum keeps
            # no zero coefficient, so each row needs no accumulation
            for p in lefts:
                for s in rights:
                    yield {
                        basis_index[multiply_paths(multiply_paths(p, mid), s)]: coeff
                        for mid, coeff in sum_in_field.terms
                    }


def graded_dim(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    degree: int,
    vertex: str | None = None,
    field: Field = QQ,
    max_paths: int | None = DEFAULT_MAX_PATHS,
) -> int:
    """dim of the degree-d piece of kQ/I, or of its e_v corner when given.

    Over F_p the result can only overshoot the rational value (a rank can
    drop mod p, never rise), so rational and modular runs are comparable.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    basis = enumerate_paths(q, degree, source=vertex, limit=max_paths)
    if not basis:
        return 0
    index = {p: i for i, p in enumerate(basis)}
    rows = _relation_rows(q, ideal, degree, vertex, field, index, max_paths)
    r = rank_of_rows(field, rows, len(basis))
    return len(basis) - r


def graded_dim_naive(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    degree: int,
    vertex: str | None = None,
    field: Field = QQ,
    max_paths: int | None = DEFAULT_MAX_PATHS,
) -> int:
    """Same dimension through the second-opinion dense rank routine."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    basis = enumerate_paths(q, degree, source=vertex, limit=max_paths)
    if not basis:
        return 0
    n = len(basis)
    index = {p: i for i, p in enumerate(basis)}
    rows = [
        [row.get(j, field.zero) for j in range(n)]
        for row in _relation_rows(q, ideal, degree, vertex, field, index, max_paths)
    ]
    return n - rank_naive(Matrix.from_rows(field, rows, n))
