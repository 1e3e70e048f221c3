"""Exact linear algebra over the fields in :mod:`quiver_regrade.fields`.

Matrices are immutable row-major tuples of scalars.  Elimination is done
twice, by independently coded routines:

* :class:`Echelon` - the one elimination kernel.  Rows go in sparse, as
  ``{col: scalar}``, and the reduced form comes out as a pivot map from each
  pivot column to its monic row.  It is written only against the field
  interface, so the rationals and every prime field share it.
  :func:`rank_of_rows` feeds it sparse rows as they are generated;
  :func:`rank`, :func:`rref`, :func:`nullspace`, :func:`solve_columns` and
  :func:`column_space_complement` sparsify a :class:`Matrix` and read their
  answer off the pivot map.
* :func:`rank_naive` - a deliberately plain textbook Gaussian elimination
  with division on dense rows, used as a second opinion in verification.
  Keep it free of code shared with :class:`Echelon`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .fields import Field, Scalar


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[tuple[Scalar, ...], ...]
    field: Field

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(f"ragged row: expected {self.cols} columns")

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(data[0])
        return Matrix(len(data), cols, data, field)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)), field)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), field)

    def get(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def mul(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})")
        f = self.field
        dot = f.dot
        cols = tuple(zip(*other.entries)) or ((),) * other.cols
        out = tuple(tuple(dot(left, col) for col in cols) for left in self.entries)
        return Matrix(self.rows, other.cols, out, f)

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        return Matrix(
            self.rows,
            self.cols,
            tuple(
                tuple(f.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            f,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        f = self.field
        return Matrix(
            self.rows,
            self.cols,
            tuple(
                tuple(f.sub(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            f,
        )

    def scale(self, c: Scalar) -> "Matrix":
        f = self.field
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(f.mul(c, a) for a in row) for row in self.entries),
            f,
        )

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix(
            self.rows, self.cols, tuple(tuple(f.neg(a) for a in row) for row in self.entries), f
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
            self.field,
        )

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(a) for row in self.entries for a in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        f = self.field
        for i in range(self.rows):
            for j in range(self.cols):
                want = f.one if i == j else f.zero
                if self.entries[i][j] != want:
                    return False
        return True

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def _same_shape(self, other: "Matrix"):
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: ({self.rows}x{self.cols}) vs ({other.rows}x{other.cols})"
            )

    def _same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")


# ---------------------------------------------------------------------------
# the elimination kernel: sparse rows, a pivot map, any field


def _sparse(field: Field, row: Sequence[Scalar]) -> dict[int, Scalar]:
    return {j: a for j, a in enumerate(row) if not field.is_zero(a)}


class Echelon:
    """Row echelon form of a growing row family, rows stored sparse.

    ``pivots`` maps each pivot column to a monic row ``{col: scalar}`` whose
    other entries lie to the right of it.  Rows go in one at a time, so a
    caller can stop as soon as the rank it needs is reached.
    """

    def __init__(self, field: Field):
        self.field = field
        self.pivots: dict[int, dict[int, Scalar]] = {}

    def reduce(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """``row`` minus a combination of stored rows; no pivot column left.

        Pivot columns are cleared in ascending order: clearing column c only
        touches columns to its right, so each is cleared once.
        """
        f, pivots = self.field, self.pivots
        sub, mul, neg, is_zero = f.sub, f.mul, f.neg, f.is_zero
        row = dict(row)
        heap = [c for c in row if c in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            coef = row.pop(c, None)
            if coef is None:  # cancelled, or a duplicate heap entry
                continue
            for k, v in pivots[c].items():
                if k == c:
                    continue
                if k in row:
                    a = sub(row[k], mul(coef, v))
                    if is_zero(a):
                        del row[k]
                    else:
                        row[k] = a
                else:
                    row[k] = neg(mul(coef, v))
                    if k in pivots:
                        heappush(heap, k)
        return row

    def add(self, row: dict[int, Scalar]) -> bool:
        """Reduce ``row`` and store it monic; True if the rank went up."""
        row = self.reduce(row)
        if not row:
            return False
        c = min(row)
        inv = self.field.inv(row[c])
        mul = self.field.mul
        self.pivots[c] = {k: mul(inv, v) for k, v in row.items()}
        return True

    def back_substitute(self) -> None:
        """Clear every pivot column above its pivot: the reduced form."""
        pivots = self.pivots
        for c in sorted(pivots, reverse=True):  # larger pivots first: less fill-in
            lead = pivots[c].pop(c)
            pivots[c] = {c: lead, **self.reduce(pivots[c])}


def rank_of_rows(field: Field, rows: Iterable[dict[int, Scalar]], ncols: int) -> int:
    """Rank of a family of sparse rows ``{col: scalar}`` over ``ncols`` columns.

    Rows are consumed lazily and no further row is drawn once the rank
    reaches ``ncols``.
    """
    ech = Echelon(field)
    r = 0
    if ncols > 0:
        for row in rows:
            r += ech.add(row)
            if r >= ncols:
                break
    return r


def rank(m: Matrix) -> int:
    f = m.field
    return rank_of_rows(f, (_sparse(f, row) for row in m.entries), m.cols)


def rank_naive(m: Matrix) -> int:
    """Second-opinion rank: plain Gaussian elimination with division."""
    f = m.field
    work = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if not f.is_zero(work[i][c]):
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, a) for a in work[r]]
        for i in range(nr):
            if i != r and not f.is_zero(work[i][c]):
                coef = work[i][c]
                work[i] = [f.sub(a, f.mul(coef, b)) for a, b in zip(work[i], work[r])]
        r += 1
        if r == nr:
            break
    return r


# ---------------------------------------------------------------------------
# reduced row echelon form, nullspace, solving


def _reduced(field: Field, rows: Iterable[Sequence[Scalar]]) -> dict[int, dict[int, Scalar]]:
    """Reduced row echelon form of dense ``rows``: pivot column -> monic row."""
    ech = Echelon(field)
    for row in rows:
        ech.add(_sparse(field, row))
    ech.back_substitute()
    return ech.pivots


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    f = m.field
    red = _reduced(f, m.entries)
    pivots = sorted(red)
    rows = [tuple(red[c].get(j, f.zero) for j in range(m.cols)) for c in pivots]
    rows += [(f.zero,) * m.cols] * (m.rows - len(pivots))
    return Matrix(m.rows, m.cols, tuple(rows), f), pivots


def nullspace(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel {x : m x = 0}.

    One column per free column c: a one at c, minus column c of the reduced
    form at the pivot coordinates, zero elsewhere.
    """
    f = m.field
    red = _reduced(f, m.entries)
    free = [c for c in range(m.cols) if c not in red]
    rows = [
        [f.neg(red[i].get(c, f.zero)) for c in free]
        if i in red
        else [f.one if i == c else f.zero for c in free]
        for i in range(m.cols)
    ]
    return Matrix.from_rows(f, rows, len(free))


def solve_columns(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b columnwise; None if any column is inconsistent.

    Row i of X is the b-part of the reduced row with pivot i, or zero when i
    is a free column; a pivot inside the b-part means no solution.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    f = a.field
    n, k = a.cols, b.cols
    red = _reduced(f, (ra + rb for ra, rb in zip(a.entries, b.entries)))
    if any(c >= n for c in red):
        return None
    sol = [
        [red[i].get(n + j, f.zero) for j in range(k)] if i in red else [f.zero] * k
        for i in range(n)
    ]
    return Matrix.from_rows(f, sol, k)


def column_space_complement(m: Matrix) -> tuple[Matrix, Matrix]:
    """For the subspace im(m) of k^n, return (projection q, section e).

    q: k^n -> k^c kills im(m); e: k^c -> k^n satisfies q e = id, so k^n is
    im(m) (+) im(e) and q represents the quotient map onto k^n / im(m).
    """
    f = m.field
    n = m.rows
    ech = Echelon(f)
    for j in range(m.cols):
        ech.add(_sparse(f, m.column(j)))
    free = [c for c in range(n) if c not in ech.pivots]
    # the residue of each standard basis vector modulo im(m) lives on the
    # free coordinates and gives the quotient map
    q = [[f.zero] * n for _ in range(len(free))]
    for i in range(n):
        residue = ech.reduce({i: f.one})
        for k, c in enumerate(free):
            q[k][i] = residue.get(c, f.zero)
    e = [[f.one if free[k] == i else f.zero for k in range(len(free))] for i in range(n)]
    return Matrix.from_rows(f, q, n), Matrix.from_rows(f, e, len(free))
