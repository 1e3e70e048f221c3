"""Exact linear algebra over the fields in :mod:`quiver_regrade.fields`.

Matrices are immutable row-major tuples of scalars.  The public
constructors, ``Matrix(...)`` and :meth:`Matrix.from_rows`, check that every
row has the stated length and reduce each F_p entry into ``range(p)``;
rational entries are kept as given.  Results the module builds
itself - of ``mul``/``add``/``scale``/``transpose``/``rows_at``/``cols_at``,
``zero``, ``identity`` and the bases of :func:`kernel_basis` - are
canonical and well formed by construction and go through one private
trusted constructor that skips those steps.  ``Matrix.identity`` hands back
one shared object per field and size, and ``Matrix.zero`` one per field and
shape.  Both caches are keyed by the field itself, whose hash is the
built-in identity hash, so a lookup calls no Python method.

Four trivial cases are answered without arithmetic, after the field and
shape checks: a product with an empty dimension is ``Matrix.zero``; a
product with a factor that *is* a shared identity is the other factor, and
the transpose of one is itself; the rank of a shared identity is its size;
the kernel basis of a shared identity is empty, and that of a block with no
pivot (no rows, or all zero) is the shared identity on all its columns.
Whether a matrix is a shared identity is one lookup of its ``id()``.

Elimination is done twice, by independently coded routines:

* :class:`Echelon` - the one elimination kernel.  Rows go in sparse, as
  ``{col: scalar}``, and the echelon form comes out as a pivot map from each
  pivot column to its monic row, its other entries to its right; the rows
  need not be reduced against each other.  It is written only against the
  field interface, so the rationals and every prime field share it.
  :meth:`Echelon.solve` is its one solver: it completes values given at the
  columns without a pivot to the one solution of the stored rows.
  :func:`rank` counts pivots; :func:`kernel_basis` solves once per free
  column with a one there, so the basis is the identity on its free columns
  and a vector in the kernel is recovered from its entries there.  The same
  basis of the transpose, transposed, is a cokernel projection: it kills
  the column space and is the identity on its free columns.
* :func:`rank_naive` - a deliberately plain textbook Gaussian elimination
  with division on dense rows, used as a second opinion in verification.
  Keep it free of code shared with :class:`Echelon`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

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
        f = self.field
        if f.char:  # F_p: every entry into range(p)
            conv = f.from_fraction
            entries = tuple([tuple(map(conv, row)) for row in self.entries])
            object.__setattr__(self, "entries", entries)

    @staticmethod
    def _trusted(
        rows: int, cols: int, entries: tuple[tuple[Scalar, ...], ...], field: Field
    ) -> "Matrix":
        """A matrix whose ``entries`` are known to be ``rows`` tuples of
        ``cols`` scalars: the fields are set without the shape checks."""
        m = object.__new__(Matrix)
        d = m.__dict__
        d["rows"] = rows
        d["cols"] = cols
        d["entries"] = entries
        d["field"] = field
        return m

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
        """The rows x cols zero; one shared object per ``(field, rows, cols)``."""
        key = (field, rows, cols)
        m = _ZEROS.get(key)
        if m is None:
            entries = ((field.zero,) * cols,) * rows
            m = _ZEROS[key] = Matrix._trusted(rows, cols, entries, field)
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        """The n x n identity; one shared object per ``(field, n)``."""
        key = (field, n)
        m = _IDENTITIES.get(key)
        if m is None:
            z, o = field.zero, field.one
            entries = tuple([tuple([o if i == j else z for j in range(n)]) for i in range(n)])
            m = _IDENTITIES[key] = Matrix._trusted(n, n, entries, field)
            _IDENTITY_IDS.add(id(m))
        return m

    def rows_at(self, indices: Sequence[int]) -> "Matrix":
        """The submatrix formed by the rows at ``indices``, in that order."""
        e = self.entries
        return Matrix._trusted(len(indices), self.cols, tuple([e[i] for i in indices]), self.field)

    def cols_at(self, indices: Sequence[int]) -> "Matrix":
        """The submatrix formed by the columns at ``indices``, in that order."""
        out = tuple([tuple([row[j] for j in indices]) for row in self.entries])
        return Matrix._trusted(self.rows, len(indices), out, self.field)

    def transpose(self) -> "Matrix":
        if id(self) in _IDENTITY_IDS:
            return self
        out = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix._trusted(self.cols, self.rows, out, self.field)

    def mul(self, other: "Matrix") -> "Matrix":
        """The product ``self @ other``.

        With an empty dimension it is :meth:`zero`; with a factor that is the
        shared :meth:`identity` it is the other factor itself.
        """
        f = self.field
        if other.field is not f:
            self._same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})")
        if not (self.rows and self.cols and other.cols):
            return Matrix.zero(f, self.rows, other.cols)
        if id(self) in _IDENTITY_IDS:
            return other
        if id(other) in _IDENTITY_IDS:
            return self
        dot = f.dot
        cols = list(zip(*other.entries)) or [()] * other.cols
        out = tuple([tuple([dot(left, col) for col in cols]) for left in self.entries])
        return Matrix._trusted(self.rows, other.cols, out, f)

    def add(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.field.add
        out = tuple(
            [tuple([add(a, b) for a, b in zip(ra, rb)]) for ra, rb in zip(self.entries, other.entries)]
        )
        return Matrix._trusted(self.rows, self.cols, out, self.field)

    def scale(self, c: Scalar) -> "Matrix":
        mul = self.field.mul
        out = tuple([tuple([mul(c, a) for a in row]) for row in self.entries])
        return Matrix._trusted(self.rows, self.cols, out, self.field)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(a) for row in self.entries for a in row)

    def _same_shape(self, other: "Matrix"):
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: ({self.rows}x{self.cols}) vs ({other.rows}x{other.cols})"
            )

    def _same_field(self, other: "Matrix"):
        if self.field is not other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")


_ZEROS: dict[tuple[Field, int, int], Matrix] = {}
_IDENTITIES: dict[tuple[Field, int], Matrix] = {}
# id() of every value of _IDENTITIES; those objects are never freed
_IDENTITY_IDS: set[int] = set()


# ---------------------------------------------------------------------------
# the elimination kernel: sparse rows, a pivot map, any field


def _sparse(field: Field, row: Sequence[Scalar]) -> dict[int, Scalar]:
    return {j: a for j, a in enumerate(row) if not field.is_zero(a)}


class Echelon:
    """Row echelon form of a growing row family, rows stored sparse.

    ``pivots`` maps each pivot column to a monic row ``{col: scalar}`` whose
    other entries, pivot columns too, lie to its right.  Rows go in one at
    a time, so a caller can stop as soon as the rank it needs is reached.
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

    def add(self, row: dict[int, Scalar]) -> int | None:
        """Reduce ``row`` and store it monic; its new pivot column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        c = min(row)
        inv = self.field.inv(row[c])
        mul = self.field.mul
        self.pivots[c] = {k: mul(inv, v) for k, v in row.items()}
        return c

    def solve(self, values: dict[int, Scalar]) -> dict[int, Scalar]:
        """The one solution of the stored rows that takes ``values``, given at
        every column without a pivot; the pivot columns are added to a copy.

        A pivot row's other columns lie to its right, so in descending pivot
        order each of them is given or solved already.
        """
        f, pivots = self.field, self.pivots
        neg, dot = f.neg, f.dot
        x = dict(values)
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            rest = [k for k in row if k != c]
            x[c] = neg(dot([x[k] for k in rest], [row[k] for k in rest]))
        return x


def rank(m: Matrix) -> int:
    """Rank of ``m``; no further row is reduced once it reaches ``m.cols``."""
    if id(m) in _IDENTITY_IDS:
        return m.rows
    f = m.field
    ech = Echelon(f)
    r = 0
    for row in m.entries:
        if r == m.cols:
            break
        r += ech.add(_sparse(f, row)) is not None
    return r


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
# kernel bases


def kernel_basis(m: Matrix) -> tuple[Matrix, list[int]]:
    """A basis of the right kernel {x : m x = 0}, as columns, and its free
    columns, ascending.

    Column k of the basis is the solution with a one at ``free[k]`` and zero
    at the other free columns; so the rows of the basis at the free columns
    form the identity.
    """
    f = m.field
    if id(m) in _IDENTITY_IDS:
        return Matrix.zero(f, m.cols, 0), []
    ech = Echelon(f)
    for row in m.entries:
        ech.add(_sparse(f, row))
    if not ech.pivots:
        return Matrix.identity(f, m.cols), list(range(m.cols))
    zero, one = f.zero, f.one
    free = [c for c in range(m.cols) if c not in ech.pivots]
    cols = [ech.solve({c: one if c == k else zero for c in free}) for k in free]
    rows = tuple([tuple([x[i] for x in cols]) for i in range(m.cols)])
    return Matrix._trusted(m.cols, len(free), rows, f), free
