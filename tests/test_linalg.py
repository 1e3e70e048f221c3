"""Exact linear algebra: rank, Echelon.solve, kernel bases, cokernel projections, trusted results."""

from __future__ import annotations

import random
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_nullspace, dense_rref
from quiver_regrade import GF, QQ, Matrix, kernel_basis, rank, rank_naive
from quiver_regrade.fields import PrimeField
from quiver_regrade.linalg import Echelon

FIELDS = [QQ, GF(7), GF(32003), GF(4294967311)]  # the last exceeds int64 products


def mk(field, rows, cols=None):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows], cols=cols)


def mk_random(field, rng, r, c, lo=-3, hi=3):
    return mk(field, [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)], cols=c)


class TestMatrixBasics:
    def test_from_rows_shape(self):
        m = mk(QQ, [[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entries[1][2] == Fraction(6)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows(QQ, [[QQ.one], [QQ.one, QQ.one]])

    def test_empty_needs_explicit_cols(self):
        m = Matrix.from_rows(QQ, [], cols=3)
        assert (m.rows, m.cols) == (0, 3)

    def test_identity_and_zero(self):
        i = Matrix.identity(QQ, 3)
        z = Matrix.zero(QQ, 2, 3)
        assert i.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert z.is_zero()
        assert not i.is_zero()

    def test_mul_shapes(self):
        a = mk(QQ, [[1, 2], [3, 4], [5, 6]])
        b = mk(QQ, [[1, 0, 0], [0, 1, 0]])
        p = a.mul(b)
        assert (p.rows, p.cols) == (3, 3)
        with pytest.raises(ValueError):
            b.mul(mk(QQ, [[1, 2]]))

    def test_mul_values(self):
        a = mk(QQ, [[1, 2], [3, 4]])
        b = mk(QQ, [[5, 6], [7, 8]])
        assert a.mul(b) == mk(QQ, [[19, 22], [43, 50]])

    def test_add_sub_scale_neg(self):
        a = mk(QQ, [[1, 2], [3, 4]])
        b = mk(QQ, [[5, 6], [7, 8]])
        minus_one = QQ.from_int(-1)
        assert a.add(b) == mk(QQ, [[6, 8], [10, 12]])
        assert b.add(a.scale(minus_one)) == mk(QQ, [[4, 4], [4, 4]])
        assert a.scale(QQ.from_int(2)) == mk(QQ, [[2, 4], [6, 8]])
        assert a.scale(minus_one).add(a).is_zero()

    def test_transpose_and_cols_at(self):
        a = mk(QQ, [[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == mk(QQ, [[1, 4], [2, 5], [3, 6]])
        assert a.cols_at([2, 0]) == mk(QQ, [[3, 1], [6, 4]])
        for r, c in product(range(3), range(3)):  # 0-row and 0-column shapes too
            z = Matrix.zero(QQ, r, c)
            assert z.transpose() == Matrix.zero(QQ, c, r)
            assert z.cols_at([]) == Matrix.zero(QQ, r, 0)

    def test_field_mismatch_rejected(self):
        a = mk(QQ, [[1]])
        b = mk(GF(7), [[1]])
        with pytest.raises(ValueError):
            a.mul(b)


class TestTrustedResults:
    """Results built without the constructor's checks are well formed."""

    @staticmethod
    def assert_well_formed(m):
        assert Matrix(m.rows, m.cols, m.entries, m.field) == m
        assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
        hash(m)

    @pytest.mark.parametrize("field", FIELDS)
    def test_every_shape_up_to_4x4(self, field):
        rng = random.Random("linalg-trusted")
        for r, c in product(range(5), range(5)):
            a, b = mk_random(field, rng, r, c), mk_random(field, rng, r, c)
            results = [a.add(b), a.scale(field.from_int(-2))]
            results += [a.mul(mk_random(field, rng, c, k)) for k in range(5)]
            results += [Matrix.zero(field, r, c), a.rows_at(range(r - 1, -1, -1))]
            results += [kernel_basis(a)[0], a.transpose(), a.cols_at(range(c - 1, -1, -1))]
            # the short-cut returns: shared identities, zero and empty blocks
            results += [Matrix.identity(field, r).mul(a), a.mul(Matrix.identity(field, c))]
            results += [Matrix.zero(field, r, 0).mul(Matrix.zero(field, 0, c))]
            results += [kernel_basis(Matrix.zero(field, r, c))[0]]
            results += [kernel_basis(Matrix.identity(field, c))[0]]
            for m in results:
                self.assert_well_formed(m)
        for n in range(5):
            self.assert_well_formed(Matrix.identity(field, n))

    @pytest.mark.parametrize("field", FIELDS)
    def test_identity_is_shared(self, field):
        for n in range(5):
            i = Matrix.identity(field, n)
            assert Matrix.identity(field, n) is i
            assert i.entries == tuple(
                tuple(field.one if r == c else field.zero for c in range(n)) for r in range(n)
            )


SHORTCUT_FIELDS = [QQ, GF(32003), GF(4294967311)]


def _multiplied_out(a, b):
    """The product entry by entry, with no short-cut."""
    f = a.field
    return Matrix(a.rows, b.cols, tuple(
        tuple(f.dot(a.entries[i], [b.entries[k][j] for k in range(a.cols)]) for j in range(b.cols))
        for i in range(a.rows)
    ), f)


class TestShortcuts:
    """A shared identity, a zero block and an empty shape are answered without
    arithmetic; each answer equals the general route's, entry for entry.  The
    general route runs on a non-shared copy of the identity."""

    @pytest.mark.parametrize("field", SHORTCUT_FIELDS)
    def test_products(self, field):
        rng = random.Random("linalg-shortcut-products")
        for n, k in product(range(5), range(5)):
            i = Matrix.identity(field, n)
            copy = Matrix.from_rows(field, i.entries, n)
            assert copy is not i and copy == i
            a, b = mk_random(field, rng, n, k), mk_random(field, rng, k, n)
            assert repr(i.mul(a)) == repr(copy.mul(a)) == repr(_multiplied_out(copy, a))
            assert repr(b.mul(i)) == repr(b.mul(copy)) == repr(_multiplied_out(b, copy))
            if n and k:
                assert i.mul(a) is a and b.mul(i) is b
        for r, m, c in product(range(5), repeat=3):
            if r and m and c:
                continue
            a, b = mk_random(field, rng, r, m), mk_random(field, rng, m, c)
            assert repr(a.mul(b)) == repr(_multiplied_out(a, b))

    @pytest.mark.parametrize("field", SHORTCUT_FIELDS)
    def test_checks_run_first(self, field):
        i = Matrix.identity(field, 2)
        with pytest.raises(ValueError, match="shape mismatch"):
            i.mul(Matrix.zero(field, 3, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            Matrix.zero(field, 0, 3).mul(i)
        other = QQ if field is not QQ else GF(7)
        with pytest.raises(ValueError, match="field mismatch"):
            i.mul(Matrix.identity(other, 2))

    @pytest.mark.parametrize("field", SHORTCUT_FIELDS)
    def test_transpose_and_kernel(self, field):
        for n in range(5):
            i = Matrix.identity(field, n)
            copy = Matrix.from_rows(field, i.entries, n)
            assert i.transpose() is i
            assert repr(i.transpose()) == repr(copy.transpose())
            basis, free = kernel_basis(i)
            copy_basis, copy_free = kernel_basis(copy)
            assert repr(basis) == repr(copy_basis) == repr(dense_nullspace(copy))
            assert free == copy_free == []
        for r, c in product(range(5), range(5)):  # zero blocks, 0-row blocks among them
            z = mk(field, [[0] * c for _ in range(r)], c)
            basis, free = kernel_basis(z)
            assert basis is Matrix.identity(field, c)
            assert repr(basis) == repr(dense_nullspace(z))
            assert free == list(range(c))

    @pytest.mark.parametrize("field", SHORTCUT_FIELDS)
    def test_zero_is_shared(self, field):
        for r, c in product(range(5), range(5)):
            z = Matrix.zero(field, r, c)
            assert Matrix.zero(field, r, c) is z
            assert z == Matrix.from_rows(field, [[field.zero] * c for _ in range(r)], c)
            assert repr(z) == repr(mk(field, [[0] * c for _ in range(r)], c))

    def test_equal_fields_give_equal_matrices(self):
        # distinct objects that compare equal: the caches key on the object
        fresh, cached = PrimeField(32003), GF(32003)
        assert fresh is not cached and fresh == cached
        for n in range(4):
            assert Matrix.identity(fresh, n) == Matrix.identity(cached, n)
            assert Matrix.identity(fresh, n).field is fresh
            assert Matrix.identity(fresh, n).mul(Matrix.identity(cached, n)).entries == (
                Matrix.identity(cached, n).entries
            )
            for c in range(4):
                assert Matrix.zero(fresh, n, c) == Matrix.zero(cached, n, c)
                assert Matrix.zero(fresh, n, c).field is fresh

    @pytest.mark.parametrize("field", SHORTCUT_FIELDS)
    def test_rank_of_identity(self, field):
        for n in range(5):
            copy = Matrix.from_rows(field, Matrix.identity(field, n).entries, n)
            assert rank(Matrix.identity(field, n)) == rank_naive(copy) == rank(copy) == n


class TestRank:
    @pytest.mark.parametrize("field", FIELDS)
    def test_known_ranks(self, field):
        assert rank(mk(field, [[1, 2], [2, 4]])) == 1
        assert rank(Matrix.identity(field, 4)) == 4
        assert rank(Matrix.zero(field, 3, 5)) == 0
        assert rank(mk(field, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2

    def test_hilbert_matrix_exact(self):
        # Floating point misjudges this; exact arithmetic must not.
        n = 6
        rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        m = Matrix.from_rows(QQ, rows)
        assert rank(m) == n
        assert rank_naive(m) == n

    def test_rank_drop_mod_p(self):
        # [[1,1],[1,1+7]] is invertible over Q but singular mod 7.
        assert rank(mk(QQ, [[1, 1], [1, 8]])) == 2
        assert rank(mk(GF(7), [[1, 1], [1, 8]])) == 1

    @pytest.mark.parametrize("field", FIELDS)
    def test_rank_agrees_with_naive_random(self, field):
        rng = random.Random("linalg-rank-agreement")
        for _ in range(30):
            r = rng.randrange(0, 5)
            c = rng.randrange(0, 5)
            m = mk_random(field, rng, r, c, -4, 4)
            assert rank(m) == rank_naive(m)

    @pytest.mark.parametrize("field", FIELDS)
    def test_rank_two_products(self, field):
        # full-range entries: over a large prime their products overflow int64
        rng = random.Random("linalg-rank-two")
        for _ in range(20):
            a = mk_random(field, rng, 5, 2, 0, 2**40)
            b = mk_random(field, rng, 2, 5, 0, 2**40)
            if rank_naive(a) < 2 or rank_naive(b) < 2:
                continue
            m = a.mul(b)
            assert rank(m) == rank_naive(m) == 2
            assert len(kernel_basis(m)[1]) == 3


class TestNullspace:
    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_property(self, field):
        rng = random.Random("linalg-nullspace")
        for _ in range(20):
            r = rng.randrange(0, 4)
            c = rng.randrange(0, 4)
            m = mk_random(field, rng, r, c)
            n = kernel_basis(m)[0]
            assert n.rows == m.cols
            assert n.cols == m.cols - rank(m)
            if n.cols and m.rows:
                assert m.mul(n).is_zero()
            # Kernel basis columns are independent.
            assert rank(n) == n.cols

    def test_known_kernel(self):
        m = mk(QQ, [[1, 2, 3]])
        n, free = kernel_basis(m)
        assert n.cols == 2 and free == [1, 2]
        assert m.mul(n).is_zero()


class TestKernelBasis:
    @pytest.mark.parametrize("field", FIELDS)
    def test_free_rows_recover_coordinates(self, field):
        # the basis is the identity on its free columns, so the rows of b x
        # there give back x: how morphism_kernel reads an induced action
        rng = random.Random("linalg-kernel-basis")
        for _ in range(20):
            r = rng.randrange(0, 4)
            c = rng.randrange(0, 5)
            k = rng.randrange(0, 3)
            m = mk_random(field, rng, r, c)
            basis, free = kernel_basis(m)
            assert free == sorted(free) and len(free) == basis.cols
            assert basis.rows_at(free) == Matrix.identity(field, len(free))
            x = mk_random(field, rng, basis.cols, k)
            assert basis.mul(x).rows_at(free) == x


class TestSolve:
    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
    def test_solution_kills_every_row_and_keeps_the_given_values(self, field):
        rng = random.Random("linalg-solve")
        for r, c, _ in product(range(6), range(6), range(3)):  # 0-row and 0-column shapes too
            dense = [[field.from_int(rng.choice((0, 0, 1, -1, 2, -3))) for _ in range(c)] for _ in range(r)]
            rows = [{j: a for j, a in enumerate(row) if not field.is_zero(a)} for row in dense]
            ech = Echelon(field)
            for row in rows:
                ech.add(row)
            values = {j: field.from_int(rng.randint(-3, 3)) for j in range(c) if j not in ech.pivots}
            given = dict(values)
            x = ech.solve(values)
            assert values == given  # the argument is left as it was
            assert sorted(x) == list(range(c))
            assert all(x[j] == v for j, v in given.items())
            for row in dense:
                assert field.is_zero(field.dot(row, [x[j] for j in range(c)]))


class TestPivotRows:
    """``Echelon.pivots`` asks only that each row be monic at its pivot with its
    other entries to the right; the rows need not be reduced against each other."""

    @staticmethod
    def _random_row(field, rng, cols):
        row = {j: field.from_int(rng.choice((0, 0, 1, -1, 2, -3))) for j in range(cols)}
        return {j: a for j, a in row.items() if not field.is_zero(a)}

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
    def test_unreduced_pivot_rows_reduce_and_solve_alike(self, field):
        rng = random.Random("linalg-pivot-rows")
        unreduced = 0
        for _ in range(200):
            cols = rng.randint(1, 9)
            pivot_cols = sorted(rng.sample(range(cols), rng.randint(0, cols)))
            stored = {}  # monic at c, random to its right, other pivot columns too
            for c in pivot_cols:
                right = self._random_row(field, rng, cols).items()
                stored[c] = {c: field.one, **{j: a for j, a in right if j > c}}
            direct = Echelon(field)
            direct.pivots.update(stored)
            added = Echelon(field)
            for c in reversed(pivot_cols):  # each reduced against the ones to its right
                assert added.add(stored[c]) == c
            assert sorted(added.pivots) == pivot_cols
            unreduced += direct.pivots != added.pivots
            for _ in range(5):
                row = self._random_row(field, rng, cols)
                assert direct.reduce(row) == added.reduce(row)
            values = {c: field.from_int(rng.randint(-3, 3)) for c in range(cols) if c not in stored}
            assert direct.solve(values) == added.solve(values)
        assert unreduced > 50  # the two echelons differ in their rows, not in what they give

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
    def test_add_returns_the_new_pivot(self, field):
        rng = random.Random("linalg-add-pivot")
        for _ in range(100):
            cols = rng.randint(1, 8)
            ech = Echelon(field)
            for _ in range(cols + 2):
                row = self._random_row(field, rng, cols)
                remainder = ech.reduce(row)
                before = dict(ech.pivots)
                pivot = ech.add(row)
                if remainder:
                    assert pivot == min(remainder)
                    inv = field.inv(remainder[pivot])
                    assert ech.pivots == {**before, pivot: {k: field.mul(inv, v) for k, v in remainder.items()}}
                else:
                    assert pivot is None
                    assert ech.pivots == before
            dense = [[row.get(j, field.zero) for j in range(cols)] for row in ech.pivots.values()]
            m = Matrix.from_rows(field, dense, cols)
            assert rank(m) == len(ech.pivots) == rank_naive(m)


@pytest.mark.parametrize("field", FIELDS)
def test_pivot_map_readers_match_dense_reference(field):
    rng = random.Random("linalg-dense-reference")
    for r, c, _ in product(range(6), range(6), range(4)):  # 0-row and 0-column shapes too
        # mostly zeros, so ranks drop and free columns appear
        a = mk(field, [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)], c)
        _, pivots = dense_rref(a)
        assert rank(a) == len(pivots) == rank_naive(a)
        basis, free = kernel_basis(a)
        assert repr(basis) == repr(dense_nullspace(a))
        assert free == [j for j in range(c) if j not in pivots]


class TestColumnSpaceComplement:
    """The cokernel projection q of m: a kernel basis of m's transpose, transposed."""

    @pytest.mark.parametrize("field", FIELDS)
    def test_quotient_identities(self, field):
        rng = random.Random("linalg-complement")
        for _ in range(20):
            r = rng.randrange(0, 5)
            c = rng.randrange(0, 5)
            m = mk_random(field, rng, r, c)
            ker, free = kernel_basis(m.transpose())
            q = ker.transpose()
            cod = r - rank(m)
            assert (q.rows, q.cols) == (cod, r)
            assert len(free) == cod
            if cod and c:
                assert q.mul(m).is_zero()
            assert q.cols_at(free) == Matrix.identity(field, cod)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rs: len({len(r) for r in rs}) == 1)
)
def test_rank_invariants(data):
    m = mk(QQ, data)
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert r == rank(mk(QQ, [list(col) for col in zip(*data)]))
    assert r == rank_naive(m)
