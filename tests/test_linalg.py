"""Exact linear algebra: rank, rref, nullspace, solving, complements."""

from __future__ import annotations

import random
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_regrade import GF, QQ, Matrix, nullspace, rank, rank_naive, rref, solve_columns
from quiver_regrade.linalg import Echelon, column_space_complement

FIELDS = [QQ, GF(7), GF(32003), GF(4294967311)]  # the last exceeds int64 products


def mk(field, rows, cols=None):
    return Matrix.from_rows(field, [[field.from_int(x) for x in r] for r in rows], cols=cols)


def mk_random(field, rng, r, c, lo=-3, hi=3):
    return mk(field, [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)], cols=c)


class TestMatrixBasics:
    def test_from_rows_shape(self):
        m = mk(QQ, [[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.get(1, 2) == Fraction(6)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows(QQ, [[QQ.one], [QQ.one, QQ.one]])

    def test_empty_needs_explicit_cols(self):
        m = Matrix.from_rows(QQ, [], cols=3)
        assert (m.rows, m.cols) == (0, 3)

    def test_identity_and_zero(self):
        i = Matrix.identity(QQ, 3)
        z = Matrix.zero(QQ, 2, 3)
        assert i.is_identity()
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
        assert a.add(b) == mk(QQ, [[6, 8], [10, 12]])
        assert b.sub(a) == mk(QQ, [[4, 4], [4, 4]])
        assert a.scale(QQ.from_int(2)) == mk(QQ, [[2, 4], [6, 8]])
        assert a.neg().add(a).is_zero()

    def test_transpose(self):
        a = mk(QQ, [[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == mk(QQ, [[1, 4], [2, 5], [3, 6]])

    def test_column(self):
        a = mk(QQ, [[1, 2], [3, 4]])
        assert a.column(1) == (Fraction(2), Fraction(4))

    def test_field_mismatch_rejected(self):
        a = mk(QQ, [[1]])
        b = mk(GF(7), [[1]])
        with pytest.raises(ValueError):
            a.mul(b)


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
            assert len(rref(m)[1]) == 2


class TestRref:
    def test_form(self):
        m = mk(QQ, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
        r, pivots = rref(m)
        assert pivots == [0, 1]
        assert rank(r) == rank(m) == 2
        # Pivot columns of the reduced form are standard basis vectors.
        for k, pc in enumerate(pivots):
            col = r.column(pc)
            assert all(
                entry == (QQ.one if i == k else QQ.zero) for i, entry in enumerate(col)
            )

    def test_idempotent(self):
        m = mk(GF(7), [[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        r, p = rref(m)
        r2, p2 = rref(r)
        assert r2 == r and p2 == p


class TestNullspace:
    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_property(self, field):
        rng = random.Random("linalg-nullspace")
        for _ in range(20):
            r = rng.randrange(0, 4)
            c = rng.randrange(0, 4)
            m = mk_random(field, rng, r, c)
            n = nullspace(m)
            assert n.rows == m.cols
            assert n.cols == m.cols - rank(m)
            if n.cols and m.rows:
                assert m.mul(n).is_zero()
            # Kernel basis columns are independent.
            assert rank(n) == n.cols

    def test_known_kernel(self):
        m = mk(QQ, [[1, 2, 3]])
        n = nullspace(m)
        assert n.cols == 2
        assert m.mul(n).is_zero()


class TestSolveColumns:
    @pytest.mark.parametrize("field", FIELDS)
    def test_roundtrip(self, field):
        rng = random.Random("linalg-solve")
        for _ in range(20):
            r = rng.randrange(1, 4)
            c = rng.randrange(1, 4)
            k = rng.randrange(1, 3)
            a = mk_random(field, rng, r, c)
            x = mk_random(field, rng, c, k)
            b = a.mul(x)
            got = solve_columns(a, b)
            assert got is not None
            assert a.mul(got) == b

    def test_unsolvable(self):
        a = mk(QQ, [[1], [0]])
        b = mk(QQ, [[0], [1]])
        assert solve_columns(a, b) is None


# The dense route the pivot-map readers replaced: pad the reduced form out
# to a Matrix (and solve through an augmented Matrix), then read it back.
def _dense_rref(m):
    f = m.field
    ech = Echelon(f)
    for row in m.entries:
        ech.add({j: a for j, a in enumerate(row) if not f.is_zero(a)})
    ech.back_substitute()
    pivots = sorted(ech.pivots)
    rows = [tuple(ech.pivots[c].get(j, f.zero) for j in range(m.cols)) for c in pivots]
    rows += [(f.zero,) * m.cols] * (m.rows - len(pivots))
    return Matrix(m.rows, m.cols, tuple(rows), f), pivots


def _dense_nullspace(m):
    f = m.field
    red, pivots = _dense_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for fc in free:
        vec = [f.zero] * m.cols
        vec[fc] = f.one
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(red.entries[r][fc])
        cols.append(vec)
    entries = tuple(tuple(col[i] for col in cols) for i in range(m.cols))
    return Matrix(m.cols, len(cols), entries, f)


def _dense_solve_columns(a, b):
    f = a.field
    aug_rows = [tuple(a.entries[i]) + tuple(b.entries[i]) for i in range(a.rows)]
    aug = Matrix.from_rows(f, aug_rows, a.cols + b.cols) if a.rows else Matrix.zero(f, 0, a.cols + b.cols)
    red, pivots = _dense_rref(aug)
    for c in pivots:
        if c >= a.cols:
            return None
    sol = [[f.zero] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(pivots):
        for j in range(b.cols):
            sol[pc][j] = red.entries[r][a.cols + j]
    return Matrix.from_rows(f, sol, b.cols) if a.cols else Matrix.zero(f, 0, b.cols)


@pytest.mark.parametrize("field", FIELDS)
def test_pivot_map_readers_match_dense_reference(field):
    rng = random.Random("linalg-dense-reference")
    solved = unsolvable = 0
    for r, c, k in product(range(6), range(6), range(4)):  # 0-row and 0-column shapes too
        # mostly zeros, so ranks drop and free columns appear
        a = mk(field, [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)], c)
        assert repr(rref(a)) == repr(_dense_rref(a))
        assert rank(a) == len(_dense_rref(a)[1]) == rank_naive(a)
        assert repr(nullspace(a)) == repr(_dense_nullspace(a))
        if rng.random() < 0.5:  # consistent by construction
            b = a.mul(mk_random(field, rng, c, k))
        else:  # usually inconsistent once a has a zero row or rank < r
            b = mk_random(field, rng, r, k)
        got, want = solve_columns(a, b), _dense_solve_columns(a, b)
        assert repr(got) == repr(want)
        solved += got is not None
        unsolvable += got is None
    assert solved and unsolvable


class TestColumnSpaceComplement:
    @pytest.mark.parametrize("field", FIELDS)
    def test_quotient_identities(self, field):
        rng = random.Random("linalg-complement")
        for _ in range(20):
            r = rng.randrange(0, 5)
            c = rng.randrange(0, 5)
            m = mk_random(field, rng, r, c)
            q, e = column_space_complement(m)
            cod = r - rank(m)
            assert (q.rows, q.cols) == (cod, r)
            assert (e.rows, e.cols) == (r, cod)
            if cod and c:
                assert q.mul(m).is_zero()
            if cod:
                assert q.mul(e).is_identity()


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
    assert r == rank(m.transpose())
    assert r == rank_naive(m)
