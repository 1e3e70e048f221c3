"""Random morphisms: the sparse Hom-space solver against a dense reference."""

from __future__ import annotations

import hashlib

import pytest

from conftest import dense_nullspace
from quiver_regrade import GF, QQ, Arrow, DegreeWindow, Matrix, WeightedQuiver
from quiver_regrade.randomgen import (
    _scalar_draw,
    random_morphism,
    random_quiver,
    random_rep,
    random_scalar,
    rng_for,
)

FIELDS = [QQ, GF(32003), GF(4294967311)]

PAIRS = 50

# sha256 of the seeded draws below; a change to how random_rep or
# random_morphism consumes the stream changes it
PINNED_DRAWS = {
    "q": "bb2e59ad39f427ed184e609ec0238b4f865eff01021704f43b559a7f68794fa6",
    "p32003": "72e068cd7bfb69b7fbaa41a87fda0a82d626bf0eb5104cfdf0ec4f9d13bcdce1",
}


def dense_reference(rng, source, target):
    """The commuting-square system as one dense matrix, solved by the dense
    Gauss-Jordan reference ``dense_nullspace``, which shares no code with the
    ``Echelon`` kernel of ``random_morphism``.

    Same unknown numbering and the same random combination of the nullspace
    basis, so a correct sparse solver returns the very same blocks and makes
    the very same draws.
    """
    field = source.field
    slots = sorted(set(source.dims) & set(target.dims))
    shapes = {s: (target.dims[s], source.dims[s]) for s in slots}
    var_index = {}
    for slot in slots:
        r, c = shapes[slot]
        for i in range(r):
            for j in range(c):
                var_index[(slot, i, j)] = len(var_index)
    nvars = len(var_index)
    rows = []
    for (name, d) in sorted(source.mats):
        a = source.quiver.arrow(name)
        skey = (a.source, d)
        tkey = (a.target, d + a.degree)
        b_mat = target.mats.get((name, d))
        if b_mat is None or skey not in shapes or tkey not in shapes:
            continue
        a_mat = source.mats[(name, d)]
        nb_t, na_t = shapes[tkey]
        nb_s, na_s = shapes[skey]
        for i in range(nb_t):
            for j in range(na_s):
                row = [field.zero] * nvars
                for k in range(na_t):
                    idx = var_index[(tkey, i, k)]
                    row[idx] = field.add(row[idx], a_mat.entries[k][j])
                for k in range(nb_s):
                    idx = var_index[(skey, k, j)]
                    row[idx] = field.sub(row[idx], b_mat.entries[i][k])
                if any(not field.is_zero(x) for x in row):
                    rows.append(row)
    values = [field.zero] * nvars
    if nvars:
        basis = dense_nullspace(Matrix.from_rows(field, rows, nvars))
        for j in range(basis.cols):
            coeff = random_scalar(rng, field)
            if field.is_zero(coeff):
                continue
            for i in range(nvars):
                values[i] = field.add(values[i], field.mul(coeff, basis.entries[i][j]))
    blocks = {}
    for slot in slots:
        r, c = shapes[slot]
        entries = [[values[var_index[(slot, i, j)]] for j in range(c)] for i in range(r)]
        blocks[slot] = Matrix.from_rows(field, entries, c)
    return blocks


def assert_matches_reference(rng, source, target):
    """Same blocks as the dense reference, and the stream left in the same place."""
    state = rng.getstate()
    phi = random_morphism(rng, source, target)
    next_draw = rng.random()
    rng.setstate(state)
    assert phi.blocks == dense_reference(rng, source, target)
    assert rng.random() == next_draw
    return phi


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_sparse_solver_matches_dense_reference(field):
    window = DegreeWindow(0, 3)
    empty_slots = nontrivial = 0
    for seed in range(PAIRS):
        rng = rng_for("randomgen-reference", field.spec, seed)
        q = random_quiver(rng, max_vertices=3, max_arrows=4, max_degree=2)
        source = random_rep(rng, q, window, field, max_dim=3)
        target = random_rep(rng, q, window, field, max_dim=3)
        phi = assert_matches_reference(rng, source, target)
        empty_slots += any(m.rows == 0 or m.cols == 0 for m in phi.blocks.values())
        nontrivial += any(not m.is_zero() for m in phi.blocks.values())
    # the sample exercised dimension-0 slots and nonzero morphisms
    assert empty_slots and nontrivial


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
def test_no_unknowns_draws_nothing(field):
    window = DegreeWindow(0, 2)
    rng = rng_for("randomgen-nvars0", field.spec)
    q = random_quiver(rng, max_vertices=2, max_arrows=3, max_degree=2)
    source = random_rep(rng, q, window, field, max_dim=0)
    target = random_rep(rng, q, window, field, max_dim=2)
    state = rng.getstate()
    phi = assert_matches_reference(rng, source, target)
    assert all(m.cols == 0 for m in phi.blocks.values())
    rng.setstate(state)
    random_morphism(rng, source, target)
    assert rng.getstate() == state


def test_arrow_of_degree_zero_is_refused():
    # the square of a degree-0 loop relates two blocks at one slot, which
    # the Kronecker rows assume apart; validate() rejects such a quiver too
    q = WeightedQuiver.build(["v"], [Arrow("x", "v", "v", 0)])
    rep = random_rep(rng_for("randomgen-degree-0"), q, DegreeWindow(0, 1), QQ, max_dim=2)
    with pytest.raises(ValueError, match="nonpositive degree 0"):
        random_morphism(rng_for("randomgen-degree-0"), rep, rep)


DRAW_PRIMES = [2, 3, 5, 7, 31, 32003, 65521, 2**31 - 1, 4294967311, 2**61 - 1]


@pytest.mark.parametrize("p", DRAW_PRIMES)
@pytest.mark.parametrize("nonzero", [False, True])
def test_scalar_draw_is_randrange(p, nonzero):
    """Over F_p the bound draw returns what ``randrange`` returns from the
    same stream, and leaves the stream where ``randrange`` leaves it."""
    ours, theirs = rng_for("randomgen-draw", p, nonzero), rng_for("randomgen-draw", p, nonzero)
    draw = _scalar_draw(ours, GF(p), nonzero)
    got = [draw() for _ in range(5000)]
    if nonzero:
        assert got == [theirs.randrange(1, p) for _ in range(5000)]
    else:
        assert got == [theirs.randrange(p) for _ in range(5000)]
    assert min(got) >= nonzero and max(got) < p
    assert ours.random() == theirs.random()


def _entries(m):
    return (m.rows, m.cols, tuple(tuple(str(x) for x in row) for row in m.entries))


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
def test_seeded_draws_are_pinned(field):
    """The dims, entries and blocks that 200 seeded trials draw, and where
    the stream is left, hash to the pinned value."""
    h = hashlib.sha256()
    window = DegreeWindow(-1, 3)
    for trial in range(200):
        rng = rng_for("randomgen-pin", field.spec, trial)
        q = random_quiver(rng, max_vertices=3, max_arrows=4, max_degree=2)
        source = random_rep(rng, q, window, field, max_dim=3)
        target = random_rep(rng, q, window, field, max_dim=3)
        phi = random_morphism(rng, source, target)
        parts = []
        for rep in (source, target):
            parts.append(sorted(rep.dims.items()))
            parts.append([(k, _entries(m)) for k, m in sorted(rep.mats.items())])
        parts.append([(k, _entries(m)) for k, m in sorted(phi.blocks.items())])
        parts.append(rng.random())
        h.update(repr(parts).encode())
    assert h.hexdigest() == PINNED_DRAWS[field.spec]
