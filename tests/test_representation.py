"""Graded representations: evaluation, satisfaction, morphisms, kernels."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import dense_nullspace, dense_rref
from quiver_regrade import (
    Arrow,
    DegreeWindow,
    GF,
    GradedMorphism,
    GradedRep,
    Matrix,
    MorphismSquareError,
    QQ,
    UniformElement,
    WeightedQuiver,
    WindowOverflowError,
    compose_morphisms,
    evaluate_path,
    evaluate_relation,
    morphism_cokernel,
    morphism_kernel,
    path_from_arrows,
    rank,
    satisfies,
    shift,
    trivial_path,
)
from quiver_regrade.catalog import (
    bridge_quiver,
    kxy_diagonal_rep,
    kxy_presentation,
    kxy_split_presentation,
)
from quiver_regrade.linalg import Echelon, kernel_basis
from quiver_regrade.randomgen import random_morphism, random_rep, rng_for


def qmat(rows, cols=None):
    return Matrix.from_rows(QQ, [[QQ.from_int(x) for x in r] for r in rows], cols=cols)


@pytest.fixture
def line_quiver():
    return WeightedQuiver(
        vertices=("u", "v", "w"),
        arrows=(Arrow("a", "u", "v", 1), Arrow("b", "v", "w", 1)),
    )


@pytest.fixture
def line_rep(line_quiver):
    # Non-square blocks: a wrong composition order cannot even typecheck.
    return GradedRep(
        quiver=line_quiver,
        window=DegreeWindow(0, 3),
        field=QQ,
        dims={("u", 0): 2, ("v", 1): 3, ("w", 2): 1},
        mats={
            ("a", 0): qmat([[1, 0], [0, 1], [1, 1]]),
            ("b", 1): qmat([[1, 2, 3]]),
        },
    )


class TestDegreeWindow:
    def test_contains(self):
        w = DegreeWindow(-2, 10)
        assert w.contains(-2) and w.contains(10)
        assert not w.contains(-3) and not w.contains(11)

    def test_degrees(self):
        assert list(DegreeWindow(0, 2).degrees()) == [0, 1, 2]

    def test_shifted(self):
        assert DegreeWindow(0, 5).shifted(2) == DegreeWindow(-2, 3)

    def test_str(self):
        assert str(DegreeWindow(-2, 10)) == "-2:10"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DegreeWindow(3, 2)


class TestGradedRepValidation:
    def test_unknown_vertex(self, line_quiver):
        with pytest.raises(ValueError):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 1),
                field=QQ,
                dims={("ghost", 0): 1},
                mats={},
            )

    def test_out_of_window(self, line_quiver):
        with pytest.raises(ValueError):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 1),
                field=QQ,
                dims={("u", 5): 1},
                mats={},
            )

    def test_negative_dim(self, line_quiver):
        with pytest.raises(ValueError):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 1),
                field=QQ,
                dims={("u", 0): -1},
                mats={},
            )

    def test_block_needs_both_endpoints(self, line_quiver):
        with pytest.raises(ValueError):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 3),
                field=QQ,
                dims={("u", 0): 2},
                mats={("a", 0): qmat([[1, 0], [0, 1], [1, 1]])},
            )

    def test_block_shape_checked(self, line_quiver):
        with pytest.raises(ValueError):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 3),
                field=QQ,
                dims={("u", 0): 2, ("v", 1): 3},
                mats={("a", 0): qmat([[1, 0]])},
            )

    def test_block_over_another_field_rejected(self, line_quiver):
        with pytest.raises(ValueError, match="wrong field"):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 3),
                field=QQ,
                dims={("u", 0): 2, ("v", 1): 1},
                mats={("a", 0): Matrix.from_rows(GF(7), [[1, 2]])},
            )

    def test_block_for_unknown_arrow_names_it(self, line_quiver):
        with pytest.raises(KeyError, match="no arrow named 'ghost'"):
            GradedRep(
                quiver=line_quiver,
                window=DegreeWindow(0, 3),
                field=QQ,
                dims={("u", 0): 2, ("v", 1): 1},
                mats={("ghost", 0): qmat([[1, 2]])},
            )

    def test_catalog_rep_rejects_negative_dimension(self, small_window):
        with pytest.raises(ValueError, match="negative dimension"):
            kxy_diagonal_rep(small_window, QQ, -1)

    def test_accessors(self, line_rep):
        assert line_rep.dim("u", 0) == 2
        assert line_rep.dim("u", 1) is None
        assert line_rep.mat("a", 0) is not None
        assert line_rep.mat("a", 1) is None


class TestEvaluatePath:
    def test_trivial_is_identity(self, line_rep):
        e = trivial_path("u")
        m = evaluate_path(line_rep, e, 0)
        assert m == Matrix.identity(QQ, m.rows)

    def test_composes_right_to_left(self, line_quiver, line_rep):
        # The word (a, b) acts as M_b after M_a.
        p = path_from_arrows(line_quiver, ["a", "b"])
        got = evaluate_path(line_rep, p, 0)
        want = line_rep.mat("b", 1).mul(line_rep.mat("a", 0))
        assert got == want
        assert (got.rows, got.cols) == (1, 2)

    def test_absent_block_raises(self, line_quiver, line_rep):
        p = path_from_arrows(line_quiver, ["a"])
        with pytest.raises(WindowOverflowError):
            evaluate_path(line_rep, p, 1)

    def test_window_overflow_raises(self, line_quiver, line_rep):
        p = path_from_arrows(line_quiver, ["a"])
        with pytest.raises(WindowOverflowError):
            evaluate_path(line_rep, p, 3)

    def test_trivial_at_absent_slot_raises(self, line_rep):
        with pytest.raises(WindowOverflowError):
            evaluate_path(line_rep, trivial_path("u"), 1)


class TestSatisfies:
    def test_diagonal_rep_satisfies_commutator(self, diag_rep):
        _, ideal = kxy_presentation()
        ok, violations = satisfies(diag_rep, ideal)
        assert ok and violations == []

    def test_noncommuting_witness_fails(self, small_window):
        # x strictly upper triangular, y diagonal with distinct entries: xy != yx.
        q, ideal = kxy_presentation()
        dims = {("v", d): 2 for d in small_window.degrees()}
        x_block = qmat([[0, 1], [0, 0]])
        y_block = qmat([[1, 0], [0, 2]])
        mats = {}
        for d in small_window.degrees():
            if small_window.contains(d + 1):
                mats[("x", d)] = x_block
            if small_window.contains(d + 2):
                mats[("y", d)] = y_block
        rep = GradedRep(quiver=q, window=small_window, field=QQ, dims=dims, mats=mats)
        ok, violations = satisfies(rep, ideal)
        assert not ok
        assert violations
        gen_indices = {g for g, _ in violations}
        assert gen_indices == {0}

    def test_zero_rep_satisfies_everything(self, kxy, window):
        q, ideal = kxy
        dims = {(v, d): 0 for v in q.vertices for d in window.degrees()}
        mats = {
            (a.name, d): Matrix.zero(QQ, 0, 0)
            for a in q.arrows
            for d in window.degrees()
            if window.contains(d + a.degree)
        }
        ok, violations = satisfies(GradedRep(q, window, QQ, dims, mats), ideal)
        assert ok and violations == []

    def test_unevaluable_degrees_masked(self):
        # Window too small for the degree-3 relation anywhere: trivially satisfied.
        q, ideal = kxy_presentation()
        rep = GradedRep(
            quiver=q,
            window=DegreeWindow(0, 2),
            field=QQ,
            dims={("v", 0): 2, ("v", 1): 2, ("v", 2): 2},
            mats={("x", 0): qmat([[0, 1], [0, 0]]), ("x", 1): qmat([[0, 1], [0, 0]])},
        )
        ok, violations = satisfies(rep, ideal)
        assert ok


class TestEvaluateRelation:
    def test_commutator_value(self, small_window):
        q, ideal = kxy_presentation()
        dims = {("v", d): 2 for d in small_window.degrees()}
        x_block = qmat([[0, 1], [0, 0]])
        y_block = qmat([[1, 0], [0, 2]])
        mats = {}
        for d in small_window.degrees():
            if small_window.contains(d + 1):
                mats[("x", d)] = x_block
            if small_window.contains(d + 2):
                mats[("y", d)] = y_block
        rep = GradedRep(quiver=q, window=small_window, field=QQ, dims=dims, mats=mats)
        (gen,) = ideal.generators
        val = evaluate_relation(rep, gen, 0)
        # The word x*y acts as M_y M_x = [[0,1],[0,0]]; y*x as M_x M_y = [[0,2],[0,0]].
        assert val == qmat([[0, -1], [0, 0]])


class TestShift:
    def test_reindexes(self, diag_rep):
        s = shift(diag_rep, 2)
        assert s.window == diag_rep.window.shifted(2)
        assert s.dim("v", -2) == diag_rep.dim("v", 0)
        assert s.mat("x", -2) == diag_rep.mat("x", 0)

    def test_zero_shift_is_identity(self, diag_rep):
        assert shift(diag_rep, 0) == diag_rep

    def test_satisfaction_preserved(self, diag_rep):
        _, ideal = kxy_presentation()
        ok, _ = satisfies(shift(diag_rep, 3), ideal)
        assert ok

    def test_shift_composes(self, diag_rep):
        assert shift(shift(diag_rep, 1), 2) == shift(diag_rep, 3)


class TestGradedMorphism:
    def test_identity(self, diag_identity):
        for key, block in diag_identity.blocks.items():
            assert block == Matrix.identity(block.field, block.rows)

    def test_commuting_square_enforced(self, line_quiver, line_rep):
        # A target with zeroed arrow action cannot receive a nonzero map.
        target = GradedRep(
            quiver=line_quiver,
            window=DegreeWindow(0, 3),
            field=QQ,
            dims={("u", 0): 2, ("v", 1): 3, ("w", 2): 1},
            mats={
                ("a", 0): Matrix.zero(QQ, 3, 2),
                ("b", 1): qmat([[1, 2, 3]]),
            },
        )
        blocks = {
            ("u", 0): Matrix.identity(QQ, 2),
            ("v", 1): Matrix.identity(QQ, 3),
            ("w", 2): Matrix.identity(QQ, 1),
        }
        with pytest.raises(MorphismSquareError):
            GradedMorphism(source=line_rep, target=target, blocks=blocks)

    def test_zero_morphism_always_valid(self, line_quiver, line_rep):
        target = GradedRep(
            quiver=line_quiver,
            window=DegreeWindow(0, 3),
            field=QQ,
            dims={("u", 0): 2, ("v", 1): 3, ("w", 2): 1},
            mats={
                ("a", 0): Matrix.zero(QQ, 3, 2),
                ("b", 1): Matrix.zero(QQ, 1, 3),
            },
        )
        blocks = {
            ("u", 0): Matrix.zero(QQ, 2, 2),
            ("v", 1): Matrix.zero(QQ, 3, 3),
            ("w", 2): Matrix.zero(QQ, 1, 1),
        }
        phi = GradedMorphism(source=line_rep, target=target, blocks=blocks)
        assert phi.block("u", 0).is_zero()

    def test_block_shape_enforced(self, line_rep):
        with pytest.raises(ValueError):
            GradedMorphism(
                source=line_rep,
                target=line_rep,
                blocks={("u", 0): qmat([[1, 0]])},
            )

    def test_block_over_another_field_rejected(self):
        # no arrow touches (v, 0), so no commuting square would catch the QQ block
        f = GF(7)
        q = WeightedQuiver(vertices=("u", "v"), arrows=(Arrow("a", "u", "v", 1),))
        rep = GradedRep(q, DegreeWindow(0, 0), f, {("u", 0): 1, ("v", 0): 2}, {})
        blocks = {("u", 0): Matrix.identity(f, 1), ("v", 0): qmat([[1, 0], [0, 0]])}
        with pytest.raises(ValueError, match=r"block at \('v', 0\) is over the wrong field"):
            GradedMorphism(rep, rep, blocks)

    def test_fp_entries_given_unreduced_are_reduced(self):
        # a shared identity factor returns the other factor as it is, so an
        # unreduced -1 would fail the square against the multiplied-out 1 * -1
        f = GF(7)
        assert Matrix.from_rows(f, [[7]], 1) == Matrix.zero(f, 1, 1)
        assert Matrix(1, 2, ((-1, Fraction(1, 2)),), f).entries == ((6, 4),)
        q = WeightedQuiver(vertices=("u", "v"), arrows=(Arrow("a", "u", "v", 1),))
        rep = GradedRep(q, DegreeWindow(0, 1), f, {("u", 0): 1, ("v", 1): 1},
                        {("a", 0): Matrix.from_rows(f, [[-1]], 1)})
        blocks = {("u", 0): Matrix.identity(f, 1), ("v", 1): Matrix.from_rows(f, [[1]], 1)}
        assert GradedMorphism(rep, rep, blocks).block("v", 1) == Matrix.identity(f, 1)

    def test_compose(self, diag_rep, diag_identity):
        rng = rng_for("repr-compose", 0)
        phi = random_morphism(rng, diag_rep, diag_rep)
        assert compose_morphisms(diag_identity, phi).blocks == phi.blocks
        assert compose_morphisms(phi, diag_identity).blocks == phi.blocks

    def test_compose_checks_middle(self, diag_rep, small_window):
        other = kxy_diagonal_rep(small_window, QQ, 3)
        rng = rng_for("repr-compose-mid", 0)
        phi = random_morphism(rng, diag_rep, diag_rep)
        psi = random_morphism(rng, other, other)
        with pytest.raises(ValueError):
            compose_morphisms(psi, phi)


class TestSquareCheck:
    # u -a-> v -b-> w -c-> x, and d parallel to a; u and x carry zero spaces,
    # so the squares at a, c and d have an empty side
    QUIVER = WeightedQuiver(
        vertices=("u", "v", "w", "x"),
        arrows=(
            Arrow("a", "u", "v", 1),
            Arrow("b", "v", "w", 1),
            Arrow("c", "w", "x", 1),
            Arrow("d", "u", "v", 1),
        ),
    )

    def rep(self, b_action):
        w_dim = b_action.rows
        return GradedRep(
            quiver=self.QUIVER,
            window=DegreeWindow(0, 3),
            field=QQ,
            dims={("u", 0): 0, ("v", 1): 2, ("w", 2): w_dim, ("x", 3): 0},
            mats={
                ("a", 0): Matrix.zero(QQ, 2, 0),
                ("c", 2): Matrix.zero(QQ, 0, w_dim),
                ("d", 0): Matrix.zero(QQ, 2, 0),
                ("b", 1): b_action,
            },
        )

    @pytest.fixture
    def chain(self):
        return self.rep(qmat([[1, 0], [0, 1]])), self.rep(qmat([[0, 1], [1, 0]]))

    def blocks(self):
        return {
            ("u", 0): Matrix.zero(QQ, 0, 0),
            ("v", 1): Matrix.identity(QQ, 2),
            ("w", 2): Matrix.identity(QQ, 2),
            ("x", 3): Matrix.zero(QQ, 0, 0),
        }

    def test_failing_square_among_empty_ones_is_named(self, chain):
        source, target = chain
        with pytest.raises(MorphismSquareError, match="square fails at arrow 'b', degree 1"):
            GradedMorphism(source=source, target=target, blocks=self.blocks())

    def test_commuting_blocks_pass(self, chain):
        source, target = chain
        swap = qmat([[0, 1], [1, 0]])
        phi = GradedMorphism(source=source, target=target, blocks=self.blocks() | {("w", 2): swap})
        assert phi.block("w", 2) == swap

    def test_square_through_a_zero_space_is_multiplied_out(self, chain):
        # phi_w A passes through the zero space at w in the source and is the
        # zero 2x2 matrix, while B phi_v is not: the square fails
        _, target = chain
        source = self.rep(Matrix.zero(QQ, 0, 2))
        blocks = self.blocks() | {("w", 2): Matrix.zero(QQ, 2, 0)}
        with pytest.raises(MorphismSquareError, match="square fails at arrow 'b', degree 1"):
            GradedMorphism(source=source, target=target, blocks=blocks)

    @pytest.mark.parametrize("slot", [("u", 0), ("x", 3)])
    def test_zero_size_block_of_wrong_shape_rejected(self, chain, slot):
        source, _ = chain
        wrong = Matrix.zero(QQ, 0, 3)
        with pytest.raises(ValueError, match="has shape 0x3, expected 0x0") as exc:
            GradedMorphism(source=source, target=source, blocks=self.blocks() | {slot: wrong})
        assert not isinstance(exc.value, MorphismSquareError)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.spec)
    def test_mul_with_empty_inner_dimension_is_typed_zero(self, field):
        prod = Matrix.zero(field, 2, 0).mul(Matrix.zero(field, 0, 3))
        assert (prod.rows, prod.cols) == (2, 3)
        assert prod.entries == ((field.zero,) * 3,) * 2
        assert all(type(x) is type(field.zero) for row in prod.entries for x in row)


class TestRandomMorphismsAreHom:
    @pytest.mark.parametrize("seed", range(5))
    def test_squares_commute_by_construction(self, seed, small_window):
        q, _ = kxy_presentation()
        rng = rng_for("repr-hom", seed)
        src = random_rep(rng, q, small_window, GF(32003), max_dim=3)
        tgt = random_rep(rng, q, small_window, GF(32003), max_dim=3)
        # Constructor re-checks every square; construction must not raise.
        random_morphism(rng, src, tgt)


class TestKernelCokernel:
    @pytest.fixture
    def phi(self, small_window):
        q, _ = kxy_presentation()
        rng = rng_for("repr-kernel", 3)
        src = random_rep(rng, q, small_window, QQ, max_dim=3)
        tgt = random_rep(rng, q, small_window, QQ, max_dim=3)
        return random_morphism(rng, src, tgt)

    def test_kernel_dims_and_inclusion(self, phi):
        ker, incl = morphism_kernel(phi)
        for key in sorted(ker.dims):
            v, d = key
            block = phi.blocks[key]
            assert ker.dims[key] == block.cols - rank(block)
            inc = incl.blocks[key]
            assert rank(inc) == inc.cols
            if inc.cols:
                assert block.mul(inc).is_zero()

    def test_cokernel_dims_and_projection(self, phi):
        coker, proj = morphism_cokernel(phi)
        for key in sorted(coker.dims):
            block = phi.blocks[key]
            assert coker.dims[key] == block.rows - rank(block)
            pr = proj.blocks[key]
            assert rank(pr) == pr.rows
            if pr.rows:
                assert pr.mul(block).is_zero()

    def test_kernel_of_identity_is_zero(self, diag_identity):
        ker, _ = morphism_kernel(diag_identity)
        assert all(n == 0 for n in ker.dims.values())

    def test_cokernel_of_identity_is_zero(self, diag_identity):
        coker, _ = morphism_cokernel(diag_identity)
        assert all(n == 0 for n in coker.dims.values())


# The route morphism_kernel/morphism_cokernel took before reading induced
# actions and residues off the reduced form: solve b_t X = action b_s by an
# elimination per arrow, and reduce each standard basis vector modulo the
# image one at a time.  The kernel side runs on the dense Gauss-Jordan
# reference of conftest, which shares no code with linalg.Echelon.
def _sparse(f, row):
    return {j: x for j, x in enumerate(row) if not f.is_zero(x)}


def _reference_solve_columns(a, b):
    f = a.field
    n, k = a.cols, b.cols
    augmented = tuple(ra + rb for ra, rb in zip(a.entries, b.entries))
    red, pivots = dense_rref(Matrix(a.rows, n + k, augmented, f))
    if any(c >= n for c in pivots):
        return None
    row_of = dict(zip(pivots, red))
    sol = [row_of[i][n:] if i in row_of else [f.zero] * k for i in range(n)]
    return Matrix.from_rows(f, sol, k)


def _reference_complement(m):
    f, n = m.field, m.rows
    ech = Echelon(f)
    for j in range(m.cols):
        ech.add(_sparse(f, [row[j] for row in m.entries]))
    free = [c for c in range(n) if c not in ech.pivots]
    q = [[f.zero] * n for _ in free]
    for i in range(n):
        residue = ech.reduce({i: f.one})
        for k, c in enumerate(free):
            q[k][i] = residue.get(c, f.zero)
    e = [[f.one if free[k] == i else f.zero for k in range(len(free))] for i in range(n)]
    return Matrix.from_rows(f, q, n), Matrix.from_rows(f, e, len(free))


def _reference_kernel(phi):
    src = phi.source
    basis = {key: dense_nullspace(block) for key, block in phi.blocks.items()}
    mats = {}
    for (name, d), action in src.mats.items():
        a = src.quiver.arrow(name)
        b_s, b_t = basis.get((a.source, d)), basis.get((a.target, d + a.degree))
        if b_s is not None and b_t is not None:
            mats[(name, d)] = _reference_solve_columns(b_t, action.mul(b_s))
    return {key: b.cols for key, b in basis.items()}, mats, basis


def _reference_cokernel(phi):
    tgt = phi.target
    split = {key: _reference_complement(block) for key, block in phi.blocks.items()}
    mats = {}
    for (name, d), action in tgt.mats.items():
        a = tgt.quiver.arrow(name)
        q_t, e_s = split.get((a.target, d + a.degree)), split.get((a.source, d))
        if q_t is not None and e_s is not None:
            mats[(name, d)] = q_t[0].mul(action).mul(e_s[1])
    return {key: q.rows for key, (q, _) in split.items()}, mats, {k: q for k, (q, _) in split.items()}


@pytest.mark.parametrize("field", [QQ, GF(32003), GF(4294967311)], ids=lambda f: f.spec)
def test_kernel_and_cokernel_match_reference_route(field):
    quivers = [kxy_presentation()[0], kxy_split_presentation()[0], bridge_quiver(2)]
    window = DegreeWindow(0, 3)
    zero_slots = proper = 0
    for trial in range(100):
        rng = rng_for(f"repr-kernel-reference-{field.spec}", trial)
        q = quivers[trial % len(quivers)]
        src = random_rep(rng, q, window, field, max_dim=3)
        # endomorphisms have a large Hom-space, so kernels are proper more often
        tgt = src if trial % 2 else random_rep(rng, q, window, field, max_dim=3)
        phi = random_morphism(rng, src, tgt)
        ker, incl = morphism_kernel(phi)
        coker, proj = morphism_cokernel(phi)
        assert repr((ker.dims, ker.mats, incl.blocks)) == repr(_reference_kernel(phi))
        assert repr((coker.dims, coker.mats, proj.blocks)) == repr(_reference_cokernel(phi))
        zero_slots += 0 in src.dims.values()
        proper += any(0 < n < src.dims[key] for key, n in ker.dims.items())
    assert zero_slots and proper


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
def test_full_free_list_takes_the_action_as_it_is(field):
    # morphism_kernel/morphism_cokernel skip the rows_at/cols_at copy when the
    # free coordinates are all of them; the copy route must give the same
    quivers = [kxy_presentation()[0], kxy_split_presentation()[0], bridge_quiver(2)]
    window = DegreeWindow(0, 3)
    full = partial = 0
    for trial in range(60):
        rng = rng_for(f"repr-full-free-{field.spec}", trial)
        q = quivers[trial % len(quivers)]
        src = random_rep(rng, q, window, field, max_dim=3)
        tgt = src if trial % 2 else random_rep(rng, q, window, field, max_dim=3)
        if trial % 3 == 0:  # the zero morphism: every coordinate is free
            blocks = {
                key: Matrix.zero(field, tgt.dims[key], n)
                for key, n in src.dims.items() if key in tgt.dims
            }
            phi = GradedMorphism(src, tgt, blocks)
        else:
            phi = random_morphism(rng, src, tgt)
        kernel_free = {key: kernel_basis(b) for key, b in phi.blocks.items()}
        coker_free = {key: kernel_basis(b.transpose()) for key, b in phi.blocks.items()}
        ker, _ = morphism_kernel(phi)
        coker, _ = morphism_cokernel(phi)
        for (name, d), action in src.mats.items():
            a = q.arrow(name)
            s, t = (a.source, d), (a.target, d + a.degree)
            if s in kernel_free and t in kernel_free:
                b_s, free_t = kernel_free[s][0], kernel_free[t][1]
                copied = action.mul(b_s).rows_at(free_t)
                assert repr(ker.mats[(name, d)]) == repr(copied)
                if len(free_t) == action.rows:
                    full += 1
                else:
                    partial += 1
        for (name, d), action in tgt.mats.items():
            a = q.arrow(name)
            s, t = (a.source, d), (a.target, d + a.degree)
            if s in coker_free and t in coker_free:
                q_t, free_s = coker_free[t][0].transpose(), coker_free[s][1]
                copied = q_t.mul(action.cols_at(free_s))
                assert repr(coker.mats[(name, d)]) == repr(copied)
    assert full and partial


def test_kernel_of_non_morphism_fails_its_square_check(line_quiver, line_rep):
    # phi kills u but not v, while the action of a maps u onto v nontrivially:
    # the square at a fails, so the kernel at u is not invariant under a
    target = GradedRep(
        quiver=line_quiver,
        window=DegreeWindow(0, 3),
        field=QQ,
        dims=dict(line_rep.dims),
        mats={("a", 0): Matrix.zero(QQ, 3, 2), ("b", 1): qmat([[1, 2, 3]])},
    )
    phi = object.__new__(GradedMorphism)  # skips the constructor's square check
    phi.source, phi.target = line_rep, target
    phi.blocks = {
        ("u", 0): Matrix.zero(QQ, 2, 2),
        ("v", 1): Matrix.identity(QQ, 3),
        ("w", 2): Matrix.identity(QQ, 1),
    }
    with pytest.raises(MorphismSquareError, match="square fails at arrow 'a', degree 0"):
        morphism_kernel(phi)
