"""Expansion and collapse functors across a split, counit, exactness."""

from __future__ import annotations

import pytest

from quiver_regrade import (
    GF,
    QQ,
    DegreeWindow,
    Matrix,
    collapse_morphism,
    collapse_rep,
    collapse_rep_along,
    compose_morphisms,
    counit,
    expand_morphism,
    expand_rep,
    expand_rep_along,
    morphism_cokernel,
    morphism_kernel,
    rank,
    regrade,
    satisfies,
    shift,
    split_arrow,
)
from quiver_regrade.catalog import (
    heavy_loop_quiver,
    kxy_diagonal_rep,
    kxy_presentation,
    kxy_split_presentation,
)
from quiver_regrade.randomgen import random_morphism, random_rep, rng_for

FIELD = GF(32003)


@pytest.fixture
def kxy_trace():
    q, _ = kxy_presentation()
    return split_arrow(q, "y")


@pytest.fixture
def expanded(kxy_trace, diag_rep):
    return expand_rep(kxy_trace, diag_rep)


class TestExpandRep:
    def test_old_vertex_dims_unchanged(self, expanded, diag_rep):
        for (v, d), n in diag_rep.dims.items():
            assert expanded.dims[(v, d)] == n

    def test_new_vertex_dims_shifted_source(self, kxy_trace, expanded, diag_rep):
        z = kxy_trace.new_vertex
        src = kxy_trace.before.arrow(kxy_trace.split_arrow).source
        for d in expanded.window.degrees():
            want = diag_rep.dims.get((src, d - 1))
            assert expanded.dims.get((z, d)) == want

    def test_first_half_is_identity(self, kxy_trace, expanded):
        for (a, d), m in expanded.mats.items():
            if a == kxy_trace.first:
                assert m == Matrix.identity(m.field, m.rows)

    def test_second_half_carries_split_arrow(self, kxy_trace, expanded, diag_rep):
        for d in diag_rep.window.degrees():
            old = diag_rep.mat(kxy_trace.split_arrow, d)
            if old is not None:
                assert expanded.mat(kxy_trace.second, d + 1) == old

    def test_other_arrows_copied(self, expanded, diag_rep):
        for d in diag_rep.window.degrees():
            old = diag_rep.mat("x", d)
            if old is not None:
                assert expanded.mat("x", d) == old

    def test_satisfies_split_ideal(self, expanded):
        _, split_ideal = kxy_split_presentation()
        ok, violations = satisfies(expanded, split_ideal)
        assert ok, violations


class TestCollapseExpand:
    def test_exact_round_trip(self, kxy_trace, diag_rep):
        back = collapse_rep(kxy_trace, expand_rep(kxy_trace, diag_rep))
        assert back.dims == diag_rep.dims
        assert back.mats == diag_rep.mats
        assert back == diag_rep

    @pytest.mark.parametrize("seed", range(6))
    def test_random_round_trip(self, kxy_trace, seed):
        q, _ = kxy_presentation()
        rng = rng_for("functors-gf", seed)
        rep = random_rep(rng, q, DegreeWindow(-2, 6), FIELD, max_dim=3)
        back = collapse_rep(kxy_trace, expand_rep(kxy_trace, rep))
        assert back == rep

    def test_collapse_composes_halves(self, kxy_trace, expanded, diag_rep):
        back = collapse_rep(kxy_trace, expanded)
        for d in diag_rep.window.degrees():
            m = back.mat("y", d)
            if m is None:
                continue
            first = expanded.mat(kxy_trace.first, d)
            second = expanded.mat(kxy_trace.second, d + 1)
            assert m == second.mul(first)


class TestShiftCompatibility:
    @pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
    def test_expand_commutes_with_shift(self, kxy_trace, n):
        q, _ = kxy_presentation()
        rng = rng_for("functors-shift", n)
        rep = random_rep(rng, q, DegreeWindow(-1, 5), FIELD, max_dim=2)
        lhs = expand_rep(kxy_trace, shift(rep, n))
        rhs = shift(expand_rep(kxy_trace, rep), n)
        assert lhs == rhs


class TestMorphismTransport:
    @pytest.fixture
    def phi(self):
        q, _ = kxy_presentation()
        rng = rng_for("functors-morphism", 1)
        src = random_rep(rng, q, DegreeWindow(0, 5), FIELD, max_dim=3)
        tgt = random_rep(rng, q, DegreeWindow(0, 5), FIELD, max_dim=3)
        return random_morphism(rng, src, tgt)

    def test_expand_then_collapse_morphism(self, kxy_trace, phi):
        back = collapse_morphism(kxy_trace, expand_morphism(kxy_trace, phi))
        assert back.blocks == phi.blocks

    def test_expand_preserves_identity(self, kxy_trace, diag_identity):
        up = expand_morphism(kxy_trace, diag_identity)
        for block in up.blocks.values():
            assert block == Matrix.identity(block.field, block.rows)

    def test_expand_respects_composition(self, kxy_trace):
        q, _ = kxy_presentation()
        rng = rng_for("functors-compose", 2)
        w = DegreeWindow(0, 4)
        a = random_rep(rng, q, w, FIELD, max_dim=2)
        b = random_rep(rng, q, w, FIELD, max_dim=2)
        c = random_rep(rng, q, w, FIELD, max_dim=2)
        f = random_morphism(rng, a, b)
        g = random_morphism(rng, b, c)
        lhs = expand_morphism(kxy_trace, compose_morphisms(g, f))
        rhs = compose_morphisms(
            expand_morphism(kxy_trace, g), expand_morphism(kxy_trace, f)
        )
        assert lhs.blocks == rhs.blocks


class TestCounit:
    def test_iso_on_expanded(self, kxy_trace, expanded):
        eps = counit(kxy_trace, expanded)
        for key, block in eps.blocks.items():
            assert block.rows == block.cols == rank(block)

    def test_kernel_cokernel_supported_at_new_vertex(self, kxy_trace):
        sq, _ = kxy_split_presentation()
        rng = rng_for("functors-counit", 4)
        rep = random_rep(rng, sq, DegreeWindow(0, 5), FIELD, max_dim=3)
        eps = counit(kxy_trace, rep)
        ker, _ = morphism_kernel(eps)
        coker, _ = morphism_cokernel(eps)
        z = kxy_trace.new_vertex
        for (v, d), n in ker.dims.items():
            if v != z:
                assert n == 0
        for (v, d), n in coker.dims.items():
            if v != z:
                assert n == 0

    def test_kernel_cokernel_arrow_actions_vanish(self, kxy_trace):
        sq, _ = kxy_split_presentation()
        rng = rng_for("functors-counit-act", 5)
        rep = random_rep(rng, sq, DegreeWindow(0, 5), FIELD, max_dim=3)
        eps = counit(kxy_trace, rep)
        for piece, _ in (morphism_kernel(eps), morphism_cokernel(eps)):
            for m in piece.mats.values():
                assert m.is_zero()

    def test_naturality(self, kxy_trace):
        # For psi: N -> N' over the split quiver:
        # eps_N' . FG(psi) == psi . eps_N on shared blocks.
        sq, _ = kxy_split_presentation()
        rng = rng_for("functors-naturality", 6)
        n1 = random_rep(rng, sq, DegreeWindow(0, 5), FIELD, max_dim=3)
        n2 = random_rep(rng, sq, DegreeWindow(0, 5), FIELD, max_dim=3)
        psi = random_morphism(rng, n1, n2)
        fg_psi = expand_morphism(kxy_trace, collapse_morphism(kxy_trace, psi))
        lhs = compose_morphisms(counit(kxy_trace, n2), fg_psi)
        rhs = compose_morphisms(psi, counit(kxy_trace, n1))
        for key in sorted(set(lhs.blocks) & set(rhs.blocks)):
            assert lhs.blocks[key] == rhs.blocks[key], key


class TestExactness:
    def test_expansion_preserves_ses(self, kxy_trace):
        q, _ = kxy_presentation()
        rng = rng_for("functors-ses", 7)
        w = DegreeWindow(0, 5)
        src = random_rep(rng, q, w, FIELD, max_dim=3)
        tgt = random_rep(rng, q, w, FIELD, max_dim=3)
        phi = random_morphism(rng, src, tgt)
        ker, incl = morphism_kernel(phi)
        coker, proj = morphism_cokernel(incl)
        for t, (kk, ii, pp, cc) in {
            "base": (ker, incl, proj, coker),
            "expanded": (
                expand_rep(kxy_trace, ker),
                expand_morphism(kxy_trace, incl),
                expand_morphism(kxy_trace, proj),
                expand_rep(kxy_trace, coker),
            ),
        }.items():
            for key in sorted(ii.blocks):
                inc = ii.blocks[key]
                pr = pp.blocks[key]
                assert rank(inc) == inc.cols, (t, key)
                assert rank(pr) == pr.rows, (t, key)
                assert kk.dims[key] + cc.dims[key] == inc.rows, (t, key)
                if pr.rows and inc.cols:
                    assert pr.mul(inc).is_zero(), (t, key)


class TestIteratedTraces:
    def test_heavy_loop_round_trip(self):
        from quiver_regrade import IdealPresentation

        h = heavy_loop_quiver(3)
        r = regrade(h, IdealPresentation(generators=()))
        assert len(r.trace) == 2
        rng = rng_for("functors-iterated", 8)
        rep = random_rep(rng, h, DegreeWindow(0, 6), FIELD, max_dim=3)
        up = expand_rep_along(r.trace, rep)
        assert set(v for v, _ in up.dims) <= set(r.final_quiver.vertices)
        back = collapse_rep_along(r.trace, up)
        assert back == rep

    def test_single_trace_matches_plain(self, kxy_trace, diag_rep):
        up = expand_rep_along([kxy_trace], diag_rep)
        assert up == expand_rep(kxy_trace, diag_rep)
        assert collapse_rep_along([kxy_trace], up) == diag_rep
