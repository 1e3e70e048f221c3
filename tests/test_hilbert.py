"""Graded dimensions of path algebra quotients, with independent oracles."""

from __future__ import annotations

from math import comb

import pytest

from quiver_regrade import (
    GF,
    IdealPresentation,
    PathCountLimit,
    PathSum,
    QQ,
    UniformElement,
    enumerate_paths,
    graded_dim,
    graded_dim_naive,
    hilbert_table,
    parse_presentation,
    trivial_path,
)
from quiver_regrade.catalog import heavy_loop_quiver, kxy_presentation, kxy_split_presentation
from quiver_regrade.randomgen import random_ideal, random_quiver, rng_for
from quiver_regrade.regrade import regrade


def commutative_two_variable_count(d):
    # Oracle: monomials x^i y^j with i + 2j = d, counted directly.
    return sum(1 for j in range(d // 2 + 1) if d - 2 * j >= 0)


class TestTwoLoopGolden:
    def test_table_matches_monomial_oracle(self, kxy):
        q, ideal = kxy
        got = [graded_dim(q, ideal, d) for d in range(7)]
        want = [commutative_two_variable_count(d) for d in range(7)]
        assert got == want == [1, 1, 2, 2, 3, 3, 4]

    def test_rationals_and_prime_field_agree(self, kxy):
        q, ideal = kxy
        for d in range(9):
            assert graded_dim(q, ideal, d) == graded_dim(
                q, ideal, d, field=GF(32003)
            )

    def test_naive_route_agrees(self, kxy):
        q, ideal = kxy
        for d in range(7):
            assert graded_dim(q, ideal, d) == graded_dim_naive(q, ideal, d)


class TestSplitTwoLoopGolden:
    def test_total_table(self, kxy_split):
        q, ideal = kxy_split
        assert [graded_dim(q, ideal, d) for d in range(7)] == [2, 3, 5, 7, 9, 11, 13]

    def test_corner_table(self, kxy_split):
        # Paths from v: x^a (y'y'')^b interleavings collapse to two shapes
        # per degree (ending mid-split or not), giving d + 1.
        q, ideal = kxy_split
        assert [graded_dim(q, ideal, d, vertex="v") for d in range(9)] == list(
            range(1, 10)
        )

    def test_corner_naive_agrees(self, kxy_split):
        q, ideal = kxy_split
        for d in range(7):
            assert graded_dim(q, ideal, d, vertex="v") == graded_dim_naive(
                q, ideal, d, vertex="v"
            )

    def test_vertex_sum_is_total(self, kxy_split):
        q, ideal = kxy_split
        for d in range(7):
            by_vertex = sum(graded_dim(q, ideal, d, vertex=v) for v in q.vertices)
            assert by_vertex == graded_dim(q, ideal, d)


class TestFreeAlgebra:
    def test_empty_ideal_counts_paths(self, kxy, empty_ideal):
        q, _ = kxy
        for d in range(7):
            assert graded_dim(q, empty_ideal, d) == len(enumerate_paths(q, d))

    def test_bridge_free_counts(self, bridge, empty_ideal):
        for d in range(5):
            assert graded_dim(bridge, empty_ideal, d) == len(enumerate_paths(bridge, d))
            for v in bridge.vertices:
                assert graded_dim(bridge, empty_ideal, d, vertex=v) == len(
                    enumerate_paths(bridge, d, source=v)
                )


class TestEdgeCases:
    def test_degree_zero(self, kxy, bridge, empty_ideal):
        q, ideal = kxy
        assert graded_dim(q, ideal, 0) == 1
        assert graded_dim(bridge, empty_ideal, 0) == 2
        assert graded_dim(bridge, empty_ideal, 0, vertex="u") == 1

    def test_unknown_vertex_rejected(self, kxy):
        q, ideal = kxy
        with pytest.raises(KeyError):
            graded_dim(q, ideal, 2, vertex="ghost")

    def test_path_count_limit(self, kxy):
        q, ideal = kxy
        with pytest.raises(PathCountLimit):
            graded_dim(q, ideal, 8, max_paths=3)

    def test_annihilating_relation(self):
        # x^2 = 0 on a single degree-1 loop: dims 1, 1, 0, 0, ...
        from quiver_regrade import parse_presentation

        q, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\n[relations]\nx*x\n"
        )
        assert [graded_dim(q, ideal, d) for d in range(5)] == [1, 1, 0, 0, 0]

    def test_scaled_relation_same_quotient(self):
        from quiver_regrade import parse_presentation

        _, i1 = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n[relations]\nx*y - y*x\n"
        )
        q, i2 = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n[relations]\n3*x*y - 3*y*x\n"
        )
        for d in range(7):
            assert graded_dim(q, i1, d) == graded_dim(q, i2, d)


class TestRandomAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_primary_vs_naive(self, seed):
        rng = rng_for("hilbert-agreement", seed)
        q = random_quiver(rng, max_vertices=3, max_arrows=4)
        ideal = random_ideal(rng, q)
        for d in range(5):
            free = len(enumerate_paths(q, d))
            primary = graded_dim(q, ideal, d)
            assert 0 <= primary <= free
            assert primary == graded_dim_naive(q, ideal, d)

    @pytest.mark.parametrize("seed", range(4))
    def test_mod_p_never_undershoots(self, seed):
        # Specializing coefficients mod p can only lower the relation rank.
        rng = rng_for("hilbert-modp", seed)
        q = random_quiver(rng, max_vertices=3, max_arrows=4)
        ideal = random_ideal(rng, q)
        for d in range(5):
            assert graded_dim(q, ideal, d, field=GF(32003)) >= graded_dim(q, ideal, d)


def _kxyz():
    return parse_presentation(
        "[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\narrow z v v 1\n"
        "[relations]\nx*y - y*x\nx*z - z*x\ny*z - z*y\n"
    )


def _dims(q, ideal, top, **kw):
    return [row.dim for row in hilbert_table(q, ideal, top, **kw)]


class TestTable:
    def test_rows_and_graded_dim_agree(self, kxy_split):
        q, ideal = kxy_split
        rows = list(hilbert_table(q, ideal, 8, vertex="v"))
        assert [row.degree for row in rows] == list(range(9))
        assert [row.dim for row in rows] == [
            graded_dim(q, ideal, d, vertex="v") for d in range(9)
        ]

    def test_work_counts(self):
        # k[x,y,z]: the three commutators are the whole basis; the one
        # overlap (z*y)*x = z*(y*x) is reduced in degree 3 and adds nothing
        q, ideal = _kxyz()
        rows = list(hilbert_table(q, ideal, 4))
        assert [row.basis_added for row in rows] == [0, 0, 3, 0, 0]
        assert [row.rows for row in rows] == [0, 0, 3, 5, 0]

    # two vertices, arrows of degrees 1 and 2, relations of degrees 2 to 4
    TWO_VERTEX = (
        "[quiver]\nvertex u\nvertex v\n"
        "arrow a u v 1\narrow b v u 1\narrow c u u 2\narrow x v v 1\narrow y v v 2\n"
        "[relations]\na*b - c\nc*a - a*x*x + 2*a*y\nb*a*b - x*x*b\nx*y - y*x\nb*c*a - y*x*x\n"
    )

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "p32003"])
    def test_work_counts_two_vertices(self, field):
        # (dim, basis_added, rows) per degree: the rows given to Echelon and
        # the basis it grows are pinned, not only the dimensions
        q, ideal = parse_presentation(self.TWO_VERTEX)
        rows = [(r.dim, r.basis_added, r.rows) for r in hilbert_table(q, ideal, 9, field=field)]
        assert rows == [
            (2, 0, 0), (3, 0, 0), (6, 1, 1), (9, 3, 4), (13, 2, 5),
            (16, 3, 7), (17, 3, 11), (17, 2, 26), (19, 0, 36), (21, 0, 31),
        ]
        assert [r[0] for r in rows[:7]] == [graded_dim_naive(q, ideal, d, field=field) for d in range(7)]

    def test_bad_arguments(self, kxy):
        q, ideal = kxy
        with pytest.raises(ValueError):
            hilbert_table(q, ideal, -1)
        with pytest.raises(KeyError):
            hilbert_table(q, ideal, 2, vertex="ghost")

    def test_basis_size_guard(self):
        # x*y*x - y*y and x*y - x*x*x leave one normal path per degree, but
        # grow a basis element in degree 6: a guard of 2 trips on the basis
        q, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n"
            "[relations]\nx*y - x*x*x\nx*y*x - y*y\n"
        )
        assert _dims(q, ideal, 5, max_paths=2) == [1, 1, 2, 2, 2, 2]
        with pytest.raises(PathCountLimit, match="^degree 6: more than 2 Gröbner basis elements$"):
            graded_dim(q, ideal, 6, max_paths=2)


class TestGrobnerEdgeCases:
    CYCLE = "[quiver]\nvertex u\nvertex v\narrow a u v 1\narrow b v u 1\n[relations]\n"

    def test_degree_zero_relation_kills_its_vertex(self):
        # e_v in the ideal kills every path through v: only e_u is left
        q, ideal = parse_presentation(self.CYCLE + "e_v\n")
        assert _dims(q, ideal, 6) == [1, 0, 0, 0, 0, 0, 0]
        assert _dims(q, ideal, 6, vertex="u") == [1, 0, 0, 0, 0, 0, 0]
        assert _dims(q, ideal, 6, vertex="v") == [0] * 7
        for d in range(5):
            for vertex in (None, "u", "v"):
                assert graded_dim(q, ideal, d, vertex=vertex) == graded_dim_naive(
                    q, ideal, d, vertex=vertex
                )

    def test_degree_zero_relation_with_others(self):
        q, ideal = parse_presentation(self.CYCLE + "a*b*a\n2*e_v\nb*a*b\n")
        for field in (QQ, GF(32003)):
            assert _dims(q, ideal, 5, field=field) == [
                graded_dim_naive(q, ideal, d, field=field) for d in range(6)
            ] == [1, 0, 0, 0, 0, 0]

    def test_relation_vanishing_mod_p(self):
        q, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\n[relations]\n32003*x*x\n"
        )
        assert _dims(q, ideal, 5) == [1, 1, 0, 0, 0, 0]
        assert _dims(q, ideal, 5, field=GF(32003)) == [1] * 6
        assert _dims(q, ideal, 5, field=GF(7)) == [1, 1, 0, 0, 0, 0]

    def test_quiver_without_arrows(self):
        q, ideal = parse_presentation("[quiver]\nvertex u\nvertex v\n")
        assert _dims(q, ideal, 4) == [2, 0, 0, 0, 0]
        assert _dims(q, ideal, 4, vertex="v") == [1, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "relations, want",
        [
            # leading paths x*y (degree 3) and y*y (degree 4) overlap in
            # x*y*y; that S-element brings a basis element in degree 6
            (["x*y - x*x*x", "x*y*x - y*y"], [1, 1, 2, 2, 2, 2, 1, 1, 1]),
            (["y*x - x*x*x", "x*x*y - y*y"], [1, 1, 2, 2, 2, 2, 2, 2, 2]),
            (["y*x - x*x*x", "x*y - y*x"], [1, 1, 2, 1, 2, 1, 2, 1, 2]),
        ],
    )
    def test_mixed_degree_overlaps(self, relations, want):
        q, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n[relations]\n"
            + "\n".join(relations)
            + "\n"
        )
        for field in (QQ, GF(32003)):
            assert _dims(q, ideal, 8, field=field) == want
        assert [graded_dim_naive(q, ideal, d) for d in range(9)] == want


class TestDeepTables:
    def test_commutative_three_variables_to_degree_30(self):
        q, ideal = _kxyz()
        want = [comb(d + 2, 2) for d in range(31)]
        assert _dims(q, ideal, 30, field=GF(32003)) == want
        assert _dims(q, ideal, 30) == want
        assert graded_dim(q, ideal, 30) == comb(32, 2)

    def test_two_loop_to_degree_200(self, kxy):
        q, ideal = kxy
        assert _dims(q, ideal, 200) == [d // 2 + 1 for d in range(201)]
        assert graded_dim(q, ideal, 200, field=GF(32003)) == 101


class TestDifferential:
    """hilbert_table against graded_dim_naive on 200 seeded presentations,
    over Q and F_32003, from a random vertex or from all of them."""

    @pytest.mark.parametrize("block", range(8))
    def test_against_naive(self, block):
        top, compared = 5, 0
        for seed in range(25 * block, 25 * block + 25):
            rng = rng_for("hilbert-differential", seed)
            q = random_quiver(rng, max_vertices=3, max_arrows=4)
            ideal = random_ideal(rng, q)
            vertex = rng.choice([None, *q.vertices])
            for field in (QQ, GF(32003)):
                try:
                    want = [
                        graded_dim_naive(q, ideal, d, vertex=vertex, field=field, max_paths=120)
                        for d in range(top + 1)
                    ]
                except PathCountLimit:
                    continue
                got = _dims(q, ideal, top, vertex=vertex, field=field)
                assert got == want, (seed, field, vertex)
                assert got[-1] == graded_dim(q, ideal, top, vertex=vertex, field=field)
                compared += 1
        assert compared >= 40  # the naive guard skips only a few presentations


class TestCornerIdentity:
    """For e the sum of the idempotents of the original vertices,
    e (kQ'/I') e is kQ/I: regrading keeps the table of every corner between
    original vertices v and w, the paths from v to w."""

    TOP = 7

    @staticmethod
    def corners(q, ideal, vertices, top, field=QQ):
        return {
            (v, w): _dims(q, ideal, top, vertex=v, target=w, field=field)
            for v in vertices
            for w in vertices
        }

    def test_kxy(self, kxy, kxy_split):
        want = {("v", "v"): [d // 2 + 1 for d in range(9)]}
        assert self.corners(*kxy, ["v"], 8) == want
        assert self.corners(*kxy_split, ["v"], 8) == want
        # the fresh vertex is not original, and its corners differ
        q, ideal = kxy_split
        assert _dims(q, ideal, 8, vertex="v", target="z") == [0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_heavy_loop(self):
        q = heavy_loop_quiver(3)
        split = regrade(q, IdealPresentation.of([]))
        want = [1 if d % 3 == 0 else 0 for d in range(10)]
        for field in (QQ, GF(32003)):
            assert _dims(q, IdealPresentation.of([]), 9, target="v", field=field) == want
            assert self.corners(split.final_quiver, split.final_ideal, ["v"], 9, field) == {
                ("v", "v"): want
            }
        fresh = [v for v in split.final_quiver.vertices if v != "v"]
        assert len(fresh) == 2
        for i, z in enumerate(fresh):  # v -> z -> z1 -> v, with z at degree 1
            assert _dims(split.final_quiver, split.final_ideal, 9, vertex="v", target=z) == [
                1 if d % 3 == i + 1 else 0 for d in range(10)
            ]

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
    def test_seeded_regrades_keep_every_original_corner(self, field):
        regraded = compared = 0
        for seed in range(300):
            rng = rng_for("hilbert-corner-identity", seed)
            q = random_quiver(rng, max_vertices=3, max_arrows=4)
            ideal = random_ideal(rng, q)
            split = regrade(q, ideal)
            regraded += bool(split.splits)
            want = self.corners(q, ideal, q.vertices, self.TOP, field)
            got = self.corners(split.final_quiver, split.final_ideal, q.vertices, self.TOP, field)
            assert got == want, (seed, q, ideal)
            compared += len(want)
        assert regraded >= 200 and compared >= 600

    @pytest.mark.parametrize("block", range(4))
    def test_target_against_naive(self, block):
        top, compared = 5, 0
        for seed in range(25 * block, 25 * block + 25):
            rng = rng_for("hilbert-target-differential", seed)
            q = random_quiver(rng, max_vertices=3, max_arrows=4)
            ideal = random_ideal(rng, q)
            vertex = rng.choice([None, *q.vertices])
            target = rng.choice(q.vertices)
            for field in (QQ, GF(32003)):
                try:
                    want = [
                        graded_dim_naive(
                            q, ideal, d, vertex=vertex, field=field, max_paths=120, target=target
                        )
                        for d in range(top + 1)
                    ]
                except PathCountLimit:
                    continue
                got = _dims(q, ideal, top, vertex=vertex, target=target, field=field)
                assert got == want, (seed, field, vertex, target)
                compared += 1
        assert compared >= 20

    def test_corners_sum_to_the_table(self, kxy_split):
        q, ideal = kxy_split
        by_target = [_dims(q, ideal, 8, target=w) for w in q.vertices]
        assert [sum(col) for col in zip(*by_target)] == _dims(q, ideal, 8)

    def test_unknown_target(self, kxy):
        q, ideal = kxy
        with pytest.raises(KeyError, match="ghost"):
            hilbert_table(q, ideal, 2, target="ghost")
        with pytest.raises(KeyError, match="ghost"):
            graded_dim_naive(q, ideal, 2, target="ghost")


class TestQuotientByCorner:
    """For the same e, A'/A'eA' is finite dimensional, so it dies in QGr and
    QGr A is QGr A'.  Its table is that of the regraded presentation with e_v
    added for every original vertex v, which leaves the fresh vertices of the
    split chains.  An arrow b of degree g splits through g - 1 fresh vertices
    in a line, so dim (A'/A'eA')_k is the sum of max(0, deg b - 1 - k) over
    the original arrows b."""

    TOP = 7

    @staticmethod
    def quotient(q, ideal, top, field=QQ):
        split = regrade(q, ideal)
        corner = [UniformElement.from_sum(PathSum.of_path(QQ, trivial_path(v))) for v in q.vertices]
        gens = IdealPresentation.of([*split.final_ideal, *corner])
        return _dims(split.final_quiver, gens, top, field=field)

    @staticmethod
    def closed_form(q, top):
        return [sum(max(0, a.degree - 1 - k) for a in q.arrows) for k in range(top + 1)]

    def test_kxy(self, kxy):
        assert self.quotient(*kxy, self.TOP) == [1] + [0] * self.TOP

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
    def test_heavy_loop(self, field):
        got = self.quotient(heavy_loop_quiver(9), IdealPresentation.of([]), 11, field)
        assert got == [8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0]

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=lambda f: f.spec)
    def test_seeded_regrades_match_the_closed_form(self, field):
        regraded = 0
        for seed in range(300):
            rng = rng_for("hilbert-corner-quotient", seed)
            q = random_quiver(rng, max_vertices=3, max_arrows=4)
            ideal = random_ideal(rng, q)
            got = self.quotient(q, ideal, self.TOP, field)
            assert got == self.closed_form(q, self.TOP), (seed, q, ideal)
            assert got[-1] == 0, (seed, q)  # the top lies past every chain
            regraded += got[0] > 0
        assert regraded >= 250
