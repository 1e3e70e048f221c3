"""Arrow splitting, path rewriting, and the full regrade loop."""

from __future__ import annotations

import importlib
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from quiver_regrade import (
    Arrow,
    DiscrepancyLimit,
    IdealPresentation,
    PathSum,
    QQ,
    SplitError,
    SplitTrace,
    UniformElement,
    WeightedQuiver,
    multiply_sums,
    parse_presentation,
    path_from_arrows,
    pick_split_target,
    regrade,
    rewrite_ideal,
    rewrite_path,
    rewrite_sum,
    split_arrow,
    validate,
    weight_discrepancy,
)
from quiver_regrade.catalog import (
    bridge_quiver,
    heavy_loop_quiver,
    kxy_presentation,
    kxy_split_presentation,
)
from quiver_regrade.randomgen import random_ideal, random_quiver, rng_for

# the package exports the function `regrade`, so fetch the module by name
regrade_module = importlib.import_module("quiver_regrade.regrade")


class TestSplitArrow:
    def test_bridge_degree_two(self, bridge):
        t = split_arrow(bridge, "b")
        assert (t.split_arrow, t.new_vertex, t.first, t.second) == ("b", "z", "b'", "b''")
        first = t.after.arrow("b'")
        second = t.after.arrow("b''")
        assert (first.source, first.target, first.degree) == ("u", "z", 1)
        assert (second.source, second.target, second.degree) == ("z", "v", 1)
        assert "b" not in t.after.arrow_map
        assert t.after.vertices == ("u", "v", "z")
        assert validate(t.after) == []

    def test_bridge_degree_three(self, bridge3):
        t = split_arrow(bridge3, "b")
        assert t.after.arrow("b'").degree == 1
        assert t.after.arrow("b''").degree == 2

    def test_untouched_arrows_survive(self, bridge):
        t = split_arrow(bridge, "b")
        for name in ("a", "c", "d"):
            assert t.after.arrow(name) == bridge.arrow(name)

    def test_discrepancy_drops_by_one(self, bridge, bridge3, heavy_loop):
        for q in (bridge, bridge3, heavy_loop):
            name = pick_split_target(q)
            t = split_arrow(q, name)
            assert weight_discrepancy(t.after) == weight_discrepancy(q) - 1

    def test_degree_one_rejected(self, bridge):
        with pytest.raises(SplitError):
            split_arrow(bridge, "c")

    def test_unknown_rejected(self, bridge):
        with pytest.raises(SplitError):
            split_arrow(bridge, "nope")

    def test_before_is_input(self, bridge):
        t = split_arrow(bridge, "b")
        assert t.before == bridge


class TestRewritePath:
    @pytest.fixture
    def t(self, bridge):
        return split_arrow(bridge, "b")

    def test_golden_through_split(self, bridge, t):
        p = path_from_arrows(bridge, ["a", "a", "b", "d"])
        got = rewrite_path(t, p)
        assert got.arrows == ("a", "a", "b'", "b''", "d")
        assert got.degree == p.degree
        assert (got.source, got.target) == (p.source, p.target)

    def test_golden_untouched(self, bridge, t):
        p = path_from_arrows(bridge, ["a", "c", "d"])
        assert rewrite_path(t, p) == p

    def test_every_occurrence_rewritten(self, heavy_loop):
        t = split_arrow(heavy_loop, "w")
        p = path_from_arrows(heavy_loop, ["w", "w"])
        got = rewrite_path(t, p)
        assert got.arrows == ("w'", "w''", "w'", "w''")
        assert got.degree == p.degree == 6

    def test_trivial_path_fixed(self, t):
        from quiver_regrade import trivial_path

        e = trivial_path("u")
        assert rewrite_path(t, e) == e


class TestRewriteSum:
    @pytest.fixture
    def t(self, bridge):
        return split_arrow(bridge, "b")

    def test_coefficients_preserved(self, bridge, t):
        p1 = path_from_arrows(bridge, ["b", "d"])
        p2 = path_from_arrows(bridge, ["a", "a", "c"])
        s = PathSum.make(QQ, [(p1, Fraction(2, 3)), (p2, Fraction(-5))])
        elem = UniformElement.from_sum(s)
        out = rewrite_sum(t, elem)
        assert (out.source, out.target, out.degree) == (
            elem.source,
            elem.target,
            elem.degree,
        )
        coeffs = sorted(c for _, c in out.sum.terms)
        assert coeffs == [Fraction(-5), Fraction(2, 3)]

    def test_multiplicative_on_pair(self, bridge, t):
        x = PathSum.of_path(QQ, path_from_arrows(bridge, ["a", "b"]))
        y = PathSum.of_path(QQ, path_from_arrows(bridge, ["d", "d"]))
        lhs = rewrite_sum(t, UniformElement.from_sum(multiply_sums(x, y))).sum
        fx = rewrite_sum(t, UniformElement.from_sum(x)).sum
        fy = rewrite_sum(t, UniformElement.from_sum(y)).sum
        assert lhs == multiply_sums(fx, fy)

    def test_kxy_ideal_rewrite(self):
        q, ideal = kxy_presentation()
        t = split_arrow(q, "y")
        got = rewrite_ideal(t, ideal)
        _, want = kxy_split_presentation()
        assert got == want


class TestRegrade:
    def test_kxy_single_split(self):
        q, ideal = kxy_presentation()
        r = regrade(q, ideal)
        assert len(r.trace) == 1
        sq, sideal = kxy_split_presentation()
        assert r.final_quiver == sq
        assert r.final_ideal == sideal

    def test_heavy_loop_two_splits(self, heavy_loop, empty_ideal):
        r = regrade(heavy_loop, empty_ideal)
        assert len(r.trace) == 2
        assert len(r.final_quiver.vertices) == 3
        assert all(a.degree == 1 for a in r.final_quiver.arrows)
        assert weight_discrepancy(r.final_quiver) == 0

    def test_trace_chains(self, heavy_loop, empty_ideal):
        r = regrade(heavy_loop, empty_ideal)
        assert r.trace[0].before == heavy_loop
        assert r.trace[1].before == r.trace[0].after
        assert r.trace[-1].after == r.final_quiver

    def test_already_degree_one_is_noop(self, kxy_split):
        q, ideal = kxy_split
        r = regrade(q, ideal)
        assert r.trace == ()
        assert (r.final_quiver, r.final_ideal) == (q, ideal)

    def test_idempotent(self):
        q, ideal = kxy_presentation()
        r1 = regrade(q, ideal)
        r2 = regrade(r1.final_quiver, r1.final_ideal)
        assert r2.trace == ()
        assert r2.final_quiver == r1.final_quiver

    @pytest.mark.parametrize("seed", range(8))
    def test_random_terminates_in_discrepancy_steps(self, seed):
        rng = rng_for("regrade-termination", seed)
        q = random_quiver(rng, require_heavy=True)
        ideal = random_ideal(rng, q)
        d = weight_discrepancy(q)
        assert d > 0
        r = regrade(q, ideal)
        assert len(r.trace) == d
        assert weight_discrepancy(r.final_quiver) == 0
        assert validate(r.final_quiver) == []
        # Generators keep endpoints and degree through the rewrite.
        assert len(r.final_ideal.generators) == len(ideal.generators)
        for before, after in zip(ideal.generators, r.final_ideal.generators):
            assert (before.source, before.target, before.degree) == (
                after.source,
                after.target,
                after.degree,
            )


def sequential_ideal(ideal, trace):
    """The relations rewritten at every split in turn: the reference for the
    one-pass transport in ``regrade``."""
    for t in trace:
        ideal = rewrite_ideal(t, ideal)
    return ideal


# arrow names that collide with the names splits would pick: a' and a'' are
# taken before a splits, and the vertex z and the arrow z1 make the fresh
# vertex names step past them
COLLIDING = """[quiver]
vertex v
vertex z
arrow a v v 2
arrow a' v v 3
arrow a'' v v 2
arrow z1 v z 4
arrow r z v 1

[relations]
a*a' - a'*a
a''*z1*r + 2*a'*a*a''
z1*r*a - a*z1*r
e_v
"""

# a' and a'' split before a does, which frees their names for a's halves
REUSED = """[quiver]
vertex v
arrow a v v 2
arrow a' v v 3
arrow a'' v v 3

[relations]
a*a' + a''*a - 3*a'*a
a'*a'
"""


class TestOnePassTransport:
    def assert_matches_sequential(self, q, ideal):
        r = regrade(q, ideal)
        assert len(r.trace) == weight_discrepancy(q)
        assert r.final_ideal == sequential_ideal(ideal, r.trace)
        return r

    def test_random_presentations(self):
        for seed in range(240):
            rng = rng_for("regrade-one-pass", seed)
            q = random_quiver(rng, require_heavy=True)
            self.assert_matches_sequential(q, random_ideal(rng, q))

    def test_catalog_and_golden(self, golden_dir):
        rng = rng_for("regrade-one-pass-catalog", 0)
        for q, ideal in (
            kxy_presentation(),
            kxy_split_presentation(),
            parse_presentation((golden_dir / "kxy.quiver").read_text()),
            parse_presentation((golden_dir / "kxy_regraded.quiver").read_text()),
        ):
            self.assert_matches_sequential(q, ideal)
        for q in (bridge_quiver(2), bridge_quiver(5), heavy_loop_quiver(3), heavy_loop_quiver(6)):
            self.assert_matches_sequential(q, random_ideal(rng, q, max_generators=4))

    def test_names_that_collide_with_split_names(self):
        q, ideal = parse_presentation(COLLIDING)
        r = self.assert_matches_sequential(q, ideal)
        # the fresh names had to step around the taken ones
        assert r.trace[0].new_vertex == "z2"
        assert any(t.first.endswith("'1") for t in r.trace)
        assert validate(r.final_quiver) == []

    def test_freed_names_reused_by_later_splits(self):
        q, ideal = parse_presentation(REUSED)
        r = self.assert_matches_sequential(q, ideal)
        split = [t.split_arrow for t in r.trace]
        halves = [(t.first, t.second) for t in r.trace]
        assert ("a'", "a''") in halves
        assert split.index("a") > max(split.index("a'"), split.index("a''"))

    def test_empty_ideal(self, heavy_loop, empty_ideal):
        r = self.assert_matches_sequential(heavy_loop, empty_ideal)
        assert r.final_ideal == empty_ideal

    def test_degree_zero_relation(self):
        q, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow w v v 3\n\n[relations]\ne_v\nw*w\n"
        )
        assert [g.degree for g in ideal] == [0, 6]
        r = self.assert_matches_sequential(q, ideal)
        assert r.final_ideal.generators[0] == ideal.generators[0]

    def test_no_split_returns_input_ideal(self, kxy_split):
        q, ideal = kxy_split
        assert regrade(q, ideal).final_ideal is ideal


class TestDiscrepancyGuard:
    # the bound is lowered here so that a missing guard fails fast instead of
    # splitting 10^9 times; the CLI test runs the real bound in a subprocess
    @pytest.fixture
    def bound_two(self, monkeypatch):
        monkeypatch.setattr(regrade_module, "MAX_DISCREPANCY", 2)

    def test_refused_before_any_split(self, bound_two, empty_ideal):
        with pytest.raises(DiscrepancyLimit) as info:
            regrade(heavy_loop_quiver(6), empty_ideal)
        assert isinstance(info.value, SplitError)
        assert str(info.value).startswith("weight discrepancy 5 is above the regrade bound 2")

    def test_bound_is_inclusive(self, bound_two, empty_ideal):
        assert len(regrade(heavy_loop_quiver(3), empty_ideal).trace) == 2
        with pytest.raises(DiscrepancyLimit):
            regrade(heavy_loop_quiver(4), empty_ideal)


def rebuilt_split(q, name):
    """One split that rebuilds the whole quiver, with the naming rule spelt
    out: the first free name of z, z1, z2, ... for the vertex, and b', b''
    or else b'i, b''i for the smallest i with both free."""
    arrow = q.arrow(name)
    taken = set(q.vertices) | {a.name for a in q.arrows}
    z = next(n for n in ["z"] + [f"z{i}" for i in range(1, len(taken) + 2)] if n not in taken)
    first, second = name + "'", name + "''"
    if first in taken or second in taken:
        i = next(i for i in range(1, len(taken) + 2)
                 if f"{first}{i}" not in taken and f"{second}{i}" not in taken)
        first, second = f"{first}{i}", f"{second}{i}"
    kept = [a for a in q.arrows if a.name != name]
    kept += [Arrow(first, arrow.source, z, 1), Arrow(second, z, arrow.target, arrow.degree - 1)]
    after = WeightedQuiver.build(list(q.vertices) + [z], kept)
    return SplitTrace(name, arrow, z, first, second, q, after)


def large_shape_presentation():
    """24 vertices, 60 arrows in parallel pairs of degree 1-8 (discrepancy
    174): the shape of the large regrade benchmark input."""
    shape = random.Random("regrade-steps-large")
    vertices = [f"p{i}" for i in range(24)]
    arrows = []
    for i in range(30):
        src = vertices[i] if i < 24 else shape.choice(vertices)
        tgt = vertices[(i + 1) % 24] if i < 24 else shape.choice(vertices)
        deg = (1, 2, 3, 4, 5, 6, 7, 8, 1, 2)[i % 10]
        arrows += [Arrow(f"a{i}", src, tgt, deg), Arrow(f"b{i}", src, tgt, deg)]
    q = WeightedQuiver.build(vertices, arrows)
    return q, random_ideal(shape, q, max_generators=6, max_degree=6)


# z, z1 and z3 are split, so each of their names is freed and taken again
# by a later fresh vertex
FREED_Z = """[quiver]
vertex u
vertex v
arrow z v v 3
arrow z1 v u 2
arrow z3 u v 4
arrow w u u 2

[relations]
z1*z3*z - 2*z*z*z
w*z3*z1*w
"""


class TestSplitSteps:
    """Each step of ``regrade`` equals one split of its ``before`` quiver on
    the arrow ``pick_split_target`` picks, made by a fresh ``split_arrow``
    and by a split that rebuilds the whole quiver."""

    def assert_steps(self, q, ideal):
        r = regrade(q, ideal)
        assert len(r.trace) == weight_discrepancy(q)
        for t in r.trace:
            target = pick_split_target(t.before)
            assert t.split_arrow == target
            for want in (split_arrow(t.before, target), rebuilt_split(t.before, target)):
                for f in fields(SplitTrace):
                    assert getattr(t, f.name) == getattr(want, f.name), f.name
        assert pick_split_target(r.final_quiver) is None
        return r

    def test_random_presentations(self):
        for seed in range(240):
            rng = rng_for("regrade-one-pass", seed)
            q = random_quiver(rng, require_heavy=True)
            self.assert_steps(q, random_ideal(rng, q))

    def test_colliding_reused_and_golden(self, golden_dir):
        for text in (
            COLLIDING,
            REUSED,
            (golden_dir / "kxy.quiver").read_text(),
            (golden_dir / "kxy_regraded.quiver").read_text(),
        ):
            self.assert_steps(*parse_presentation(text))

    def test_large_parallel_pairs(self):
        q, ideal = large_shape_presentation()
        assert (len(q.vertices), len(q.arrows), weight_discrepancy(q)) == (24, 60, 174)
        r = self.assert_steps(q, ideal)
        assert r.final_ideal == sequential_ideal(ideal, r.trace)

    def test_freed_z_names_are_reused(self):
        q, ideal = parse_presentation(FREED_Z)
        r = self.assert_steps(q, ideal)
        split = [t.split_arrow for t in r.trace]
        fresh = [t.new_vertex for t in r.trace]
        for name in ("z", "z1", "z3"):
            assert fresh.index(name) > split.index(name)
        assert r.final_ideal == sequential_ideal(ideal, r.trace)

    def test_arrow_named_like_a_vertex(self, empty_ideal):
        # an arrow may share its name with a vertex; its split frees the
        # arrow's name, while the vertex keeps it taken
        q = WeightedQuiver(("z",), (Arrow("z", "z", "z", 3),))
        r = self.assert_steps(q, empty_ideal)
        assert [t.new_vertex for t in r.trace] == ["z1", "z2"]
        assert validate(r.final_quiver) == []
