"""Weighted quiver structure, validation, and discrepancy bookkeeping."""

from __future__ import annotations

import pytest

from quiver_regrade import (
    Arrow,
    WeightedQuiver,
    pick_split_target,
    split_arrow,
    validate,
    weight_discrepancy,
)
from quiver_regrade.catalog import bridge_quiver, heavy_loop_quiver


def q_of(vertices, arrows):
    return WeightedQuiver(
        vertices=tuple(vertices),
        arrows=tuple(Arrow(*a) for a in arrows),
    )


class TestAccessors:
    def test_lookup(self, kxy):
        q, _ = kxy
        assert q.arrow("y").degree == 2
        assert q.arrow("x").source == q.arrow("x").target == "v"
        assert q.has_vertex("v")
        assert not q.has_vertex("z")
        assert "x" in q.arrow_map and "w" not in q.arrow_map

    def test_unknown_arrow(self, kxy):
        q, _ = kxy
        with pytest.raises(KeyError):
            q.arrow("nope")


class TestValidate:
    def test_clean(self, kxy, bridge, heavy_loop):
        assert validate(kxy[0]) == []
        assert validate(bridge) == []
        assert validate(heavy_loop) == []

    def test_dangling_source(self):
        bad = q_of(["u"], [("a", "ghost", "u", 1)])
        assert any("ghost" in p for p in validate(bad))

    def test_dangling_target(self):
        bad = q_of(["u"], [("a", "u", "ghost", 1)])
        assert any("ghost" in p for p in validate(bad))

    def test_duplicate_vertex(self):
        bad = q_of(["u", "u"], [])
        assert any("duplicate" in p.lower() for p in validate(bad))

    def test_duplicate_arrow(self):
        bad = q_of(["u"], [("a", "u", "u", 1), ("a", "u", "u", 2)])
        assert any("duplicate" in p.lower() for p in validate(bad))

    def test_nonpositive_degree(self):
        for deg in (0, -1):
            bad = q_of(["u"], [("a", "u", "u", deg)])
            assert validate(bad), f"degree {deg} accepted"

    def test_vertex_arrow_name_clash_is_structural_nonissue(self):
        # Name clashes only matter to the text format, where identifiers
        # must parse unambiguously; the structural validator permits them.
        clash = q_of(["u", "a"], [("a", "u", "u", 1)])
        assert validate(clash) == []


class TestDiscrepancy:
    def test_known_values(self, kxy, bridge, bridge3, heavy_loop):
        assert weight_discrepancy(kxy[0]) == 1
        assert weight_discrepancy(bridge) == 1
        assert weight_discrepancy(bridge3) == 2
        assert weight_discrepancy(heavy_loop) == 2

    def test_degree_one_quiver(self):
        q = q_of(["u", "v"], [("a", "u", "v", 1), ("b", "v", "u", 1)])
        assert weight_discrepancy(q) == 0

    def test_no_arrows(self):
        assert weight_discrepancy(q_of(["u"], [])) == 0

    def test_additive_over_arrows(self):
        q = q_of(["u"], [("a", "u", "u", 3), ("b", "u", "u", 2), ("c", "u", "u", 1)])
        assert weight_discrepancy(q) == (3 - 1) + (2 - 1) + (1 - 1)


class TestPickSplitTarget:
    def test_none_when_degree_one(self):
        q = q_of(["u"], [("a", "u", "u", 1)])
        assert pick_split_target(q) is None

    def test_max_degree_wins(self, bridge):
        assert pick_split_target(bridge) == "b"

    def test_lex_smallest_breaks_ties(self):
        q = q_of(
            ["u"],
            [("m", "u", "u", 2), ("b", "u", "u", 2), ("zz", "u", "u", 2)],
        )
        assert pick_split_target(q) == "b"

    def test_degree_dominates_name(self):
        # A lex-later name with strictly larger degree still wins.
        q = q_of(["u"], [("a", "u", "u", 2), ("z", "u", "u", 3)])
        assert pick_split_target(q) == "z"


class TestFreshNames:
    # the names a split gives its fresh vertex and its two halves
    def test_plain(self, kxy):
        q, _ = kxy
        t = split_arrow(q, "y")
        assert t.new_vertex == "z"
        assert (t.first, t.second) == ("y'", "y''")

    def test_vertex_collision(self):
        q = q_of(["z", "z1"], [("a", "z", "z", 2)])
        name = split_arrow(q, "a").new_vertex
        assert name not in q.vertices
        assert name == "z2"

    def test_split_name_collision(self):
        q = q_of(
            ["u"],
            [("b", "u", "u", 2), ("b'", "u", "u", 1)],
        )
        t = split_arrow(q, "b")
        assert (t.first, t.second) == ("b'1", "b''1")
        assert t.first not in q.arrow_map and t.second not in q.arrow_map


class TestCatalogShapes:
    def test_bridge(self, bridge):
        assert set(bridge.vertices) == {"u", "v"}
        b = bridge.arrow("b")
        assert (b.source, b.target, b.degree) == ("u", "v", 2)
        assert bridge.arrow("c").degree == 1

    def test_heavy_loop(self, heavy_loop):
        assert len(heavy_loop.vertices) == 1
        (a,) = heavy_loop.arrows
        assert a.degree == 3

    def test_bridge_degree_param(self):
        assert bridge_quiver(bridge_degree=5).arrow("b").degree == 5
        assert heavy_loop_quiver(degree=4).arrows[0].degree == 4
