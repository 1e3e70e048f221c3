"""Paths, path sums, and homogeneous elements of the path algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_regrade import (
    GF,
    Arrow,
    Path,
    PathCountLimit,
    PathSum,
    QQ,
    UniformElement,
    enumerate_paths,
    format_path_sum,
    multiply_paths,
    multiply_sums,
    path_from_arrows,
    trivial_path,
    uniform_components,
)
from quiver_regrade.catalog import (
    bridge_quiver,
    heavy_loop_quiver,
    kxy_presentation,
    kxy_split_presentation,
)
from quiver_regrade.randomgen import random_quiver


class TestPath:
    def test_trivial(self):
        e = trivial_path("v")
        assert e.is_trivial
        assert (e.source, e.target, e.degree, e.arrows) == ("v", "v", 0, ())

    def test_empty_word_rejected(self, kxy):
        # An empty word has no endpoints; trivial paths are made explicitly.
        with pytest.raises(ValueError):
            path_from_arrows(kxy[0], [])

    def test_from_arrows(self, kxy):
        q, _ = kxy
        p = path_from_arrows(q, ["x", "y", "x"])
        assert (p.source, p.target) == ("v", "v")
        assert p.degree == 1 + 2 + 1
        assert p.arrows == ("x", "y", "x")

    def test_from_arrows_rejects_noncomposable(self, bridge):
        # b ends at v, a lives at u.
        with pytest.raises(ValueError):
            path_from_arrows(bridge, ["b", "a"])

    def test_from_arrows_rejects_unknown(self, kxy):
        with pytest.raises(KeyError):
            path_from_arrows(kxy[0], ["x", "nope"])

    def test_multiply_composable(self, kxy):
        q, _ = kxy
        x = path_from_arrows(q, ["x"])
        y = path_from_arrows(q, ["y"])
        xy = multiply_paths(x, y)
        assert xy is not None
        assert xy.arrows == ("x", "y")
        assert xy.degree == 3

    def test_multiply_mismatch_is_none(self, bridge):
        b = path_from_arrows(bridge, ["b"])
        a = path_from_arrows(bridge, ["a"])
        assert multiply_paths(b, a) is None

    def test_trivial_is_unit(self, kxy):
        q, _ = kxy
        p = path_from_arrows(q, ["x", "y"])
        e = trivial_path("v")
        assert multiply_paths(e, p) == p
        assert multiply_paths(p, e) == p

    def test_trivial_mismatch(self):
        assert multiply_paths(trivial_path("u"), trivial_path("v")) is None

    @pytest.mark.parametrize(
        "record, field",
        [(Path("u", "v", 2, ("a", "b")), "degree"), (Arrow("a", "u", "v", 1), "name")],
        ids=["Path", "Arrow"],
    )
    def test_records_are_immutable_named_tuples(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 3)
        changed = record._replace(**{field: 3})
        assert getattr(changed, field) == 3 and getattr(record, field) != 3
        assert record == tuple(record)

    def test_path_repr_and_order(self):
        p = Path("v", "v", 1, ("x",))
        assert repr(p) == "Path(source='v', target='v', degree=1, arrows=('x',))"
        assert str(p) == "x" and str(trivial_path("v")) == "e_v"
        assert p._replace(arrows=("y",)) == ("v", "v", 1, ("y",))
        assert sorted([p, trivial_path("v")]) == [trivial_path("v"), p]


class TestEnumeratePaths:
    def test_kxy_counts_are_fibonacci(self, kxy):
        # Words in {x deg 1, y deg 2} of total degree d.
        q, _ = kxy
        assert [len(enumerate_paths(q, d)) for d in range(7)] == [1, 1, 2, 3, 5, 8, 13]

    def test_kxy_degree_two_words(self, kxy):
        q, _ = kxy
        got = {p.arrows for p in enumerate_paths(q, 2)}
        assert got == {("x", "x"), ("y",)}

    def test_degree_zero_is_trivial_paths(self, bridge):
        got = enumerate_paths(bridge, 0)
        assert {p.source for p in got} == {"u", "v"}
        assert all(p.is_trivial for p in got)

    def test_negative_degree_rejected(self, kxy):
        with pytest.raises(ValueError):
            enumerate_paths(kxy[0], -1)

    def test_source_filter(self, bridge):
        for p in enumerate_paths(bridge, 2, source="u"):
            assert p.source == "u"
        # At degree 2 from u: aa, ac, b, cd (left-to-right words).
        got = {p.arrows for p in enumerate_paths(bridge, 2, source="u")}
        assert got == {("a", "a"), ("a", "c"), ("b",), ("c", "d")}

    def test_target_filter(self, bridge):
        got = {p.arrows for p in enumerate_paths(bridge, 2, source="u", target="v")}
        assert got == {("a", "c"), ("b",), ("c", "d")}

    def test_limit_raises(self, kxy):
        with pytest.raises(PathCountLimit):
            enumerate_paths(kxy[0], 6, limit=5)

    def test_deterministic_order(self, bridge):
        a = enumerate_paths(bridge, 3)
        b = enumerate_paths(bridge, 3)
        assert a == b


def recursive_paths(q, degree, source=None, target=None):
    """Reference walk: one recursion level per arrow, then the canonical sort."""
    if degree == 0:
        return sorted(
            (trivial_path(v) for v in q.vertices
             if source in (None, v) and target in (None, v)),
            key=Path.sort_key,
        )
    found = []

    def walk(start, v, remaining, names):
        for a in q.out_arrows.get(v, ()):
            if a.degree == remaining and target in (None, a.target):
                found.append(Path(start, a.target, degree, names + (a.name,)))
            elif a.degree < remaining:
                walk(start, a.target, remaining - a.degree, names + (a.name,))

    for start in [source] if source is not None else q.vertices:
        walk(start, start, degree, ())
    return sorted(found, key=Path.sort_key)


CATALOG_QUIVERS = {
    "kxy": lambda: kxy_presentation()[0],
    "kxy_split": lambda: kxy_split_presentation()[0],
    "bridge2": lambda: bridge_quiver(2),
    "bridge3": lambda: bridge_quiver(3),
    "heavy_loop": lambda: heavy_loop_quiver(3),
}


class TestIterativeWalk:
    @pytest.mark.parametrize("name", sorted(CATALOG_QUIVERS))
    def test_matches_recursive_walk_on_catalog(self, name):
        q = CATALOG_QUIVERS[name]()
        ends = [None, *q.vertices]
        for d in range(7):
            for source in ends:
                for target in ends:
                    assert enumerate_paths(q, d, source, target) == recursive_paths(
                        q, d, source, target
                    )

    @pytest.mark.parametrize("name", sorted(CATALOG_QUIVERS))
    def test_limit_trips_at_the_same_count(self, name):
        q = CATALOG_QUIVERS[name]()
        for d in range(7):
            count = len(recursive_paths(q, d))
            assert len(enumerate_paths(q, d, limit=count)) == count
            if count:
                with pytest.raises(PathCountLimit, match=f"more than {count - 1} paths"):
                    enumerate_paths(q, d, limit=count - 1)

    def test_deep_walk_needs_no_recursion(self):
        q = heavy_loop_quiver(1)
        (p,) = enumerate_paths(q, 5000)
        assert p.arrows == ("w",) * 5000


class TestPathSum:
    def test_make_collects_like_terms(self, kxy):
        q, _ = kxy
        p = path_from_arrows(q, ["x"])
        s = PathSum.make(QQ, [(p, Fraction(2)), (p, Fraction(3))])
        assert s.terms == ((p, Fraction(5)),)

    def test_make_drops_zero_terms(self, kxy):
        q, _ = kxy
        p = path_from_arrows(q, ["x"])
        s = PathSum.make(QQ, [(p, Fraction(1)), (p, Fraction(-1))])
        assert s.is_zero()
        assert s.terms == ()

    def test_make_reduces_fp_coefficients(self, kxy):
        q, _ = kxy
        x, y = path_from_arrows(q, ["x"]), path_from_arrows(q, ["y"])
        f = GF(7)
        # a path met once is reduced as one met twice is
        assert PathSum.make(f, [(x, 8)]).terms == ((x, 1),)
        assert PathSum.make(f, [(x, 8)]) == PathSum.make(f, [(x, 1)])
        assert PathSum.make(f, [(x, 8), (x, 0)]) == PathSum.make(f, [(x, -6)])
        assert PathSum.make(f, [(x, 14)]).is_zero()
        # a Fraction goes through from_fraction: 1/2 is 4 mod 7
        s = PathSum.make(f, [(x, Fraction(1, 2)), (y, Fraction(-3))])
        assert s.terms == ((x, 4), (y, 4))
        assert all(type(c) is int for _, c in s.terms)
        # the rationals keep their coefficients as given
        assert PathSum.make(QQ, [(x, Fraction(8))]).terms == ((x, Fraction(8)),)

    def test_add_sub_scale(self, kxy):
        q, _ = kxy
        x = PathSum.of_path(QQ, path_from_arrows(q, ["x"]))
        y = PathSum.of_path(QQ, path_from_arrows(q, ["y"]))
        s = x.add(y.scale(Fraction(2)))
        assert len(s.terms) == 2
        assert s.sub(s).is_zero()
        assert x.neg().add(x).is_zero()

    def test_multiply_distributes(self, kxy):
        q, _ = kxy
        x = PathSum.of_path(QQ, path_from_arrows(q, ["x"]))
        y = PathSum.of_path(QQ, path_from_arrows(q, ["y"]))
        lhs = multiply_sums(x.add(y), x)
        rhs = multiply_sums(x, x).add(multiply_sums(y, x))
        assert lhs == rhs

    def test_multiply_drops_noncomposable(self, bridge):
        b = PathSum.of_path(QQ, path_from_arrows(bridge, ["b"]))
        a = PathSum.of_path(QQ, path_from_arrows(bridge, ["a"]))
        assert multiply_sums(b, a).is_zero()

    def test_to_field(self, kxy):
        from quiver_regrade import GF

        q, _ = kxy
        s = PathSum.of_path(QQ, path_from_arrows(q, ["x"]), Fraction(1, 2))
        t = s.to_field(GF(7))
        ((_, coeff),) = t.terms
        assert GF(7).mul(coeff, GF(7).from_int(2)) == GF(7).one
        # a coefficient that vanishes mod 7 drops out; the rest keep their order
        s = PathSum.make(QQ, [(path_from_arrows(q, ["x", "y"]), Fraction(3)),
                              (path_from_arrows(q, ["y", "x"]), Fraction(-7)),
                              (path_from_arrows(q, ["x", "x", "x"]), Fraction(1, 3))])
        t = s.to_field(GF(7))
        assert t == PathSum.make(GF(7), [(p, GF(7).from_fraction(c)) for p, c in s.terms])
        assert [p for p, _ in t.terms] == [p for p, c in s.terms if c != -7]


class TestUniformComponents:
    def test_homogeneous_passthrough(self, kxy):
        q, ideal = kxy
        (gen,) = ideal.generators
        comps = uniform_components(gen.sum)
        assert len(comps) == 1
        assert comps[0].sum == gen.sum
        assert (comps[0].source, comps[0].target, comps[0].degree) == ("v", "v", 3)

    def test_mixed_degree_splits(self, kxy):
        q, _ = kxy
        x = PathSum.of_path(QQ, path_from_arrows(q, ["x"]))
        y = PathSum.of_path(QQ, path_from_arrows(q, ["y"]))
        comps = uniform_components(x.add(y))
        assert sorted(c.degree for c in comps) == [1, 2]

    def test_mixed_endpoints_split(self, bridge):
        a = PathSum.of_path(QQ, path_from_arrows(bridge, ["a"]))
        d = PathSum.of_path(QQ, path_from_arrows(bridge, ["d"]))
        comps = uniform_components(a.add(d))
        assert {(c.source, c.target) for c in comps} == {("u", "u"), ("v", "v")}

    def test_components_resum(self, bridge):
        a = PathSum.of_path(QQ, path_from_arrows(bridge, ["a"]))
        b = PathSum.of_path(QQ, path_from_arrows(bridge, ["b"]))
        d = PathSum.of_path(QQ, path_from_arrows(bridge, ["d"]))
        total = a.add(b).add(d.scale(Fraction(-3)))
        comps = uniform_components(total)
        back = PathSum.zero(QQ)
        for c in comps:
            back = back.add(c.sum)
        assert back == total

    def test_zero_has_no_components(self):
        assert uniform_components(PathSum.zero(QQ)) == []

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.spec)
    def test_components_are_the_normalized_buckets(self, field):
        # the reference: bucket the terms, normalize each bucket with
        # PathSum.make and order the buckets by (degree, source, target)
        rng = random.Random(f"paths-uniform-components-{field.spec}")
        mixed = 0
        for _ in range(200):
            q = random_quiver(rng, max_vertices=3, max_arrows=4, max_degree=3)
            paths = [p for d in range(4) for p in enumerate_paths(q, d)]
            # repeated paths and zero coefficients, so make sums and cancels
            x = PathSum.make(field, [
                (rng.choice(paths), field.from_int(rng.randint(-2, 2)))
                for _ in range(rng.randint(0, 8))
            ])
            buckets: dict = {}
            for p, c in x.terms:
                buckets.setdefault((p.degree, p.source, p.target), []).append((p, c))
            expected = [
                UniformElement.from_sum(PathSum.make(field, buckets[k])) for k in sorted(buckets)
            ]
            assert uniform_components(x) == expected
            mixed += len({degree for degree, _, _ in buckets}) > 1
        assert mixed > 20


class TestFormat:
    def test_single_path(self, kxy):
        q, _ = kxy
        s = PathSum.of_path(QQ, path_from_arrows(q, ["x", "y"]))
        assert format_path_sum(s) == "x*y"

    def test_commutator(self, kxy):
        _, ideal = kxy
        assert format_path_sum(ideal.generators[0].sum) == "x*y - y*x"

    def test_coefficients(self, kxy):
        q, _ = kxy
        x = path_from_arrows(q, ["x"])
        s = PathSum.make(QQ, [(x, Fraction(1, 2))])
        assert "1/2" in format_path_sum(s)

    def test_trivial_path_renders_as_idempotent(self):
        s = PathSum.of_path(QQ, trivial_path("v"))
        assert "e_v" in format_path_sum(s)

    def test_zero(self):
        assert format_path_sum(PathSum.zero(QQ)) == "0"


# Strategy: random words over the kxy alphabet give composable paths on demand.
words = st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(w1=words, w2=words, w3=words)
def test_path_multiplication_associative(kxy_module, w1, w2, w3):
    q, _ = kxy_module
    p1, p2, p3 = (path_from_arrows(q, w) for w in (w1, w2, w3))
    left = multiply_paths(multiply_paths(p1, p2), p3)
    right = multiply_paths(p1, multiply_paths(p2, p3))
    assert left == right
    assert left.degree == p1.degree + p2.degree + p3.degree


@settings(max_examples=80, deadline=None)
@given(w1=words, w2=words)
def test_degree_additive(kxy_module, w1, w2):
    q, _ = kxy_module
    p = multiply_paths(path_from_arrows(q, w1), path_from_arrows(q, w2))
    assert p.arrows == tuple(w1) + tuple(w2)


@pytest.fixture(scope="module")
def kxy_module():
    from quiver_regrade.catalog import kxy_presentation

    return kxy_presentation()


# Paths for the PathSum.make property: every path of kxy to degree 4 and of
# the bridge to degree 3, trivial paths included.  Each sum draws from one.
MAKE_POOLS = {
    "kxy": [p for d in range(5) for p in enumerate_paths(kxy_presentation()[0], d)],
    "bridge": [p for d in range(4) for p in enumerate_paths(bridge_quiver(2), d)],
}


@st.composite
def make_items(draw, field):
    """(path, coefficient) items with repeated paths, cancelling pairs and a
    shuffled order; over F_7 the coefficients are unreduced ints."""
    pool = MAKE_POOLS[draw(st.sampled_from(sorted(MAKE_POOLS)))]
    if field.char:
        coeffs = st.integers(-30, 30)
    else:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    items = draw(st.lists(st.tuples(st.sampled_from(pool), coeffs), max_size=12))
    if items:
        items += draw(st.lists(st.sampled_from(items), max_size=4))
        items += [(p, -c) for p, c in draw(st.lists(st.sampled_from(items), max_size=4))]
    return draw(st.permutations(items))


def reference_make_terms(field, items):
    """What PathSum.make must give, computed without it: coefficients summed
    per path in a dict, reduced mod p over F_p, zeros dropped, sorted by
    Path.sort_key."""
    acc: dict = {}
    for p, c in items:
        acc[p] = acc.get(p, 0) + c
    if field.char:
        acc = {p: c % field.char for p, c in acc.items()}
    return tuple(sorted(((p, c) for p, c in acc.items() if c != 0), key=lambda t: t[0].sort_key()))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.spec)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_make_matches_a_dict_reference(field, data):
    items = data.draw(make_items(field))
    terms = PathSum.make(field, iter(items)).terms
    assert terms == reference_make_terms(field, items)
    keys = [p.sort_key() for p, _ in terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert not any(field.is_zero(c) for _, c in terms)
