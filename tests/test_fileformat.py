"""Text format: parsing with positioned diagnostics, serialization round trips."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiver_regrade import PresentationError, parse_presentation, serialize_presentation
from quiver_regrade.catalog import kxy_presentation, kxy_split_presentation
from quiver_regrade.randomgen import random_ideal, random_quiver, rng_for


def diagnostics_of(text):
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    return exc.value.diagnostics


class TestParseGolden:
    def test_kxy_file_matches_catalog(self, golden_dir):
        text = (golden_dir / "kxy.quiver").read_text()
        q, ideal = parse_presentation(text)
        cq, cideal = kxy_presentation()
        assert q == cq
        assert ideal == cideal

    def test_regraded_file_matches_catalog(self, golden_dir):
        text = (golden_dir / "kxy_regraded.quiver").read_text()
        q, ideal = parse_presentation(text)
        cq, cideal = kxy_split_presentation()
        assert q == cq
        assert ideal == cideal

    def test_comments_and_blank_lines_ignored(self):
        q, ideal = parse_presentation(
            "# header comment\n"
            "[quiver]\n"
            "vertex v  # inline\n"
            "\n"
            "arrow x v v 1\n"
            "arrow y v v 2\n"
            "[relations]\n"
            "# full-line comment\n"
            "x*y - y*x\n"
        )
        cq, cideal = kxy_presentation()
        assert (q, ideal) == (cq, cideal)

    def test_relations_section_optional(self):
        q, ideal = parse_presentation("[quiver]\nvertex v\narrow x v v 1\n")
        assert ideal.generators == ()

    def test_coefficients(self):
        _, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\n"
            "[relations]\n2*x - 1/3*y\n"
        )
        (gen,) = ideal.generators
        coeffs = sorted(c for _, c in gen.sum.terms)
        from fractions import Fraction

        assert coeffs == [Fraction(-1, 3), Fraction(2)]

    def test_trivial_path_atoms(self):
        # e_v is absorbed during normalization: y*e_v*x is the path y*x.
        _, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n"
            "[relations]\nx*y - y*e_v*x\n"
        )
        (gen,) = ideal.generators
        assert {p.arrows for p, _ in gen.sum.terms} == {("x", "y"), ("y", "x")}

    def test_trivial_path_cancellation_rejected_as_zero(self):
        # e_v x - x e_v normalizes to the zero relation.
        ds = diagnostics_of(
            "[quiver]\nvertex v\narrow x v v 1\n[relations]\ne_v*x - x*e_v\n"
        )
        assert any("identically zero" in d.message for d in ds)

    def test_apostrophe_identifiers(self):
        q, _ = parse_presentation(
            "[quiver]\nvertex v\nvertex z\narrow y' v z 1\narrow y'' z v 1\n"
            "[relations]\ny'*y''\n"
        )
        assert [a.name for a in q.arrows] == ["y'", "y''"]

    def test_mixed_endpoint_relation_split_silently(self):
        _, ideal = parse_presentation(
            "[quiver]\nvertex u\nvertex v\narrow a u u 1\narrow d v v 1\n"
            "[relations]\na + d\n"
        )
        assert len(ideal.generators) == 2
        assert {(g.source, g.target) for g in ideal.generators} == {
            ("u", "u"),
            ("v", "v"),
        }


class TestDiagnostics:
    def test_unknown_section(self):
        (d,) = diagnostics_of("[quiver]\nvertex v\n[bogus]\n")
        assert (d.line, d.col) == (3, 1)
        assert "bogus" in d.message

    def test_content_before_section(self):
        (d,) = diagnostics_of("vertex v\n[quiver]\n")
        assert d.line == 1
        assert "before any section" in d.message

    def test_bad_arity_both_kinds(self):
        ds = diagnostics_of("[quiver]\nvertex\narrow x v 1\n")
        assert [d.line for d in ds] == [2, 3]
        assert "vertex NAME" in ds[0].message
        assert "arrow NAME SOURCE TARGET DEGREE" in ds[1].message

    def test_bad_degrees(self):
        ds = diagnostics_of("[quiver]\nvertex v\narrow x v v 0\narrow y v v abc\n")
        assert "positive" in ds[0].message
        assert "integer" in ds[1].message

    def test_duplicates(self):
        ds = diagnostics_of(
            "[quiver]\nvertex v\nvertex v\narrow x v v 1\narrow x v v 1\n"
        )
        assert any("duplicate vertex" in d.message for d in ds)
        assert any("duplicate arrow" in d.message for d in ds)

    def test_vertex_arrow_collision(self):
        ds = diagnostics_of("[quiver]\nvertex a\narrow a a a 1\n")
        assert any("collides" in d.message for d in ds)

    def test_dangling_endpoint(self):
        ds = diagnostics_of("[quiver]\nvertex v\narrow x v w 1\n")
        assert any("undeclared target 'w'" in d.message for d in ds)

    def test_invalid_identifier(self):
        ds = diagnostics_of("[quiver]\nvertex 'v\n")
        assert any("invalid vertex name" in d.message for d in ds)

    def test_mixed_degree_relation_points_at_term(self):
        ds = diagnostics_of(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 2\n[relations]\nx*y - x\n"
        )
        (d,) = ds
        assert (d.line, d.col) == (6, 7)
        assert "mixed degrees" in d.message

    def test_zero_denominator_coefficient(self):
        ds = diagnostics_of(
            "[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\n[relations]\nx*y - 1/0*y*x\n"
        )
        (d,) = ds
        assert (d.line, d.col) == (6, 7)
        assert "zero denominator" in d.message

    def test_overlong_coefficient(self):
        # beyond the interpreter's integer-digit limit, where one is set
        digits = "7" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
        text = f"[quiver]\nvertex v\narrow x v v 1\n[relations]\nx - {digits}*x\n"
        try:
            parse_presentation(text)
        except PresentationError as exc:
            (d,) = exc.diagnostics
            assert (d.line, d.col) == (5, 5)
            assert "too long" in d.message

    def test_zero_relation(self):
        ds = diagnostics_of("[quiver]\nvertex v\narrow x v v 1\n[relations]\nx - x\n")
        assert any("identically zero" in d.message for d in ds)

    def test_noncomposable_product(self):
        ds = diagnostics_of(
            "[quiver]\nvertex u\nvertex v\narrow a u v 1\n[relations]\na*a\n"
        )
        (d,) = ds
        assert (d.line, d.col) == (6, 3)
        assert "do not compose" in d.message

    def test_unknown_atom(self):
        ds = diagnostics_of(
            "[quiver]\nvertex v\narrow x v v 1\n[relations]\nx*q\n"
        )
        assert any("unknown arrow" in d.message for d in ds)

    def test_empty_input_is_empty_quiver(self):
        q, ideal = parse_presentation("")
        assert q.vertices == () and q.arrows == ()
        assert ideal.generators == ()

    def test_multiple_diagnostics_collected(self):
        # The parser reports everything it can rather than stopping at the first.
        ds = diagnostics_of("[quiver]\nvertex\nvertex v\narrow x v w 1\n")
        assert len(ds) >= 2


class TestSerialize:
    def test_kxy_round_trip(self):
        q, ideal = kxy_presentation()
        text = serialize_presentation(q, ideal)
        q2, ideal2 = parse_presentation(text)
        assert (q2, ideal2) == (q, ideal)

    def test_serialize_stable(self):
        q, ideal = kxy_split_presentation()
        once = serialize_presentation(q, ideal)
        q2, ideal2 = parse_presentation(once)
        assert serialize_presentation(q2, ideal2) == once

    def test_no_relations_section_when_empty(self):
        q, _ = kxy_presentation()
        from quiver_regrade import IdealPresentation

        text = serialize_presentation(q, IdealPresentation(generators=()))
        assert "[relations]" not in text
        assert text.endswith("\n")

    def test_trailing_newline(self):
        q, ideal = kxy_presentation()
        assert serialize_presentation(q, ideal).endswith("\n")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_presentation_round_trip(seed):
    rng = rng_for("fileformat-roundtrip", seed)
    q = random_quiver(rng)
    ideal = random_ideal(rng, q)
    text = serialize_presentation(q, ideal)
    q2, ideal2 = parse_presentation(text)
    assert q2 == q
    assert ideal2 == ideal


# fragments of the grammar, so that generated text reaches past the tokenizer
FRAGMENTS = [
    "[quiver]", "[relations]", "[x]", "vertex ", "arrow ", "u", "v", "x", "y'", "e_u",
    "e_", " ", "\n", "\t", "#", "*", "+", "-", "/", "0", "1", "2", "1/0", "2/3", "é", "٣",
]

presentation_like = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(FRAGMENTS), max_size=60).map("".join),
)


@settings(max_examples=150, deadline=None)
@given(text=presentation_like)
def test_parse_raises_only_presentation_error(text):
    try:
        parse_presentation(text)
    except PresentationError as exc:
        assert exc.diagnostics
