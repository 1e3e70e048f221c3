"""Text format: parsing with positioned diagnostics, serialization round trips."""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiver_regrade import PresentationError, fileformat, parse_presentation, serialize_presentation
from quiver_regrade.fields import QQ
from quiver_regrade.fileformat import Diagnostic
from quiver_regrade.paths import Path, PathSum, multiply_paths, trivial_path
from quiver_regrade.quiver import WeightedQuiver, validate
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


class TestLinearParse:
    def test_each_term_path_built_once(self):
        relation = "x*y*x - 2*y*x*e_v*y + x*x*x - 1/3*e_v*y*y*y"
        with mock.patch.object(fileformat, "Path", side_effect=Path) as built:
            _, ideal = parse_presentation(
                f"[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\n[relations]\n{relation}\n"
            )
        assert built.call_count <= 4
        (gen,) = ideal.generators
        assert str(gen.sum) == "x*x*x + x*y*x - 2*y*x*y - 1/3*y*y*y"

    def test_scanner_builds_no_path_before_the_line_is_accepted(self):
        q, _ = parse_presentation("[quiver]\nvertex v\narrow x v v 1\narrow y v v 1\n")
        with mock.patch.object(fileformat, "Path", side_effect=Path) as built:
            assert fileformat._scan_expression("x*y - 2*y*x + x*q", q) is None
        assert built.call_count == 0

    def test_long_product_is_one_term(self):
        n = 40_000
        _, ideal = parse_presentation(
            "[quiver]\nvertex v\narrow x v v 1\n[relations]\n" + "*".join(["x"] * n) + "\n"
        )
        ((path, coeff),) = ideal.generators[0].sum.terms
        assert (path.degree, len(path.arrows), coeff) == (n, n, 1)


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

    # int() reads these as 10, 2 and 1
    @pytest.mark.parametrize("degree", ["1_0", "\u0662", "+1"])
    def test_degree_takes_ascii_digits_only(self, degree):
        ds = diagnostics_of(f"[quiver]\nvertex v\narrow x v v {degree}\n")
        assert [(d.line, d.col, d.message) for d in ds] == [
            (3, 1, f"degree must be an integer, got {degree!r}")
        ]

    def test_arrow_name_that_reads_as_a_trivial_path(self):
        # e_v would shadow the trivial path at v: x*x - e_v*x would read it as
        # the arrow, and a trivial path at v would serialize as e_v
        ds = diagnostics_of(
            "[quiver]\nvertex v\narrow x v v 1\narrow e_v v v 1\narrow e_w v v 1\n"
            "[relations]\nx*x - e_v*x\n"
        )
        assert [(d.line, d.col) for d in ds] == [(4, 1), (5, 1)]
        assert ds[0].message == "arrow name 'e_v' begins with 'e_', which is kept for trivial paths"

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
        ds = diagnostics_of("[quiver]\nvertex v\narrow x w v 1\n")
        assert any("undeclared source 'w'" in d.message for d in ds)

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

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, sep):
        # str.splitlines() also breaks at these; here they are whitespace, so
        # the comment keeps "feed" and the next line is line 6
        (d,) = diagnostics_of(
            f"[quiver]\nvertex v\narrow x v v 1\n[relations]\nx*x # form{sep}feed\nx*y\n"
        )
        assert str(d) == "line 6, col 3: unknown arrow or trivial path 'y'"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_end_a_line(self, newline):
        text = "[quiver]\nvertex v\narrow x v v 1\n[relations]\nx*x # c\n\nx*y\n"
        assert diagnostics_of(text.replace("\n", newline)) == diagnostics_of(text)

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


VERTICES = st.sampled_from(["u", "v", "w"])
ARROW_LINE = st.builds(
    "arrow {} {} {} {}".format, st.sampled_from(["a", "b", "c"]), VERTICES, VERTICES,
    st.integers(-1, 3),
)


@st.composite
def quiver_section(draw):
    """A [quiver] section from a small pool of names, with random endpoints
    and degrees in -1..3; sometimes its first vertex is declared twice."""
    vertices = draw(st.lists(VERTICES, min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        vertices.append(vertices[0])
    lines = [f"vertex {v}" for v in vertices] + draw(st.lists(ARROW_LINE, max_size=3))
    return "[quiver]\n" + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=quiver_section())
def test_parsed_quivers_pass_validate(text):
    # the CLI runs no second structural check: the parser must reject every
    # quiver that validate would report on
    try:
        q, _ = parse_presentation(text)
    except PresentationError:
        return
    assert validate(q) == []


# line 7 of this presentation is the relation under test
EXPRESSION_QUIVER = "[quiver]\nvertex u\nvertex v\narrow x v v 1\narrow y v v 1\n[relations]\n"


@pytest.mark.parametrize(
    "relation, col, message",
    [
        ("x*y - y$x", 8, "unexpected character '$'"),
        # the whole line is scanned first, so this wins over the earlier 'x x'
        ("x x - y$", 8, "unexpected character '$'"),
        ("x*y y", 5, "expected '+' or '-', got 'y'"),
        ("x 2*y", 3, "expected '+' or '-', got '2'"),
        ("x*y -", 5, "dangling operator at end of expression"),
        ("-", 1, "dangling operator at end of expression"),
        ("x*y*", 4, "dangling '*' at end of expression"),
        ("2*", 2, "dangling '*' at end of expression"),
        ("2 x", 3, "a coefficient must be followed by '*' and a path"),
        ("x - 2", 5, "a coefficient must be followed by '*' and a path"),
        ("x*+y", 3, "expected an arrow or trivial path, got '+'"),
        ("+x", 1, "expected an arrow or trivial path, got '+'"),
        ("x - -y", 5, "expected an arrow or trivial path, got '-'"),
        ("2*3*x", 3, "expected an arrow or trivial path, got '3'"),
        ("x*q", 3, "unknown arrow or trivial path 'q'"),
        ("y - 2*e_w*x", 7, "unknown arrow or trivial path 'e_w'"),
    ],
)
def test_expression_diagnostic_positions(relation, col, message):
    (d,) = diagnostics_of(EXPRESSION_QUIVER + relation + "\n")
    assert (d.line, d.col, d.message) == (7, col, message)


# An expression parser with a character loop and a peek/advance term
# parser, kept as the reference the term scanner and the token machine in
# ``fileformat`` must agree with, diagnostic for diagnostic.
_REFERENCE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_REFERENCE_NUMBER = re.compile(r"[0-9]+(/[0-9]+)?")


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str  # ident | number | op
    text: str
    col: int


def _reference_tokenize(text: str, line: int) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _REFERENCE_IDENT.match(text, i)
        if m:
            tokens.append(_ReferenceToken("ident", m.group(), i + 1))
            i = m.end()
            continue
        m = _REFERENCE_NUMBER.match(text, i)
        if m:
            tokens.append(_ReferenceToken("number", m.group(), i + 1))
            i = m.end()
            continue
        if ch in "+-*":
            tokens.append(_ReferenceToken("op", ch, i + 1))
            i += 1
            continue
        raise PresentationError([Diagnostic(line, i + 1, f"unexpected character {ch!r}")])
    return tokens


def _reference_atom(tok: _ReferenceToken, q: WeightedQuiver, line: int) -> Path:
    name = tok.text
    if name in q.arrow_map:
        a = q.arrow_map[name]
        return Path(a.source, a.target, a.degree, (name,))
    if name.startswith("e_") and q.has_vertex(name[2:]):
        return trivial_path(name[2:])
    raise PresentationError(
        [Diagnostic(line, tok.col, f"unknown arrow or trivial path {name!r}")]
    )


def _reference_parse_expression(text: str, line: int, q: WeightedQuiver) -> PathSum:
    tokens = _reference_tokenize(text, line)
    if not tokens:
        raise PresentationError([Diagnostic(line, 1, "empty expression")])
    pos = 0

    def peek() -> _ReferenceToken | None:
        return tokens[pos] if pos < len(tokens) else None

    def fail(col: int, message: str):
        raise PresentationError([Diagnostic(line, col, message)])

    terms: list[tuple[Path, Fraction, int]] = []  # (path, signed coeff, start col)
    sign = Fraction(1)
    first = True
    while True:
        tok = peek()
        if tok is None:
            if first:
                fail(1, "empty expression")
            break
        if not first:
            if tok.kind != "op" or tok.text not in "+-":
                fail(tok.col, f"expected '+' or '-', got {tok.text!r}")
            sign = Fraction(1) if tok.text == "+" else Fraction(-1)
            pos += 1
            tok = peek()
            if tok is None:
                fail(len(text), "dangling operator at end of expression")
        elif tok.kind == "op" and tok.text == "-":
            sign = Fraction(-1)
            pos += 1
            tok = peek()
            if tok is None:
                fail(len(text), "dangling operator at end of expression")
        first = False
        start_col = tok.col
        coeff = sign
        if tok.kind == "number":
            try:
                coeff = sign * Fraction(tok.text)
            except ZeroDivisionError:
                fail(tok.col, f"coefficient {tok.text} has a zero denominator")
            except ValueError:  # past the interpreter's limit on integer digits
                fail(tok.col, f"coefficient of {len(tok.text)} characters is too long")
            pos += 1
            tok = peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                col = tok.col if tok is not None else len(text)
                fail(col, "a coefficient must be followed by '*' and a path")
            pos += 1
            tok = peek()
            if tok is None:
                fail(len(text), "dangling '*' at end of expression")
        if tok.kind != "ident":
            fail(tok.col, f"expected an arrow or trivial path, got {tok.text!r}")
        path = _reference_atom(tok, q, line)
        pos += 1
        while True:
            nxt = peek()
            if nxt is None or nxt.kind != "op" or nxt.text != "*":
                break
            pos += 1
            nxt = peek()
            if nxt is None:
                fail(len(text), "dangling '*' at end of expression")
            if nxt.kind != "ident":
                fail(nxt.col, f"expected an arrow or trivial path, got {nxt.text!r}")
            factor = _reference_atom(nxt, q, line)
            product = multiply_paths(path, factor)
            if product is None:
                fail(
                    nxt.col,
                    f"paths do not compose: previous factor ends at "
                    f"{path.target!r}, {nxt.text!r} starts at {factor.source!r}",
                )
            path = product
            pos += 1
        terms.append((path, coeff, start_col))

    degree = terms[0][0].degree
    for path, _, col in terms[1:]:
        if path.degree != degree:
            fail(
                col,
                f"mixed degrees in one relation: this term has degree "
                f"{path.degree}, the first has degree {degree}",
            )
    total = PathSum.make(QQ, [(p, c) for p, c, _ in terms])
    if total.is_zero():
        fail(terms[0][2], "relation is identically zero")
    return total


def _outcome(text):
    try:
        return parse_presentation(text)
    except PresentationError as exc:
        return exc.diagnostics


# x is a loop at u, y' goes u -> w, v goes w -> u at degree 2; the vertex
# names u and w are not atoms
DIFFERENTIAL_QUIVER = (
    "[quiver]\nvertex u\nvertex w\narrow x u u 1\narrow y' u w 1\narrow v w u 2\n"
    "[relations]\nx*y'*v - 2/3*y'*v*x\n"
)

# FRAGMENTS plus the trivial path at the second vertex and a coefficient past
# the interpreter's limit on integer digits, where one is set
RELATION_FRAGMENTS = FRAGMENTS + [
    "e_w", "7" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
]
# those split into operands and the glue between them, so that most lines get
# past the tokenizer and reach every diagnostic of the term grammar
OPERANDS = [
    f for f in RELATION_FRAGMENTS if re.fullmatch(r"[A-Za-z0-9_'/]+", f) and f != "/"
]
GLUE = [f for f in FRAGMENTS if f in ("*", "+", "-", " ")]
relation_like = st.one_of(
    st.lists(st.sampled_from(RELATION_FRAGMENTS), max_size=16).map("".join),
    st.lists(st.tuples(st.sampled_from(OPERANDS), st.sampled_from(GLUE)), max_size=8).map(
        lambda pairs: "".join(a + g for a, g in pairs)
    ),
)


# every arrow has degree 1, and the names carry digits and apostrophes
WELL_FORMED_QUIVER = (
    "[quiver]\nvertex u\nvertex w\narrow x u u 1\narrow x2 u u 1\narrow y' u w 1\n"
    "arrow y''3 w u 1\narrow v_9 w w 1\n[relations]\n"
)
WELL_FORMED_OUT = {"u": ["x", "x2", "y'"], "w": ["y''3", "v_9"]}
WELL_FORMED_TARGET = {"x": "u", "x2": "u", "y'": "w", "y''3": "u", "v_9": "w"}
BLANKS = st.sampled_from(["", " ", "  ", "\t", " \t ", "    "])


@st.composite
def well_formed_relation(draw):
    """A relation the grammar accepts: 1-6 terms of one degree, each a walk
    with trivial paths mixed in and an optional integer or a/b coefficient,
    with tabs and runs of spaces around every operator."""
    length = draw(st.integers(0, 4))  # the arrows of each term: one degree per line
    text = "-" + draw(BLANKS) if draw(st.booleans()) else ""
    for k in range(draw(st.integers(1, 6))):
        if k:
            text += draw(BLANKS) + draw(st.sampled_from("+-")) + draw(BLANKS)
        coeff = draw(st.one_of(
            st.none(),
            st.integers(0, 99).map(str),
            st.tuples(st.integers(0, 99), st.integers(1, 99)).map("{0[0]}/{0[1]}".format),
        ))
        star = draw(BLANKS) + "*" + draw(BLANKS)
        if coeff is not None:
            text += coeff + star
        vertex = draw(st.sampled_from(["u", "w"]))
        atoms = []
        # one draw per arrow: which arrow out of the vertex, and, from 6 up,
        # the trivial path at the vertex before it
        for pick in draw(st.lists(st.integers(0, 7), min_size=length, max_size=length)):
            if pick >= 6:
                atoms.append(f"e_{vertex}")
            out = WELL_FORMED_OUT[vertex]
            atoms.append(out[pick % len(out)])
            vertex = WELL_FORMED_TARGET[atoms[-1]]
        if not atoms or draw(st.integers(0, 3)) == 0:
            atoms.append(f"e_{vertex}")
        text += star.join(atoms)
    return text


relation_case = st.one_of(
    st.tuples(st.just(DIFFERENTIAL_QUIVER), st.lists(relation_like, min_size=1, max_size=3)),
    st.tuples(
        st.just(WELL_FORMED_QUIVER), st.lists(well_formed_relation(), min_size=1, max_size=3)
    ),
)


# 600 examples: about 300 of the mostly malformed lines, 300 of the well-formed
@settings(max_examples=600, deadline=None)
@given(case=relation_case)
def test_parser_agrees_with_reference(case):
    quiver, lines = case
    text = quiver + "\n".join(lines) + "\n"
    with mock.patch.object(fileformat, "_parse_expression", _reference_parse_expression):
        expected = _outcome(text)
    assert _outcome(text) == expected


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(
    st.tuples(st.just(DIFFERENTIAL_QUIVER), relation_like),
    st.tuples(st.just(WELL_FORMED_QUIVER), well_formed_relation()),
))
def test_scanner_refuses_exactly_the_lines_the_token_machine_rejects(case):
    quiver, text = case
    # a relation line as parse_presentation hands it on: one line, no comment, stripped
    line = re.split(r"[\r\n#]", text)[0].strip()
    assume(line)
    q, _ = parse_presentation(quiver)
    try:
        expected = fileformat._parse_tokens(line, 1, q)
    except PresentationError:
        expected = None
    assert fileformat._scan_expression(line, q) == expected


def test_well_formed_lines_reach_the_scanner_result():
    relation = "-\t2/3 *  x2*e_u  *y'  +  y'*e_w\t*v_9 - 7*x*y'"
    q, _ = parse_presentation(WELL_FORMED_QUIVER)
    with mock.patch.object(fileformat, "_parse_tokens", side_effect=AssertionError):
        _, ideal = parse_presentation(WELL_FORMED_QUIVER + relation + "\n")
    assert [str(g.sum) for g in ideal] == ["-7*x*y' - 2/3*x2*y' + y'*v_9"]


# composition through trivial paths, where the parser tracks the end vertex
@pytest.mark.parametrize(
    "relation, expected",
    [
        ("y'*e_u", "line 8, col 4: paths do not compose: previous factor ends at 'w', "
                   "'e_u' starts at 'u'"),
        ("e_u*e_w", "line 8, col 5: paths do not compose: previous factor ends at 'u', "
                    "'e_w' starts at 'w'"),
        ("x*e_u*y'", "x*y'"),
        ("-e_w*v", "-v"),
    ],
    ids=["y'*e_u", "e_u*e_w", "x*e_u*y'", "-e_w*v"],
)
def test_trivial_path_composition(relation, expected):
    text = DIFFERENTIAL_QUIVER.replace("x*y'*v - 2/3*y'*v*x", relation)
    with mock.patch.object(fileformat, "_parse_expression", _reference_parse_expression):
        reference = _outcome(text)
    outcome = _outcome(text)
    assert outcome == reference
    if isinstance(outcome, list):
        assert [str(d) for d in outcome] == [expected]
    else:
        assert [str(g.sum) for g in outcome[1]] == [expected]


# diagnostics late in a long line: the column is found only when one is raised
@pytest.mark.parametrize(
    "relation, col, message",
    [
        ("*".join(["x"] * 5000) + "/", 10_000, "unexpected character '/'"),
        (" + ".join(["x*x"] * 2000) + " - 2*y'*v", 12_001, "mixed degrees"),
        (" - ".join(["x*x"] * 2000) + " + 1/0*x*x", 12_001, "zero denominator"),
    ],
    ids=["slash-after-5000-factors", "mixed-degree-term-2001", "zero-denominator-term-2001"],
)
def test_late_diagnostic_columns(relation, col, message):
    text = DIFFERENTIAL_QUIVER.replace("x*y'*v - 2/3*y'*v*x", relation)
    with mock.patch.object(fileformat, "_parse_expression", _reference_parse_expression):
        reference = _outcome(text)
    (d,) = _outcome(text)
    assert [d] == reference
    assert (d.line, d.col) == (8, col)
    assert message in d.message


def test_no_column_computed_without_a_diagnostic():
    relation = " + ".join(["x*x*x"] * 200) + " - 2/3*y'*v"
    text = DIFFERENTIAL_QUIVER.replace("x*y'*v - 2/3*y'*v*x", relation)
    with mock.patch.object(fileformat, "_column", side_effect=AssertionError) as column:
        _, ideal = parse_presentation(text)
    assert column.call_count == 0
    assert [str(g.sum) for g in ideal] == ["200*x*x*x - 2/3*y'*v"]
