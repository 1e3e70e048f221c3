"""Text format for quiver presentations.

Two sections.  ``[quiver]`` declares vertices and arrows::

    [quiver]
    vertex v
    arrow x v v 1
    arrow y v v 2

A degree is written in ASCII digits.  An arrow name may not begin with
``e_``, which is kept for the trivial paths.

``[relations]`` holds one expression per line, built from arrow names,
trivial paths ``e_<vertex>``, ``*`` for the path product, ``+``/``-`` between
terms, and an optional leading rational coefficient per term::

    [relations]
    x*y - y*x
    2/3*a*b + c*c

A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only, as a text read in
universal-newline mode ends it.  ``#`` starts a comment anywhere on a line
and runs to the end of that line.  Identifiers start with a letter or
underscore and may contain letters, digits, underscores, and apostrophes, so
split-arrow names like ``y''`` parse as written.

Every diagnostic carries a 1-based line and column.  Parsing collects as
many diagnostics as it can before raising.  A relation whose terms mix
degrees is rejected; one whose terms mix endpoints at a single degree is
silently refined into its uniform components, which generate the same
two-sided ideal.

A relation line is read by one of two parts.  The term scanner reads a
well-formed line: one regex matches a whole term from where the last one
ended, so Python runs once per term and once per atom, not once per token,
and each term's path is built once, after the whole line is accepted.  It
explains nothing.  On a line it refuses, for a bad character, a grammar
error, an unknown atom, paths that do not compose, a bad coefficient,
mixed degrees or a zero relation, the token machine reads the line again
one token at a time and raises the first diagnostic, with its column.  It
stays as the only source of a diagnostic because only it knows which
token is wrong and what was expected there.  Both are linear in the
length of the line, and a token's column is computed only when a
diagnostic is raised.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .fields import QQ, parse_integer
from .paths import (
    IdealPresentation,
    Path,
    PathSum,
    UniformElement,
    uniform_components,
)
from .quiver import Arrow, WeightedQuiver


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class PresentationError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
# one token per match: an identifier, a coefficient, an operator, or any other
# non-space character, which the parser reports as unexpected
_TOKEN = re.compile(
    rf"(?P<ident>{_IDENT.pattern})|(?P<number>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<op>[-+*])|(?P<other>\S)"
)

# what is missing when a relation ends in a state other than inside a path
_AT_END = {
    "sign": "dangling operator at end of expression",
    "coefficient": "a coefficient must be followed by '*' and a path",
    "factor": "dangling '*' at end of expression",
}
_SIGN = {"+": (1, Fraction(1)), "-": (-1, Fraction(-1))}  # (factor, unit coefficient)


def _column(text: str, index: int) -> int:
    """1-based column of the ``index``-th token of ``text``, for a diagnostic."""
    return next(islice(_TOKEN.finditer(text), index, None)).start() + 1


def _parse_expression(text: str, line: int, q: WeightedQuiver) -> PathSum:
    """One relation: ``['-'] term (('+' | '-') term)*`` with
    ``term = [coefficient '*'] atom ('*' atom)*``.  The term scanner reads a
    well-formed line; the token machine reads any line it refuses."""
    total = _scan_expression(text, q)
    return _parse_tokens(text, line, q) if total is None else total


# One term with the blanks around it: its sign, the numerator and the
# denominator of its coefficient, and its atoms joined by '*'.  Every term
# after the first must begin with a sign, so a regex backtrack into a
# shorter identifier or number can never be accepted: the match would end
# inside the token, where no sign can follow, and the line is refused.  So
# the pattern needs no atomic group or possessive quantifier, which arrived
# in Python 3.11.  A term starts where the blanks after the last one end,
# and a relation line is stripped, so no blank run is split between two
# ``\s*`` around an empty sign, which would be quadratic in the run.
_TERM = re.compile(
    rf"([-+]?)\s*(?:([0-9]+)(?:/([0-9]+))?\s*\*\s*)?"
    rf"({_IDENT.pattern}(?:\s*\*\s*{_IDENT.pattern})*)\s*"
)


def _scan_expression(text: str, q: WeightedQuiver) -> PathSum | None:
    """The relation on a well-formed line, or None on a line with anything
    to report, which ``_parse_tokens`` then explains.

    One ``_TERM`` match per term, from the end of the last one, so the line
    is never sliced, and one step per atom.  Each term's path is built once,
    after the whole line is accepted.

    Each check here (the grammar, a known atom and the ``e_`` rule, paths
    that compose, the coefficient, one degree, a nonzero sum) mirrors one
    that ``_parse_tokens`` raises, and a change to either must be made to
    both: a line accepted here never reaches the token machine, and a line
    refused here that the token machine accepts is read twice.  ``test_parser_agrees_with_reference``
    and ``test_scanner_refuses_exactly_the_lines_the_token_machine_rejects``
    compare the two."""
    arrow_map, vertices = q.arrow_map, q.vertex_set
    match, atoms = _TERM.match, _IDENT.findall
    terms: list[tuple[str, str, int, tuple[str, ...], Fraction]] = []
    pos, size = 0, len(text)
    while pos < size:
        m = match(text, pos)
        if m is None:
            return None
        sign, num, den = m.group(1, 2, 3)
        if (not sign) if terms else sign == "+":
            return None
        if num is None:
            coeff = _SIGN[sign or "+"][1]
        else:
            try:
                n = int(sign + num)
                coeff = Fraction(n, int(den)) if den else Fraction(n)
            except (ZeroDivisionError, ValueError):
                return None
        names = atoms(text, *m.span(4))
        source = end = None
        degree, trivial = 0, False
        for name in names:
            arrow = arrow_map.get(name)
            if arrow is None:  # a trivial path keeps the end vertex
                vertex = name[2:]
                if not name.startswith("e_") or vertex not in vertices:
                    return None
                if end is None:
                    source = end = vertex
                elif end != vertex:
                    return None
                trivial = True
                continue
            if end is None:
                source = arrow.source
            elif end != arrow.source:
                return None
            end, degree = arrow.target, degree + arrow.degree
        if trivial:
            names = [name for name in names if name in arrow_map]
        terms.append((source, end, degree, tuple(names), coeff))
        pos = m.end()
    if not terms:
        return None
    degree = terms[0][2]
    if any(term[2] != degree for term in terms):
        return None
    total = PathSum.make(QQ, [(Path(s, t, d, names), c) for s, t, d, names, c in terms])
    return None if total.is_zero() else total


def _parse_tokens(text: str, line: int, q: WeightedQuiver) -> PathSum:
    """The token machine: the relation, or the first diagnostic of the line.
    The whole line is tokenized first, so an unexpected character wins over
    an earlier grammar error."""

    def fail(col: int, message: str):
        raise PresentationError([Diagnostic(line, col, message)])

    def fail_at(i: int, message: str):
        fail(_column(text, i), message)

    # one (ident, number, op, other) tuple of strings per token, one of them
    # nonempty; a term records the index of its first token
    tokens = _TOKEN.findall(text)
    if any(map(itemgetter(3), tokens)):
        i = next(i for i, tok in enumerate(tokens) if tok[3])
        fail_at(i, f"unexpected character {tokens[i][3]!r}")
    arrow_map, vertices = q.arrow_map, q.vertex_set
    terms: list[tuple[Path, Fraction, int]] = []  # (path, signed coeff, start index)
    # states: start, sign, coefficient, factor (after a '*'), path.  A term is
    # read as its source (None before its first atom), running end vertex,
    # degree and arrow names; its path is built once, when the term ends.
    # The next term starts at the token after a sign
    state, start, source, (sign, coeff) = "start", 0, None, _SIGN["+"]
    for i, (ident, number, op, _) in enumerate(tokens):
        if state == "path":
            if op == "*":
                state = "factor"
                continue
            if not op:
                fail_at(i, f"expected '+' or '-', got {ident or number!r}")
            terms.append((Path(source, end, degree, tuple(names)), coeff, start))
            state, start, source, (sign, coeff) = "sign", i + 1, None, _SIGN[op]
        elif state == "coefficient":
            if op != "*":
                fail_at(i, "a coefficient must be followed by '*' and a path")
            state = "factor"
        elif ident:
            arrow = arrow_map.get(ident)
            if arrow is None and not (ident.startswith("e_") and ident[2:] in vertices):
                fail_at(i, f"unknown arrow or trivial path {ident!r}")
            head = ident[2:] if arrow is None else arrow.source
            if source is None:
                source, end, degree, names = head, head, 0, []
            elif end != head:
                fail_at(
                    i,
                    f"paths do not compose: previous factor ends at "
                    f"{end!r}, {ident!r} starts at {head!r}",
                )
            if arrow is not None:  # a trivial path keeps the end vertex
                end, degree = arrow.target, degree + arrow.degree
                names.append(ident)
            state = "path"
        elif number and state != "factor":
            num, _, den = number.partition("/")
            try:
                # an integer needs no gcd: Fraction(n) is already in lowest terms
                coeff = Fraction(sign * int(num), int(den)) if den else Fraction(sign * int(num))
            except ZeroDivisionError:
                fail_at(i, f"coefficient {number} has a zero denominator")
            except ValueError:  # past the interpreter's limit on integer digits
                fail_at(i, f"coefficient of {len(number)} characters is too long")
            state = "coefficient"
        elif state == "start" and op == "-":
            state, start, (sign, coeff) = "sign", i + 1, _SIGN["-"]
        else:
            fail_at(i, f"expected an arrow or trivial path, got {number or op!r}")
    if state != "path":
        fail(len(text), _AT_END[state])
    terms.append((Path(source, end, degree, tuple(names)), coeff, start))

    degree = terms[0][0].degree
    for path, _, i in terms[1:]:
        if path.degree != degree:
            fail_at(
                i,
                f"mixed degrees in one relation: this term has degree "
                f"{path.degree}, the first has degree {degree}",
            )
    total = PathSum.make(QQ, [(p, c) for p, c, _ in terms])
    if total.is_zero():
        fail_at(terms[0][2], "relation is identically zero")
    return total


def parse_presentation(text: str) -> tuple[WeightedQuiver, IdealPresentation]:
    """Parse a presentation file; raises :class:`PresentationError` on any
    problem, with as many positioned diagnostics as could be collected."""
    diagnostics: list[Diagnostic] = []
    vertices: list[tuple[str, int]] = []  # (name, line)
    arrow_decls: list[tuple[Arrow, int]] = []
    relation_lines: list[tuple[str, int]] = []
    section: str | None = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[quiver]":
                section = "quiver"
            elif line == "[relations]":
                section = "relations"
            else:
                diagnostics.append(Diagnostic(lineno, 1, f"unknown section {line!r}"))
                section = None
            continue
        if section is None:
            diagnostics.append(
                Diagnostic(lineno, 1, "content before any section header")
            )
            continue
        if section == "relations":
            relation_lines.append((line, lineno))
            continue
        fields = line.split()
        if fields[0] == "vertex":
            if len(fields) != 2:
                diagnostics.append(
                    Diagnostic(lineno, 1, "expected: vertex NAME")
                )
                continue
            if not _IDENT.fullmatch(fields[1]):
                diagnostics.append(
                    Diagnostic(lineno, 1, f"invalid vertex name {fields[1]!r}")
                )
                continue
            vertices.append((fields[1], lineno))
        elif fields[0] == "arrow":
            if len(fields) != 5:
                diagnostics.append(
                    Diagnostic(lineno, 1, "expected: arrow NAME SOURCE TARGET DEGREE")
                )
                continue
            name, src, tgt, deg_text = fields[1:]
            if not _IDENT.fullmatch(name):
                diagnostics.append(
                    Diagnostic(lineno, 1, f"invalid arrow name {name!r}")
                )
                continue
            if name.startswith("e_"):
                diagnostics.append(
                    Diagnostic(lineno, 1, f"arrow name {name!r} begins with 'e_', "
                               "which is kept for trivial paths")
                )
                continue
            try:
                degree = parse_integer(deg_text)
            except ValueError:
                diagnostics.append(
                    Diagnostic(lineno, 1, f"degree must be an integer, got {deg_text!r}")
                )
                continue
            if degree < 1:
                diagnostics.append(
                    Diagnostic(lineno, 1, f"degree must be positive, got {degree}")
                )
                continue
            arrow_decls.append((Arrow(name, src, tgt, degree), lineno))
        else:
            diagnostics.append(
                Diagnostic(lineno, 1, f"unknown declaration {fields[0]!r}")
            )

    vertex_names = set()
    for name, lineno in vertices:
        if name in vertex_names:
            diagnostics.append(Diagnostic(lineno, 1, f"duplicate vertex {name!r}"))
        vertex_names.add(name)
    arrow_names = set()
    for a, lineno in arrow_decls:
        if a.name in arrow_names:
            diagnostics.append(Diagnostic(lineno, 1, f"duplicate arrow {a.name!r}"))
        if a.name in vertex_names:
            diagnostics.append(
                Diagnostic(lineno, 1, f"arrow {a.name!r} collides with a vertex name")
            )
        arrow_names.add(a.name)
        for which, endpoint in (("source", a.source), ("target", a.target)):
            if endpoint not in vertex_names:
                diagnostics.append(
                    Diagnostic(
                        lineno, 1, f"arrow {a.name!r}: undeclared {which} {endpoint!r}"
                    )
                )
    if diagnostics:
        raise PresentationError(diagnostics)

    q = WeightedQuiver.build(
        [name for name, _ in vertices], [a for a, _ in arrow_decls]
    )
    generators: list[UniformElement] = []
    for line, lineno in relation_lines:
        try:
            total = _parse_expression(line, lineno, q)
        except PresentationError as exc:
            diagnostics.extend(exc.diagnostics)
            continue
        generators.extend(uniform_components(total))
    if diagnostics:
        raise PresentationError(diagnostics)
    return q, IdealPresentation.of(generators)


def presentation_lines(q: WeightedQuiver, ideal: IdealPresentation) -> Iterator[str]:
    """Canonical text, line by line with newlines: sorted declarations,
    generators in presentation order.

    Parsing the joined lines reproduces the input presentation exactly.
    """
    yield "[quiver]\n"
    for v in sorted(q.vertices):
        yield f"vertex {v}\n"
    for a in sorted(q.arrows, key=lambda a: a.name):
        yield f"arrow {a.name} {a.source} {a.target} {a.degree}\n"
    if len(ideal):
        yield "\n"
        yield "[relations]\n"
        for gen in ideal:
            yield f"{gen.sum}\n"


def serialize_presentation(q: WeightedQuiver, ideal: IdealPresentation) -> str:
    """The joined ``presentation_lines``."""
    return "".join(presentation_lines(q, ideal))
