"""Paths and exact linear combinations in a weighted path algebra.

The product convention is left-to-right concatenation: in ``p = a1...am`` the
arrow ``a1`` is traversed first, and ``p * q`` concatenates when
``target(p) == source(q)`` and is zero otherwise.  Trivial paths act as
one-sided identities at their vertex.  Path sums keep a canonical term order
(degree, source, target, arrow sequence) with no zero coefficients, so equal
sums have identical serializations.

A ``Path`` is a ``typing.NamedTuple`` ``(source, target, degree, arrows)``,
built at tuple speed because the parse makes one per term and the regrade
one per moved term.  It compares equal to the plain tuple of its fields,
orders and iterates as that tuple does, and refuses assignment to a field;
``path._replace(...)`` is its ``dataclasses.replace``.  A ``PathSum`` stays
a dataclass, so that ``+`` and ``len`` cannot silently act on a sum as on
a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from .fields import QQ, Field, Scalar
from .quiver import WeightedQuiver


class Path(NamedTuple):
    source: str
    target: str
    degree: int
    arrows: tuple[str, ...] = ()

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def sort_key(self):
        return (self.degree, self.source, self.target, self.arrows)

    def __str__(self) -> str:
        if self.is_trivial:
            return f"e_{self.source}"
        return "*".join(self.arrows)


def trivial_path(v: str) -> Path:
    return Path(v, v, 0)


def path_from_arrows(q: WeightedQuiver, names: Sequence[str]) -> Path:
    """Build a composite path, checking consecutive arrows compose."""
    if not names:
        raise ValueError("composite path needs at least one arrow")
    arrows = [q.arrow(n) for n in names]
    for a, b in zip(arrows, arrows[1:]):
        if a.target != b.source:
            raise ValueError(f"arrows {a.name!r} and {b.name!r} do not compose")
    return Path(
        arrows[0].source,
        arrows[-1].target,
        sum(a.degree for a in arrows),
        tuple(names),
    )


def multiply_paths(p: Path, q: Path) -> Path | None:
    """Concatenation when composable; None is the zero of the algebra."""
    if p.target != q.source:
        return None
    if p.is_trivial:
        return q
    if q.is_trivial:
        return p
    return Path(p.source, q.target, p.degree + q.degree, p.arrows + q.arrows)


def term_key(term: tuple[Path, Scalar]):
    """The canonical order of a sum's terms: by the path's degree, source,
    target and arrow sequence."""
    p = term[0]
    return (p.degree, p.source, p.target, p.arrows)


@dataclass(frozen=True)
class PathSum:
    field: Field
    terms: tuple[tuple[Path, Scalar], ...]

    @staticmethod
    def make(field: Field, items: Iterable[tuple[Path, Scalar]]) -> "PathSum":
        """The canonical sum of ``items``: over F_p every coefficient is
        first reduced into range(p); then one stable sort by ``term_key``
        brings equal paths together, each run of equal neighbours is added
        up in the order given, and the terms that sum to zero are dropped.
        No path is hashed."""
        if field.char:
            conv = field.from_fraction
            items = [(path, conv(c)) for path, c in items]
        add = field.add
        merged: list[tuple[Path, Scalar]] = []
        prev = prev_arrows = None
        for term in sorted(items, key=term_key):
            path = term[0]
            # sorted neighbours mostly differ in their arrows, cheap to compare
            if path.arrows == prev_arrows and path == prev:
                merged[-1] = (prev, add(merged[-1][1], term[1]))
            else:
                merged.append(term)
                prev, prev_arrows = path, path.arrows
        is_zero = field.is_zero
        return PathSum(field, tuple([t for t in merged if not is_zero(t[1])]))

    @staticmethod
    def zero(field: Field) -> "PathSum":
        return PathSum(field, ())

    @staticmethod
    def of_path(field: Field, p: Path, coeff: Scalar | None = None) -> "PathSum":
        c = field.one if coeff is None else coeff
        return PathSum.make(field, [(p, c)])

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "PathSum") -> "PathSum":
        self._check_field(other)
        return PathSum.make(self.field, list(self.terms) + list(other.terms))

    def sub(self, other: "PathSum") -> "PathSum":
        return self.add(other.neg())

    def neg(self) -> "PathSum":
        f = self.field
        return PathSum(f, tuple((p, f.neg(c)) for p, c in self.terms))

    def scale(self, coeff: Scalar) -> "PathSum":
        f = self.field
        return PathSum.make(f, [(p, f.mul(coeff, c)) for p, c in self.terms])

    def map_paths(self, fn) -> "PathSum":
        return PathSum.make(self.field, [(fn(p), c) for p, c in self.terms])

    def to_field(self, field: Field) -> "PathSum":
        """Push rational coefficients into another field."""
        if field is self.field:
            return self
        if self.field is not QQ:
            raise ValueError("coefficient conversion is only supported out of the rationals")
        # the paths stay sorted and distinct; only the coefficients that
        # vanish in ``field`` drop out
        conv, is_zero = field.from_fraction, field.is_zero
        return PathSum(field, tuple(
            (p, c) for p, c in ((p, conv(c)) for p, c in self.terms) if not is_zero(c)
        ))

    def _check_field(self, other: "PathSum"):
        if self.field is not other.field:
            raise ValueError("path sums over different fields")

    def __str__(self) -> str:
        return format_path_sum(self)


def multiply_sums(x: PathSum, y: PathSum) -> PathSum:
    """Bilinear extension of the path product; zero products are dropped."""
    x._check_field(y)
    f = x.field
    items = []
    for p, a in x.terms:
        for q, b in y.terms:
            pq = multiply_paths(p, q)
            if pq is not None:
                items.append((pq, f.mul(a, b)))
    return PathSum.make(f, items)


def format_path_sum(ps: PathSum) -> str:
    """Canonical expression text, re-parseable by the file-format grammar."""
    if ps.is_zero():
        return "0"
    f = ps.field
    parts: list[str] = []
    for i, (path, coeff) in enumerate(ps.terms):
        text = f.format(coeff)
        negative = text.startswith("-")
        mag = text[1:] if negative else text
        if mag == "1" and not path.is_trivial:
            body = str(path)
        else:
            body = f"{mag}*{path}"
        if i == 0:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


@dataclass(frozen=True)
class UniformElement:
    """A nonzero sum of paths sharing one source, target, and degree."""

    sum: PathSum
    source: str
    target: str
    degree: int

    @staticmethod
    def from_sum(ps: PathSum) -> "UniformElement":
        if ps.is_zero():
            raise ValueError("a uniform element must be nonzero")
        paths = [p for p, _ in ps.terms]
        src = {p.source for p in paths}
        tgt = {p.target for p in paths}
        deg = {p.degree for p in paths}
        if len(src) != 1 or len(tgt) != 1 or len(deg) != 1:
            raise ValueError("paths do not share a common source, target, and degree")
        return UniformElement(ps, src.pop(), tgt.pop(), deg.pop())

    def __str__(self) -> str:
        return str(self.sum)


@dataclass(frozen=True)
class IdealPresentation:
    generators: tuple[UniformElement, ...]

    @staticmethod
    def of(gens: Iterable[UniformElement]) -> "IdealPresentation":
        return IdealPresentation(tuple(gens))

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def uniform_components(x: PathSum) -> list[UniformElement]:
    """Split a canonical sum by (degree, source, target), in that order.

    The components re-sum to the input.  For a homogeneous input this is the
    idempotent refinement e_u * x * e_v and generates the same two-sided
    ideal; mixed-degree inputs are still partitioned but the ideal statement
    only applies degreewise.  ``x`` must be canonical, as ``PathSum.make``
    leaves it: its terms then come grouped and sorted, so each bucket is a
    canonical sum as it stands.
    """
    terms = x.terms
    if not terms:
        return []
    first, last = terms[0][0], terms[-1][0]
    if (first.degree, first.source, first.target) == (last.degree, last.source, last.target):
        # sorted terms that agree at both ends agree throughout
        return [UniformElement(x, first.source, first.target, first.degree)]
    return [
        UniformElement(PathSum(x.field, tuple(bucket)), source, target, degree)
        for (degree, source, target), bucket in groupby(
            terms, key=lambda t: (t[0].degree, t[0].source, t[0].target)
        )
    ]


class PathCountLimit(RuntimeError):
    """Raised when path enumeration exceeds the configured guard."""


def enumerate_paths(
    q: WeightedQuiver,
    degree: int,
    source: str | None = None,
    target: str | None = None,
    limit: int | None = None,
) -> list[Path]:
    """All paths of the exact total degree, optionally endpoint-filtered.

    Degree zero yields trivial paths.  Output is sorted canonically.  The
    ``limit`` guard aborts enumeration on combinatorial blowups.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    for end in (source, target):
        if end is not None and not q.has_vertex(end):
            raise KeyError(f"unknown vertex {end!r}")
    found: list[Path] = []

    def note(p: Path):
        found.append(p)
        if limit is not None and len(found) > limit:
            raise PathCountLimit(
                f"more than {limit} paths of degree {degree}; raise the guard to proceed"
            )

    if degree == 0:
        for v in q.vertices:
            if source is not None and v != source:
                continue
            if target is not None and v != target:
                continue
            note(trivial_path(v))
        return found

    starts = [source] if source is not None else list(q.vertices)
    out = q.out_arrows
    for start in starts:
        # depth-first with an explicit stack of walks still to extend:
        # (end vertex, degree still to go, arrow names so far)
        stack = [(start, degree, ())]
        while stack:
            v, remaining, names = stack.pop()
            for a in out.get(v, ()):
                if a.degree == remaining:
                    if target is None or a.target == target:
                        note(Path(start, a.target, degree, names + (a.name,)))
                elif a.degree < remaining:
                    stack.append((a.target, remaining - a.degree, names + (a.name,)))
    found.sort(key=Path.sort_key)
    return found
