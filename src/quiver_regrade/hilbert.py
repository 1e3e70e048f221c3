"""Graded-piece dimensions of a path algebra modulo uniform relations.

Paths are ordered by weighted degree first, then lexicographically on the
tuple of arrow names.  Arrow degrees are positive, so of two distinct paths
of one degree neither is a prefix of the other, and the order is admissible
(Green, "Noncommutative Gröbner bases and projective resolutions", 1999).
For a Gröbner basis G of the ideal the *normal paths*, those that contain
no leading path of G as a subpath, form a basis of the quotient kQ/I.

The relations are uniform and homogeneous, so G is grown degree by degree
and cut off at the requested degree, below which it is exact.  At degree d
the candidates are the generators of degree d and the S-elements of degree
d, which come from overlaps where a proper suffix of one leading path is a
proper prefix of another.  They are reduced F4 style in the shared
:class:`~quiver_regrade.linalg.Echelon`, columns the paths in descending
order.  Every reducible path p met gets one reducer u*g*v, p = u*lead(g)*v,
monic at p, its largest path: it goes in as the pivot row of p as it is.
Each candidate goes in once; one that raises the rank brings a new leading
path, its pivot column.  A degree-0 generator c*e_v puts every path through
v in the ideal; v and its arrows are dropped instead.

:func:`hilbert_table` then walks the normal paths degree by degree.  The
prefixes of a normal path are normal, so extending one by an arrow checks
only the suffixes that end at that arrow.  ``max_paths`` bounds both the
normal paths of one degree and the number of basis elements; past it,
:class:`~quiver_regrade.paths.PathCountLimit` is raised, naming the degree.

:func:`graded_dim_naive` is the independent second opinion: it builds every
product p * r * s over the full degree-d path basis as a dense row and ranks
the rows with :func:`~quiver_regrade.linalg.rank_naive`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Iterator

from .fields import QQ, Field, Scalar
from .linalg import Echelon, Matrix, rank_naive
from .paths import (
    IdealPresentation,
    PathCountLimit,
    enumerate_paths,
    multiply_paths,
)
from .quiver import WeightedQuiver

DEFAULT_MAX_DEGREE = 12
DEFAULT_MAX_PATHS = 100_000

# a nontrivial path by its arrow names, and a linear combination of such paths
Word = tuple[str, ...]
Poly = dict[Word, Scalar]


@dataclass(frozen=True)
class HilbertRow:
    """One degree of a Hilbert table and the work it took."""

    degree: int
    dim: int  # the normal paths of this degree (from the vertex, to the target, if given)
    basis_added: int  # basis elements whose leading path has this degree
    rows: int  # rows given to Echelon at this degree
    seconds: float = dc_field(compare=False)


class _Basis:
    """A Gröbner basis grown one degree at a time, cut off at ``top``.

    ``elements`` maps each leading path to its monic element.  The leading
    paths are also indexed by their proper prefixes and proper suffixes, so
    the overlaps of a new one are looked up rather than paired with all.
    """

    def __init__(self, field: Field, degrees: dict[str, int], top: int, limit: int | None):
        self.field = field
        self.degrees = degrees
        self.top = top
        self.limit = limit
        self.elements: dict[Word, Poly] = {}
        self.ending: dict[str, set[int]] = {}  # last arrow -> leading path lengths
        self.weight: dict[Word, int] = {}  # degree of each leading path below the cut
        self.by_prefix: dict[Word, list[Word]] = {}
        self.by_suffix: dict[Word, list[Word]] = {}
        self.pending: dict[int, list[Poly]] = {}  # degree -> candidates

    def queue(self, degree: int, poly: Poly) -> None:
        """Make ``poly``, of ``degree`` at most ``top``, a candidate."""
        self.pending.setdefault(degree, []).append(poly)

    def divisor(self, p: Word) -> tuple[int, Word] | None:
        """The first leading path inside ``p``, with its offset.

        The leading paths form an antichain: each is normal with respect to
        the earlier ones, and two of one degree are equal if one contains
        the other.  So the one inside ``p`` that ends first also starts
        first, and it is found through ``ending`` by its last arrow.
        """
        elements, ending = self.elements, self.ending
        for j, x in enumerate(p, 1):
            for k in ending.get(x, ()):
                if k <= j and (w := p[j - k:j]) in elements:
                    return j - k, w
        return None

    def grow(self, degree: int) -> tuple[int, int]:
        """Add the basis elements of ``degree``: (elements added, rows used)."""
        cands = self.pending.pop(degree, ())
        if not cands:
            return 0, 0
        elements = self.elements
        reducers: list[tuple[Word, Poly]] = []  # (leading path, reducer)
        seen: set[Word] = set()
        todo = [p for c in cands for p in c]
        while todo:
            p = todo.pop()
            if p in seen:
                continue
            seen.add(p)
            hit = self.divisor(p)
            if hit is not None:
                i, lead = hit
                u, v = p[:i], p[i + len(lead):]
                r = {u + w + v: c for w, c in elements[lead].items()}
                reducers.append((p, r))
                todo.extend(r)
        cols = sorted(seen, reverse=True)
        index = {p: j for j, p in enumerate(cols)}
        ech = Echelon(self.field)
        for p, r in reducers:  # monic at p, its largest path: a pivot row as it is
            ech.pivots[index[p]] = {index[w]: c for w, c in r.items()}
        added = 0
        for cand in cands:
            pivot = ech.add({index[p]: c for p, c in cand.items()})
            if pivot is not None:
                poly = {cols[j]: c for j, c in ech.pivots[pivot].items()}
                self._insert(cols[pivot], poly, degree)
                added += 1
        if self.limit is not None and len(elements) > self.limit:
            raise PathCountLimit(f"degree {degree}: more than {self.limit} Gröbner basis elements")
        return added, len(reducers) + len(cands)

    def _insert(self, lead: Word, poly: Poly, degree: int) -> None:
        n = len(lead)
        self.elements[lead] = poly
        self.ending.setdefault(lead[-1], set()).add(n)
        if degree == self.top:  # its overlaps lie above the cut
            return
        self.weight[lead] = degree
        weight, top, degrees = self.weight, self.top, self.degrees
        head = [0]  # head[i]: the degree of lead[:i]
        for x in lead:
            head.append(head[-1] + degrees[x])
        for j in range(1, n):
            self.by_prefix.setdefault(lead[:j], []).append(lead)
            self.by_suffix.setdefault(lead[j:], []).append(lead)
        for i in range(1, n):  # lead = A B on the left of an overlap A B C
            for other in self.by_prefix.get(lead[i:], ()):
                if head[i] + weight[other] <= top:
                    self._overlap(lead, other, i, head[i] + weight[other])
        for j in range(1, n):  # lead = B C on the right
            for other in self.by_suffix.get(lead[:j], ()):
                if other != lead and weight[other] + degree - head[j] <= top:
                    self._overlap(other, lead, len(other) - j, weight[other] + degree - head[j])

    def _overlap(self, left: Word, right: Word, i: int, degree: int) -> None:
        """Queue the S-element g*C - A*h of ``left`` = A B and ``right`` = B C."""
        a, c = left[:i], right[len(left) - i:]
        f = self.field
        s = {w + c: k for w, k in self.elements[left].items()}
        for w, k in self.elements[right].items():
            key = a + w
            x = f.sub(s[key], k) if key in s else f.neg(k)
            if f.is_zero(x):
                del s[key]
            else:
                s[key] = x
        if s:
            self.queue(degree, s)


def hilbert_table(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    max_degree: int,
    vertex: str | None = None,
    field: Field = QQ,
    max_paths: int | None = DEFAULT_MAX_PATHS,
    target: str | None = None,
) -> Iterator[HilbertRow]:
    """One row per degree 0..max_degree of kQ/I, or of its corner: the
    paths from ``vertex`` and the paths to ``target``, for those given.

    Over F_p a dimension can only overshoot the rational value (a rank can
    drop mod p, never rise), so rational and modular runs are comparable.
    The ``max_paths`` guard counts the normal paths to every vertex.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    for end in (vertex, target):
        if end is not None and not q.has_vertex(end):
            raise KeyError(f"unknown vertex {end!r}")
    return _table(q, ideal, max_degree, vertex, target, field, max_paths)


def _table(q, ideal, max_degree, vertex, target, field, max_paths) -> Iterator[HilbertRow]:
    started = time.perf_counter()
    gens = [(g.degree, g.source, g.sum.to_field(field).terms) for g in ideal if g.degree <= max_degree]
    dead = {v for degree, v, terms in gens if degree == 0 and terms}
    arrows = [a for a in q.arrows if a.source not in dead and a.target not in dead]
    basis = _Basis(field, {a.name: a.degree for a in arrows}, max_degree, max_paths)
    live = basis.degrees
    for degree, _, terms in gens:
        if degree > 0:
            poly = {p.arrows: c for p, c in terms}
            if dead:  # a path through a dead vertex is in the ideal already
                poly = {w: c for w, c in poly.items() if all(x in live for x in w)}
            if poly:
                basis.queue(degree, poly)
    starts = [v for v in (q.vertices if vertex is None else [vertex]) if v not in dead]
    # the normal paths of the last few degrees, grouped by their end vertex
    walk = {0: {v: [()] for v in starts}}
    reach = max((a.degree for a in arrows), default=0)
    dim = len(starts) if target is None else starts.count(target)
    yield HilbertRow(0, dim, len(dead), 0, time.perf_counter() - started)
    for d in range(1, max_degree + 1):
        started = time.perf_counter()
        added, rows = basis.grow(d)
        elements, level, count = basis.elements, {}, 0
        for a in arrows:
            ps = walk.get(d - a.degree, {}).get(a.source)
            if not ps:
                continue
            # p is normal, so a leading path inside p*a is a suffix ending at a
            ks = basis.ending.get(a.name, ())
            ext = [w for w in (p + (a.name,) for p in ps)
                   if not any(w[-k:] in elements for k in ks)]
            if ext:
                level.setdefault(a.target, []).extend(ext)
                count += len(ext)
        if max_paths is not None and count > max_paths:
            raise PathCountLimit(f"degree {d}: more than {max_paths} normal paths")
        walk[d] = level
        walk.pop(d - reach, None)
        dim = count if target is None else len(level.get(target, ()))
        yield HilbertRow(d, dim, added, rows, time.perf_counter() - started)


def graded_dim(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    degree: int,
    vertex: str | None = None,
    field: Field = QQ,
    max_paths: int | None = DEFAULT_MAX_PATHS,
    target: str | None = None,
) -> int:
    """dim of the degree-d piece of kQ/I, or of its corner from ``vertex``
    and to ``target`` when given: the last row of :func:`hilbert_table`."""
    *_, last = hilbert_table(q, ideal, degree, vertex, field, max_paths, target)
    return last.dim


def _relation_rows(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    degree: int,
    vertex: str | None,
    target: str | None,
    field: Field,
    basis_index: dict,
    max_paths: int | None,
) -> Iterator[dict]:
    for gen in ideal:
        sum_in_field = gen.sum.to_field(field)
        if degree < gen.degree:
            continue
        for left_deg in range(degree - gen.degree + 1):
            right_deg = degree - gen.degree - left_deg
            lefts = enumerate_paths(q, left_deg, source=vertex, target=gen.source, limit=max_paths)
            if not lefts:
                continue
            rights = enumerate_paths(
                q, right_deg, source=gen.target, target=target, limit=max_paths
            )
            # p*mid*s is injective in mid for fixed p and s, and PathSum keeps
            # no zero coefficient, so each row needs no accumulation
            for p in lefts:
                for s in rights:
                    yield {
                        basis_index[multiply_paths(multiply_paths(p, mid), s)]: coeff
                        for mid, coeff in sum_in_field.terms
                    }


def graded_dim_naive(
    q: WeightedQuiver,
    ideal: IdealPresentation,
    degree: int,
    vertex: str | None = None,
    field: Field = QQ,
    max_paths: int | None = DEFAULT_MAX_PATHS,
    target: str | None = None,
) -> int:
    """Same dimension through the second-opinion dense rank routine.

    A corner restricts the basis and the outer factors: the left factors of
    each relation start at ``vertex`` and the right factors end at
    ``target``, for those given.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    basis = enumerate_paths(q, degree, source=vertex, target=target, limit=max_paths)
    if not basis:
        return 0
    n = len(basis)
    index = {p: i for i, p in enumerate(basis)}
    rows = [
        [row.get(j, field.zero) for j in range(n)]
        for row in _relation_rows(q, ideal, degree, vertex, target, field, index, max_paths)
    ]
    return n - rank_naive(Matrix.from_rows(field, rows, n))
