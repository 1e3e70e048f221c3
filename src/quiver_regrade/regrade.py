"""Arrow splitting and full regrading to a degree-1-generated presentation.

One split replaces an arrow b of degree >= 2 by a degree-1 arrow into a
fresh vertex followed by an arrow of degree deg(b)-1 out of it, dropping the
weight discrepancy by exactly one.  Paths and relations are transported by
the degree-preserving rewrite that expands each occurrence of b into the two
halves.  Iterating the split on a deterministically chosen arrow reaches a
quiver whose arrows all have degree 1 in exactly discrepancy-many steps.
The splits of one regrade are made on one vertex set and arrow map, with no
sorted list; the regrade holds the heap of arrows still to split, records
each split as the arrow and its two halves and builds only the last quiver,
sorting once.  Its trace, the splits with the quiver before and after each,
is built from those records the first time it is read.

The full regrade runs its splits on the quiver alone and transports the
relations once, at the end, through the composite substitution that sends
each original arrow to the chain of final arrows it became.  That equals
rewriting the relations at every split: the chains partition the final
arrows, so the substitution is injective on paths and no two terms merge,
and the canonical term order is a sort on the final paths either way.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import attrgetter, itemgetter

from .paths import IdealPresentation, Path, PathSum, UniformElement
from .quiver import Arrow, WeightedQuiver, weight_discrepancy

# A split costs O(1) index work plus a heap step, and a regrade builds one
# quiver, but the names of one loop's halves grow by a prime per split, so
# regrade output grows quadratically with the discrepancy, and so does the
# memory of a read trace, which holds every quiver.  Through the CLI
# (2-core host, Python 3.11) one loop of discrepancy 2000 regrades in
# 0.15 s at 25 MB peak RSS, writing 16 MB as it is made.
MAX_DISCREPANCY = 2000


class SplitError(ValueError):
    pass


class DiscrepancyLimit(SplitError):
    """Raised before regrading a quiver whose discrepancy exceeds the guard."""


@dataclass(frozen=True)
class SplitTrace:
    """One split: ``split_arrow`` (the arrow ``arrow``) of ``before`` became
    ``first`` into the fresh vertex ``new_vertex`` and ``second`` out of it,
    giving ``after``."""

    split_arrow: str
    arrow: Arrow
    new_vertex: str
    first: str
    second: str
    before: WeightedQuiver
    after: WeightedQuiver


# One split as a regrade records it: the arrow and its two halves.  The
# fresh vertex is the first half's target.
Split = tuple[Arrow, Arrow, Arrow]

_name = attrgetter("name")


@dataclass(frozen=True)
class RegradeResult:
    """The input ``quiver``, the regraded presentation and the ``splits``
    that took one to the other, in order.

    ``trace`` is built on its first read and kept: it replays ``splits``
    once, forward from sorted copies of the input's lists, into one
    ``SplitTrace`` per split.  ``trace[0].before`` is ``quiver`` itself,
    ``trace[k].after`` is ``trace[k + 1].before`` and ``trace[-1].after`` is
    ``final_quiver``.  A reader that needs only the arrows and names reads
    ``splits`` and builds no quiver.
    """

    quiver: WeightedQuiver
    final_quiver: WeightedQuiver
    final_ideal: IdealPresentation
    splits: tuple[Split, ...]

    @cached_property
    def trace(self) -> tuple[SplitTrace, ...]:
        vertices, arrows = sorted(self.quiver.vertices), sorted(self.quiver.arrows, key=_name)
        quivers = [self.quiver]
        for arrow, first, second in self.splits[:-1]:
            del arrows[bisect_left(arrows, arrow.name, key=_name)]
            insort(vertices, first.target)
            insort(arrows, first, key=_name)
            insort(arrows, second, key=_name)
            quivers.append(WeightedQuiver(tuple(vertices), tuple(arrows)))
        quivers.append(self.final_quiver)
        return tuple(
            SplitTrace(b.name, b, first.target, first.name, second.name, before, after)
            for (b, first, second), before, after in zip(self.splits, quivers, quivers[1:])
        )


def _z_name(i: int) -> str:
    return f"z{i}" if i else "z"


class _Splitter:
    """A quiver under repeated splits, with one index per fact a split reads.

    It keeps the vertex set, ``{name: Arrow}`` and an index ``z`` below
    which every name of ``z``, ``z1``, ``z2``, ... is taken; ``skipped``
    holds the index of each name it stepped past, so a split that frees one
    moves ``z`` back.  A name is taken when the vertex set or the arrow map
    holds it.  A split updates them in O(1) steps and returns its ``Split``
    record; it keeps no sorted list and no heap, and builds no quiver.
    ``close`` builds the quiver after the last split.

    The fresh vertex is the first free name of ``z``, ``z1``, ``z2``, ...;
    the halves of ``b`` are ``b'`` and ``b''``, or ``b'i`` and ``b''i`` for
    the smallest ``i`` with both free.
    """

    def __init__(self, q: WeightedQuiver) -> None:
        self.vertex_set = set(q.vertices)
        self.arrow_map = {a.name: a for a in q.arrows}
        self.z = 0
        self.skipped: dict[str, int] = {}

    def _taken(self, name: str) -> bool:
        return name in self.vertex_set or name in self.arrow_map

    def split(self, name: str) -> Split:
        arrow = self.arrow_map.get(name)
        if arrow is None:
            raise SplitError(f"unknown arrow {name!r}")
        if arrow.degree < 2:
            raise SplitError(
                f"cannot split arrow {name!r} of degree {arrow.degree}; "
                "the second half would get degree 0"
            )
        # fresh names are chosen while the split arrow's name is still taken
        taken = self._taken
        while taken(z := _z_name(self.z)):
            self.skipped[z] = self.z
            self.z += 1
        first, second = name + "'", name + "''"
        if taken(first) or taken(second):
            i = 1
            while taken(f"{first}{i}") or taken(f"{second}{i}"):
                i += 1
            first, second = f"{first}{i}", f"{second}{i}"

        halves = Arrow(first, arrow.source, z, 1), Arrow(second, z, arrow.target, arrow.degree - 1)
        del self.arrow_map[name]
        # a freed z-name below the index is the first free one again
        self.z = min(self.z, self.skipped.get(name, self.z))
        self.vertex_set.add(z)
        for half in halves:
            self.arrow_map[half.name] = half
        return arrow, *halves

    def close(self) -> WeightedQuiver:
        """Build the quiver after the last split, sorting once."""
        return WeightedQuiver(
            tuple(sorted(self.vertex_set)), tuple(sorted(self.arrow_map.values(), key=_name))
        )


def split_arrow(q: WeightedQuiver, name: str) -> SplitTrace:
    """Split one arrow of degree >= 2; degree-1 splits are a hard error."""
    splitter = _Splitter(q)
    arrow, first, second = splitter.split(name)
    return SplitTrace(name, arrow, first.target, first.name, second.name, q, splitter.close())


Substitution = dict[str, tuple[str, ...]]


def _expand_names(names: tuple[str, ...], sub: Substitution) -> tuple[str, ...]:
    """``names`` with each name in ``sub`` replaced by its tuple, or ``names``
    itself when ``sub`` moves none of them.  One pass, linear in the result:
    ``zip(names)`` gives each name's 1-tuple, the default of ``sub.get``."""
    if sub.keys().isdisjoint(names):
        return names
    return tuple(chain.from_iterable(map(sub.get, names, zip(names))))


def _expand(p: Path, sub: Substitution) -> Path:
    """Replace each arrow named in ``sub`` by its tuple of arrows."""
    names = _expand_names(p.arrows, sub)
    return p if names is p.arrows else Path(p.source, p.target, p.degree, names)


def _transport(x: UniformElement, sub: Substitution) -> UniformElement:
    """``x`` with ``sub`` applied to every path, still canonical.

    The terms of ``x`` share its degree, source and target, so their
    canonical order (``term_key``) is the order of their arrow names: the
    terms are sorted as ``(names, coeff, path)`` by their expanded names
    alone.  The substitution is injective on paths and ``x`` is canonical,
    so the moved terms are distinct and nonzero already, with no merging.
    A moved path is built once, after the sort; an unmoved one is kept.
    """
    entries = [(_expand_names(p.arrows, sub), c, p) for p, c in x.sum.terms]
    entries.sort(key=itemgetter(0))
    source, target, degree = x.source, x.target, x.degree
    moved = tuple([
        (p if names is p.arrows else Path(source, target, degree, names), c)
        for names, c, p in entries
    ])
    return UniformElement(PathSum(x.sum.field, moved), source, target, degree)


def _transport_ideal(ideal: IdealPresentation, sub: Substitution) -> IdealPresentation:
    return IdealPresentation(tuple(_transport(g, sub) for g in ideal))


def _substitution(t: SplitTrace) -> Substitution:
    return {t.split_arrow: (t.first, t.second)}


def rewrite_path(t: SplitTrace, p: Path) -> Path:
    """Expand each occurrence of the split arrow into its two halves.

    Source, target, and degree are preserved; paths without an occurrence
    come back unchanged.
    """
    return _expand(p, _substitution(t))


def rewrite_sum(t: SplitTrace, x: UniformElement) -> UniformElement:
    """Coefficientwise transport of a uniform element through one split."""
    return _transport(x, _substitution(t))


def rewrite_ideal(t: SplitTrace, ideal: IdealPresentation) -> IdealPresentation:
    return _transport_ideal(ideal, _substitution(t))


def pick_split_target(q: WeightedQuiver) -> str | None:
    """Lexicographically smallest name among arrows of maximal degree."""
    top = q.max_degree()
    if top < 2:
        return None
    return min(a.name for a in q.arrows if a.degree == top)


def regrade(q: WeightedQuiver, ideal: IdealPresentation) -> RegradeResult:
    """Split until every arrow has degree 1, then transport the relations.

    The splits run on the quiver alone, in exactly weight_discrepancy(q)
    steps of one ``_Splitter``, each on the arrow ``pick_split_target``
    would pick (the top of a heap kept here); they are recorded as
    ``splits``, and the only quiver they build is the final one
    (``RegradeResult.trace`` builds the others when it is read).  Folding
    the splits backwards gives the composite substitution b -> b_1 ... b_d
    from each original arrow to the chain of final arrows it became, and
    the relations are rewritten once through it.  This gives the same
    ideal, term for term, as rewriting at every split: the chains of
    distinct original arrows are disjoint, so no two paths meet and no
    coefficient cancels, and the terms of each relation are sorted on their
    final paths either way.  An input generated in degree 1 comes back
    unchanged with no splits.  A discrepancy above MAX_DISCREPANCY raises
    DiscrepancyLimit before the first split.
    """
    discrepancy = weight_discrepancy(q)
    if discrepancy > MAX_DISCREPANCY:
        raise DiscrepancyLimit(
            f"weight discrepancy {discrepancy} is above the regrade bound "
            f"{MAX_DISCREPANCY}: regrading makes one split per unit of discrepancy"
        )
    splitter = _Splitter(q)
    # (-degree, name) of each arrow of degree >= 2; the top is the next split
    heap = [(-a.degree, a.name) for a in q.arrows if a.degree >= 2]
    heapify(heap)
    splits = []
    while heap:
        splits.append(splitter.split(heappop(heap)[1]))
        second = splits[-1][2]
        if second.degree >= 2:
            heappush(heap, (-second.degree, second.name))
    assert len(splits) == discrepancy
    if not splits:
        return RegradeResult(q, q, ideal, ())
    # Backwards, sub maps each arrow after a split to its final chain.  Both
    # halves are fresh before it, so they are popped before an earlier split
    # can reuse their names.
    sub: Substitution = {}
    for arrow, first, second in reversed(splits):
        sub[arrow.name] = sub.pop(first.name, (first.name,)) + sub.pop(second.name, (second.name,))
    return RegradeResult(q, splitter.close(), _transport_ideal(ideal, sub), tuple(splits))
