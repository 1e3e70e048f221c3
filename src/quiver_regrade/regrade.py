"""Arrow splitting and full regrading to a degree-1-generated presentation.

One split replaces an arrow b of degree >= 2 by a degree-1 arrow into a
fresh vertex followed by an arrow of degree deg(b)-1 out of it, dropping the
weight discrepancy by exactly one.  Paths and relations are transported by
the degree-preserving rewrite that expands each occurrence of b into the two
halves.  Iterating the split on a deterministically chosen arrow reaches a
quiver whose arrows all have degree 1 in exactly discrepancy-many steps.
The splits of one regrade are made on one running quiver that stays sorted
and indexed between splits, so a split neither re-sorts nor re-indexes it.

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
from heapq import heapify, heappop, heappush
from operator import attrgetter

from .paths import IdealPresentation, Path, UniformElement
from .quiver import Arrow, WeightedQuiver, weight_discrepancy

# A split costs O(log n) index work plus one tuple copy per vertex and arrow
# list, but every split's quiver stays in the trace and the names of one
# loop's halves grow by a prime per split, so regrade memory and output grow
# quadratically with the discrepancy.  Through the CLI (2-core host, Python
# 3.11) one loop of discrepancy 1000 regrades in 0.3 s at 38 MB peak RSS, and
# of discrepancy 2000 in 0.45 s at 103 MB, writing 16 MB.
MAX_DISCREPANCY = 2000


class SplitError(ValueError):
    pass


class DiscrepancyLimit(SplitError):
    """Raised before regrading a quiver whose discrepancy exceeds the guard."""


@dataclass(frozen=True)
class SplitTrace:
    split_arrow: str
    arrow: Arrow
    new_vertex: str
    first: str
    second: str
    before: WeightedQuiver
    after: WeightedQuiver


@dataclass(frozen=True)
class RegradeResult:
    final_quiver: WeightedQuiver
    final_ideal: IdealPresentation
    trace: tuple[SplitTrace, ...]


_name = attrgetter("name")


def _z_name(i: int) -> str:
    return f"z{i}" if i else "z"


class _Splitter:
    """A quiver under repeated splits, with the indexes a split needs.

    It keeps the sorted vertices, the name-sorted arrows, ``{name: Arrow}``,
    the taken names (vertices and arrows), a heap of ``(-degree, name)`` over
    the arrows of degree >= 2, whose top is the arrow ``pick_split_target``
    picks, and an index ``z`` below which every name of ``z``, ``z1``, ``z2``,
    ... is taken; ``skipped`` holds the index of each name it stepped past,
    so a split that frees one moves ``z`` back.  A split updates all of them
    in O(log n) steps plus list inserts, and its ``after`` quiver is one
    tuple copy per list.

    The fresh vertex is the first free name of ``z``, ``z1``, ``z2``, ...;
    the halves of ``b`` are ``b'`` and ``b''``, or ``b'i`` and ``b''i`` for
    the smallest ``i`` with both free.
    """

    def __init__(self, q: WeightedQuiver) -> None:
        self.quiver = q
        self.vertices = sorted(q.vertices)
        self.vertex_set = set(self.vertices)
        self.arrows = sorted(q.arrows, key=_name)
        self.arrow_map = {a.name: a for a in self.arrows}
        self.taken = self.vertex_set | self.arrow_map.keys()
        self.heap = [(-a.degree, a.name) for a in self.arrows if a.degree >= 2]
        heapify(self.heap)
        self.z = 0
        self.skipped: dict[str, int] = {}

    def split(self, name: str) -> SplitTrace:
        arrow = self.arrow_map.get(name)
        if arrow is None:
            raise SplitError(f"unknown arrow {name!r}")
        if arrow.degree < 2:
            raise SplitError(
                f"cannot split arrow {name!r} of degree {arrow.degree}; "
                "the second half would get degree 0"
            )
        # fresh names are chosen while the split arrow's name is still taken
        taken = self.taken
        while (z := _z_name(self.z)) in taken:
            self.skipped[z] = self.z
            self.z += 1
        first, second = name + "'", name + "''"
        if first in taken or second in taken:
            i = 1
            while f"{first}{i}" in taken or f"{second}{i}" in taken:
                i += 1
            first, second = f"{first}{i}", f"{second}{i}"

        del self.arrow_map[name]
        del self.arrows[bisect_left(self.arrows, name, key=_name)]
        if name not in self.vertex_set:
            taken.discard(name)
            # a freed z-name below the index is the first free one again
            self.z = min(self.z, self.skipped.get(name, self.z))
        insort(self.vertices, z)
        self.vertex_set.add(z)
        taken.add(z)
        halves = Arrow(first, arrow.source, z, 1), Arrow(second, z, arrow.target, arrow.degree - 1)
        for half in halves:
            insort(self.arrows, half, key=_name)
            self.arrow_map[half.name] = half
            taken.add(half.name)
        if arrow.degree > 2:
            heappush(self.heap, (1 - arrow.degree, second))

        before = self.quiver
        self.quiver = WeightedQuiver(tuple(self.vertices), tuple(self.arrows))
        return SplitTrace(name, arrow, z, first, second, before, self.quiver)

    def split_all(self) -> list[SplitTrace]:
        """Split the arrow ``pick_split_target`` picks until none is left."""
        trace = []
        while self.heap:
            trace.append(self.split(heappop(self.heap)[1]))
        return trace


def split_arrow(q: WeightedQuiver, name: str) -> SplitTrace:
    """Split one arrow of degree >= 2; degree-1 splits are a hard error."""
    return _Splitter(q).split(name)


Substitution = dict[str, tuple[str, ...]]


def _expand(p: Path, sub: Substitution) -> Path:
    """Replace each arrow named in ``sub`` by its tuple of arrows."""
    if sub.keys().isdisjoint(p.arrows):
        return p
    names = tuple(m for n in p.arrows for m in sub.get(n, (n,)))
    return Path(p.source, p.target, p.degree, names)


def _transport(x: UniformElement, sub: Substitution) -> UniformElement:
    moved = x.sum.map_paths(lambda p: _expand(p, sub))
    return UniformElement(moved, x.source, x.target, x.degree)


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
    would pick.  Folding the trace backwards then gives the composite
    substitution b -> b_1 ... b_d from each original arrow to the chain of
    final arrows it became, and the relations are rewritten once through
    it.  This gives the same ideal, term for term, as rewriting at every
    split: the chains of distinct original arrows are disjoint, so no two
    paths meet and no coefficient cancels, and the terms of each relation
    are sorted on their final paths either way.  An input already generated
    in degree 1 comes back unchanged with an empty trace.  A discrepancy
    above MAX_DISCREPANCY raises DiscrepancyLimit before the first split.
    """
    discrepancy = weight_discrepancy(q)
    if discrepancy > MAX_DISCREPANCY:
        raise DiscrepancyLimit(
            f"weight discrepancy {discrepancy} is above the regrade bound "
            f"{MAX_DISCREPANCY}: regrading makes one split per unit of discrepancy"
        )
    trace = _Splitter(q).split_all()
    assert len(trace) == discrepancy
    if not trace:
        return RegradeResult(q, ideal, ())
    # Backwards, sub maps each arrow of t.after to its final chain.  Both
    # halves are fresh for t.before, so they are popped before an earlier
    # split can reuse their names.
    sub: Substitution = {}
    for t in reversed(trace):
        sub[t.split_arrow] = sub.pop(t.first, (t.first,)) + sub.pop(t.second, (t.second,))
    return RegradeResult(trace[-1].after, _transport_ideal(ideal, sub), tuple(trace))
