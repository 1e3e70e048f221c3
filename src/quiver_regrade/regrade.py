"""Arrow splitting and full regrading to a degree-1-generated presentation.

One split replaces an arrow b of degree >= 2 by a degree-1 arrow into a
fresh vertex followed by an arrow of degree deg(b)-1 out of it, dropping the
weight discrepancy by exactly one.  Paths and relations are transported by
the degree-preserving rewrite that expands each occurrence of b into the two
halves.  Iterating the split on a deterministically chosen arrow reaches a
quiver whose arrows all have degree 1 in exactly discrepancy-many steps.
The splits of one regrade are made on one running vertex and arrow list
that stays sorted and indexed between splits, and the only quiver they
build is the last one.  Each step of the trace records its split, and its
``before`` and ``after`` quivers are built from those records the first
time they are read.

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

from .paths import IdealPresentation, Path, PathSum, UniformElement, term_key
from .quiver import Arrow, WeightedQuiver, weight_discrepancy

# A split costs O(log n) index work plus list inserts, and a regrade builds
# one quiver, but the names of one loop's halves grow by a prime per split,
# so regrade output grows quadratically with the discrepancy, and so does
# the memory of a trace whose every quiver is read.  Through the CLI (2-core
# host, Python 3.11) one loop of discrepancy 2000 regrades in 0.12 s at
# 72 MB peak RSS, writing 16 MB.
MAX_DISCREPANCY = 2000


class SplitError(ValueError):
    pass


class DiscrepancyLimit(SplitError):
    """Raised before regrading a quiver whose discrepancy exceeds the guard."""


@dataclass(frozen=True)
class SplitTrace:
    """One split: ``split_arrow`` (the arrow ``arrow``) became ``first`` into
    the fresh vertex ``new_vertex`` and ``second`` out of it.

    A step of a ``regrade`` trace starts without its ``before`` and
    ``after`` attributes; ``__getattr__`` builds each from its run's
    ``_History`` the first time it is read and keeps it, so the step then
    compares and hashes like one made by this constructor.  Once both are
    set the step lets go of the history, and a copy or pickle of a step
    holds its seven fields only.
    """

    split_arrow: str
    arrow: Arrow
    new_vertex: str
    first: str
    second: str
    before: WeightedQuiver
    after: WeightedQuiver

    def __getattr__(self, name: str) -> WeightedQuiver:
        # runs only for an attribute not yet set
        d = self.__dict__
        if name not in ("before", "after") or "_history" not in d:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        history, k = d["_history"]
        q = d[name] = history.quiver(k + (name == "after"))
        if "before" in d and "after" in d:
            # with both quivers set the step no longer needs its run
            del d["_history"]
        return q

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class RegradeResult:
    final_quiver: WeightedQuiver
    final_ideal: IdealPresentation
    trace: tuple[SplitTrace, ...]


_name = attrgetter("name")

# One split as it acts on the sorted lists: the index and the arrow it
# removes, the fresh vertex and the two halves.
_Split = tuple[int, Arrow, str, tuple[Arrow, Arrow]]


def _apply(vertices: list[str], arrows: list[Arrow], split: _Split) -> None:
    i, _, z, halves = split
    del arrows[i]
    insort(vertices, z)
    for half in halves:
        insort(arrows, half, key=_name)


class _History:
    """The quivers of one run of splits, each built when it is first read.

    ``quivers`` holds the quivers read so far after the first 0, 1, 2, ...
    splits, ``quivers[0]`` being the input itself, and ``final`` is the
    quiver after the last split.  Reading a quiver past them replays
    ``splits`` forward, in a loop, on running sorted lists, and keeps every
    quiver on the way, so each costs one tuple copy of the lists.  The
    lists start as sorted copies of the input, since its own tuples may be
    in any order.
    """

    def __init__(self, q: WeightedQuiver) -> None:
        self.splits: list[_Split] = []
        self.quivers = [q]
        self.final = q
        self.lists: tuple[list[str], list[Arrow]] | None = None

    def record(self, split: _Split) -> SplitTrace:
        """Append one split and return its step, with no quiver built."""
        _, arrow, z, (first, second) = split
        self.splits.append(split)
        step = object.__new__(SplitTrace)
        vars(step).update(
            split_arrow=arrow.name, arrow=arrow, new_vertex=z, first=first.name,
            second=second.name, _history=(self, len(self.splits) - 1),
        )
        return step

    def quiver(self, k: int) -> WeightedQuiver:
        quivers = self.quivers
        if k < len(quivers):
            return quivers[k]
        if k == len(self.splits):
            return self.final
        if self.lists is None:
            self.lists = sorted(quivers[0].vertices), sorted(quivers[0].arrows, key=_name)
        vertices, arrows = self.lists
        for split in self.splits[len(quivers) - 1 : k]:
            _apply(vertices, arrows, split)
            quivers.append(WeightedQuiver(tuple(vertices), tuple(arrows)))
        return quivers[k]


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
    in O(log n) steps plus list inserts and returns its ``_Split`` record;
    it builds no quiver.  ``close`` builds the quiver after the last split.

    The fresh vertex is the first free name of ``z``, ``z1``, ``z2``, ...;
    the halves of ``b`` are ``b'`` and ``b''``, or ``b'i`` and ``b''i`` for
    the smallest ``i`` with both free.
    """

    def __init__(self, q: WeightedQuiver) -> None:
        self.vertices = sorted(q.vertices)
        self.vertex_set = set(self.vertices)
        self.arrows = sorted(q.arrows, key=_name)
        self.arrow_map = {a.name: a for a in self.arrows}
        self.taken = self.vertex_set | self.arrow_map.keys()
        self.heap = [(-a.degree, a.name) for a in self.arrows if a.degree >= 2]
        heapify(self.heap)
        self.z = 0
        self.skipped: dict[str, int] = {}

    def split(self, name: str) -> _Split:
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

        at = bisect_left(self.arrows, name, key=_name)
        halves = Arrow(first, arrow.source, z, 1), Arrow(second, z, arrow.target, arrow.degree - 1)
        split = at, self.arrows[at], z, halves
        _apply(self.vertices, self.arrows, split)
        del self.arrow_map[name]
        if name not in self.vertex_set:
            taken.discard(name)
            # a freed z-name below the index is the first free one again
            self.z = min(self.z, self.skipped.get(name, self.z))
        self.vertex_set.add(z)
        taken.add(z)
        for half in halves:
            self.arrow_map[half.name] = half
            taken.add(half.name)
        if arrow.degree > 2:
            heappush(self.heap, (1 - arrow.degree, second))
        return split

    def split_all(self, history: _History) -> list[SplitTrace]:
        """Split the arrow ``pick_split_target`` picks until none is left,
        recording each split in ``history``."""
        trace = []
        while self.heap:
            trace.append(history.record(self.split(heappop(self.heap)[1])))
        return trace

    def close(self) -> WeightedQuiver:
        """Build the quiver after the last split from the running lists."""
        return WeightedQuiver(tuple(self.vertices), tuple(self.arrows))


def split_arrow(q: WeightedQuiver, name: str) -> SplitTrace:
    """Split one arrow of degree >= 2; degree-1 splits are a hard error."""
    splitter = _Splitter(q)
    _, arrow, z, (first, second) = splitter.split(name)
    return SplitTrace(name, arrow, z, first.name, second.name, q, splitter.close())


Substitution = dict[str, tuple[str, ...]]


def _expand(p: Path, sub: Substitution) -> Path:
    """Replace each arrow named in ``sub`` by its tuple of arrows."""
    if sub.keys().isdisjoint(p.arrows):
        return p
    names = tuple(m for n in p.arrows for m in sub.get(n, (n,)))
    return Path(p.source, p.target, p.degree, names)


def _transport(x: UniformElement, sub: Substitution) -> UniformElement:
    """``x`` with ``sub`` applied to every path, still canonical.

    The substitution is injective on paths and ``x`` is canonical, so the
    moved terms are distinct and nonzero already: one sort restores the
    canonical order, with no merging of terms.
    """
    moved = tuple(sorted([(_expand(p, sub), c) for p, c in x.sum.terms], key=term_key))
    return UniformElement(PathSum(x.sum.field, moved), x.source, x.target, x.degree)


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
    would pick, and the only quiver they build is the final one.  Each
    step's ``before`` and ``after`` are built when first read, replayed from
    the recorded splits; ``trace[0].before`` is ``q`` itself and
    ``trace[k].after`` is ``trace[k + 1].before``.  Folding the trace
    backwards then gives the composite substitution b -> b_1 ... b_d from
    each original arrow to the chain of final arrows it became, and the
    relations are rewritten once through it.  This gives the same ideal,
    term for term, as rewriting at every split: the chains of distinct
    original arrows are disjoint, so no two paths meet and no coefficient
    cancels, and the terms of each relation are sorted on their final paths
    either way.  An input already generated in degree 1 comes back
    unchanged with an empty trace.  A discrepancy above MAX_DISCREPANCY
    raises DiscrepancyLimit before the first split.
    """
    discrepancy = weight_discrepancy(q)
    if discrepancy > MAX_DISCREPANCY:
        raise DiscrepancyLimit(
            f"weight discrepancy {discrepancy} is above the regrade bound "
            f"{MAX_DISCREPANCY}: regrading makes one split per unit of discrepancy"
        )
    splitter, history = _Splitter(q), _History(q)
    trace = splitter.split_all(history)
    assert len(trace) == discrepancy
    if not trace:
        return RegradeResult(q, ideal, ())
    final = history.final = splitter.close()
    # Backwards, sub maps each arrow of t.after to its final chain.  Both
    # halves are fresh for t.before, so they are popped before an earlier
    # split can reuse their names.
    sub: Substitution = {}
    for t in reversed(trace):
        sub[t.split_arrow] = sub.pop(t.first, (t.first,)) + sub.pop(t.second, (t.second,))
    return RegradeResult(final, _transport_ideal(ideal, sub), tuple(trace))
