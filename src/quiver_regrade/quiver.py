"""Weighted quivers: finite directed multigraphs with positive arrow degrees.

Vertices and arrows are identified by name.  Loops and parallel arrows are
fully supported.  Construction sorts both vertex and arrow lists so that
iteration order, serialization, and everything downstream is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int


@dataclass(frozen=True)
class WeightedQuiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    @staticmethod
    def build(vertices, arrows) -> "WeightedQuiver":
        """Normalize iterables into sorted tuples (does not validate)."""
        return WeightedQuiver(
            tuple(sorted(vertices)), tuple(sorted(arrows, key=lambda a: a.name))
        )

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def arrow_map(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def out_arrows(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source in out:
                out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrow_map[name]
        except KeyError:
            raise KeyError(f"no arrow named {name!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self.vertex_set

    def max_degree(self) -> int:
        return max((a.degree for a in self.arrows), default=0)


def validate(q: WeightedQuiver) -> list[str]:
    """Structural check; an empty list means the quiver is well formed."""
    errors: list[str] = []
    seen_v: set[str] = set()
    for v in q.vertices:
        if v in seen_v:
            errors.append(f"duplicate vertex id {v!r}")
        seen_v.add(v)
    seen_a: set[str] = set()
    for a in q.arrows:
        if a.name in seen_a:
            errors.append(f"duplicate arrow id {a.name!r}")
        seen_a.add(a.name)
        if a.source not in seen_v:
            errors.append(f"arrow {a.name!r}: dangling source {a.source!r}")
        if a.target not in seen_v:
            errors.append(f"arrow {a.name!r}: dangling target {a.target!r}")
        if a.degree < 1:
            errors.append(f"arrow {a.name!r}: nonpositive degree {a.degree}")
    return errors


def weight_discrepancy(q: WeightedQuiver) -> int:
    """Total arrow degree minus arrow count; zero iff all degrees are 1."""
    return sum(a.degree for a in q.arrows) - len(q.arrows)
