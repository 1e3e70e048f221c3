"""Seeded inputs for the benchmark workloads, as presentation-file text.

Everything here is plain Python over ``random.Random``: the inputs do not
depend on the library under test, so two commits given the same seed are
measured on the same text.  Each generator also returns what the oracle
needs to know about its input (discrepancy, generator endpoints), computed
here rather than read back from the library.
"""

from __future__ import annotations

import random
from fractions import Fraction

KXY = """[quiver]
vertex v
arrow x v v 1
arrow y v v 2

[relations]
x*y - y*x
"""

KXYZ = """[quiver]
vertex v
arrow x v v 1
arrow y v v 1
arrow z v v 1

[relations]
x*y - y*x
x*z - z*x
y*z - z*y
"""

# The multi-vertex quiver of ``hilbert-tables`` is fixed so that its path
# counts, and so the size of every rank problem, do not move with the seed.
# (name, source, target, degree)
TRIANGLE_ARROWS = (
    ("x", "a", "a", 1),
    ("y", "a", "b", 1),
    ("t", "a", "c", 2),
    ("u", "b", "b", 2),
    ("z", "b", "c", 1),
    ("w", "c", "a", 1),
    ("v", "c", "b", 3),
)
TRIANGLE_VERTICES = ("a", "b", "c")
TRIANGLE_GENERATORS = 14
TRIANGLE_DERIVED = 4  # of the generators, left/right arrow multiples of others

_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3),
           Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_relation(terms: list[tuple[Fraction, tuple[str, ...]]]) -> str:
    parts = []
    for c, arrows in terms:
        body = "*".join(arrows)
        mag = abs(c)
        text = body if mag == 1 else f"{_fmt_coeff(mag)}*{body}"
        if not parts:
            parts.append(f"-{text}" if c < 0 else text)
        else:
            parts.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(parts)


def format_presentation(vertices, arrows, relations: list[str]) -> str:
    lines = ["[quiver]"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"arrow {n} {s} {t} {d}" for n, s, t, d in arrows]
    lines += ["", "[relations]"]
    lines += relations
    return "\n".join(lines) + "\n"


def _paths_by_slot(arrows, max_degree: int) -> dict[tuple[str, str, int], list[tuple[str, ...]]]:
    """Every nontrivial path up to ``max_degree``, keyed by (source, target, degree)."""
    out_arrows: dict[str, list] = {}
    for a in arrows:
        out_arrows.setdefault(a[1], []).append(a)
    slots: dict[tuple[str, str, int], list[tuple[str, ...]]] = {}
    frontier = [((a[0],), a[1], a[2], a[3]) for a in arrows if a[3] <= max_degree]
    while frontier:
        nxt = []
        for names, src, tgt, deg in frontier:
            slots.setdefault((src, tgt, deg), []).append(names)
            for a in out_arrows.get(tgt, ()):
                if deg + a[3] <= max_degree:
                    nxt.append((names + (a[0],), src, a[2], deg + a[3]))
        frontier = nxt
    for paths in slots.values():
        paths.sort()
    return slots


def triangle_presentation(rng: random.Random) -> str:
    """Three vertices, seven arrows of degrees 1-3, 14 mixed-degree relations.

    Ten relations are combinations of paths sharing endpoints and a degree
    in 2..4; the other four are arrow multiples of earlier ones, so the
    relation rows of every graded piece are heavily redundant.  Which
    endpoints, degrees and multiples the relations have is the same for
    every presentation (drawn from a fixed stream), so every seed asks for
    rank problems of the same sizes; ``rng`` draws the paths and the
    coefficients.
    """
    shape = random.Random("triangle-shape")
    slots = _paths_by_slot(TRIANGLE_ARROWS, 4)
    rich = sorted(k for k, paths in slots.items() if k[2] >= 2 and len(paths) >= 2)
    arrows_into = {v: [a for a in TRIANGLE_ARROWS if a[2] == v] for v in TRIANGLE_VERTICES}
    arrows_out = {v: [a for a in TRIANGLE_ARROWS if a[1] == v] for v in TRIANGLE_VERTICES}
    gens: list[tuple[str, str, list[tuple[Fraction, tuple[str, ...]]]]] = []
    for _ in range(TRIANGLE_GENERATORS - TRIANGLE_DERIVED):
        src, tgt, deg = shape.choice(rich)
        paths = rng.sample(slots[(src, tgt, deg)], min(len(slots[(src, tgt, deg)]), shape.randint(2, 3)))
        gens.append((src, tgt, [(rng.choice(_COEFFS), p) for p in paths]))
    for _ in range(TRIANGLE_DERIVED):
        src, tgt, terms = shape.choice(gens)
        if shape.random() < 0.5:
            a = shape.choice(arrows_into[src])
            gens.append((a[1], tgt, [(c, (a[0],) + p) for c, p in terms]))
        else:
            a = shape.choice(arrows_out[tgt])
            gens.append((src, a[2], [(c, p + (a[0],)) for c, p in terms]))
    return format_presentation(
        TRIANGLE_VERTICES, TRIANGLE_ARROWS, [format_relation(t) for _, _, t in gens]
    )


# ---------------------------------------------------------------------------
# regrade-large: many vertices, parallel arrow pairs, long relations

LARGE_VERTICES = 24
LARGE_ARROW_PAIRS = 30  # each pair is two parallel arrows of one degree
# degree of the pair with index i is LARGE_DEGREES[i % len]; a fixed cycle keeps
# the discrepancy, and so the number of splits, the same for every seed
LARGE_DEGREES = (1, 2, 3, 4, 5, 6, 7, 8, 1, 2)


def large_presentation(rng: random.Random, generators: int) -> tuple[str, dict]:
    """One large weighted presentation and the facts the oracle checks.

    Arrows come in parallel pairs (``aN``, ``bN``) of equal degree, so a
    random path and its copies with some arrows swapped for their twins share
    endpoints and degree: each relation is a homogeneous combination of such
    copies.  The quiver, and the length and number of copies of the k-th
    relation, are the same for every presentation (drawn from a fixed
    stream), so the amount of rewriting is set by ``generators`` alone;
    ``rng`` draws the walks, the swaps and the coefficients.  The returned facts are
    the input discrepancy and, per relation in file order, its (source,
    target, degree).
    """
    shape = random.Random("large-shape")
    vertices = [f"p{i}" for i in range(LARGE_VERTICES)]
    arrows = []
    twin = {}
    for i in range(LARGE_ARROW_PAIRS):
        # the first pairs form a cycle through every vertex so no vertex is a sink
        src = vertices[i] if i < LARGE_VERTICES else shape.choice(vertices)
        tgt = vertices[(i + 1) % LARGE_VERTICES] if i < LARGE_VERTICES else shape.choice(vertices)
        deg = LARGE_DEGREES[i % len(LARGE_DEGREES)]
        arrows.append((f"a{i}", src, tgt, deg))
        arrows.append((f"b{i}", src, tgt, deg))
        twin[f"a{i}"], twin[f"b{i}"] = f"b{i}", f"a{i}"
    out_arrows: dict[str, list] = {}
    for a in arrows:
        out_arrows.setdefault(a[1], []).append(a)
    relations, shapes = [], []
    for _ in range(generators):
        length, copies = shape.randint(2, 5), shape.randint(1, 3)
        start = rng.choice(vertices)
        walk, v, deg = [], start, 0
        for _ in range(length):
            a = rng.choice(out_arrows[v])
            walk.append(a[0])
            v, deg = a[2], deg + a[3]
        variants = {tuple(walk)}
        for _ in range(copies):
            variants.add(tuple(twin[n] if rng.random() < 0.5 else n for n in walk))
        if len(variants) == 1:
            variants.add(tuple(twin[n] for n in walk))
        relations.append(format_relation(
            [(rng.choice(_COEFFS), p) for p in sorted(variants)]
        ))
        shapes.append((start, v, deg))
    discrepancy = sum(a[3] for a in arrows) - len(arrows)
    text = format_presentation(vertices, arrows, relations)
    return text, {"discrepancy": discrepancy, "shapes": shapes, "arrows": len(arrows)}
