"""Seeded random instances: quivers, relations, representations, morphisms.

Every generator takes an explicit ``random.Random`` so a trial is replayable
from its seed string alone.  Nothing here reads global RNG state.

Random morphisms are drawn from the actual space of morphisms.  The
commuting-square conditions are linear in the block entries and have
Kronecker structure, vec(phi_t A - B phi_s) = (A^T (x) I) vec phi_t -
(I (x) B) vec phi_s, so each arrow block contributes sparse rows for the
shared :class:`~quiver_regrade.linalg.Echelon` kernel; no dense system is
ever built.  The reduced row echelon form of that system is unique for the
fixed numbering of the unknowns, so drawing one scalar per free unknown, in
ascending order, replays the same morphism from the same seed.  This can
legitimately produce the zero morphism when the space is small; callers who
need nonzero morphisms should retry with another trial.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from .fields import QQ, Field, PrimeField, Scalar
from .linalg import Echelon, Matrix
from .paths import IdealPresentation, Path, PathSum, UniformElement, enumerate_paths
from .quiver import Arrow, WeightedQuiver
from .representation import DegreeWindow, GradedMorphism, GradedRep, Slot


def rng_for(*parts) -> random.Random:
    """One stream per (seed, suite, trial, ...) coordinate tuple."""
    return random.Random("|".join(str(p) for p in parts))


def _scalar_draw(
    rng: random.Random, field: Field, nonzero: bool = False
) -> Callable[[], Scalar]:
    """The one rule for a random scalar, bound to ``rng``: ``randrange(p)``
    over F_p (from 1 when ``nonzero``), ``Fraction(randint(-2, 2))`` over Q
    (redrawn while 0 when ``nonzero``).

    Over F_p the draw is written out as ``lo + r``, with ``r`` drawn as
    ``getrandbits(k)`` until it is below ``n = p - lo``, for ``k`` the bit
    length of ``n``.  That is the body ``randrange(lo, p)`` runs for a
    ``random.Random`` (``lo + _randbelow_with_getrandbits(p - lo)``) on every
    supported Python, so it consumes the same bits and returns the same
    values, without the argument checks and the two calls of each draw.
    """
    if isinstance(field, PrimeField):
        lo = 1 if nonzero else 0
        n = field.p - lo
        k = n.bit_length()
        getrandbits = rng.getrandbits

        def draw_mod_p() -> Scalar:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return lo + r

        return draw_mod_p
    randint = rng.randint

    def draw() -> Scalar:
        while True:
            value = Fraction(randint(-2, 2))
            if not nonzero or value != 0:
                return value

    return draw


def random_scalar(rng: random.Random, field: Field, nonzero: bool = False) -> Scalar:
    return _scalar_draw(rng, field, nonzero)()


def random_quiver(
    rng: random.Random,
    max_vertices: int = 4,
    max_arrows: int = 6,
    max_degree: int = 3,
    require_heavy: bool = False,
) -> WeightedQuiver:
    """A small random weighted quiver; ``require_heavy`` forces an arrow of
    degree at least two so a split is always available."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"u{i}" for i in range(1, nv + 1)]
    na = rng.randint(1, max_arrows)
    arrows = []
    for i in range(1, na + 1):
        arrows.append(
            Arrow(
                f"a{i}",
                rng.choice(vertices),
                rng.choice(vertices),
                rng.randint(1, max_degree),
            )
        )
    if require_heavy and all(a.degree < 2 for a in arrows):
        k = rng.randrange(len(arrows))
        a = arrows[k]
        arrows[k] = Arrow(a.name, a.source, a.target, rng.randint(2, max_degree))
    return WeightedQuiver.build(vertices, arrows)


_PATH_GUARD = 5000


def _random_uniform(
    rng: random.Random, paths: list[Path], max_terms: int
) -> UniformElement | None:
    """Up to ``max_terms`` paths from one (source, target) bucket of ``paths``,
    with random nonzero coefficients; None when ``paths`` is empty."""
    buckets: dict[tuple[str, str], list[Path]] = {}
    for p in paths:
        buckets.setdefault((p.source, p.target), []).append(p)
    if not buckets:
        return None
    group = buckets[rng.choice(sorted(buckets))]
    chosen = rng.sample(group, rng.randint(1, min(max_terms, len(group))))
    return UniformElement.from_sum(
        PathSum.make(QQ, [(p, random_scalar(rng, QQ, nonzero=True)) for p in chosen])
    )


def random_relation(
    rng: random.Random, q: WeightedQuiver, max_degree: int = 4
) -> UniformElement | None:
    """A random uniform element of degree >= 2, or None if the quiver has no
    such paths (short acyclic quivers run out)."""
    degrees = list(range(2, max_degree + 1))
    rng.shuffle(degrees)
    for degree in degrees:
        gen = _random_uniform(rng, enumerate_paths(q, degree, limit=_PATH_GUARD), 3)
        if gen is not None:
            return gen
    return None


def random_ideal(
    rng: random.Random, q: WeightedQuiver, max_generators: int = 3, max_degree: int = 4
) -> IdealPresentation:
    gens = []
    for _ in range(rng.randint(1, max_generators)):
        gen = random_relation(rng, q, max_degree)
        if gen is not None:
            gens.append(gen)
    return IdealPresentation.of(gens)


def random_composable_pair(
    rng: random.Random, q: WeightedQuiver, max_degree: int = 3
) -> tuple[UniformElement, UniformElement] | None:
    """Two uniform elements with matching middle vertex, for product laws."""
    d1 = rng.randint(1, max_degree)
    d2 = rng.randint(1, max_degree)
    left = _random_uniform(rng, enumerate_paths(q, d1, limit=_PATH_GUARD), 2)
    if left is None:
        return None
    right_paths = enumerate_paths(q, d2, source=left.target, limit=_PATH_GUARD)
    right = _random_uniform(rng, right_paths, 2)
    if right is None:
        return None
    return left, right


def random_rep(
    rng: random.Random,
    q: WeightedQuiver,
    window: DegreeWindow,
    field: Field,
    max_dim: int = 3,
) -> GradedRep:
    """Random dimensions and matrices on every slot; relations not imposed.

    Each entry is the draw :func:`random_scalar` makes, bound once per call.
    """
    draw = _scalar_draw(rng, field)
    dims: dict[Slot, int] = {}
    for v in q.vertices:
        for d in window.degrees():
            dims[(v, d)] = rng.randint(0, max_dim)
    mats: dict[Slot, Matrix] = {}
    for a in q.arrows:
        for d in window.degrees():
            if not window.contains(d + a.degree):
                continue
            rows_n = dims[(a.target, d + a.degree)]
            cols_n = dims[(a.source, d)]
            entries = tuple([tuple([draw() for _ in range(cols_n)]) for _ in range(rows_n)])
            mats[(a.name, d)] = Matrix._trusted(rows_n, cols_n, entries, field)
    return GradedRep._trusted(q, window, field, dims, mats)


def random_morphism(
    rng: random.Random, source: GradedRep, target: GradedRep
) -> GradedMorphism:
    """A random point of the space of morphisms from source to target.

    Blocks are defined on every slot present in both representations; the
    entry (i, j) of the block at a slot is one unknown, numbered slot by slot
    and row-major.  For each arrow block A of the source and B of the target,
    the square vec(phi_t A - B phi_s) = (A^T (x) I) vec phi_t - (I (x) B)
    vec phi_s = 0 gives one sparse row per entry.  The rows go into an
    :class:`Echelon` by ascending last column, which keeps the fill-in low.
    The free columns, those without a pivot, depend only on the row space,
    and so does the one solution with given free coordinates, whatever order
    the rows came in.  So the random point is reproducible: one
    ``random_scalar`` per free column in ascending order is its coordinate,
    and each pivot unknown is solved from its echelon row, in descending
    pivot order, with no back substitution.
    """
    if source.quiver != target.quiver or source.window != target.window:
        raise ValueError("morphism endpoints must share quiver and window")
    if source.field != target.field:
        raise ValueError("morphism endpoints must share the field")
    field = source.field
    is_zero, neg = field.is_zero, field.neg
    slots = sorted(set(source.dims) & set(target.dims))
    # the unknown for entry (i, j) of the block at slot is offset[slot] + i * cols + j
    offset: dict[Slot, int] = {}
    nvars = 0
    for slot in slots:
        offset[slot] = nvars
        nvars += target.dims[slot] * source.dims[slot]
    rows: list[dict[int, Scalar]] = []
    for (name, d) in sorted(source.mats):
        a = source.quiver.arrow(name)
        if a.degree < 1:  # the rows below need phi_t and phi_s at different slots
            raise ValueError(f"arrow {name!r}: nonpositive degree {a.degree}")
        skey = (a.source, d)
        tkey = (a.target, d + a.degree)
        b_mat = target.mats.get((name, d))
        if b_mat is None or skey not in offset or tkey not in offset:
            continue
        a_rows = source.mats[(name, d)].entries
        na_t, na_s = source.dims[tkey], source.dims[skey]
        t0, s0 = offset[tkey], offset[skey]
        # the nonzero entries A[k][j] of each column j, as (k, A[k][j])
        a_cols = [
            [(k, a_row[j]) for k, a_row in enumerate(a_rows) if not is_zero(a_row[j])]
            for j in range(na_s)
        ]
        # one equation per entry (i, j) of phi_t A - B phi_s: A[k][j] at the
        # unknown phi_t[i][k], -B[i][k] at phi_s[k][j]; the two blocks lie at
        # different slots, so no unknown is hit twice
        for i, b_row in enumerate(b_mat.entries):
            t_base = t0 + i * na_t
            # the nonzero -B[i][k], as (the unknown phi_s[k][0], -B[i][k])
            b_neg = [(s0 + k * na_s, neg(y)) for k, y in enumerate(b_row) if not is_zero(y)]
            for j, a_col in enumerate(a_cols):
                row = {t_base + k: x for k, x in a_col}
                for c, y in b_neg:
                    row[c + j] = y
                if row:
                    rows.append(row)
    ech = Echelon(field)
    for row in sorted(rows, key=max):
        ech.add(row)
    pivots = ech.pivots
    draw = _scalar_draw(rng, field)
    values = {c: draw() for c in range(nvars) if c not in pivots}
    # a pivot row's other unknowns lie to its right, so in descending pivot
    # order each of them is drawn or solved already
    for pc in sorted(pivots, reverse=True):
        prow = pivots[pc]
        rest = [k for k in prow if k != pc]
        values[pc] = field.neg(field.dot([values[k] for k in rest], [prow[k] for k in rest]))
    blocks: dict[Slot, Matrix] = {}
    for slot in slots:
        r, c = target.dims[slot], source.dims[slot]
        base = offset[slot]
        entries = tuple([tuple([values[base + i * c + j] for j in range(c)]) for i in range(r)])
        blocks[slot] = Matrix._trusted(r, c, entries, field)
    return GradedMorphism(source, target, blocks)
