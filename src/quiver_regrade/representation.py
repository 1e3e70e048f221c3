"""Finite-window graded representations and the split-transport functors.

A graded representation assigns to each vertex a finite family of exact
vector spaces indexed by degree, and to each arrow a of degree g a block
matrix per degree d mapping the (source, d) component into (target, d+g).
Everything is truncated to a degree window; a component missing from the
dims table is *absent* (unknown), not zero, and every check masks absent
slots.  Matrices act on column vectors, and a path a1...am evaluates to
M_am o ... o M_a1, matching the left-to-right path product.

For a single arrow split there are two transport functors:

* :func:`expand_rep` sends a representation of the unsplit quiver to one of
  the split quiver.  The fresh vertex receives the source component shifted
  down by one, the degree-1 half acts as the identity, and the other half
  carries the original arrow's matrices.
* :func:`collapse_rep` goes the other way by composing the two halves and
  forgetting the fresh vertex.

Collapsing an expansion returns the original representation on the nose,
including the key sets of every table, and :func:`counit` compares the
expansion of a collapse with the identity: it deviates only over the fresh
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field
from .linalg import Matrix, _kernel_basis
from .paths import IdealPresentation, Path, UniformElement
from .quiver import WeightedQuiver
from .regrade import SplitTrace


class WindowOverflowError(Exception):
    """A path evaluation left the degree window; enlarge it to proceed."""


class QuiverMismatchError(ValueError):
    pass


class MorphismSquareError(ValueError):
    pass


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window {self.lo}:{self.hi}")

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains(self, d: int) -> bool:
        return self.lo <= d <= self.hi

    def shifted(self, n: int) -> "DegreeWindow":
        return DegreeWindow(self.lo - n, self.hi - n)

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


Slot = tuple[str, int]


@dataclass
class GradedRep:
    """Immutable by convention; construct fresh values instead of mutating."""

    quiver: WeightedQuiver
    window: DegreeWindow
    field: Field
    dims: dict[Slot, int]
    mats: dict[Slot, Matrix]

    def __post_init__(self):
        vertices = self.quiver.vertex_set
        lo, hi = self.window.lo, self.window.hi
        dims, field = self.dims, self.field
        for (v, d), n in dims.items():
            if v not in vertices:
                raise ValueError(f"dimension table names unknown vertex {v!r}")
            if not lo <= d <= hi:
                raise ValueError(f"component ({v!r}, {d}) lies outside window {self.window}")
            if n < 0:
                raise ValueError(f"negative dimension at ({v!r}, {d})")
        arrow_map = self.quiver.arrow_map
        for (name, d), m in self.mats.items():
            # quiver.arrow raises the KeyError that names an unknown arrow
            a = arrow_map.get(name) or self.quiver.arrow(name)
            sdim = dims.get((a.source, d))
            tdim = dims.get((a.target, d + a.degree))
            if sdim is None or tdim is None:
                raise ValueError(f"matrix for ({name!r}, {d}) has an absent endpoint component")
            if m.rows != tdim or m.cols != sdim:
                raise ValueError(
                    f"matrix for ({name!r}, {d}) has shape {m.rows}x{m.cols}, "
                    f"expected {tdim}x{sdim}"
                )
            if m.field is not field and m.field != field:
                raise ValueError(f"matrix for ({name!r}, {d}) is over the wrong field")

    def dim(self, v: str, d: int) -> int | None:
        return self.dims.get((v, d))

    def mat(self, a: str, d: int) -> Matrix | None:
        return self.mats.get((a, d))


def evaluate_path(rep: GradedRep, p: Path, d: int) -> Matrix:
    """Composite of the arrow blocks along p, first arrow applied first."""
    if p.is_trivial:
        n = rep.dim(p.source, d)
        if n is None:
            raise WindowOverflowError(f"component ({p.source!r}, {d}) is absent")
        return Matrix.identity(rep.field, n)
    result: Matrix | None = None
    current = d
    for name in p.arrows:
        block = rep.mat(name, current)
        if block is None:
            raise WindowOverflowError(f"no block for arrow {name!r} at degree {current}")
        result = block if result is None else block.mul(result)
        current += rep.quiver.arrow(name).degree
    assert result is not None
    return result


def evaluate_relation(rep: GradedRep, elem: UniformElement, d: int) -> Matrix:
    """Coefficient-weighted sum of path evaluations of a uniform element."""
    ps = elem.sum.to_field(rep.field)
    total: Matrix | None = None
    for p, coeff in ps.terms:
        contrib = evaluate_path(rep, p, d).scale(coeff)
        total = contrib if total is None else total.add(contrib)
    if total is None:
        ns = rep.dim(elem.source, d)
        nt = rep.dim(elem.target, d + elem.degree)
        if ns is None or nt is None:
            raise WindowOverflowError("endpoint component absent for empty relation")
        return Matrix.zero(rep.field, nt, ns)
    return total


def satisfies(rep: GradedRep, ideal: IdealPresentation) -> tuple[bool, list[tuple[int, int]]]:
    """Check every generator vanishes at every window-interior degree.

    Returns (ok, violations) with violations as (generator index, degree);
    degrees where the evaluation would leave the window are masked.
    """
    violations: list[tuple[int, int]] = []
    for i, gen in enumerate(ideal):
        for d in rep.window.degrees():
            try:
                value = evaluate_relation(rep, gen, d)
            except WindowOverflowError:
                continue
            if not value.is_zero():
                violations.append((i, d))
    return (not violations, violations)


def shift(rep: GradedRep, n: int) -> GradedRep:
    """Degree shift: component (v, d) of the result is (v, d+n) of the input."""
    if n == 0:
        return rep
    window = rep.window.shifted(n)
    dims = {(v, d - n): size for (v, d), size in rep.dims.items()}
    mats = {(a, d - n): m for (a, d), m in rep.mats.items()}
    return GradedRep(rep.quiver, window, rep.field, dims, mats)


# ---------------------------------------------------------------------------
# transport through one arrow split


def expand_rep(t: SplitTrace, rep: GradedRep) -> GradedRep:
    """Transport a representation across the split, into the split quiver."""
    if rep.quiver != t.before:
        raise QuiverMismatchError("representation does not live on the unsplit quiver")
    b = t.arrow
    window = rep.window
    dims: dict[Slot, int] = dict(rep.dims)
    for (v, d), n in rep.dims.items():
        if v == b.source and window.contains(d + 1):
            dims[(t.new_vertex, d + 1)] = n
    mats: dict[Slot, Matrix] = {}
    for (a, d), m in rep.mats.items():
        if a == t.split_arrow:
            # the second half starts one degree later, from the fresh vertex
            mats[(t.second, d + 1)] = m
        else:
            mats[(a, d)] = m
    for (v, d), n in rep.dims.items():
        if v == b.source and (t.new_vertex, d + 1) in dims:
            mats[(t.first, d)] = Matrix.identity(rep.field, n)
    return GradedRep(t.after, window, rep.field, dims, mats)


def collapse_rep(t: SplitTrace, rep: GradedRep) -> GradedRep:
    """Transport a representation of the split quiver back, composing halves."""
    if rep.quiver != t.after:
        raise QuiverMismatchError("representation does not live on the split quiver")
    dims = {(v, d): n for (v, d), n in rep.dims.items() if v != t.new_vertex}
    mats: dict[Slot, Matrix] = {
        (a, d): m for (a, d), m in rep.mats.items() if a not in (t.first, t.second)
    }
    for (a, d), first in rep.mats.items():
        if a != t.first:
            continue
        second = rep.mats.get((t.second, d + 1))
        if second is not None:
            mats[(t.split_arrow, d)] = second.mul(first)
    return GradedRep(t.before, rep.window, rep.field, dims, mats)


# ---------------------------------------------------------------------------
# morphisms


@dataclass
class GradedMorphism:
    """Degree-0 blocks per component, commuting with every arrow action.

    The constructor checks the shape of every block, then every commuting
    square phi_t A = B phi_s for which the target's arrow block B and both
    blocks phi_s, phi_t exist.  A square whose two sides are empty matrices
    (no rows or no columns) holds trivially and forms no product.  Every
    other square forms both sides with :meth:`Matrix.mul` and compares them
    entry by entry.
    """

    source: GradedRep
    target: GradedRep
    blocks: dict[Slot, Matrix]

    def __post_init__(self):
        src, tgt, blocks = self.source, self.target, self.blocks
        if src.quiver != tgt.quiver:
            raise QuiverMismatchError("morphism endpoints live on different quivers")
        if src.window != tgt.window or src.field != tgt.field:
            raise ValueError("morphism endpoints disagree on window or field")
        src_dims, tgt_dims = src.dims, tgt.dims
        for (v, d), m in blocks.items():
            ns, nt = src_dims.get((v, d)), tgt_dims.get((v, d))
            if ns is None or nt is None:
                raise ValueError(f"block at ({v!r}, {d}) has an absent endpoint component")
            if m.rows != nt or m.cols != ns:
                raise ValueError(
                    f"block at ({v!r}, {d}) has shape {m.rows}x{m.cols}, expected {nt}x{ns}"
                )
        arrow_map, tgt_mats = src.quiver.arrow_map, tgt.mats
        for (name, d), src_mat in src.mats.items():
            # an empty square (phi_s without columns or phi_t without rows)
            # holds trivially.  Matrix.mul answers that too, but 104k of the
            # 172k squares of `verify --suite functor --seed 7` are empty, so
            # they are told apart before any lookup: src_mat.cols is phi_s's
            # column count and tgt_mat.rows is phi_t's row count
            if src_mat.cols == 0:
                continue
            tgt_mat = tgt_mats.get((name, d))
            if tgt_mat is None or tgt_mat.rows == 0:
                continue
            a = arrow_map.get(name) or src.quiver.arrow(name)
            left = blocks.get((a.target, d + a.degree))
            right = blocks.get((a.source, d))
            if left is None or right is None:
                continue
            if left.mul(src_mat).entries != tgt_mat.mul(right).entries:
                raise MorphismSquareError(f"square fails at arrow {name!r}, degree {d}")

    def block(self, v: str, d: int) -> Matrix | None:
        return self.blocks.get((v, d))


def compose_morphisms(outer: GradedMorphism, inner: GradedMorphism) -> GradedMorphism:
    """outer o inner; inner is applied first."""
    if inner.target != outer.source:
        raise ValueError("morphisms do not compose: middle representations differ")
    blocks = {}
    for key, left in outer.blocks.items():
        right = inner.blocks.get(key)
        if right is not None:
            blocks[key] = left.mul(right)
    return GradedMorphism(inner.source, outer.target, blocks)


def expand_morphism(t: SplitTrace, phi: GradedMorphism) -> GradedMorphism:
    """Functorial transport of a morphism into the split quiver."""
    src = expand_rep(t, phi.source)
    tgt = expand_rep(t, phi.target)
    b = t.arrow
    blocks = dict(phi.blocks)
    for (v, d) in src.dims:
        if v != t.new_vertex:
            continue
        if (v, d) not in tgt.dims:
            continue
        base = phi.blocks.get((b.source, d - 1))
        if base is not None:
            blocks[(v, d)] = base
    return GradedMorphism(src, tgt, blocks)


def collapse_morphism(t: SplitTrace, psi: GradedMorphism) -> GradedMorphism:
    """Functorial transport of a morphism back to the unsplit quiver."""
    src = collapse_rep(t, psi.source)
    tgt = collapse_rep(t, psi.target)
    blocks = {(v, d): m for (v, d), m in psi.blocks.items() if v != t.new_vertex}
    return GradedMorphism(src, tgt, blocks)


def counit(t: SplitTrace, rep: GradedRep) -> GradedMorphism:
    """Natural comparison expand(collapse(N)) -> N.

    Identity away from the fresh vertex; over it, the degree-1 half of the
    split arrow reinterpreted as a degree-0 block.
    """
    if rep.quiver != t.after:
        raise QuiverMismatchError("counit takes a representation of the split quiver")
    double = expand_rep(t, collapse_rep(t, rep))
    blocks: dict[Slot, Matrix] = {}
    for (v, d), n in double.dims.items():
        if v == t.new_vertex:
            block = rep.mats.get((t.first, d - 1))
            if block is not None and (v, d) in rep.dims:
                blocks[(v, d)] = block
        elif (v, d) in rep.dims:
            blocks[(v, d)] = Matrix.identity(rep.field, n)
    return GradedMorphism(double, rep, blocks)


# ---------------------------------------------------------------------------
# kernels and cokernels, computed componentwise


def morphism_kernel(phi: GradedMorphism) -> tuple[GradedRep, GradedMorphism]:
    """Componentwise kernel with induced arrow actions and its inclusion.

    Each kernel basis ``b`` is the identity on its free coordinates, so the
    induced action of an arrow is read off ``action b_s`` at the target's free
    coordinates, with no elimination.  That it is the action on the kernel,
    ``b_t induced == action b_s``, is a commuting square of the inclusion,
    which its constructor checks: a violated square of ``phi`` raises
    :class:`MorphismSquareError` there.
    """
    src = phi.source
    dims: dict[Slot, int] = {}
    basis: dict[Slot, Matrix] = {}
    free: dict[Slot, list[int]] = {}
    for key, block in phi.blocks.items():
        ker, free[key] = _kernel_basis(block)
        dims[key] = ker.cols
        basis[key] = ker
    mats: dict[Slot, Matrix] = {}
    for (name, d), action in src.mats.items():
        a = src.quiver.arrow(name)
        b_s = basis.get((a.source, d))
        free_t = free.get((a.target, d + a.degree))
        if b_s is None or free_t is None:
            continue
        image = action.mul(b_s)
        # free_t is ascending and distinct: as long as the rows, it is all of them
        mats[(name, d)] = image if len(free_t) == image.rows else image.rows_at(free_t)
    kernel = GradedRep(src.quiver, src.window, src.field, dims, mats)
    inclusion = GradedMorphism(kernel, src, dict(basis))
    return kernel, inclusion


def morphism_cokernel(phi: GradedMorphism) -> tuple[GradedRep, GradedMorphism]:
    """Componentwise cokernel with induced arrow actions and its projection.

    Each projection ``q`` is the transpose of a kernel basis of the block's
    transpose: it kills the block's image and is the identity on its free
    coordinates.  So the induced action of an arrow is read off
    ``q_t action`` at the source's free coordinates, with no elimination.
    That it is well defined, ``induced q_s == q_t action``, is a commuting
    square of the projection, which its constructor checks: a violated
    square of ``phi`` raises :class:`MorphismSquareError` there.
    """
    tgt = phi.target
    dims: dict[Slot, int] = {}
    proj: dict[Slot, Matrix] = {}
    free: dict[Slot, list[int]] = {}
    for key, block in phi.blocks.items():
        ker, free[key] = _kernel_basis(block.transpose())
        dims[key] = ker.cols
        proj[key] = ker.transpose()
    mats: dict[Slot, Matrix] = {}
    for (name, d), action in tgt.mats.items():
        a = tgt.quiver.arrow(name)
        q_t = proj.get((a.target, d + a.degree))
        free_s = free.get((a.source, d))
        if q_t is None or free_s is None:
            continue
        # free_s is ascending and distinct: as long as the columns, it is all of them
        at_free = action if len(free_s) == action.cols else action.cols_at(free_s)
        mats[(name, d)] = q_t.mul(at_free)
    coker = GradedRep(tgt.quiver, tgt.window, tgt.field, dims, mats)
    projection = GradedMorphism(tgt, coker, dict(proj))
    return coker, projection


# ---------------------------------------------------------------------------
# multi-step transport along a full regrade trace


def expand_rep_along(traces, rep: GradedRep) -> GradedRep:
    for t in traces:
        rep = expand_rep(t, rep)
    return rep


def collapse_rep_along(traces, rep: GradedRep) -> GradedRep:
    for t in reversed(list(traces)):
        rep = collapse_rep(t, rep)
    return rep
