"""Randomized and golden verification suites.

Three suites, each a list of named properties:

* ``split``: structural facts about single arrow splits and full regrades,
  and the behavior of the induced rewriting of path sums.
* ``functor``: the representation-level transport across splits, its
  one-sided inverse, relation transport, shift compatibility, exactness,
  and the comparison morphism back from a round trip.
* ``hilbert``: graded dimension bookkeeping, fixed tables, and agreement
  between independent rank routines and between coefficient fields.

Every randomized trial draws its own RNG from (seed, property, trial), so a
failure is replayable in isolation: given a counterexample's
``# replay: seed=S property=P trial=T`` line, feed the stream that
``randomgen.rng_for`` returns for (S, P, T) to the body of ``verify.prop_P``
(one pass of its trial loop).  The trial loop, its count and its replay line
live in ``_Recorder``; a property states only its check.  Report rendering
contains no timing or environment data: two runs with the same arguments
produce byte-identical text.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .catalog import (
    bridge_quiver,
    heavy_loop_quiver,
    kxy_diagonal_rep,
    kxy_presentation,
    kxy_split_presentation,
)
from .fields import GF, QQ, Field, default_prime
from .fileformat import serialize_presentation
from .hilbert import graded_dim, graded_dim_naive, hilbert_table
from .linalg import rank
from .paths import (
    IdealPresentation,
    PathCountLimit,
    PathSum,
    enumerate_paths,
    multiply_sums,
    path_from_arrows,
    trivial_path,
)
from .quiver import WeightedQuiver, validate, weight_discrepancy
from .randomgen import (
    random_composable_pair,
    random_ideal,
    random_morphism,
    random_quiver,
    random_relation,
    random_rep,
    rng_for,
)
from .regrade import (
    pick_split_target,
    regrade,
    rewrite_ideal,
    rewrite_path,
    rewrite_sum,
    split_arrow,
)
from .representation import (
    DegreeWindow,
    GradedMorphism,
    WindowOverflowError,
    collapse_morphism,
    collapse_rep,
    collapse_rep_along,
    compose_morphisms,
    counit,
    evaluate_relation,
    expand_morphism,
    expand_rep,
    expand_rep_along,
    morphism_cokernel,
    morphism_kernel,
    satisfies,
    shift,
)

SUITE_NAMES = ("split", "functor", "hilbert")


@dataclass
class SuiteConfig:
    seed: int = 0
    trials: int = 200
    window: DegreeWindow = dc_field(default_factory=lambda: DegreeWindow(-2, 10))
    max_dim: int = 3
    field: Field | None = None
    max_degree: int = 10

    def __post_init__(self):
        if self.field is None:
            self.field = GF(default_prime())


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    warnings: int = 0
    first_counterexample: str | None = None
    # measured, kept out of the report text so reports stay byte-identical
    wall_time: float = dc_field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list[PropertyResult]

    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render_text(self) -> str:
        lines = [f"[suite] {self.suite} (seed {self.seed})"]
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            line = f"  {status} {r.name} trials={r.trials} failures={r.failures}"
            if r.warnings:
                line += f" warnings={r.warnings}"
            lines.append(line)
            if r.first_counterexample is not None:
                lines.append("    first counterexample:")
                for cl in r.first_counterexample.splitlines():
                    lines.append(f"      {cl}")
        failed = sum(1 for r in self.results if not r.ok)
        lines.append(
            f"[suite] {self.suite}: {len(self.results)} properties, {failed} failed"
        )
        return "\n".join(lines)


def render_reports(reports: list[SuiteReport]) -> str:
    body = "\n".join(rep.render_text() for rep in reports)
    total = sum(len(rep.results) for rep in reports)
    failed = sum(
        sum(1 for r in rep.results if not r.ok) for rep in reports
    )
    verdict = "OK" if failed == 0 else "FAILED"
    return f"{body}\n[verify] {verdict}: {total} properties, {failed} failed\n"


def _presentation_lines(q: WeightedQuiver, ideal: IdealPresentation | None = None) -> list[str]:
    text = serialize_presentation(q, ideal if ideal is not None else IdealPresentation.of([]))
    return text.rstrip("\n").splitlines()


def _counterexample(replay: str, detail: list[str], q: WeightedQuiver | None = None,
                    ideal: IdealPresentation | None = None) -> str:
    lines = [f"# replay: {replay}"]
    lines.extend(f"# {d}" for d in detail)
    if q is not None:
        lines.extend(_presentation_lines(q, ideal))
    return "\n".join(lines)


class _Recorder:
    """The trials of one property: counts, replay lines, first counterexample.

    A trial is one seeded stream (:meth:`seeded`) or one golden check
    (:meth:`trial`); either sets the replay line that :meth:`fail` prints.
    """

    def __init__(self, name: str, cfg: SuiteConfig):
        self.name = name
        self.cfg = cfg
        self.trials = 0
        self.failures = 0
        self.warnings = 0
        self.first: str | None = None
        self.replay = ""

    def seeded(self, trials: int | None = None):
        """Yield the RNG of each trial, drawn from (seed, name, trial);
        ``trials`` defaults to ``cfg.trials``."""
        seed = self.cfg.seed
        for trial in range(self.cfg.trials if trials is None else trials):
            self.trial(f"seed={seed} property={self.name} trial={trial}")
            yield rng_for(seed, self.name, trial)

    def trial(self, replay: str):
        self.trials += 1
        self.replay = replay

    def fail(self, detail: list[str], q: WeightedQuiver | None = None,
             ideal: IdealPresentation | None = None):
        self.failures += 1
        if self.first is None:
            self.first = _counterexample(self.replay, detail, q, ideal)

    def warn(self):
        self.warnings += 1

    def result(self) -> PropertyResult:
        return PropertyResult(
            self.name, self.trials, self.failures, self.warnings, self.first
        )


def _run(suite: str, cfg: SuiteConfig, *props) -> SuiteReport:
    results = []
    for prop in props:
        started = time.perf_counter()
        result = prop(cfg)
        result.wall_time = time.perf_counter() - started
        results.append(result)
    return SuiteReport(suite, cfg.seed, results)


# ---------------------------------------------------------------------------
# split suite


def prop_split_golden_structure(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("split_golden_structure", cfg)

    for deg in (2, 3):
        rec.trial(f"golden bridge split, heavy degree {deg}")
        q = bridge_quiver(deg)
        t = split_arrow(q, "b")
        first = t.after.arrow(t.first)
        second = t.after.arrow(t.second)
        ok = (
            t.new_vertex == "z"
            and (t.first, t.second) == ("b'", "b''")
            and sorted(t.after.vertices) == ["u", "v", "z"]
            and first.source == "u" and first.target == "z" and first.degree == 1
            and second.source == "z" and second.target == "v"
            and second.degree == deg - 1
            and "b" not in t.after.arrow_map
            and not validate(t.after)
            and weight_discrepancy(t.after) == weight_discrepancy(q) - 1
        )
        if not ok:
            rec.fail([], q)

    rec.trial("golden heavy loop regrade")
    res = regrade(heavy_loop_quiver(3), IdealPresentation.of([]))
    final = res.final_quiver
    ok = (
        len(res.trace) == 2
        and len(final.vertices) == 3
        and len(final.arrows) == 3
        and all(a.degree == 1 for a in final.arrows)
        and not validate(final)
        and weight_discrepancy(final) == 0
    )
    if not ok:
        rec.fail([], final)

    rec.trial("golden commuting-loops regrade")
    res = regrade(*kxy_presentation())
    if (res.final_quiver, res.final_ideal) != kxy_split_presentation():
        rec.fail(["got:"] + _presentation_lines(res.final_quiver, res.final_ideal))

    return rec.result()


def prop_rewrite_golden(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("rewrite_golden", cfg)
    q = bridge_quiver(2)
    t = split_arrow(q, "b")

    rec.trial("golden rewrite of a*a*b*d")
    p = path_from_arrows(q, ["a", "a", "b", "d"])
    got = rewrite_path(t, p)
    if got.arrows != ("a", "a", "b'", "b''", "d") or got.degree != p.degree:
        rec.fail([f"got {got}"], q)

    rec.trial("golden rewrite of a*c*d")
    p = path_from_arrows(q, ["a", "c", "d"])
    got = rewrite_path(t, p)
    if got != p:
        rec.fail([f"got {got}"], q)

    rec.trial("golden rewrite of the commuting-loops relation")
    q, ideal = kxy_presentation()
    got_ideal = rewrite_ideal(split_arrow(q, "y"), ideal)
    _, want = kxy_split_presentation()
    if got_ideal != want:
        rec.fail([f"got {gen}" for gen in got_ideal], q, ideal)
    return rec.result()


def prop_discrepancy_decrement(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("discrepancy_decrement", cfg)
    for rng in rec.seeded():
        q = random_quiver(rng, require_heavy=True)
        name = pick_split_target(q)
        assert name is not None
        b = q.arrow(name)
        t = split_arrow(q, name)
        first = t.after.arrow(t.first)
        second = t.after.arrow(t.second)
        ok = (
            not validate(t.after)
            and weight_discrepancy(t.after) == weight_discrepancy(q) - 1
            and len(t.after.arrows) == len(q.arrows) + 1
            and len(t.after.vertices) == len(q.vertices) + 1
            and first.degree == 1
            and second.degree == b.degree - 1
            and first.source == b.source
            and second.target == b.target
            and first.target == second.source == t.new_vertex
        )
        if not ok:
            rec.fail([f"split arrow: {name}"], q)
    return rec.result()


def prop_rewrite_preserves_shape(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("rewrite_preserves_shape", cfg)
    for rng in rec.seeded():
        q = random_quiver(rng, require_heavy=True)
        t = split_arrow(q, pick_split_target(q))
        gen = random_relation(rng, q)
        if gen is None:
            continue
        out = rewrite_sum(t, gen)
        coeffs = sorted(c for _, c in gen.sum.terms)
        out_coeffs = sorted(c for _, c in out.sum.terms)
        ok = (
            (out.source, out.target, out.degree)
            == (gen.source, gen.target, gen.degree)
            and len(out.sum.terms) == len(gen.sum.terms)
            and coeffs == out_coeffs
        )
        if not ok:
            rec.fail([f"relation: {gen}"], q)
    return rec.result()


def prop_rewrite_multiplicative(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("rewrite_multiplicative", cfg)
    for rng in rec.seeded():
        q = random_quiver(rng, require_heavy=True)
        t = split_arrow(q, pick_split_target(q))
        pair = random_composable_pair(rng, q)
        if pair is None:
            continue
        x, y = pair
        prod = multiply_sums(x.sum, y.sum)
        lhs = prod.map_paths(lambda p: rewrite_path(t, p))
        rhs = multiply_sums(
            x.sum.map_paths(lambda p: rewrite_path(t, p)),
            y.sum.map_paths(lambda p: rewrite_path(t, p)),
        )
        ok = lhs == rhs
        mismatched = [v for v in q.vertices if v != x.target]
        if ok and mismatched:
            # non-composable products vanish, before and after rewriting
            ew = PathSum.of_path(QQ, trivial_path(rng.choice(mismatched)))
            zero_before = multiply_sums(x.sum, ew)
            zero_after = multiply_sums(
                x.sum.map_paths(lambda p: rewrite_path(t, p)), ew
            )
            ok = zero_before.is_zero() and zero_after.is_zero()
        if not ok:
            rec.fail([f"left: {x}", f"right: {y}"], q)
    return rec.result()


def prop_regrade_terminates(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("regrade_terminates", cfg)
    for rng in rec.seeded():
        q = random_quiver(rng)
        ideal = random_ideal(rng, q)
        res = regrade(q, ideal)
        final = res.final_quiver
        again = regrade(final, res.final_ideal)
        ok = (
            len(res.trace) == weight_discrepancy(q)
            and weight_discrepancy(final) == 0
            and all(a.degree == 1 for a in final.arrows)
            and not validate(final)
            and len(res.final_ideal) == len(ideal)
            and all(
                (b.source, b.target, b.degree) == (a.source, a.target, a.degree)
                for a, b in zip(ideal, res.final_ideal)
            )
            and not again.trace
            and again.final_quiver == final
            and again.final_ideal == res.final_ideal
        )
        if not ok:
            rec.fail([], q, ideal)
    return rec.result()


def run_split_suite(cfg: SuiteConfig) -> SuiteReport:
    return _run(
        "split", cfg, prop_split_golden_structure, prop_rewrite_golden,
        prop_discrepancy_decrement, prop_rewrite_preserves_shape,
        prop_rewrite_multiplicative, prop_regrade_terminates,
    )


# ---------------------------------------------------------------------------
# functor suite


def _random_split_setup(rng):
    q = random_quiver(rng, require_heavy=True)
    t = split_arrow(q, pick_split_target(q))
    return q, t


def prop_collapse_expand_identity(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("collapse_expand_identity", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        m = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        if collapse_rep(t, expand_rep(t, m)) != m:
            rec.fail([f"split arrow: {t.split_arrow}"], q)
    return rec.result()


def prop_golden_commuting_loops(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("golden_commuting_loops", cfg)
    q, ideal = kxy_presentation()
    res = regrade(q, ideal)
    for rng in rec.seeded(min(cfg.trials, 25)):
        dim = rng.randint(0, cfg.max_dim)
        m = kxy_diagonal_rep(cfg.window, cfg.field, dim, rng)
        ok_m, _ = satisfies(m, ideal)
        n = expand_rep_along(res.trace, m)
        ok_n, bad = satisfies(n, res.final_ideal)
        back = collapse_rep_along(res.trace, n)
        if not (ok_m and ok_n and back == m):
            rec.fail([f"violations: {bad}"], q, ideal)
    return rec.result()


def prop_relation_transport(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("relation_transport", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        ideal = random_ideal(rng, q)
        moved = rewrite_ideal(t, ideal)
        m = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        fm = expand_rep(t, m)
        detail = []
        for gen, gen2 in zip(ideal, moved):
            for d in cfg.window.degrees():
                try:
                    lhs = evaluate_relation(m, gen, d)
                except WindowOverflowError:
                    continue
                try:
                    rhs = evaluate_relation(fm, gen2, d)
                except WindowOverflowError:
                    detail = [f"transported relation not evaluable at degree {d}"]
                    break
                if lhs != rhs:
                    detail = [f"evaluations differ at degree {d} for {gen}"]
                    break
            if detail:
                rec.fail(detail, q, ideal)
                break
    return rec.result()


def prop_shift_compatibility(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("shift_compatibility", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        m = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        n = rng.randint(-2, 2)
        if expand_rep(t, shift(m, n)) != shift(expand_rep(t, m), n):
            rec.fail([f"shift: {n}"], q)
    return rec.result()


def _exactness_defects(incl: GradedMorphism, proj: GradedMorphism) -> list[str]:
    """Componentwise exactness of 0 -> K -> A -> Q -> 0 given its two maps."""
    defects = []
    for slot in sorted(set(incl.blocks) & set(proj.blocks)):
        inc = incl.blocks[slot]
        prj = proj.blocks[slot]
        if inc.cols + prj.rows != inc.rows:
            defects.append(f"dimensions do not add up at {slot}")
        elif rank(inc) != inc.cols:
            defects.append(f"inclusion not injective at {slot}")
        elif rank(prj) != prj.rows:
            defects.append(f"projection not surjective at {slot}")
        elif not prj.mul(inc).is_zero():
            defects.append(f"composite nonzero at {slot}")
    return defects


def prop_expansion_exactness(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("expansion_exactness", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        a = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        b = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        phi = random_morphism(rng, a, b)
        _, incl = morphism_kernel(phi)
        _, proj = morphism_cokernel(incl)
        defects = _exactness_defects(incl, proj) + _exactness_defects(
            expand_morphism(t, incl), expand_morphism(t, proj)
        )
        if defects:
            rec.fail(defects[:3], q)
    return rec.result()


def prop_counit_support(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("counit_support", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        n = random_rep(rng, t.after, cfg.window, cfg.field, cfg.max_dim)
        eps = counit(t, n)
        kernel, _ = morphism_kernel(eps)
        coker, _ = morphism_cokernel(eps)
        stray = [
            (v, d)
            for (v, d) in sorted(set(kernel.dims) | set(coker.dims))
            if v != t.new_vertex
            and (kernel.dims.get((v, d)) or coker.dims.get((v, d)))
        ]
        acts = all(m.is_zero() for m in kernel.mats.values()) and all(
            m.is_zero() for m in coker.mats.values()
        )

        m = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        eps2 = counit(t, expand_rep(t, m))
        kernel2, _ = morphism_kernel(eps2)
        coker2, _ = morphism_cokernel(eps2)
        iso = not any(kernel2.dims.values()) and not any(coker2.dims.values())

        if stray or not acts or not iso:
            rec.fail([f"support off fresh vertex: {stray}", f"round-trip iso: {iso}"], q)
    return rec.result()


def prop_counit_naturality(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("counit_naturality", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        n1 = random_rep(rng, t.after, cfg.window, cfg.field, cfg.max_dim)
        n2 = random_rep(rng, t.after, cfg.window, cfg.field, cfg.max_dim)
        psi = random_morphism(rng, n1, n2)
        lhs = compose_morphisms(
            counit(t, n2), expand_morphism(t, collapse_morphism(t, psi))
        )
        rhs = compose_morphisms(psi, counit(t, n1))
        shared = set(lhs.blocks) & set(rhs.blocks)
        bad = [slot for slot in sorted(shared) if lhs.blocks[slot] != rhs.blocks[slot]]
        if bad:
            rec.fail([f"square fails at: {bad[:4]}"], q)
    return rec.result()


def run_functor_suite(cfg: SuiteConfig) -> SuiteReport:
    return _run(
        "functor", cfg, prop_collapse_expand_identity, prop_golden_commuting_loops,
        prop_relation_transport, prop_shift_compatibility, prop_expansion_exactness,
        prop_counit_support, prop_counit_naturality,
    )


# ---------------------------------------------------------------------------
# hilbert suite


def prop_expansion_dims(cfg: SuiteConfig) -> PropertyResult:
    """Definitional dimension bookkeeping of the transport across a split."""
    rec = _Recorder("expansion_dims", cfg)
    for rng in rec.seeded():
        q, t = _random_split_setup(rng)
        m = random_rep(rng, q, cfg.window, cfg.field, cfg.max_dim)
        fm = expand_rep(t, m)
        src = t.arrow.source
        ok = True
        for (v, d), size in fm.dims.items():
            if v == t.new_vertex:
                ok = ok and size == m.dims.get((src, d - 1))
            else:
                ok = ok and size == m.dims.get((v, d))
        for (v, d) in m.dims:
            ok = ok and (v, d) in fm.dims
            if v == src and cfg.window.contains(d + 1):
                ok = ok and (t.new_vertex, d + 1) in fm.dims
        if not ok:
            rec.fail([f"split arrow: {t.split_arrow}"], q)
    return rec.result()


def prop_golden_two_loop_table(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("golden_two_loop_table", cfg)
    q, ideal = kxy_presentation()
    top = cfg.max_degree
    tables = zip(hilbert_table(q, ideal, top), hilbert_table(q, ideal, top, field=cfg.field))
    for row, row_p in tables:
        d, got, got_p = row.degree, row.dim, row_p.dim
        rec.trial(f"golden two-loop table, degree {d}")
        want = d // 2 + 1
        # the second-opinion routine is slow over the rationals; keep its
        # share of the table small here (the acceptance gate runs it wider)
        got_naive = graded_dim_naive(q, ideal, d) if d <= 6 else want
        if not (got == want and got_naive == want and got_p == want):
            rec.fail([f"want {want}, got {got} / naive {got_naive} / mod-p {got_p}"], q, ideal)
    return rec.result()


def prop_split_table_agreement(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("split_table_agreement", cfg)
    res = regrade(*kxy_presentation())
    q, ideal = res.final_quiver, res.final_ideal
    top = cfg.max_degree
    tables = zip(
        hilbert_table(q, ideal, top),
        hilbert_table(q, ideal, top, field=cfg.field),
        hilbert_table(q, ideal, top, vertex="v"),
        *(hilbert_table(q, ideal, top, vertex=v) for v in q.vertices),
    )
    for total_row, modp_row, corner_row, *vertex_rows in tables:
        d, total, modp, corner = total_row.degree, total_row.dim, modp_row.dim, corner_row.dim
        rec.trial(f"split table agreement, degree {d}")
        by_vertex = sum(row.dim for row in vertex_rows)
        corner_naive = graded_dim_naive(q, ideal, d, vertex="v") if d <= 8 else corner
        if not (total == by_vertex and total == modp and corner == corner_naive):
            rec.fail([f"primary {total}, mod-p {modp}, by-vertex sum {by_vertex}, "
                      f"corner {corner} vs naive {corner_naive}"], q, ideal)
    return rec.result()


def prop_free_algebra_counts(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("free_algebra_counts", cfg)
    empty = IdealPresentation.of([])
    for rng in rec.seeded():
        q = random_quiver(rng, max_vertices=3, max_arrows=3)
        d = rng.randint(0, 4)
        try:
            paths = enumerate_paths(q, d, limit=200)
            got = graded_dim(q, empty, d, max_paths=200)
        except PathCountLimit:
            continue
        if got != len(paths):
            rec.fail([f"degree {d}: {got} != path count {len(paths)}"], q)
    return rec.result()


def prop_random_agreement(cfg: SuiteConfig) -> PropertyResult:
    rec = _Recorder("random_agreement", cfg)
    for rng in rec.seeded():
        q = random_quiver(rng, max_vertices=3, max_arrows=3)
        gen = random_relation(rng, q, max_degree=3)
        ideal = IdealPresentation.of([gen] if gen is not None else [])
        d = rng.randint(0, 4)
        try:
            primary = graded_dim(q, ideal, d, max_paths=200)
            second = graded_dim_naive(q, ideal, d, max_paths=200)
            modp = graded_dim(q, ideal, d, field=cfg.field, max_paths=200)
            count = len(enumerate_paths(q, d, limit=200))
        except PathCountLimit:
            continue
        if modp != primary:
            rec.warn()
        if not (primary == second and 0 <= primary <= count):
            rec.fail([f"degree {d}: primary {primary}, naive {second}"], q, ideal)
    return rec.result()


def run_hilbert_suite(cfg: SuiteConfig) -> SuiteReport:
    return _run(
        "hilbert", cfg, prop_expansion_dims, prop_golden_two_loop_table,
        prop_split_table_agreement, prop_free_algebra_counts, prop_random_agreement,
    )


# ---------------------------------------------------------------------------


def run_suites(names, cfg: SuiteConfig) -> list[SuiteReport]:
    runners = {
        "split": run_split_suite,
        "functor": run_functor_suite,
        "hilbert": run_hilbert_suite,
    }
    for name in names:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return [runners[name](cfg) for name in names]
