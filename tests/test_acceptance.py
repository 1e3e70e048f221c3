"""Acceptance gate: the thirteen headline guarantees, one line each.

Each test prints exactly one ``C<n> PASS|FAIL`` line and then asserts, so a
plain ``pytest -v`` (or ``pytest -s``) shows the per-criterion verdicts.
The heavyweight randomized batches run once via module-scoped fixtures.
"""

from __future__ import annotations

import hashlib
import pathlib
import subprocess
import sys

import pytest

from quiver_regrade import (
    GF,
    QQ,
    SuiteConfig,
    graded_dim,
    graded_dim_naive,
    path_from_arrows,
    render_reports,
    rewrite_path,
    run_functor_suite,
    run_split_suite,
    split_arrow,
    weight_discrepancy,
)
from quiver_regrade.catalog import bridge_quiver, kxy_presentation, kxy_split_presentation
from quiver_regrade.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# stdout of `verify --suite all --seed 7`, 1105 bytes
VERIFY_SEED7_SHA256 = "4488dae582db5d1800819edb4d271d541e5f5a390d754a87c23b314ed3b10037"


def report(cid: str, ok: bool, detail: str):
    print(f"{cid} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def prop(suite_report, name):
    for res in suite_report.results:
        if res.name == name:
            return res
    raise AssertionError(f"property {name!r} missing from {suite_report.suite} suite")


@pytest.fixture(scope="module")
def split_batch():
    return run_split_suite(SuiteConfig(seed=0, trials=500))


@pytest.fixture(scope="module")
def functor_batch():
    return run_functor_suite(SuiteConfig(seed=0, trials=200))


def batch_detail(res):
    return f"{res.trials} trials, {res.failures} failures"


def test_c01_golden_regrade_byte_exact(capsys):
    rc = main(["regrade", str(GOLDEN / "kxy.quiver")])
    got = capsys.readouterr().out
    want = (GOLDEN / "kxy_regraded.quiver").read_text()
    report(
        "C1",
        rc == 0 and got == want,
        f"regrade output is byte-identical to the pinned file ({len(want)} bytes)",
    )


def test_c02_split_structure_degrees_two_and_three():
    checks = []
    for deg, second_deg in ((2, 1), (3, 2)):
        q = bridge_quiver(bridge_degree=deg)
        t = split_arrow(q, "b")
        first = t.after.arrow(t.first)
        second = t.after.arrow(t.second)
        checks.append(
            first.degree == 1
            and (first.source, first.target) == ("u", t.new_vertex)
            and second.degree == second_deg
            and (second.source, second.target) == (t.new_vertex, "v")
            and "b" not in t.after.arrow_map
            and weight_discrepancy(t.after) == weight_discrepancy(q) - 1
        )
    report(
        "C2",
        all(checks),
        "splitting a degree-2 and a degree-3 arrow produces the stated halves",
    )


def test_c03_rewrite_goldens():
    q = bridge_quiver(bridge_degree=2)
    t = split_arrow(q, "b")
    through = rewrite_path(t, path_from_arrows(q, ["a", "a", "b", "d"]))
    untouched = path_from_arrows(q, ["a", "c", "d"])
    ok = through.arrows == ("a", "a", "b'", "b''", "d") and (
        rewrite_path(t, untouched) == untouched
    )
    report("C3", ok, "a*a*b*d becomes a*a*b'*b''*d; a*c*d is fixed")


def test_c04_discrepancy_decrements_and_regrade_terminates(split_batch):
    dec = prop(split_batch, "discrepancy_decrement")
    term = prop(split_batch, "regrade_terminates")
    ok = (
        dec.trials >= 100
        and dec.failures == 0
        and term.trials >= 100
        and term.failures == 0
    )
    report(
        "C4",
        ok,
        f"decrement: {batch_detail(dec)}; termination in exactly D splits: "
        f"{batch_detail(term)}",
    )


def test_c05_rewrite_multiplicative(split_batch):
    res = prop(split_batch, "rewrite_multiplicative")
    ok = res.trials >= 500 and res.failures == 0
    report("C5", ok, f"f(xy) = f(x)f(y) incl. zero products: {batch_detail(res)}")


def test_c06_collapse_expand_identity(functor_batch):
    res = prop(functor_batch, "collapse_expand_identity")
    ok = res.trials >= 200 and res.failures == 0
    report("C6", ok, f"G(F(M)) = M exactly, keys included: {batch_detail(res)}")


def test_c07_relation_transport(functor_batch):
    res = prop(functor_batch, "relation_transport")
    ok = res.trials >= 200 and res.failures == 0
    report(
        "C7",
        ok,
        f"M satisfies I iff F(M) satisfies the rewritten I: {batch_detail(res)}",
    )


def test_c08_shift_compatibility(functor_batch):
    res = prop(functor_batch, "shift_compatibility")
    ok = res.trials >= 200 and res.failures == 0
    report("C8", ok, f"F(M(n)) = F(M)(n) as graded data: {batch_detail(res)}")


def test_c09_expansion_exactness(functor_batch):
    res = prop(functor_batch, "expansion_exactness")
    ok = res.trials >= 100 and res.failures == 0
    report(
        "C9",
        ok,
        f"short exact sequences stay exact slotwise under F: {batch_detail(res)}",
    )


def test_c10_counit_support_and_iso(functor_batch):
    res = prop(functor_batch, "counit_support")
    # Every trial checks support + vanishing actions on a random N and the
    # isomorphism property on an expanded F(M), so both thresholds read off
    # the same counter.
    ok = res.trials >= 200 and res.failures == 0
    report(
        "C10",
        ok,
        "ker/coker of the counit live over the fresh vertex with zero arrow "
        f"action, and the counit of F(M) is an iso: {batch_detail(res)}",
    )


def test_c11_counit_naturality(functor_batch):
    res = prop(functor_batch, "counit_naturality")
    ok = res.trials >= 100 and res.failures == 0
    report("C11", ok, f"counit naturality squares commute: {batch_detail(res)}")


def test_c12_hilbert_tables():
    q, ideal = kxy_presentation()
    table_q = [graded_dim(q, ideal, d) for d in range(7)]
    table_p = [graded_dim(q, ideal, d, field=GF(32003)) for d in range(7)]
    want = [1, 1, 2, 2, 3, 3, 4]

    sq, sideal = kxy_split_presentation()
    corner = [graded_dim(sq, sideal, d, vertex="v") for d in range(11)]
    corner_naive = [graded_dim_naive(sq, sideal, d, vertex="v") for d in range(11)]
    corner_p = [
        graded_dim(sq, sideal, d, vertex="v", field=GF(32003)) for d in range(11)
    ]

    ok = (
        table_q == want
        and table_p == want
        and corner == corner_naive
        and corner == corner_p
    )
    report(
        "C12",
        ok,
        f"two-loop table d<=6 is {want} over Q and F_32003; split corner "
        "agrees with the naive route and mod p for d<=10",
    )


def test_c13_verify_cli_deterministic():
    cmd = [
        sys.executable,
        "-m",
        "quiver_regrade.cli",
        "verify",
        "--suite",
        "all",
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and "[verify] OK" in first.stdout
        and hashlib.sha256(first.stdout.encode()).hexdigest() == VERIFY_SEED7_SHA256
    )
    report(
        "C13",
        ok,
        "two fresh `verify --suite all --seed 7` runs exit 0 with "
        f"byte-identical stdout ({len(first.stdout)} bytes) of the reference digest",
    )
