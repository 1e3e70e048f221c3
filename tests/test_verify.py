"""Verification harness: suites, reports, rendering, determinism."""

from __future__ import annotations

import hashlib

import pytest

from quiver_regrade import verify
from quiver_regrade import (
    GF,
    DegreeWindow,
    PropertyResult,
    SuiteConfig,
    SuiteReport,
    default_prime,
    render_reports,
    run_functor_suite,
    run_hilbert_suite,
    run_split_suite,
    run_suites,
)

SMALL = SuiteConfig(seed=0, trials=12, max_degree=6)


@pytest.fixture(scope="module")
def small_reports():
    cfg = SMALL
    return [run_split_suite(cfg), run_functor_suite(cfg), run_hilbert_suite(cfg)]


class TestSuiteConfig:
    def test_defaults(self):
        cfg = SuiteConfig()
        assert cfg.seed == 0
        assert cfg.trials == 200
        assert cfg.window == DegreeWindow(-2, 10)
        assert cfg.max_dim == 3
        assert cfg.field == GF(default_prime())

    def test_explicit_field_accepted(self):
        report = run_split_suite(SuiteConfig(trials=2, field=GF(101)))
        assert report.ok()


class TestSuitesPass:
    def test_split(self, small_reports):
        assert small_reports[0].suite == "split"
        assert small_reports[0].ok(), render_reports([small_reports[0]])

    def test_functor(self, small_reports):
        assert small_reports[1].suite == "functor"
        assert small_reports[1].ok(), render_reports([small_reports[1]])

    def test_hilbert(self, small_reports):
        assert small_reports[2].suite == "hilbert"
        assert small_reports[2].ok(), render_reports([small_reports[2]])

    def test_every_property_ran_every_trial(self, small_reports):
        for report in small_reports:
            for res in report.results:
                assert res.trials >= 1
                assert res.failures == 0

    def test_expected_property_names(self, small_reports):
        names = [r.name for rep in small_reports for r in rep.results]
        for expected in (
            "split_golden_structure",
            "rewrite_multiplicative",
            "regrade_terminates",
            "collapse_expand_identity",
            "relation_transport",
            "shift_compatibility",
            "expansion_exactness",
            "counit_support",
            "counit_naturality",
            "expansion_dims",
            "golden_two_loop_table",
            "random_agreement",
        ):
            assert expected in names


class TestRunSuites:
    def test_order_and_selection(self):
        cfg = SuiteConfig(trials=3, max_degree=4)
        reports = run_suites(("split", "hilbert"), cfg)
        assert [r.suite for r in reports] == ["split", "hilbert"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(("bogus",), SMALL)


class TestDeterminism:
    def test_byte_identical_reports(self):
        cfg = SuiteConfig(seed=11, trials=8, max_degree=5)
        a = render_reports(run_suites(("split", "functor", "hilbert"), cfg))
        b = render_reports(run_suites(("split", "functor", "hilbert"), cfg))
        assert a == b

    def test_reports_compare_equal_despite_wall_time(self):
        cfg = SuiteConfig(seed=3, trials=5, max_degree=4)
        r1 = run_split_suite(cfg)
        r2 = run_split_suite(cfg)
        assert r1 == r2

    def test_seed_changes_stream(self):
        # Different seeds draw different quivers; rendering still passes but
        # the underlying counterexample-free stream need not be identical.
        a = run_split_suite(SuiteConfig(seed=0, trials=6))
        b = run_split_suite(SuiteConfig(seed=1, trials=6))
        assert a.seed == 0 and b.seed == 1


class TestRendering:
    def test_text_shape(self, small_reports):
        text = render_reports(small_reports)
        lines = text.splitlines()
        assert lines[0] == "[suite] split (seed 0)"
        assert any(line.startswith("  PASS ") for line in lines)
        assert "wall" not in text
        assert text.endswith("\n")
        total = sum(len(r.results) for r in small_reports)
        assert lines[-1] == f"[verify] OK: {total} properties, 0 failed"

    def test_failure_rendering(self):
        bad = SuiteReport(
            suite="split",
            seed=9,
            results=[
                PropertyResult(name="good", trials=5, failures=0),
                PropertyResult(
                    name="broken",
                    trials=5,
                    failures=2,
                    first_counterexample="# replay: trial=3\n[quiver]\nvertex v",
                ),
            ],
        )
        assert not bad.ok()
        text = render_reports([bad])
        assert "FAIL broken trials=5 failures=2" in text
        assert "    # replay: trial=3" in text
        assert text.rstrip().endswith("[verify] FAILED: 2 properties, 1 failed")

    def test_warning_rendering(self):
        rep = SuiteReport(
            suite="hilbert",
            seed=0,
            results=[PropertyResult(name="warny", trials=4, failures=0, warnings=2)],
        )
        assert rep.ok()
        assert "warnings=2" in render_reports([rep])


class TestFailureReport:
    """Pins the full text of a failing run, counterexamples included."""

    def test_injected_faults(self, monkeypatch):
        # one fault per suite: a split that keeps the discrepancy, a collapse
        # that is the identity, and a second-opinion dimension that is 1
        monkeypatch.setattr(verify, "weight_discrepancy", lambda q: 0)
        monkeypatch.setattr(verify, "collapse_rep", lambda t, r: r)
        monkeypatch.setattr(verify, "graded_dim_naive", lambda *a, **k: 1)
        text = render_reports(run_suites(verify.SUITE_NAMES, SuiteConfig(seed=5, trials=30)))
        data = text.encode()
        assert len(data) == 2817
        assert hashlib.sha256(data).hexdigest() == (
            "12754d0888795bbe05f14a7874b437a26a5c37c8a97401d885b2c2fbb086d485"
        )
        failed = [line.split()[1] for line in text.splitlines() if line.startswith("  FAIL ")]
        assert failed == [
            "split_golden_structure", "discrepancy_decrement", "regrade_terminates",
            "collapse_expand_identity", "golden_two_loop_table",
            "split_table_agreement", "random_agreement",
        ]


class TestStreamContract:
    """A replay line `seed=S property=P trial=T` names the stream
    rng_for(S, P, T) that the body of verify.prop_P draws from."""

    def _streams(self, monkeypatch, run):
        calls = []
        real = verify.rng_for

        def spy(*parts):
            calls.append(parts)
            return real(*parts)

        monkeypatch.setattr(verify, "rng_for", spy)
        return run(), calls

    def test_one_stream_per_trial(self, monkeypatch):
        cfg = SuiteConfig(seed=4, trials=3, max_degree=4)
        reports, calls = self._streams(
            monkeypatch, lambda: run_suites(verify.SUITE_NAMES, cfg))
        drawn = {name for _, name, _ in calls}
        results = [r for rep in reports for r in rep.results if r.name in drawn]
        assert len(results) == 14
        assert calls == [(4, r.name, t) for r in results for t in range(r.trials)]
        for r in results:
            assert r.trials == 3
            assert callable(getattr(verify, f"prop_{r.name}"))

    def test_golden_commuting_loops_caps_its_streams(self, monkeypatch):
        result, calls = self._streams(
            monkeypatch, lambda: verify.prop_golden_commuting_loops(SuiteConfig(seed=2, trials=30)))
        assert result.trials == 25
        assert calls == [(2, "golden_commuting_loops", t) for t in range(25)]
