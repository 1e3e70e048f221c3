"""Per-layer metrics of a traced run, per traced pass.

Names are ``<module>.<function>.<quantity>``.  Every name is reported on
every workload: a layer the workload does not reach reads 0, and a traced
name the library no longer has reads 0 and is counted in
``trace.absent_names``.
"""

from __future__ import annotations

import statistics


# the 18 properties of `verify --suite all`, in report order
VERIFY_PROPERTIES = (
    "split_golden_structure", "rewrite_golden", "discrepancy_decrement",
    "rewrite_preserves_shape", "rewrite_multiplicative", "regrade_terminates",
    "collapse_expand_identity", "golden_commuting_loops", "relation_transport",
    "shift_compatibility", "expansion_exactness", "counit_support",
    "counit_naturality", "expansion_dims", "golden_two_loop_table",
    "split_table_agreement", "free_algebra_counts", "random_agreement",
)

# layer name -> the quantities reported besides self_s
_LAYERS = {
    "linalg.rank_of_rows": ("calls", "rows_in", "rank_out", "useful_row_ratio", "density"),
    "hilbert.graded_dim": ("calls", "basis_cols", "rows"),
    "paths.enumerate_paths": ("calls", "paths_out", "repeat_ratio"),
    "regrade.split_arrow": ("calls",),
    "regrade.rewrite_ideal": ("calls", "gens_in", "gens_changed_ratio"),
    "paths.PathSum.make": ("calls",),
    "fileformat.parse_presentation": ("bytes",),
    "fileformat.serialize_presentation": ("bytes",),
    "randomgen.random_morphism": ("calls", "nvars", "equations"),
    "randomgen.random_rep": ("calls",),
    "linalg.rref": ("calls", "cells"),
    "linalg.nullspace": ("calls",),
    "linalg.Matrix.mul": ("calls", "mults"),
    "representation.GradedMorphism.check": ("calls",),
    "representation.expand_rep": (),
    "representation.collapse_rep": (),
    "representation.counit": (),
    "representation.morphism_kernel": (),
    "representation.morphism_cokernel": (),
}

_RATIOS = {
    # ratio name -> (numerator count, denominator count)
    "linalg.rank_of_rows.useful_row_ratio": (
        "linalg.rank_of_rows.rank_out", "linalg.rank_of_rows.rows_in"),
    "linalg.rank_of_rows.density": ("linalg.rank_of_rows.nonzeros", "linalg.rank_of_rows.cells"),
    "paths.enumerate_paths.repeat_ratio": (
        "paths.enumerate_paths.repeats", "paths.enumerate_paths.calls"),
    "regrade.rewrite_ideal.gens_changed_ratio": (
        "regrade.rewrite_ideal.gens_changed", "regrade.rewrite_ideal.gens_in"),
}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith(".density") or name == "trace.overhead":
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def metric_names() -> list[str]:
    names = []
    for layer, quantities in _LAYERS.items():
        names.append(f"{layer}.self_s")
        names += [f"{layer}.{q}" for q in quantities]
    names += [f"verify.{p}.s" for p in VERIFY_PROPERTIES]
    names += ["setup.import_s", "setup.numpy_import_s", "host.calibration_s", "host.raw_pass_s",
              "trace.overhead", "trace.absent_names"]
    return names


UNITS = {name: _unit(name) for name in metric_names()}


def per_layer(tracer, run, setup: dict) -> dict[str, float]:
    passes = len(run.traced_pass_s)
    counts = dict(tracer.counts)
    for layer, n in tracer.calls.items():
        counts[f"{layer}.calls"] = n
    out = {}
    for name in metric_names():
        layer, _, quantity = name.rpartition(".")
        if name in _RATIOS:
            num, den = (counts.get(k, 0) for k in _RATIOS[name])
            out[name] = num / den if den else 0.0
        elif quantity == "self_s":
            out[name] = tracer.self_s.get(layer, 0.0) / passes
        elif layer.startswith("verify."):
            out[name] = tracer.total_s.get(layer, 0.0) / passes
        elif layer == "setup":
            out[name] = setup[name]
        elif layer == "host":
            out[name] = (
                run.clock.median_calibration() if quantity == "calibration_s"
                else statistics.median(run.pass_s)
            )
        elif layer == "trace":
            out[name] = (
                sum(run.traced_pass_s) / sum(run.scaled_pass_s)
                if quantity == "overhead" else len(tracer.absent)
            )
        else:
            out[name] = counts.get(name, 0) / passes
    return out
