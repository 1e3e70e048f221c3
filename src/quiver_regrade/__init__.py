"""Regrading of weighted quiver presentations and representation transport.

A weighted quiver presents a graded algebra as paths modulo uniform
relations.  This package splits heavy arrows until every generator sits in
degree one, rewrites the relations along the way, and transports graded
representations across each split in both directions, with exact linear
algebra throughout.  The :mod:`~quiver_regrade.verify` module turns the
structural claims into seeded property suites.  The public names are the
ones imported below and the ones in ``_LAZY``, which load their module on
first use (PEP 562), so that a command loads only the layers it runs.
"""

import importlib
import types

from .fields import (
    DEFAULT_PRIME,
    GF,
    PRIME_ENV_VAR,
    QQ,
    Field,
    PrimeField,
    Rationals,
    default_prime,
    parse_field_spec,
)
from .fileformat import (
    Diagnostic,
    PresentationError,
    parse_presentation,
    serialize_presentation,
)
from .paths import (
    IdealPresentation,
    Path,
    PathCountLimit,
    PathSum,
    UniformElement,
    enumerate_paths,
    format_path_sum,
    multiply_paths,
    multiply_sums,
    path_from_arrows,
    trivial_path,
    uniform_components,
)
from .quiver import (
    Arrow,
    WeightedQuiver,
    validate,
    weight_discrepancy,
)

# Eager: the package exports the function ``regrade``, which a first import
# of the submodule ``quiver_regrade.regrade`` would rebind to the module.
from .regrade import (
    DiscrepancyLimit,
    RegradeResult,
    SplitError,
    SplitTrace,
    pick_split_target,
    regrade,
    rewrite_ideal,
    rewrite_path,
    rewrite_sum,
    split_arrow,
)

# name -> the submodule that defines it, imported when the name is first read
_LAZY = {
    name: module
    for module, names in (
        ("hilbert", "DEFAULT_MAX_DEGREE HilbertRow graded_dim graded_dim_naive hilbert_table"),
        ("linalg", "Matrix kernel_basis rank rank_naive"),
        (
            "representation",
            "DegreeWindow GradedMorphism GradedRep MorphismSquareError QuiverMismatchError "
            "WindowOverflowError collapse_morphism collapse_rep collapse_rep_along "
            "compose_morphisms counit evaluate_path evaluate_relation expand_morphism "
            "expand_rep expand_rep_along morphism_cokernel morphism_kernel satisfies shift",
        ),
        ("verify", "PropertyResult SuiteConfig SuiteReport render_reports run_suites"),
    )
    for name in names.split()
}

__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    + list(_LAZY)
)


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        # an AttributeError lets ``from quiver_regrade import verify`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
