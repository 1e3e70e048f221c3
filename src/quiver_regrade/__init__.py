"""Regrading of weighted quiver presentations and representation transport.

A weighted quiver presents a graded algebra as paths modulo uniform
relations.  This package splits heavy arrows until every generator sits in
degree one, rewrites the relations along the way, and transports graded
representations across each split in both directions, with exact linear
algebra throughout.  The :mod:`~quiver_regrade.verify` module turns the
structural claims into seeded property suites.  The public names are the
ones imported below.
"""

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
from .hilbert import (
    DEFAULT_MAX_DEGREE,
    HilbertRow,
    graded_dim,
    graded_dim_naive,
    hilbert_table,
)
from .linalg import Matrix, kernel_basis, rank, rank_naive
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
from .representation import (
    DegreeWindow,
    GradedMorphism,
    GradedRep,
    MorphismSquareError,
    QuiverMismatchError,
    WindowOverflowError,
    collapse_morphism,
    collapse_rep,
    collapse_rep_along,
    compose_morphisms,
    counit,
    evaluate_path,
    evaluate_relation,
    expand_morphism,
    expand_rep,
    expand_rep_along,
    morphism_cokernel,
    morphism_kernel,
    satisfies,
    shift,
)
from .verify import (
    PropertyResult,
    SuiteConfig,
    SuiteReport,
    render_reports,
    run_suites,
)
