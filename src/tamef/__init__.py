"""tamef: graded seminorm families on truncated coefficient sequences,
tameness certification, implicit solving, and chart atlases."""

from .errors import (
    AliasingError,
    ConstructionError,
    EmptyProbeSetError,
    InconsistentInverseError,
    NonConvergenceError,
    NotIntoSubmanifoldError,
    RegularityError,
    SingularBlockError,
    TamefError,
    UnsupportedGradingError,
)
from .graded import (
    BanachFiber,
    EquivalenceOutcome,
    Grading,
    GradingValidationReport,
    ProductBatch,
    ProductSpace,
    RatioWitness,
    SequenceBatch,
    SequenceSpace,
    TamenessCertificate,
    as_batch,
    certificate_violations,
    certify_grading_equivalence,
    custom_grading,
    inner_product,
    l1_grading,
    linf_grading,
    metric_norm,
    seminorm_l1,
    seminorm_linf,
    validate_equivalence_certificate,
    validate_grading,
)
from .holomorphic import (
    CauchyBoundReport,
    DiskSpec,
    RoundTripReport,
    boundary_values,
    coefficients_from_boundary,
    eval_series,
    round_trip_report,
    sup_norm_disk,
    verify_cauchy_bound,
)
from .implicit import (
    Chart,
    ConstraintMap,
    PointSplit,
    RegularPointReport,
    RegularValueReport,
    SolveResult,
    SplitConstraint,
    apply_dphi,
    apply_vphi,
    build_chart,
    build_constraint,
    check_jacobian,
    find_preimage,
    is_regular_point,
    is_regular_value,
    solve_implicit,
    split_at,
)
from .manifold import (
    IntoSubmanifoldReport,
    Submanifold,
    TransitionReport,
    certify_map_into_submanifold,
    chart_restriction,
    make_sphere,
    make_sphere_intersection,
    normalization_descriptor,
    transitions_csv_rows,
    verify_transitions,
)
from .maps import (
    CertificationOutcome,
    TameMapDescriptor,
    build_map,
    certify_composition,
    certify_projection,
    certify_tame,
    combine_product,
    validate_certificate_on_probes,
)
from .probes import make_probes, make_product_probes, rng_from_seed, \
    spawn_seeds
from .serialize import dumps_csv, dumps_json, write_csv, write_json

__version__ = "0.1.0"
