"""Sandwiched Renyi divergences, weighted Schatten norms, and randomized
verification of divergence and uncertainty inequalities at small dimension."""

from .linalg import (
    EIG_CUTOFF,
    InvalidOrder,
    LayoutMismatch,
    NotHermitian,
    NotPositiveSemidefinite,
    PSD_CLAMP,
    SystemLayout,
    frac_power,
    partial_trace,
    purify,
    schatten_norm,
)
from .states import (
    DensityOperator,
    MeasurementBasis,
    Pmf,
    cq_state,
    measure,
    measurement_pmf,
    random_density,
    random_onb,
    random_pure,
    trial_rng,
)
from .entropies import (
    OptimizerDiverged,
    OptimizerResult,
    classical_renyi_divergence,
    classical_renyi_entropy,
    cond_entropy_down,
    cond_entropy_up,
    gen_cond_entropy,
    gen_mutual_info,
    mutual_info_down,
    mutual_info_up,
    renyi_entropy,
    sandwiched_divergence,
    weighted_norm,
)
from .orders import (
    Degenerate,
    RenyiTriple,
    classify_case,
    conjugates,
    hatconj,
    hconj,
    make_triple,
    sample_triple,
    sdg_condition,
    solve_beta,
    surface_residual,
)

__version__ = "0.1.0"
