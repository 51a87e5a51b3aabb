"""Forward and reverse variance uncertainty bounds for finite-dimensional
observables, plus a linear-optics digital twin of the qutrit measurement
pipeline that produced them."""

__version__ = "0.1.0"

from .hermitian import (
    DimensionMismatch,
    EigenFailure,
    MomentStats,
    NonHermitianError,
    Observable,
    PureState,
    anticommutator,
    builtin_spin1,
    commutator,
    covariance,
    family_state,
    haar_random_state,
    make_observable,
    moments,
)
from .bounds import (
    BoundResult,
    IncompleteBasis,
    InvalidPairing,
    OrthonormalBasis,
    UncertaintyReport,
    eq1_product_bound,
    eq2_product_bound,
    eq3_product_bound,
    eq4_sum_bound,
    eq5_sum_bound,
    eq6_sum_bound,
    eq7_reverse_bound,
    evaluate_all,
    evaluate_states,
)
from .basis_search import (
    OptimizerConfig,
    OptimizationTrace,
    haar_basis,
    optimize_bound,
    unitary_from_params,
)
from .photonics import (
    LeakageDetected,
    MeasurementSetting,
    NotProjectiveRealization,
    OpticalElement,
    builtin_settings,
    decompose_lx,
    hwp_matrix,
    measurement_unitary,
    prepare_state,
    projection_probabilities,
    qwp_matrix,
    sample_counts,
)
from .sweep import (
    ConfigError,
    SweepConfig,
    config_from_file,
    emit,
    run_sweep,
    verify_dataset,
)
