"""Forward and reverse variance uncertainty bounds for finite-dimensional
observables, plus a linear-optics digital twin of the qutrit measurement
pipeline that produced them.

``import varbound`` loads the relations (``hermitian``, ``bounds``) and the
twin (``photonics``) only.  The sweep and the basis search are imported
from their own modules, ``varbound.sweep`` and ``varbound.basis_search``.
"""

__version__ = "0.1.0"

from .hermitian import (
    DimensionMismatch,
    EigenFailure,
    NonHermitianError,
    Observable,
    PureState,
    builtin_spin1,
    haar_random_state,
    make_observable,
)
from .bounds import (
    BoundResult,
    IncompleteBasis,
    InvalidPairing,
    OrthonormalBasis,
    UncertaintyReport,
    evaluate_all,
    evaluate_states,
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
    prepare_amplitudes,
    prepare_state,
    projection_probabilities,
    qwp_matrix,
    sample_counts,
)
