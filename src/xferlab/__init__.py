"""Computational laboratory for transfer operators and their path-space measures.

Finite-depth operator identities are verified exactly (integer/rational/
coefficient arithmetic); measure-level statements are verified by seeded
Monte Carlo against exact oracles.
"""

from .errors import (
    CarrierMismatchError,
    ConvergenceError,
    DegreeOverflowError,
    EnsembleRequiredError,
    NoEndomorphismError,
    NormalizationError,
    NotHarmonicError,
    ReducibleChainWarning,
    XferlabError,
)
from .statespace import (
    CircleSpace,
    FiniteSpace,
    Measure,
    Observable,
    compose_with_endo,
    fiber_average,
    inner_product,
    integrate,
    strong_invariance_check,
)
from .transferop import (
    CircleRuelleOperator,
    MatrixOperator,
    TransferOperator,
    adjoint_apply,
    invariant_measure,
    kernel_operator,
    pullout_check,
    ruelle_from_endo,
    ruelle_from_filter,
    stationarity_residual,
    uniform_circle_operator,
)
from .pathmeasure import (
    CylinderFunctional,
    PathEnsemble,
    characterization_check,
    conditional_expectation,
    consistency_residual,
    correlation,
    correlation_mc,
    cylinder_expectation,
    harmonic_correspondence,
    hitting,
    marginal_distribution,
    marginal_distribution_mc,
    multiplier_identity_residual,
    sample_paths,
    sigma_expectation,
    v2_star,
)
from .solenoid import (
    SmaleWilliamsState,
    SolenoidWord,
    covariance_check,
    group_translation_invariance,
    lift_conditional_residual,
    rhat,
    shift,
    shift_invariance_residual,
    smale_williams_map,
    smale_williams_orbit,
    support_mass,
)
from .wavelet import (
    QMFFilter,
    cascade,
    daubechies4,
    haar_filter,
    intertwining_check,
    lawton_multiplicity,
    orthogonality_defect,
    qmf_check,
    representation_check,
    stretched_haar,
    translate_orthogonality,
)
from .graphwalk import (
    Network,
    detailed_balance_residual,
    harmonic_solve,
    harmonicity_residual,
    hitting_verification,
    laplacian_apply,
    path_network,
    random_network,
    transition_operator,
)

__version__ = "0.1.0"
