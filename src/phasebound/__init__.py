"""Resource accounting and precision bounds for quantum phase estimation.

Build black-box evolution networks or named joint generators, count queries,
measure the generator's spread and its expectation above the ground state,
evaluate every resulting precision bound, and check saturation empirically
with seeded Monte-Carlo maximum-likelihood estimation.
"""

from .errors import (
    BoundaryWarning,
    DegenerateGeneratorError,
    NumericalIntegrityError,
    ParseError,
    StepSizeError,
    UsageError,
    ValidationError,
)
from .estimation import (
    TrialConfig,
    TrialResult,
    mle_estimate,
    optimal_povm,
    precision_trial,
    sample_outcomes,
)
from .metrology import (
    NO_SENSITIVITY,
    Measurement,
    ResourceReport,
    build_report,
    classical_fisher,
    heisenberg_bound_expectation,
    heisenberg_bound_stddev,
    mu_sweep,
    query_bound,
    resource_count_shifted,
)
from .networks import (
    BlackBox,
    QuantumNetwork,
    generator_analytic,
    generator_numeric,
    network_unitary,
    query_count,
)
from .opalg import (
    DIM_CAP,
    HermitianOperator,
    PureState,
    Spectrum,
    evolve,
    hermitian_eigensystem,
    moments,
    tensor_product,
)
from .procedures import (
    JointGenerator,
    ProcedureSpec,
    build_generator,
    closed_form_extremes,
    from_network,
    kbody_generator,
    snl_baseline,
)
from .states import (
    coherent_state,
    mode_number_generator,
    noon_state,
    number_operator,
    optimal_state,
    product_balanced_state,
)

__version__ = "0.1.0"

__all__ = [
    "BlackBox",
    "BoundaryWarning",
    "DegenerateGeneratorError",
    "DIM_CAP",
    "HermitianOperator",
    "JointGenerator",
    "Measurement",
    "NO_SENSITIVITY",
    "NumericalIntegrityError",
    "ParseError",
    "ProcedureSpec",
    "PureState",
    "QuantumNetwork",
    "ResourceReport",
    "Spectrum",
    "StepSizeError",
    "TrialConfig",
    "TrialResult",
    "UsageError",
    "ValidationError",
    "build_generator",
    "build_report",
    "classical_fisher",
    "closed_form_extremes",
    "coherent_state",
    "evolve",
    "from_network",
    "generator_analytic",
    "generator_numeric",
    "heisenberg_bound_expectation",
    "heisenberg_bound_stddev",
    "hermitian_eigensystem",
    "kbody_generator",
    "mle_estimate",
    "mode_number_generator",
    "moments",
    "mu_sweep",
    "network_unitary",
    "noon_state",
    "number_operator",
    "optimal_povm",
    "optimal_state",
    "precision_trial",
    "product_balanced_state",
    "query_bound",
    "query_count",
    "resource_count_shifted",
    "sample_outcomes",
    "snl_baseline",
    "tensor_product",
]
