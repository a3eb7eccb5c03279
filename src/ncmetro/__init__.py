"""Noncommutative-encoding quantum metrology toolkit.

Exact ladder-operator algebra with nilpotency classification, local
generators and their Fisher-information scaling laws, an exact Gaussian
engine and an independent truncated-Fock oracle, plus scripted scaling
experiments and a CLI.
"""

from .errors import (
    BoundViolationError,
    DegenerateMeasurementError,
    DegreeOverflowError,
    ExpressionError,
    InternalConsistencyError,
    LeakageError,
    NcmetroError,
    NotGaussianError,
    NumericalTrustError,
    TruncationInstabilityError,
    UnclassifiedPairError,
    ValidationError,
)
from .expressions import format_polynomial, parse_operator
from .fock import (
    DvBoundReport,
    MatrixOperator,
    QfiEstimate,
    branch_phase_overlap,
    dv_bound_check,
    dv_saturating_probe,
    matrix_of,
    prepare_probe,
    qfi_numeric,
    switch_protocol,
    switch_qfi,
)
from .gaussian import (
    GaussianState,
    HomodyneSpec,
    cfi_quadrature,
    evolve,
    gaussian_probe,
    homodyne_variance,
    qfi_linear_generator,
    run_protocol,
)
from .generators import (
    GeneratorResult,
    certified_block,
    generator_by_conjugation,
    k_peak,
    leading_qfi_coefficient,
    local_generator,
    qcrb_rmse,
)
from .ladder import (
    LadderPolynomial,
    NilpotencyReport,
    adjoint_power,
    annihilation_op,
    classify_pair,
    commutator,
    creation_op,
    identity_op,
    is_hermitian,
    ladder_term,
    momentum_op,
    normal_order_product,
    position_op,
    zero_op,
)
from .protocols import (
    PRESETS,
    EncodingProtocol,
    ProbeDescriptor,
    build_preset,
    shear_protocol,
    squeeze_protocol,
)

__version__ = "0.1.0"
