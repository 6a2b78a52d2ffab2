"""Concurrence of bipartite pure states and bounds for superpositions.

The package is organized as:

* :mod:`supconc.states` — bipartite states, partial traces, Schmidt data;
* :mod:`supconc.measures` — concurrence, entanglement of formation, the
  universal inverter and its sandwich terms;
* :mod:`supconc.bounds` — regime classification, the exact biorthogonal
  formula, and all upper/lower bounds, composed into a report;
* :mod:`supconc.ensembles` — seeded random states, reference fixtures,
  randomized verification campaigns;
* :mod:`supconc.cli` — the ``supconc`` command-line tool.
"""

from .bounds import (
    BatchReport,
    BoundReport,
    Regime,
    classify_pair,
    evaluate,
    evaluate_batch,
)
from .ensembles import (
    EnsembleConfig,
    VerificationSummary,
    Violation,
    biorthogonal_pair,
    fixture,
    haar_state,
    haar_unitary,
    orthogonal_pair,
    verify_ensemble,
)
from .errors import (
    DeltaOutOfRange,
    DimensionMismatch,
    InternalError,
    InvalidSplit,
    NotHermitian,
    NotNormalized,
    NotTwoQubit,
    NotUnitary,
    OutOfRange,
    SanityFailure,
    SupconcError,
    UnknownFixture,
    WeightsNotNormalized,
    ZeroVector,
)
from .measures import (
    binary_entropy,
    concurrence_qubit,
    concurrence_sq_via_lambda,
    eof_from_concurrence,
    i_concurrence,
    lambda_map,
    lambda_sandwich,
    spin_flip,
    superposition_csq_expansion,
    universal_inverter,
)
from .states import (
    OperatorAB,
    PureState,
    SuperpositionSpec,
    apply_local_unitary,
    inner_product,
    load_state,
    make_state,
    normalize,
    outer_operator,
    purity,
    reduced_density,
    save_state,
    schmidt_coefficients,
    state_from_json,
    state_to_json,
    superpose,
)

__version__ = "0.1.0"

__all__ = [
    "BatchReport", "BoundReport", "Regime", "classify_pair", "evaluate",
    "evaluate_batch",
    "EnsembleConfig", "VerificationSummary", "Violation",
    "biorthogonal_pair", "fixture", "haar_state", "haar_unitary",
    "orthogonal_pair", "verify_ensemble",
    "DeltaOutOfRange", "DimensionMismatch", "InternalError",
    "InvalidSplit", "NotHermitian", "NotNormalized", "NotTwoQubit",
    "NotUnitary", "OutOfRange", "SanityFailure", "SupconcError",
    "UnknownFixture", "WeightsNotNormalized", "ZeroVector",
    "binary_entropy", "concurrence_qubit", "concurrence_sq_via_lambda",
    "eof_from_concurrence", "i_concurrence", "lambda_map", "lambda_sandwich",
    "spin_flip", "superposition_csq_expansion", "universal_inverter",
    "OperatorAB", "PureState", "SuperpositionSpec",
    "apply_local_unitary", "inner_product",
    "load_state", "make_state", "normalize", "outer_operator", "purity",
    "reduced_density", "save_state", "schmidt_coefficients",
    "state_from_json", "state_to_json", "superpose",
]
