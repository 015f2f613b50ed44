"""Single-photon interference from N partially distinguishable sources.

One photon, N possible origins, one detector.  The state is an N x N
density matrix in the source basis; its off-diagonals carry exactly the
coherence a screen can turn into fringes.  This package decomposes such
states into indistinguishable and distinguishable parts, reads the degree
of indistinguishability off every source pair, evaluates coherence
functions and fringe patterns, reports two inequivalent visibility
notions, and checks the pairwise structure of the detection probability.
Every closed form is cross-checkable against a brute-force truncated
Fock-space oracle that knows nothing about the formulas.
"""

from .coherence import CoherenceMatrix, big_g1, coherence_matrix, g1, g2, g3
from .config import AMPLITUDE_NORM_TOL, ConfigError, ExperimentConfig
from .core import (
    HERMITIAN_TOL,
    NORMALIZATION_TOL,
    PAIR_FLOOR,
    PSD_TOL,
    TRACE_TOL,
    Amplitudes,
    DensityMatrix,
    DimensionError,
    DomainError,
    EmissionModel,
    FieldScale,
    InterfereError,
    InvalidDensityMatrixError,
    ModeCount,
    NormalizationError,
    PhaseConfig,
    UndefinedPairError,
    ValidationReport,
    as_density,
    as_phases,
    as_scale,
    validate_density,
)
from .density import (
    PairEstimate,
    PidReport,
    estimate_pid,
    mix,
    rho_distinguishable,
    rho_indistinguishable,
)
from .interference import (
    DEFAULT_SCAN_SEED,
    DEFAULT_STARTS,
    DetectionGeometry,
    IntensityPattern,
    ScanSettings,
    VisibilityResult,
    born_residual,
    intensity,
    pattern,
    phases_from_geometry,
    visibility,
)
from .oracle import (
    FockSpace,
    ModeOperator,
    annihilation,
    creation,
    embed,
    field_operator,
    oracle_intensity,
    trace_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDE_NORM_TOL",
    "Amplitudes",
    "CoherenceMatrix",
    "ConfigError",
    "DEFAULT_SCAN_SEED",
    "DEFAULT_STARTS",
    "DensityMatrix",
    "DetectionGeometry",
    "DimensionError",
    "DomainError",
    "EmissionModel",
    "ExperimentConfig",
    "FieldScale",
    "FockSpace",
    "HERMITIAN_TOL",
    "IntensityPattern",
    "InterfereError",
    "InvalidDensityMatrixError",
    "ModeCount",
    "ModeOperator",
    "NORMALIZATION_TOL",
    "NormalizationError",
    "PAIR_FLOOR",
    "PSD_TOL",
    "PairEstimate",
    "PhaseConfig",
    "PidReport",
    "ScanSettings",
    "TRACE_TOL",
    "UndefinedPairError",
    "ValidationReport",
    "VisibilityResult",
    "annihilation",
    "as_density",
    "as_phases",
    "as_scale",
    "big_g1",
    "born_residual",
    "coherence_matrix",
    "creation",
    "embed",
    "estimate_pid",
    "field_operator",
    "g1",
    "g2",
    "g3",
    "intensity",
    "mix",
    "oracle_intensity",
    "pattern",
    "phases_from_geometry",
    "rho_distinguishable",
    "rho_indistinguishable",
    "trace_correlation",
    "validate_density",
    "visibility",
]
