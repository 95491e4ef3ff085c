"""Abductive explanations for Boolean decision trees and random forests.

The package computes "reasons" for individual classifications: direct,
sufficient, majoritary, minimal and minimal-weight, probabilistic,
comprehensible, inclusion-preferred, and linear-model-derived reasons,
on top of an embedded CDCL SAT solver and an anytime Partial MaxSAT
loop.
"""

from .core import (
    DecisionTree,
    DimensionError,
    InconsistentTermError,
    ModelFormatError,
    RandomForest,
    Term,
    clause_to_tree,
    cnf_to_forest,
    dnf_to_forest,
    normalize,
)
from .encodings import (
    ImplicantCnf,
    VarAllocator,
    WeightedCnf,
    at_least,
    implicant_test_cnf,
    weighted_at_most,
)
from .explain import (
    DEFAULT_SEED,
    DeltaProbableOracle,
    ForestSatOracle,
    ImplicantOracle,
    LinearModel,
    MajorityOracle,
    NotAnImplicantError,
    Prioritization,
    Reason,
    ReasonKind,
    comprehensible_reason,
    delta_probable_reason_dt,
    direct_reason,
    greedy_reason,
    inclusion_preferred_reason,
    lime_linear_reason,
    majoritary_reason,
    majoritary_reason_multi,
    oracle_for_instance,
    sufficient_reason_rf,
)
from .maxsat import (
    HardClausesUnsatisfiable,
    MaxSatResult,
    maxsat_anytime,
)
from .optimize import (
    OptimizationBudgetError,
    WeightMap,
    approx_minimal_reason_dt,
    majority_wcnf,
    minimal_majoritary_reason,
    minimal_sufficient_reason_dt,
    minimal_weight_majoritary_reason,
)
from .solver import CnfInstance, Deadline, SatSolver, SolveOutcome, SolveStatus

__version__ = "0.1.0"

