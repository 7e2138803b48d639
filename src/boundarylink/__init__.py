"""Boundary-link Seifert matrix calculus, link diagrams, and Milnor invariants."""

from .seifert import (
    SeifertMatrix,
    StructureError,
    ValidationReport,
    Violation,
    null_matrix,
    validate,
    whitehead_double_matrix,
)
from .smoves import (
    Congruence,
    Enlargement,
    GoodBasisForm,
    MoveSequence,
    Reduce,
    ReplayError,
    apply_congruence,
    apply_enlargement,
    apply_move,
    apply_reduction,
    commute_reduction_congruence,
    find_reductions,
    good_basis_form_check,
    normalize_sequence,
    reduce_to_null,
    replace_min_by_max,
)

__all__ = [
    "SeifertMatrix", "StructureError", "ValidationReport", "Violation",
    "null_matrix", "validate", "whitehead_double_matrix",
    "Congruence", "Enlargement", "GoodBasisForm", "MoveSequence", "Reduce",
    "ReplayError", "apply_congruence", "apply_enlargement", "apply_move",
    "apply_reduction", "commute_reduction_congruence", "find_reductions",
    "good_basis_form_check", "normalize_sequence", "reduce_to_null",
    "replace_min_by_max",
]

__version__ = "0.1.0"
