"""Stabilizer toolkit for AME states, QMDS child-code families, and
one-way repeater cost models.

The pieces, bottom up: exact finite-field arithmetic (:mod:`.fields`),
generalized Pauli strings in symplectic form (:mod:`.pauli`), generator
tables with verification and brute-force distance (:mod:`.codes`, file
format in :mod:`.stabtab`), canonicalization into the reduction-friendly
form and child extraction (:mod:`.reduction`), a dense ground-truth
oracle for small instances (:mod:`.oracle`), the repeater cost model
(:mod:`.repeater`), and the shipped table catalog (:mod:`.catalog`).
"""

from .codes import (CodeParams, GeneratorTable, check_commutation,
                    check_independence, classify_singleton, compute_distance,
                    is_ame, subsystem_entropy)
from .errors import (AmecodesError, DomainError, ParseError, ReductionError,
                     ResourceBudgetError)
from .fields import GF, Field
from .oracle import (CodewordSet, ame_projection_codewords, dense_distance,
                     expand_stabilizer, knill_laflamme_check, reduced_entropy)
from .pauli import PauliString, StateVector, enumerate_errors
from .reduction import (ReductionFriendlyForm, child_code, derive_family,
                        to_reduction_friendly)
from .repeater import (ChannelParams, CostReport, LinkPlan, cost_report,
                       loss_probability, optimal_k_table, p_success, rate)

__version__ = "0.1.0"

__all__ = [
    "GF", "Field",
    "PauliString", "StateVector", "enumerate_errors",
    "CodeParams", "GeneratorTable", "check_commutation", "check_independence",
    "classify_singleton", "compute_distance", "is_ame", "subsystem_entropy",
    "ReductionFriendlyForm", "to_reduction_friendly", "child_code",
    "derive_family",
    "CodewordSet", "expand_stabilizer", "ame_projection_codewords",
    "knill_laflamme_check", "dense_distance", "reduced_entropy",
    "ChannelParams", "LinkPlan", "CostReport", "loss_probability", "p_success",
    "rate", "cost_report", "optimal_k_table",
    "AmecodesError", "DomainError", "ParseError",
    "ReductionError", "ResourceBudgetError",
    "__version__",
]
