"""Stabilizer toolkit for AME states, QMDS child-code families, and
one-way repeater cost models.

The pieces, bottom up: exact finite-field arithmetic (:mod:`.fields`),
generalized Pauli strings in symplectic form (:mod:`.pauli`), generator
tables with verification and brute-force distance (:mod:`.codes`, file
format in :mod:`.stabtab`), canonicalization into the reduction-friendly
form and child extraction (:mod:`.reduction`), a dense ground-truth
oracle for small instances (:mod:`.oracle`), the repeater cost model
(:mod:`.repeater`), and the shipped table catalog (:mod:`.catalog`).

``import amecodes`` loads :mod:`.codes` and what it stands on.
:mod:`.reduction`, :mod:`.oracle` and :mod:`.repeater`, and their public
names, load on first access (PEP 562), so a start that only verifies or
reads tables never compiles them.
"""

from . import codes, errors, fields, pauli

# Each public name under the module that defines it; ``__all__`` is this table.
_PUBLIC = {
    "fields": ("GF", "Field"),
    "pauli": ("PauliString", "StateVector", "enumerate_errors"),
    "codes": ("CodeParams", "GeneratorTable", "check_commutation", "check_independence",
              "classify_singleton", "compute_distance", "is_ame", "subsystem_entropy"),
    "reduction": ("ReductionFriendlyForm", "to_reduction_friendly", "child_code",
                  "derive_family"),
    "oracle": ("CodewordSet", "expand_stabilizer", "ame_projection_codewords",
               "knill_laflamme_check", "dense_distance", "reduced_entropy"),
    "repeater": ("ChannelParams", "LinkPlan", "CostReport", "loss_probability", "p_success",
                 "rate", "cost_report", "optimal_k_table"),
    "errors": ("AmecodesError", "DomainError", "ParseError", "ReductionError",
               "ResourceBudgetError"),
}
_LAZY = ("reduction", "oracle", "repeater")
# every name resolved on first access -> its module; a lazy module is its own home
_HOME = {name: module for module in _LAZY for name in (module, *_PUBLIC[module])}

globals().update((name, getattr(globals()[module], name))
                 for module, names in _PUBLIC.items() if module not in _LAZY
                 for name in names)

__version__ = "0.1.0"

__all__ = [name for names in _PUBLIC.values() for name in names] + ["__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{_HOME[name]}", __name__)  # binds the module here
    if name != _HOME[name]:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
