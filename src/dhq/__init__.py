"""Decoherent-histories quantum mechanics engine.

Finite-dimensional history probabilities, decoherence checks, realm
compatibility analysis, the three-box / two-slit / spin-environment worked
examples, and a flat-spacetime causal-structure calculator.

`import dhq` imports no submodule (and so not numpy): each public name below
is imported from its submodule when first looked up (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "decoherence": "TOL_DEC_DEFAULT DecoherenceReport check_sum_rules decoherence_functional "
                   "probabilities",
    "errors": "ConditionOnNull DegenerateSpan DhqError DimensionMismatch EnvironmentTooLarge "
              "GridTooLarge InvalidPartition NonCommutingSets NotDecoherent NotHermitian "
              "ParseError SuperluminalBoost ValidationError",
    "histories": "AlternativeSet HistoryGrid branch_vector class_operator enumerate_histories",
    "linalg": "TOL_ALG Hamiltonian Projector StateVector basis_projector complement "
              "evolve_heisenberg hermitian_eig projector_from_span",
    "models": "spin_environment three_box two_slit",
    "realms": "CompatibilityVerdict Partition Realm check_compatibility coarse_grain "
              "conditional_probability predict refine_join retrodict",
    "scenario": "Scenario dump_scenario parse_scenario",
    "spacetime": "Boost Event Igus IgusGroup boost_event classify common_present_check "
                 "happened_relative_to_surface interval_squared simultaneity_boost",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# The submodules the exports load, reachable as attributes like the exports.
_SUBMODULES = (*_EXPORTS, "values")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    hidden = {"import_module", "_EXPORTS", "_MODULE_OF", "_SUBMODULES", "__getattr__", "__dir__"}
    return sorted((globals().keys() - hidden) | set(__all__) | set(_SUBMODULES))
