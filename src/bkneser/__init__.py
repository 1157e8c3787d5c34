"""b-chromatic numbers of Kneser graphs: construction, verification, bounds,
and exact search with a brute-force cross-check.

The public names below are re-exported from their submodules on first use
(PEP 562), so `import bkneser` loads none of those submodules and a process
compiles only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "bcoloring": (
        "BColoringFailure",
        "BColoringVerdict",
        "ClassAnalysis",
        "Coloring",
        "CountingRecord",
        "ProofAnalysis",
        "ProofCheckFailure",
        "ProofStep",
        "analyze_proof_structure",
        "class_core",
        "is_b_coloring",
    ),
    "bounds": (
        "BKBound",
        "BoundsReport",
        "Ratios",
        "UBound",
        "asymptotic_table",
        "best_upper_bound",
        "bk_bound",
        "regular_bound",
        "u_bound",
    ),
    "kneser": (
        "DEFAULT_ENUMERATION_CAP",
        "Graph",
        "InstanceTooLarge",
        "KneserParams",
        "build_graph",
        "enumerate_vertices",
    ),
    "solver": (
        "DEFAULT_BRUTE_FORCE_CAP",
        "DEFAULT_NODE_BUDGET",
        "Budget",
        "BudgetExceeded",
        "SolveResult",
        "SolveStats",
        "brute_force_phi",
        "degree_bound",
        "exact_phi",
        "feasible_b_coloring",
        "heuristic_b_coloring",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # any other name, a submodule such as `formats` among them, is an
    # AttributeError, after which `from bkneser import formats` imports it
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
