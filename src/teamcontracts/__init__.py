"""Worst-case analysis of team incentive contracts for independent,
identical, risk-neutral agents with unknown action sets.

The public names below are imported from their submodules on first access
(PEP 562), so ``import teamcontracts`` loads neither numpy nor any
submodule.  ``python -m teamcontracts`` imports this package before
``__main__``, which sets the BLAS thread count before numpy loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AssumptionError",
        "BestResponseCycleError",
        "ContractPatternError",
        "ConvergenceError",
        "GameSizeError",
    ),
    "extensions": (
        "BayesianEnv",
        "MultiAgentContract",
        "asym_unknown_value",
        "bayesian_eval",
        "best_ipe_value",
        "best_jpe_value",
        "jpe_team_bonus",
        "mu_threshold_ipe",
        "mu_threshold_jpe",
        "multi_agent_value",
        "pessimistic_value",
    ),
    "game": (
        "EquilibriumReport",
        "InducedGame",
        "Profile",
        "check_modularity",
        "enumerate_equilibria",
        "extremal_br_path",
        "induce_game",
        "paired_br_limit",
        "principal_value",
        "select_and_value",
        "verify_profile",
    ),
    "model": (
        "ActionSet",
        "ActionSpec",
        "Contract",
        "ContractClass",
        "calibrate_jpe",
        "check_known_assumptions",
        "classify",
        "linear_contract",
        "reduce_failure_wages",
    ),
    "optimize": (
        "DiscriminatoryResult",
        "OptimizationResult",
        "SweepCell",
        "calibration_witness",
        "discriminatory_inner",
        "discriminatory_ipe",
        "optimize_jpe",
        "sweep_regimes",
    ),
    "worstcase": (
        "AdversarySet",
        "EulerAdversary",
        "IpeOptimum",
        "OdeSolution",
        "Witness",
        "WorstCaseResult",
        "best_known_solution",
        "euler_adversary",
        "euler_error_bound",
        "ipe_adversary",
        "ipe_optimal",
        "ipe_value",
        "jpe_value",
        "jpe_value_w00",
        "pbar_closed_form",
        "rpe_value",
        "worst_case",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules that export no name but resolve as attributes before any import.
_UNLISTED = ("cli", "selftest")

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS or name in _UNLISTED:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
