"""Worst-case analysis of team incentive contracts for independent,
identical, risk-neutral agents with unknown action sets."""

from .errors import (
    AssumptionError,
    BestResponseCycleError,
    ContractPatternError,
    ConvergenceError,
    GameSizeError,
)
from .extensions import (
    BayesianEnv,
    MultiAgentContract,
    asym_unknown_value,
    bayesian_eval,
    best_ipe_value,
    best_jpe_value,
    jpe_team_bonus,
    mu_threshold_ipe,
    mu_threshold_jpe,
    multi_agent_value,
    pessimistic_value,
)
from .game import (
    EquilibriumReport,
    InducedGame,
    Profile,
    check_modularity,
    enumerate_equilibria,
    extremal_br_path,
    induce_game,
    paired_br_limit,
    principal_value,
    select_and_value,
    verify_profile,
)
from .model import (
    ActionSet,
    ActionSpec,
    Contract,
    ContractClass,
    calibrate_jpe,
    check_known_assumptions,
    classify,
    linear_contract,
    reduce_failure_wages,
)
from .optimize import (
    DiscriminatoryResult,
    OptimizationResult,
    SweepCell,
    calibration_witness,
    discriminatory_inner,
    discriminatory_ipe,
    optimize_jpe,
    sweep_regimes,
)
from .worstcase import (
    AdversarySet,
    EulerAdversary,
    IpeOptimum,
    OdeSolution,
    Witness,
    WorstCaseResult,
    best_known_solution,
    euler_adversary,
    euler_error_bound,
    ipe_adversary,
    ipe_optimal,
    ipe_value,
    jpe_value,
    jpe_value_w00,
    pbar_closed_form,
    rpe_value,
)

__version__ = "0.1.0"
