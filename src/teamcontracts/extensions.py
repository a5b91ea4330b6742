"""Extension models: many agents, Bayesian technology uncertainty,
agent-specific unknown actions, and pessimistic equilibrium selection.

``multi_agent_value`` and ``pessimistic_value`` import ``worstcase`` and
``game`` when they run, so the Bayesian and asymmetric models load
neither."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractPatternError
from .model import ActionSet, ActionSpec, Contract, check_known_assumptions


@dataclass(frozen=True)
class MultiAgentContract:
    """n-agent team scheme: pay (w0 + b/(n-1) * sum of others' successes)
    times own success."""

    n: int
    w0: float
    b: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two agents")
        if not 0.0 <= self.w0 < math.inf:  # also rejects NaN
            raise ValueError(f"w0 must be finite and >= 0, got {self.w0}")
        if not 0.0 < self.b < math.inf:
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        if not self.w0 + self.b < math.inf:
            raise ValueError(f"w0 + b must be finite, got {self.w0 + self.b}")


def multi_agent_value(mac: MultiAgentContract, a0_set: ActionSet) -> tuple[float, float]:
    """Worst-case value of the n-agent scheme.  When each other agent
    succeeds w.p. p, own success pays w0 + b*p more than failure: the
    marginal wage with coefficients (s0, s1) = (w0, w0 + b), which is valued
    per agent as the two-agent contract (w0 + b, w0, 0, 0).  The total is n
    times that, since each agent's incentives depend on the others only
    through their common equilibrium success probability."""
    from .worstcase import worst_case_value

    check_known_assumptions(a0_set)
    per_agent = worst_case_value(Contract(mac.w0 + mac.b, mac.w0, 0.0, 0.0), a0_set).per_agent
    return per_agent, mac.n * per_agent


@dataclass(frozen=True)
class BayesianEnv:
    """Two technology states: the free intermediate action a* is available
    with probability 1 - mu alongside the known costly action (c0, p0)."""

    mu: float
    p0: float
    c0: float
    p_star: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not 0.0 < self.c0 < self.p0:
            raise ValueError("need 0 < c0 < p0")
        if not 0.0 < self.p_star < self.p0:
            raise ValueError("need 0 < p_star < p0")


ZERO = "ZERO"
IPE_MIXED = "IPE_MIXED"
IPE_ALWAYS_A0 = "IPE_ALWAYS_A0"
JPE_SCHEME = "JPE"


def jpe_team_bonus(env: BayesianEnv, w0: float) -> float:
    """Bonus calibrating w0 + b*p0 to the implementing wage c0/p0."""
    return (env.c0 / env.p0 - w0) / env.p0


def bayesian_eval(env: BayesianEnv, scheme: str, w0: float | None = None) -> float:
    """Expected per-agent profit of a scheme under technology uncertainty.

    ZERO pays nothing and collects the free action when available.
    IPE_MIXED pays wage c0/p0, implementing a0 without a* and a* with it.
    IPE_ALWAYS_A0 pays c0/(p0 - p_star) so a0 is taken in both states.
    JPE pays w0 on single success plus a bonus b = (c0/p0 - w0)/p0 on joint
    success; it implements the same actions as IPE_MIXED while paying less
    when the free action is taken.
    """
    mu, p0, c0, ps = env.mu, env.p0, env.c0, env.p_star
    if scheme == ZERO:
        return (1.0 - mu) * ps
    if scheme == IPE_MIXED:
        return (mu * p0 + (1.0 - mu) * ps) * (1.0 - c0 / p0)
    if scheme == IPE_ALWAYS_A0:
        return p0 * (1.0 - c0 / (p0 - ps))
    if scheme == JPE_SCHEME:
        w_star = c0 / p0
        if w0 is None or not 0.0 < w0 < w_star:
            raise ValueError(f"JPE scheme needs 0 < w0 < {w_star}, got {w0}")
        b = jpe_team_bonus(env, w0)
        return mu * p0 * (1.0 - w_star) + (1.0 - mu) * ps * (1.0 - (w0 + ps * b))
    raise ValueError(f"unknown scheme {scheme!r}")


def best_ipe_value(env: BayesianEnv) -> float:
    return max(
        bayesian_eval(env, ZERO),
        bayesian_eval(env, IPE_MIXED),
        bayesian_eval(env, IPE_ALWAYS_A0),
    )


def best_jpe_value(env: BayesianEnv) -> float:
    """Best calibrated team scheme over 40 evenly spaced interior base wages
    in (0, c0/p0): its value falls strictly in w0, with slope
    -(1 - mu)*p_star*(1 - p_star/p0), so that is the first, w0 = (c0/p0)/41,
    which does not depend on mu."""
    return bayesian_eval(env, JPE_SCHEME, env.c0 / env.p0 / 41.0)


def _first_flip(p0: float, c0: float, p_star: float, own, rivals) -> float:
    """First mu in [1e-9, 1 - 1e-9] where ``own(env)`` starts or stops
    strictly beating every rival.  Each gap own - rival is affine in mu, the
    line through its values a, b at the ends, so h = min(gaps) is concave and
    positive from the last gap to rise through zero to the first to fall.
    Only gaps that change sign are solved; |a - b| >= |a| keeps roots inside."""
    lo, hi = 1e-9, 1.0 - 1e-9
    envs = [BayesianEnv(mu, p0, c0, p_star) for mu in (lo, hi)]
    own_at = [own(env) for env in envs]
    gaps = [[o - bayesian_eval(env, r) for o, env in zip(own_at, envs)] for r in rivals]

    def root(a, b):
        return lo + (hi - lo) * (a / (a - b))

    falls = [root(a, b) for a, b in gaps if a > 0.0 >= b]
    rises = [root(a, b) for a, b in gaps if a <= 0.0 < b]
    if all(a > 0.0 for a, _ in gaps):
        if falls:
            return min(falls)
    elif all(a > 0.0 or b > 0.0 for a, b in gaps) and all(max(rises) < t for t in falls):
        return max(rises)
    raise ValueError("no regime flip in (0, 1) for these parameters")


def mu_threshold_ipe(p0: float, c0: float, p_star: float) -> float:
    """Availability probability at which the implementing wage c0/p0
    overtakes the best non-implementing independent scheme."""
    return _first_flip(p0, c0, p_star, lambda env: bayesian_eval(env, IPE_MIXED),
                       (ZERO, IPE_ALWAYS_A0))


def mu_threshold_jpe(p0: float, c0: float, p_star: float) -> float:
    """Availability probability above which some calibrated team scheme
    strictly beats every independent scheme."""
    return _first_flip(p0, c0, p_star, best_jpe_value, (ZERO, IPE_MIXED, IPE_ALWAYS_A0))


def asym_unknown_value(contract: Contract, a0: ActionSpec) -> tuple[float, float, float]:
    """Worst case when each agent may hold a different single unknown action.

    Iterated elimination first drops the known action for agent one, then,
    against the less productive opponent, for agent two:

        p1 = p0 - c0/(p0*w11 + (1-p0)*w10)
        p2 = p0 - c0/(p1*w11 + (1-p1)*w10)

    both clamped at zero.  The total is the usual minimum of the
    full-success branch and the asymmetric shirking branch.  The degenerate
    case w11 = w10 is accepted so the vanishing-asymmetry limit can be
    checked exactly.
    """
    if contract.w01 != 0.0 or contract.w00 != 0.0 or not contract.w11 >= contract.w10:
        raise ContractPatternError(
            "need w11 >= w10 with zero failure wages (joint evaluation or its "
            "equal-wage boundary)"
        )
    if contract.w11 <= 0.0:
        raise ContractPatternError("need w11 > 0")
    if not a0.prob > a0.cost > 0.0:
        raise ValueError("targeted action must satisfy p(a0) > c(a0) > 0")
    w11, w10 = contract.w11, contract.w10
    p0, c0 = a0.prob, a0.cost

    d1 = p0 * w11 + (1.0 - p0) * w10
    p1 = max(0.0, p0 - c0 / d1)
    d2 = p1 * w11 + (1.0 - p1) * w10
    p2 = max(0.0, p0 - c0 / d2) if d2 > 0.0 else 0.0
    shirk = p1 * p2 * (2.0 - 2.0 * w11) + (p1 * (1.0 - p2) + p2 * (1.0 - p1)) * (1.0 - w10)
    total = min(2.0 - 2.0 * w11, shirk)
    return p1, p2, total


def pessimistic_value(contract: Contract, actions: ActionSet) -> float:
    """Principal's worst weakly Pareto-efficient equilibrium value, over
    pure and mixed equilibria up to ``game.MIXED_CAP`` actions and over pure
    ones above it.

    For a joint evaluation with zero failure wages the induced game is
    supermodular with strictly positive spillovers, so the maximal
    equilibrium is the unique Pareto-efficient equilibrium and this is its
    value; ``selftest.suite_pessimistic_selection`` and acceptance criterion
    14 check that to 1e-12.  (The principal can still prefer a smaller
    equilibrium when her payoff is non-monotone in the success
    probabilities, so agreement with unrestricted principal-preferred
    selection does not hold in general; it does hold on the
    dominance-solvable worst-case witness sets.)
    """
    from .game import (MIXED_CAP, PESSIMISTIC_PARETO, enumerate_equilibria, induce_game,
                       select_and_value)

    game = induce_game(contract, actions)
    eqs = enumerate_equilibria(game, mixed=len(actions) <= MIXED_CAP)
    return select_and_value(game, eqs, PESSIMISTIC_PARETO).principal_total
