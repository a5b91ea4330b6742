"""Extension models: many agents, Bayesian technology uncertainty,
agent-specific unknown actions, and pessimistic equilibrium selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractPatternError
from .game import (
    PESSIMISTIC_PARETO,
    Profile,
    enumerate_equilibria,
    extremal_br_path,
    induce_game,
    principal_value,
    select_and_value,
)
from .model import JPE, ActionSet, ActionSpec, Contract, check_known_assumptions, classify
from .worstcase import jpe_value


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
        if self.w0 < 0.0:
            raise ValueError("base wage must be non-negative")
        if self.b <= 0.0:
            raise ValueError("bonus factor must be positive")

    def two_agent_equivalent(self) -> Contract:
        return Contract(self.w0 + self.b, self.w0, 0.0, 0.0)


def multi_agent_value(mac: MultiAgentContract, a0_set: ActionSet) -> tuple[float, float]:
    """Worst-case value of the n-agent scheme: per-agent it reduces to the
    two-agent case with w11 = w0 + b and w10 = w0, and the total is n times
    that, since each agent's incentives depend on the others only through
    their common equilibrium success probability."""
    check_known_assumptions(a0_set)
    per_agent = jpe_value(mac.two_agent_equivalent(), a0_set).per_agent
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

BAYES_SCHEMES = (ZERO, IPE_MIXED, IPE_ALWAYS_A0, JPE_SCHEME)


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


def best_jpe_value(env: BayesianEnv, points: int = 40) -> float:
    """Best calibrated team scheme on an interior grid of base wages: its
    value falls strictly in w0, with slope -(1 - mu)*p_star*(1 - p_star/p0),
    so that is the grid's first point."""
    w0 = np.linspace(0.0, env.c0 / env.p0, points + 2)[1]
    return bayesian_eval(env, JPE_SCHEME, float(w0))


def _bisect_sign_change(h, lo: float, hi: float, iters: int = 80) -> float:
    flo = h(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (h(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_threshold(h, points: int = 1001) -> float:
    """First sign change of h over mu in (0, 1), refined by bisection."""
    grid = np.linspace(1e-9, 1.0 - 1e-9, points)
    vals = [h(m) for m in grid]
    for k in range(len(grid) - 1):
        if (vals[k] > 0.0) != (vals[k + 1] > 0.0):
            return _bisect_sign_change(h, float(grid[k]), float(grid[k + 1]))
    raise ValueError("no regime flip in (0, 1) for these parameters")


def mu_threshold_ipe(p0: float, c0: float, p_star: float) -> float:
    """Availability probability at which the implementing wage c0/p0
    overtakes the best non-implementing independent scheme."""

    def h(mu):
        env = BayesianEnv(mu, p0, c0, p_star)
        return bayesian_eval(env, IPE_MIXED) - max(
            bayesian_eval(env, ZERO), bayesian_eval(env, IPE_ALWAYS_A0)
        )

    return _scan_threshold(h)


def mu_threshold_jpe(p0: float, c0: float, p_star: float, points: int = 40) -> float:
    """Availability probability above which some calibrated team scheme
    strictly beats every independent scheme."""

    def h(mu):
        env = BayesianEnv(mu, p0, c0, p_star)
        return best_jpe_value(env, points) - best_ipe_value(env)

    return _scan_threshold(h)


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


def pessimistic_value(
    contract: Contract, actions: ActionSet, mixed: bool | None = None, cap: int = 12
) -> float:
    """Principal's worst weakly Pareto-efficient equilibrium value.

    For a joint evaluation with zero failure wages the induced game is
    supermodular with strictly positive spillovers, so the maximal
    equilibrium is the unique Pareto-efficient equilibrium; pessimistic
    selection must then return exactly its value, and that agreement is
    asserted.  (The principal can still prefer a smaller equilibrium when
    her payoff is non-monotone in the success probabilities, so agreement
    with unrestricted principal-preferred selection is not asserted in
    general; it does hold on the dominance-solvable worst-case witness
    sets.)
    """
    game = induce_game(contract, actions)
    if mixed is None:
        mixed = len(actions) <= cap
    eqs = enumerate_equilibria(game, mixed=mixed, cap=cap)
    report = select_and_value(game, eqs, PESSIMISTIC_PARETO)

    cls = classify(contract)
    if cls.tag == JPE and contract.w01 == 0.0 and contract.w00 == 0.0:
        hi, _ = extremal_br_path(game, "MAX")
        maximal = Profile.pure(hi, hi, len(actions))
        if abs(principal_value(game, maximal) - report.principal_total) > 1e-12:
            raise RuntimeError(
                "pessimistic selection diverged from the maximal equilibrium "
                "on a positive-spillover supermodular game"
            )
    return report.principal_total
