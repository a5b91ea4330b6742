"""The dense n x n payoff matrix and the game-layer code that read it.

``teamcontracts.game`` evaluates the bilinear payoff cell by cell and
builds no matrix; these are the matrix versions it replaced, kept as the
oracles it is checked against, with the all-pairs Pareto test that
``select_and_value`` replaced by an ordered scan.  Import them from a test
module in this directory.
"""

import numpy as np

from teamcontracts import EquilibriumReport, GameSizeError, Profile, principal_value
from teamcontracts.game import EQ_TOL, MIXED_CAP, PRINCIPAL_BEST, agent_payoffs


def dense_payoff(game):
    """Full payoff matrix U[i, j] (O(n^2) memory)."""
    w, q = game.contract, game.actions.probs
    pay_success = q * w.w11 + (1.0 - q) * w.w10
    pay_failure = q * w.w01 + (1.0 - q) * w.w00
    p, c = game.actions.probs[:, None], game.actions.costs[:, None]
    return p * pay_success[None, :] + (1.0 - p) * pay_failure[None, :] - c


def dense_agent_payoffs(game, profile):
    u = dense_payoff(game)
    if profile.is_pure:
        i, j = profile.indices
        return float(u[i, j]), float(u[j, i])
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    return float(x @ u @ y), float(y @ u @ x)


def dense_verify_profile(game, profile, tol=EQ_TOL):
    u = dense_payoff(game)
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    ex1 = u @ y
    ex2 = u @ x
    return bool(x @ ex1 >= ex1.max() - tol and y @ ex2 >= ex2.max() - tol)


def dense_enumerate_equilibria(game, mixed=False, tol=EQ_TOL):
    """Pure profiles from the matrix's best-response mask, then every pair
    of 2-supports in four nested loops, each checked on the matrix."""
    n = len(game)
    if mixed and n > MIXED_CAP:
        raise GameSizeError(f"mixed enumeration capped at {MIXED_CAP} actions, got {n}")
    u = dense_payoff(game)
    ok = u >= u.max(axis=0) - tol  # ok[i, j]: i is a best response to j
    out = [Profile.pure(int(i), int(j), n) for i, j in np.argwhere(ok & ok.T)]
    if not mixed:
        return out

    interior = 1e-9
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(n):
                for j2 in range(j1 + 1, n):
                    a1 = u[i1, j1] - u[i2, j1]
                    b1 = u[i2, j2] - u[i1, j2]
                    a2 = u[j1, i1] - u[j2, i1]
                    b2 = u[j2, i2] - u[j1, i2]
                    if abs(a1 + b1) < 1e-12 or abs(a2 + b2) < 1e-12:
                        continue
                    q = b1 / (a1 + b1)
                    r = b2 / (a2 + b2)
                    if not (interior < q < 1.0 - interior and interior < r < 1.0 - interior):
                        continue
                    x = [0.0] * n
                    y = [0.0] * n
                    x[i1], x[i2] = r, 1.0 - r
                    y[j1], y[j2] = q, 1.0 - q
                    prof = Profile(tuple(x), tuple(y))
                    if dense_verify_profile(game, prof, tol):
                        out.append(prof)
    return out


def dense_select(game, equilibria, rule):
    """``select_and_value`` as first written: PESSIMISTIC_PARETO compares
    every pair of equilibria to keep the weakly Pareto-efficient ones, then
    minimizes the principal's total.  Ties go to the first listed."""
    values = [principal_value(game, e) for e in equilibria]
    payoffs = [agent_payoffs(game, e) for e in equilibria]
    if rule == PRINCIPAL_BEST:
        chosen = max(range(len(equilibria)), key=lambda k: values[k])
    else:
        efficient = [
            k
            for k in range(len(equilibria))
            if not any(
                payoffs[m][0] > payoffs[k][0] and payoffs[m][1] > payoffs[k][1]
                for m in range(len(equilibria))
            )
        ]
        chosen = min(efficient, key=lambda k: values[k])
    return EquilibriumReport(equilibria[chosen], values[chosen], payoffs[chosen])
