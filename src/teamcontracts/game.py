"""Finite two-player games induced by a contract and an action set.

Both agents are identical and the contract is symmetric, so a single payoff
matrix U describes the game: U[i, j] is the expected utility of an agent
playing action i while the other plays action j.  The module detects
super/submodularity in the productivity order, runs extremal best-response
dynamics, enumerates equilibria, and applies equilibrium-selection rules.

The payoff is bilinear: with S_j = q_j*w11 + (1-q_j)*w10 and
F_j = q_j*w01 + (1-q_j)*w00 the pay after own success and own failure
against opponent action j (success probability q_j),

    U[i, j] = p_i*s_j - c_i + F_j,    s_j = S_j - F_j.

F_j does not depend on i, so the best response to j maximises the line
x -> p_i*x - c_i at x = s_j: a query on the upper envelope of the n lines.
Each game builds that envelope once, in O(n log n), and answers all n
queries with one ``searchsorted``.  A query's answer is used only when a
certificate proves it is the unique maximiser of the column that
``payoff_column`` computes in floating point: its margin over its two
envelope neighbours and over the best line below the envelope must clear
``tau``, a bound on the rounding error of both formulas.  Queries that fail
(near-ties, duplicate actions, equal probabilities) are rescored from the
column with the productivity-rank tie rule, so every best response equals
the dense one bit for bit.  Best responses take O(n) memory; the dense
n x n matrix ``InducedGame.payoff`` is built only for equilibrium
enumeration, profile verification and the game dump.  Modularity is read
off the sign of the payoff's cross-partial, in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BestResponseCycleError, GameSizeError
from .model import ActionSet, Contract

SUPERMODULAR = "SUPERMODULAR"
SUBMODULAR = "SUBMODULAR"
BOTH = "BOTH"

PRINCIPAL_BEST = "PRINCIPAL_BEST"
PESSIMISTIC_PARETO = "PESSIMISTIC_PARETO"

# Best-response verification tolerance for equilibrium candidates.
EQ_TOL = 1e-9

# Default action-count cap for mixed-equilibrium enumeration.
MIXED_CAP = 12

# Best-response certificate threshold per unit of the game's magnitude
# max(wages) + max(costs), which bounds every |p_i*s_j|, |S_j|, |F_j| and c_i.
# With unit roundoff u = 2**-53, an entry of ``payoff_column`` is within
# 8u of its exact value and an envelope line value p_i*s_j - c_i within 10u
# (per unit), so an envelope margin above 36u proves the column's maximiser
# is unique and the same.  128u leaves room for the envelope's own rounding.
_TAU_UNITS = 2.0 ** -46


@dataclass(frozen=True)
class InducedGame:
    """Normal form of the game a contract induces on an action set."""

    contract: Contract
    actions: ActionSet

    @cached_property
    def probs(self) -> np.ndarray:
        return np.array([a.prob for a in self.actions.actions], dtype=float)

    @cached_property
    def costs(self) -> np.ndarray:
        return np.array([a.cost for a in self.actions.actions], dtype=float)

    def payoff_column(self, j: int) -> np.ndarray:
        """Expected utilities of every own action against opponent action j."""
        w = self.contract
        q = self.probs[j]
        pay_success = q * w.w11 + (1.0 - q) * w.w10
        pay_failure = q * w.w01 + (1.0 - q) * w.w00
        return self.probs * pay_success + (1.0 - self.probs) * pay_failure - self.costs

    @cached_property
    def payoff(self) -> np.ndarray:
        """Full payoff matrix U[i, j]; built lazily (O(n^2) memory)."""
        w = self.contract
        q = self.probs
        pay_success = q * w.w11 + (1.0 - q) * w.w10
        pay_failure = q * w.w01 + (1.0 - q) * w.w00
        p = self.probs[:, None]
        return p * pay_success[None, :] + (1.0 - p) * pay_failure[None, :] - self.costs[:, None]

    @cached_property
    def _rank_pos(self) -> np.ndarray:
        """Position of each action in ``ActionSet.ranking`` (0 = largest)."""
        order = np.lexsort((self.costs, -self.probs))  # stable: index breaks ties
        pos = np.empty(len(order), dtype=np.intp)
        pos[order] = np.arange(len(order))
        return pos

    @cached_property
    def _envelope_br(self) -> np.ndarray:
        """Certified best response to every opponent action, -1 where the
        envelope answer must be rescored from the payoff column."""
        w = self.contract
        q = self.probs
        s = (q * w.w11 + (1.0 - q) * w.w10) - (q * w.w01 + (1.0 - q) * w.w00)
        scale = max(w.as_tuple()) + float(self.costs.max())
        return _certified_argmax(self.probs, self.costs, s, _TAU_UNITS * scale)

    def __len__(self) -> int:
        return len(self.actions)

    def to_json(self) -> dict:
        out = self.actions.to_json()
        out["payoff"] = self.payoff.tolist()
        return out


def induce_game(contract: Contract, actions: ActionSet) -> InducedGame:
    """Build the induced game; payoffs follow the bilinear expectation
    U(a_i, a_j) = E[wage | outcomes] - cost(a_i) with independent successes."""
    return InducedGame(contract, actions)


def expected_wage(contract: Contract, p_own: float, p_other: float) -> float:
    """Expected wage to an agent succeeding w.p. p_own against p_other."""
    w = contract
    return (
        p_own * p_other * w.w11
        + p_own * (1.0 - p_other) * w.w10
        + (1.0 - p_own) * p_other * w.w01
        + (1.0 - p_own) * (1.0 - p_other) * w.w00
    )


def check_modularity(game: InducedGame, tol: float = 1e-12) -> str:
    """Increasing/decreasing differences in the productivity order.

    By the bilinear payoff every difference
    U[i2,j2] - U[i1,j2] - U[i2,j1] + U[i1,j1] equals
    kappa*(p_i2 - p_i1)*(q_j2 - q_j1) with kappa = w11 - w10 - w01 + w00,
    so its extremes over ordered pairs are 0 and kappa*(p_max - p_min)^2.
    Returns SUPERMODULAR, SUBMODULAR, or BOTH when that extreme is within
    ``tol`` of zero (e.g. any independent evaluation).
    """
    w11, w10, w01, w00 = game.contract.as_tuple()
    extreme = (w11 - w10 - w01 + w00) * float(game.probs.max() - game.probs.min()) ** 2
    if abs(extreme) <= tol:
        return BOTH
    return SUPERMODULAR if extreme > 0.0 else SUBMODULAR


def _upper_envelope(p: list, c: list, lines: list) -> tuple[list, list, list]:
    """Upper envelope of the lines x -> p[i]*x - c[i] for i in ``lines``,
    which must be sorted by slope, then cost.

    Returns the envelope lines in slope order, the strictly increasing
    breakpoints between consecutive ones, and the lines left below it.
    """
    hull: list = []
    breaks: list = []
    below: list = []
    for i in lines:
        if hull and p[hull[-1]] == p[i]:  # parallel and no cheaper
            below.append(i)
            continue
        while hull:
            k = hull[-1]
            x = (c[i] - c[k]) / (p[i] - p[k])
            if breaks and x <= breaks[-1]:
                below.append(hull.pop())
                breaks.pop()
                continue
            breaks.append(x)
            break
        hull.append(i)
    return hull, breaks, below


def _certified_argmax(probs: np.ndarray, costs: np.ndarray, s: np.ndarray,
                      tau: float) -> np.ndarray:
    """For each query x = s[j], the line p_i*x - c_i that beats every other
    line by more than ``tau``, or -1 when no line provably does.

    Along the envelope the line values at any x rise to the maximiser and
    fall after it, so its two envelope neighbours are the best envelope
    rivals; the best rival below the envelope is a query on the envelope of
    the remaining lines.
    """
    p, c = probs.tolist(), costs.tolist()
    order = np.lexsort((costs, probs)).tolist()
    hull, breaks, below = _upper_envelope(p, c, order)
    hull = np.array(hull, dtype=np.intp)
    at = np.searchsorted(np.array(breaks), s)
    best = probs[hull[at]] * s - costs[hull[at]]
    rival = np.full_like(s, -np.inf)
    for nb in (at - 1, at + 1):
        ok = (nb >= 0) & (nb < len(hull))
        k = hull[np.where(ok, nb, at)]
        rival = np.where(ok, np.maximum(rival, probs[k] * s - costs[k]), rival)
    if below:
        below.sort(key=lambda i: (p[i], c[i]))
        hull2, breaks2, _ = _upper_envelope(p, c, below)
        k = np.array(hull2, dtype=np.intp)[np.searchsorted(np.array(breaks2), s)]
        rival = np.maximum(rival, probs[k] * s - costs[k])
    # NaN margins (overflowed inputs) fail the comparison and are rescored.
    return np.where(best - rival > tau, hull[at], -1)


def _rescored_best_response(game: InducedGame, j: int, largest: bool) -> int:
    """Best response to j from the payoff column; ties go to the largest
    (or smallest) tied action in the productivity order."""
    col = game.payoff_column(j)
    ties = np.flatnonzero(col == col.max())
    pos = game._rank_pos[ties]
    return int(ties[np.argmin(pos) if largest else np.argmax(pos)])


def max_best_response(game: InducedGame, j: int) -> int:
    """Largest best response (productivity order) to opponent action j."""
    i = int(game._envelope_br[j])
    return i if i >= 0 else _rescored_best_response(game, j, largest=True)


def min_best_response(game: InducedGame, j: int) -> int:
    """Smallest best response (productivity order) to opponent action j."""
    i = int(game._envelope_br[j])
    return i if i >= 0 else _rescored_best_response(game, j, largest=False)


def extremal_br_path(game: InducedGame, start: str = "MAX") -> tuple[int, list[int]]:
    """Iterate the extremal best-response map from the extremal action.

    From MAX, repeatedly apply the maximal best response starting at the
    largest action; from MIN, the minimal best response from the smallest.
    In a supermodular game the path is monotone and its limit is the
    maximal (resp. minimal) equilibrium action.  Raises
    BestResponseCycleError when a cycle is detected, which can only happen
    outside the supermodular class.
    """
    if start not in ("MAX", "MIN"):
        raise ValueError(f"start must be MAX or MIN, got {start!r}")
    certified = game._envelope_br.tolist()
    br = max_best_response if start == "MAX" else min_best_response
    rank_pos = game._rank_pos
    cur = int(np.argmin(rank_pos) if start == "MAX" else np.argmax(rank_pos))
    path = [cur]
    seen = {cur}
    for _ in range(len(game) + 1):
        nxt = certified[cur]
        if nxt < 0:
            nxt = br(game, cur)
        if nxt == cur:
            return cur, path
        if nxt in seen:
            raise BestResponseCycleError(path + [nxt])
        path.append(nxt)
        seen.add(nxt)
        cur = nxt
    raise BestResponseCycleError(path)  # unreachable: finite action set


def paired_br_limit(game: InducedGame) -> tuple[int, int]:
    """Limit of (a, b) -> (maxBR(b), minBR(a)) from (largest, smallest).

    For a submodular game both orderings of the limit pair are Nash
    equilibria and bracket every other equilibrium action.
    """
    certified = game._envelope_br.tolist()
    rank_pos = game._rank_pos
    a, b = int(np.argmin(rank_pos)), int(np.argmax(rank_pos))
    seen = {(a, b)}
    for _ in range((len(game) + 1) ** 2):
        nxt = (certified[b] if certified[b] >= 0 else max_best_response(game, b),
               certified[a] if certified[a] >= 0 else min_best_response(game, a))
        if nxt == (a, b):
            return a, b
        if nxt in seen:
            raise BestResponseCycleError([(a, b), nxt])
        seen.add(nxt)
        a, b = nxt
    raise BestResponseCycleError([(a, b)])


@dataclass(frozen=True)
class Profile:
    """A strategy profile; pure profiles carry their action-index pair."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    indices: tuple[int, int] | None = None

    @property
    def is_pure(self) -> bool:
        return self.indices is not None

    @classmethod
    def pure(cls, i: int, j: int, n: int) -> "Profile":
        x = [0.0] * n
        y = [0.0] * n
        x[i] = 1.0
        y[j] = 1.0
        return cls(tuple(x), tuple(y), (i, j))


def agent_payoffs(game: InducedGame, profile: Profile) -> tuple[float, float]:
    u = game.payoff
    if profile.is_pure:
        i, j = profile.indices
        return float(u[i, j]), float(u[j, i])
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    return float(x @ u @ y), float(y @ u @ x)


def principal_value(game: InducedGame, profile: Profile) -> float:
    """Expected output minus total wage bill under the profile.

    Wages are bilinear in the two success indicators, so mixed profiles
    reduce to the mean success probabilities.
    """
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    px = float(x @ game.probs)
    py = float(y @ game.probs)
    w = game.contract
    return px + py - expected_wage(w, px, py) - expected_wage(w, py, px)


def verify_profile(game: InducedGame, profile: Profile, tol: float = EQ_TOL) -> bool:
    """Independent check: no pure deviation gains more than tol."""
    u = game.payoff
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    ex1 = u @ y
    ex2 = u @ x
    return bool(x @ ex1 >= ex1.max() - tol and y @ ex2 >= ex2.max() - tol)


def enumerate_equilibria(
    game: InducedGame,
    mixed: bool = False,
    cap: int = MIXED_CAP,
    tol: float = EQ_TOL,
) -> list[Profile]:
    """All pure Nash profiles, plus strictly-mixed 2x2-support equilibria.

    Pure profiles come from one mask of best responses.  With
    ``mixed=True`` (allowed up to ``cap`` actions) every support pair of size
    two per player is solved in closed form for the indifference mixture;
    candidates must mix strictly inside (0, 1) and survive the full
    unilateral-deviation check.  One-sided mixtures, which exist only on
    knife-edge payoff ties, are not enumerated.
    """
    n = len(game)
    if mixed and n > cap:
        raise GameSizeError(f"mixed enumeration capped at {cap} actions, got {n}")
    u = game.payoff
    ok = u >= u.max(axis=0) - tol  # ok[i, j]: i is a best response to j
    out = [Profile.pure(int(i), int(j), n) for i, j in np.argwhere(ok & ok.T)]
    if not mixed:
        return out

    interior = 1e-9
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(n):
                for j2 in range(j1 + 1, n):
                    # Opponent weight q on j1 making row player indifferent
                    # between i1 and i2; weight r on i1 symmetric for columns.
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
                    if verify_profile(game, prof, tol):
                        out.append(prof)
    return out


@dataclass(frozen=True)
class EquilibriumReport:
    equilibria: list[Profile]
    selection: str
    selected: Profile
    principal_per_agent: float
    principal_total: float
    agent_payoffs: tuple[float, float] = field(default=(0.0, 0.0))


def select_and_value(
    game: InducedGame, equilibria: list[Profile], rule: str
) -> EquilibriumReport:
    """Apply an equilibrium-selection rule and value it for the principal.

    PRINCIPAL_BEST picks the equilibrium maximizing the principal's total.
    PESSIMISTIC_PARETO keeps the weakly Pareto-efficient equilibria (those no
    other equilibrium improves strictly for both agents) and then minimizes
    the principal's total.
    """
    if not equilibria:
        raise ValueError("equilibrium list is empty")
    if rule not in (PRINCIPAL_BEST, PESSIMISTIC_PARETO):
        raise ValueError(f"unknown selection rule {rule!r}")

    values = [principal_value(game, e) for e in equilibria]
    payoffs = [agent_payoffs(game, e) for e in equilibria]

    if rule == PRINCIPAL_BEST:
        best = max(range(len(equilibria)), key=lambda k: values[k])
        chosen = best
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

    total = values[chosen]
    return EquilibriumReport(
        equilibria=list(equilibria),
        selection=rule,
        selected=equilibria[chosen],
        principal_per_agent=total / 2.0,
        principal_total=total,
        agent_payoffs=payoffs[chosen],
    )
