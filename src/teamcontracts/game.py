"""Finite two-player games induced by a contract and an action set.

Both agents are identical and the contract is symmetric, so a single payoff
U describes the game: U[i, j] is the expected utility of an agent playing
action i while the other plays action j, from the action set's ``probs``
and ``costs`` arrays, read with no copy.  The module detects
super/submodularity in the productivity order, runs extremal best-response
dynamics, enumerates equilibria, and applies equilibrium-selection rules.

The payoff is bilinear: with S_j = q_j*w11 + (1-q_j)*w10 and
F_j = q_j*w01 + (1-q_j)*w00 the pay after own success and own failure
against opponent action j (success probability q_j),

    U[i, j] = p_i*S_j + (1-p_i)*F_j - c_i = p_i*s_j - c_i + F_j,    s_j = S_j - F_j.

No n x n matrix is built: cells, rows and columns evaluate the first form
over broadcast indices, and U @ y against a mixture y needs only y.S and
y.F, so profile verification and agent payoffs are O(n).

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
the dense one bit for bit.  Modularity is read off the sign of the
cross-partial, in O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

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

# Action-count cap for mixed-equilibrium enumeration.
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
    def _pay(self) -> tuple[np.ndarray, np.ndarray]:
        """Pay (S, F) after own success and own failure against each action."""
        w, q = self.contract, self.actions.probs
        return q * w.w11 + (1.0 - q) * w.w10, q * w.w01 + (1.0 - q) * w.w00

    def _cells(self, i, j) -> np.ndarray:
        """U[i, j] = p_i*S_j + (1-p_i)*F_j - c_i over broadcast indices."""
        pay_success, pay_failure = self._pay
        p = self.actions.probs[i]
        return p * pay_success[j] + (1.0 - p) * pay_failure[j] - self.actions.costs[i]

    def _against(self, y: np.ndarray) -> np.ndarray:
        """Expected utility of every own action against the mixture ``y``:
        U @ y, in O(n) from y.S and y.F."""
        pay_success, pay_failure = self._pay
        p = self.actions.probs
        return p * (y @ pay_success) + (1.0 - p) * (y @ pay_failure) - self.actions.costs

    def payoff_column(self, j: int) -> np.ndarray:
        """Expected utilities of every own action against opponent action j."""
        return self._cells(slice(None), j)

    def payoff_row(self, i: int) -> np.ndarray:
        """Expected utilities of own action i against every opponent action."""
        return self._cells(i, slice(None))

    @cached_property
    def _rank_pos(self) -> np.ndarray:
        """Position of each action in ``ActionSet.ranking`` (0 = largest): the
        inverse permutation."""
        return np.argsort(self.actions.ranking())

    @cached_property
    def _envelope_br(self) -> list:
        """Certified best response to every opponent action, -1 where the
        envelope answer must be rescored from the payoff column."""
        pay_success, pay_failure = self._pay
        p, c = self.actions.probs, self.actions.costs
        scale = max(self.contract.as_tuple()) + float(c.max())
        return _certified_argmax(p, c, pay_success - pay_failure, _TAU_UNITS * scale).tolist()

    def __len__(self) -> int:
        return len(self.actions)


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


def check_modularity(game: InducedGame) -> str:
    """Increasing/decreasing differences in the productivity order.

    By the bilinear payoff every difference
    U[i2,j2] - U[i1,j2] - U[i2,j1] + U[i1,j1] equals
    kappa*(p_i2 - p_i1)*(q_j2 - q_j1) with kappa = w11 - w10 - w01 + w00,
    so its extremes over ordered pairs are 0 and kappa*(p_max - p_min)^2.
    Returns SUPERMODULAR, SUBMODULAR, or BOTH when that extreme is within
    1e-12 of zero (e.g. any independent evaluation).
    """
    w11, w10, w01, w00 = game.contract.as_tuple()
    p = game.actions.probs
    extreme = (w11 - w10 - w01 + w00) * float(p.max() - p.min()) ** 2
    if abs(extreme) <= 1e-12:
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


def _best_response(game: InducedGame, j: int, largest: bool) -> int:
    """The certified envelope answer to j, or else the best response from
    the payoff column, ties to the largest (or smallest) tied action in the
    productivity order."""
    i = game._envelope_br[j]
    if i >= 0:
        return i
    col = game.payoff_column(j)
    ties = np.flatnonzero(col == col.max())
    pos = game._rank_pos[ties]
    return int(ties[np.argmin(pos) if largest else np.argmax(pos)])


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
    largest = start == "MAX"
    rank_pos = game._rank_pos
    cur = int(np.argmin(rank_pos) if largest else np.argmax(rank_pos))
    path = [cur]
    seen = {cur}
    for _ in range(len(game) + 1):
        nxt = _best_response(game, cur, largest)
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
    rank_pos = game._rank_pos
    a, b = int(np.argmin(rank_pos)), int(np.argmax(rank_pos))
    seen = {(a, b)}
    for _ in range((len(game) + 1) ** 2):
        nxt = _best_response(game, b, True), _best_response(game, a, False)
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
    if profile.is_pure:
        i, j = profile.indices
        return tuple(game._cells([i, j], [j, i]).tolist())
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    return float(x @ game._against(y)), float(y @ game._against(x))


def principal_value(game: InducedGame, profile: Profile) -> float:
    """Expected output minus total wage bill under the profile.

    Wages are bilinear in the two success indicators, so mixed profiles
    reduce to the mean success probabilities.
    """
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    px = float(x @ game.actions.probs)
    py = float(y @ game.actions.probs)
    w = game.contract
    return px + py - expected_wage(w, px, py) - expected_wage(w, py, px)


def verify_profile(game: InducedGame, profile: Profile) -> bool:
    """Independent check: no pure deviation gains more than EQ_TOL."""
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    ex1, ex2 = game._against(y), game._against(x)
    return bool(x @ ex1 >= ex1.max() - EQ_TOL and y @ ex2 >= ex2.max() - EQ_TOL)


def enumerate_equilibria(game: InducedGame, mixed: bool = False) -> list[Profile]:
    """All pure Nash profiles, plus strictly-mixed 2x2-support equilibria.

    Pure profiles come, in row-major order, from each column's EQ_TOL
    best-response set, built one column at a time, and share one one-hot
    mixture tuple per action that appears.  With ``mixed=True``
    (allowed up to MIXED_CAP actions) every support pair of size two per
    player is solved in closed form for the indifference mixture;
    candidates must mix strictly inside (0, 1) and survive the full
    unilateral-deviation check.  One-sided mixtures, which exist only on
    knife-edge payoff ties, are not enumerated.
    """
    n = len(game)
    if mixed and n > MIXED_CAP:
        raise GameSizeError(f"mixed enumeration capped at {MIXED_CAP} actions, got {n}")
    # best[j]: the actions within EQ_TOL of the best response to j
    best = [(col >= col.max() - EQ_TOL).nonzero()[0].tolist()
            for col in map(game.payoff_column, range(n))]
    is_best = [set(b) for b in best]
    one_hot = cache(lambda i: (0.0,) * i + (1.0,) + (0.0,) * (n - 1 - i))
    out = [Profile(one_hot(i), one_hot(j), (i, j))
           for i in range(n) for j in best[i] if i in is_best[j]]
    if not mixed:
        return out

    # Opponent weight q on j1 that makes the row player indifferent between
    # i1 and i2, for every (row pair, column pair) at once; the game is
    # symmetric, so the column player's coefficients for the weight r on i1
    # are the transposes.  Pairs run in the upper triangle's row-major
    # order, so candidates come out ordered by (i1, i2, j1, j2).
    lo, hi = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    i1, i2, j1, j2 = lo[:, None], hi[:, None], lo[None, :], hi[None, :]
    a = game._cells(i1, j1) - game._cells(i2, j1)
    b = game._cells(i2, j2) - game._cells(i1, j2)
    d = a + b
    ok = ~(abs(d) < 1e-12)
    rows, cols = np.nonzero(ok & ok.T)
    q = b[rows, cols] / d[rows, cols]
    r = b[cols, rows] / d[cols, rows]
    interior = 1e-9
    keep = (interior < q) & (q < 1.0 - interior) & (interior < r) & (r < 1.0 - interior)
    for k in np.flatnonzero(keep):
        x, y = [0.0] * n, [0.0] * n
        x[lo[rows[k]]], x[hi[rows[k]]] = r[k], 1.0 - r[k]
        y[lo[cols[k]]], y[hi[cols[k]]] = q[k], 1.0 - q[k]
        prof = Profile(tuple(x), tuple(y))
        if verify_profile(game, prof):
            out.append(prof)
    return out


@dataclass(frozen=True)
class EquilibriumReport:
    """The selected equilibrium, the principal's total, the agents' payoffs."""

    selected: Profile
    principal_total: float
    agent_payoffs: tuple[float, float]


def select_and_value(
    game: InducedGame, equilibria: list[Profile], rule: str
) -> EquilibriumReport:
    """Select one of ``equilibria`` by ``rule`` and value it for the principal.

    PRINCIPAL_BEST picks the equilibrium maximizing the principal's total.
    PESSIMISTIC_PARETO scans the equilibria in increasing principal total
    and stops at the first weakly Pareto-efficient one, which no other
    equilibrium improves strictly for both agents.  Ties go to the first listed.
    """
    if not equilibria:
        raise ValueError("equilibrium list is empty")
    if rule not in (PRINCIPAL_BEST, PESSIMISTIC_PARETO):
        raise ValueError(f"unknown selection rule {rule!r}")

    values = [principal_value(game, e) for e in equilibria]
    if rule == PRINCIPAL_BEST:
        chosen = max(range(len(equilibria)), key=lambda k: values[k])
    else:
        u = np.array([agent_payoffs(game, e) for e in equilibria])
        chosen = next(k for k in sorted(range(len(values)), key=lambda k: values[k])
                      if not (u > u[k]).all(axis=1).any())
    return EquilibriumReport(equilibria[chosen], values[chosen],
                             agent_payoffs(game, equilibria[chosen]))
