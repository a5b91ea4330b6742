"""Analytic worst-case payoffs and constructive adversary action sets.

An agent's incentive depends on a contract only through its marginal wage
s(p) = (1 - p)*s0 + p*s1, what one more unit of own success probability pays
when the other agent succeeds w.p. p, with Bernstein coefficients (s0, s1) =
(w10 - w00, w11 - w01) (Farouki, CAGD 2012).  ``marginal_wage`` reads them off
a reduced contract; their signs pick the closed form, and every other
contract is refused:

    s1 > s0 >= 0   joint evaluation           undercut chain
    s1 = s0 >= 0   independent evaluation     single undercut
    s0 > s1 >= 0   relative evaluation        fixed point, undercut above it
    s0 < 0 < s1    w11/w00 (w10 = w01 = 0)    no witness

The worst-case success probability solves the undercut dynamics
dp/dt = -1/s(p), p(0) = p(a0), where t is cost reduction relative to the
targeted known action a0.  For s0 >= 0 the implicit integral
s0*p + (s1 - s0)*p^2/2 is monotone in p, so the endpoint is a quadratic root,
never integrated numerically here (quadrature is a test oracle).  Adversaries
realizing the bound are finite chains of progressively cheaper, less
productive actions, each a best response to its predecessor.

The endpoint is written once, as the array kernel ``_endpoint``; its joint
branch and the relative-evaluation fixed point are ``_stable_root``'s roots.
``_best_solution`` makes one kernel call over its targets, and it alone moves
a negative s0 to the root of s; ``pbar_grid`` makes one per known target.
``_value`` alone reads the table, each row returning its value and witness
builder; ``worst_case_value`` keeps the value, ``worst_case`` builds the witness.
Only ``check_witness`` builds a game, and it imports ``game`` when it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractPatternError, ConvergenceError
from .model import (MAX_WITNESS_CHAIN, ActionSet, ActionSpec, Contract, check_known_assumptions,
                    classify)

FULL_SUCCESS = "FULL_SUCCESS"
SHIRK_EQ = "SHIRK_EQ"

DEFAULT_WITNESS_EPS = 1e-4

JOINT = "joint"  # the one row a caller may need


def marginal_wage(contract: Contract, need: str | None = None) -> tuple[float, float]:
    """(s0, s1) = (w10 - w00, w11 - w01) of a contract in the table above,
    or in its joint row with zero failure wages (``need`` JOINT); any other
    contract raises ContractPatternError."""
    w11, w10, w01, w00 = contract.as_tuple()
    s0, s1 = w10 - w00, w11 - w01
    if need == JOINT:
        if w01 != 0.0 or w00 != 0.0:
            raise ContractPatternError("failure wages must be zero (w01 = w00 = 0)")
        if not s1 > s0:
            raise ContractPatternError(f"joint evaluation requires w11 > w10, got ({w11}, {w10})")
    elif w01 != 0.0 or w00 != 0.0 and not (w10 == 0.0 and w11 > 0.0):
        raise ContractPatternError(
            "worst-case evaluation is not defined for this wage pattern even after "
            f"reduction (class {classify(contract).tag}); "
            "supported: zero failure wages, or w11/w00 with w10=w01=0")
    return s0, s1


@dataclass(frozen=True)
class OdeSolution:
    """Endpoint of the undercut dynamics under the marginal wage (s0, s1)
    for one targeted known action.  ``t_zero`` is the cost budget at which
    the success probability would reach zero; ``t_hat`` = min(cost(a0),
    t_zero) is the budget actually usable, and ``p_end`` the probability
    reached there."""

    a0: ActionSpec
    s0: float
    s1: float
    t_hat: float
    p_end: float
    t_zero: float


@dataclass(frozen=True)
class Witness:
    """Adversarial action set whose value tends to a worst case as eps -> 0."""

    actions: ActionSet
    eps: float


@dataclass(frozen=True)
class WorstCaseResult:
    pbar: float
    per_agent: float
    total: float
    binding: str
    witness: Witness | None = None


def _stable_root(a, b, r):
    """Root ``2r/(b + sqrt(b*b + 4*a*r))`` of ``a*p^2 + b*p = r`` for b >= 0:
    the quadratic formula without cancellation (Goldberg, "What every
    computer scientist should know about floating-point arithmetic", 1991).
    The square is a product, so scalar and array calls round alike; a
    discriminant that is not finite gives NaN, not a silent 0."""
    disc = b * b + 4.0 * a * r
    root = np.asarray(2.0 * r / (b + np.sqrt(np.maximum(disc, 0.0))))
    root[~(disc < np.inf)] = np.nan  # in place: the wage grids are large
    return root


def _endpoint(s0, s1, p0, c0):
    """Endpoint ``(t_hat, p_end, t_zero)`` of the undercut dynamics started
    at (cost c0, probability p0), elementwise over the broadcast inputs,
    for marginal wages with coefficients s1 >= s0 >= 0.

    Joint cells (s1 > s0) reach zero at t_zero = s0*p0 + (s1-s0)*p0^2/2
    and before that end at the root p_end of

        (s1-s0)/2 * p^2 + s0 * p = t_zero - c0.

    Every other cell has constant slope s0: t_zero = s0*p0 and
    p_end = max(0, p0 - c0/s0), or, at s0 = 0, p0 for a free target and
    0 for a costly one.  t_hat = min(c0, t_zero) is the budget used.
    p_end is kept in [0, p0], which rounding can leave only where the
    squares underflow (wages below about 1e-154).

    Raises OverflowError when an output, or a discriminant it rests on, is not finite.
    """
    s0, s1, p0, c0 = (np.asarray(x, dtype=float) for x in (s0, s1, p0, c0))
    joint = s1 > s0
    paid = s0 > 0.0
    with np.errstate(all="ignore"):
        # Nothing is kept that the root does not need (not even s1 - s0):
        # the grid scans call this on blocks of optimize._BLOCK_CELLS cells,
        # sized to keep every temporary under glibc's trim and mmap
        # thresholds, and each kept array is one more temporary alive.
        t_zero = np.where(joint, s0 * p0 + (s1 - s0) * p0 * p0 / 2.0,
                          np.where(paid, s0 * p0, 0.0))
        spent = c0 >= t_zero
        root = np.where(joint, _stable_root((s1 - s0) / 2.0, s0, t_zero - c0),
                        p0 - c0 / s0)
    # Python's max(0.0, root), but keeping NaN for the check below
    p_end = np.where((root <= 0.0) | (joint & spent), 0.0, root)
    p_end = np.where(joint | paid, p_end, np.where(c0 == 0.0, p0, 0.0))
    np.minimum(p_end, p0, out=p_end)
    t_hat = np.where(np.where(joint, spent, t_zero < c0), t_zero, c0)
    # t_hat is t_zero or the finite cost c0
    if not (np.isfinite(p_end).all() and np.isfinite(t_zero).all()):
        raise OverflowError("undercut endpoint is not finite")
    return t_hat, p_end, t_zero


def _best_solution(s0: float, s1: float, probs, costs, targets) -> OdeSolution:
    """Endpoint of the target ``targets[k]`` at (probs[k], costs[k]) ending
    highest (the first on ties), from one kernel call; needs s1 >= s0.

    A negative s0 (w11/w00) gives s(p) = (s1 - s0)*(p - p_sing), the marginal
    wage (0, s1 - s0) in q = p - p_sing, where the kernel runs from q0 =
    p(a0) - p_sing.  Below p_sing lower success is strictly preferred, so
    undercutting costs nothing: q_end <= 0 (a target at or below p_sing, or a
    budget that reaches it) ends the success probability at zero.
    """
    if not s1 >= s0:
        raise ContractPatternError(f"need s1 >= s0, got (s0, s1) = ({s0}, {s1})")
    if s0 < 0.0:
        p_sing = -s0 / (s1 - s0)
        sol = _best_solution(0.0, s1 - s0, np.asarray(probs) - p_sing, costs, targets)
        return replace(sol, s0=s0, s1=s1, p_end=p_sing + sol.p_end if sol.p_end > 0.0 else 0.0)
    t_hat, p_end, t_zero = _endpoint(s0, s1, probs, costs)
    k = int(np.argmax(p_end))
    return OdeSolution(targets[k], s0, s1, float(t_hat[k]), float(p_end[k]), float(t_zero[k]))


def best_known_solution(s0: float, s1: float, a0_set: ActionSet) -> OdeSolution:
    """Closed-form endpoint of the undercut dynamics under the marginal wage
    (s0, s1) for the known target ending highest (the first such target on
    ties); see ``_best_solution``.  A single target is a one-action set."""
    known = a0_set.known
    if not known:
        raise ValueError("action set has no known prefix to target")
    return _best_solution(s0, s1, known.probs, known.costs, known)


def shirk_branch(pbar, w11, w10):
    """Per-agent principal payoff when both agents succeed w.p. pbar."""
    return pbar * (pbar * (1.0 - w11) + (1.0 - pbar) * (1.0 - w10))


def _min_branch(pbar: float, full: float, shirk: float) -> WorstCaseResult:
    """Result min{full, shirk} with the branch that binds."""
    per_agent = min(full, shirk)
    binding = FULL_SUCCESS if full < shirk else SHIRK_EQ
    return WorstCaseResult(pbar, per_agent, 2.0 * per_agent, binding)


def _value(s0: float, s1: float, a0_set: ActionSet):
    """Worst case of the marginal wage (s0, s1) in its row of the table above,
    and that row's witness builder: None, or a function of eps to a ``Witness``.

    Per agent the value is min{1 - w11, shirking branch} with pbar the best
    closed-form endpoint over targeted known actions.  The first branch binds
    when the adversary prefers a free full-success action (always so once
    w10 >= 1); the second is the compounding-shirking limit, where w11/w00
    also pays joint failures: s(p) = p*w11 - (1-p)*w00 has a root p_sing =
    w00/(w11 + w00), and a budget that reaches it collapses pbar to zero
    (``_best_solution``).

    A relative evaluation's limiting adversary action solves the fixed point
    p* = min{1, max over a0 (and the free null action) of p(a0) -
    c(a0)/s(p*)}.  Each action's map falls in p*, so p* is the largest
    per-action fixed point.  Divided by s0 > 0, that of a0 is the root of
    a*p^2 + b*p = r with a = s1/s0 - 1, b = 1 - a*p(a0) and r = p(a0) -
    c(a0)/s0, which is positive exactly when r is; other actions lose to the
    null action.

    Witnesses: the free undercut above p* and the null action (relative); the
    free sure action at eps 0 (FULL_SUCCESS); one undercut (independent); the
    checked t_hat/eps-step chain (joint); none for w11/w00, a spent budget or a
    zero wage.  Their value tends to the worst case as eps -> 0, like eps on the
    running example, like sqrt(eps) at a w10 = 0 collapse (``euler_error_bound`` inf).
    """
    if s1 < s0:
        known = a0_set.known
        if not known:
            raise ValueError("action set has no known prefix")
        surplus = known.probs - known.costs / s0
        keep = surplus > 0.0
        a = s1 / s0 - 1.0
        roots = _stable_root(a, 1.0 - a * known.probs[keep], surplus[keep])
        p_star = min(1.0, float(roots.max(initial=0.0)))
        per_agent = shirk_branch(p_star, s1, s0)
        res = WorstCaseResult(p_star, per_agent, 2.0 * per_agent, SHIRK_EQ)
        return res, lambda eps: Witness(
            a0_set.extend([ActionSpec(0.0, min(1.0, p_star + eps)), ActionSpec(0.0, 0.0)]), eps)
    best = best_known_solution(s0, s1, a0_set)
    pbar = best.p_end
    if s0 < 0.0:  # w11/w00: s0 = -w00 and s1 = w11
        shirk = pbar * pbar * (1.0 - s1) + (1.0 - pbar) ** 2 * s0
    elif s1 == s0:  # shirk_branch(pbar, s1, s1) in fewer roundings, which the output bits rest on
        shirk = pbar * (1.0 - s1)
    else:
        shirk = shirk_branch(pbar, s1, s0)
    res = _min_branch(pbar, 1.0 - s1, shirk)
    if s0 < 0.0:
        return res, None
    if res.binding == FULL_SUCCESS:
        return res, lambda eps: Witness(a0_set.extend([ActionSpec(0.0, 1.0)]), 0.0)
    if s1 == s0:
        return res, None if s1 == 0.0 else lambda eps: Witness(
            ipe_adversary(s1, a0_set, eps).actions, eps)

    def chain(eps):
        n = max(2, math.ceil(min(best.t_hat / eps, MAX_WITNESS_CHAIN)))
        actions = a0_set.extend(euler_adversary(best, n).actions[1:])
        check_witness(Contract(s1, s0, 0.0, 0.0), actions)  # the reduced contract in this row
        return Witness(actions, eps)
    return res, chain if best.t_hat > 0.0 else None


def worst_case_value(contract: Contract, a0_set: ActionSet) -> WorstCaseResult:
    """Worst case of an already-reduced contract in the table above, with
    no witness; other patterns raise ContractPatternError."""
    return _value(*marginal_wage(contract), a0_set)[0]


@dataclass(frozen=True)
class IpeOptimum:
    w_star: float
    a0_star: ActionSpec
    per_agent: float
    total: float


def ipe_optimal(a0_set: ActionSet) -> IpeOptimum:
    """Best independent evaluation: max over w in [0,1] and known a0 of
    (p - c/w)*(1 - w).  The per-action optimum is interior at w = sqrt(c/p)
    whenever c < p, with value (sqrt(p) - sqrt(c))^2."""
    check_known_assumptions(a0_set)
    known = a0_set.known
    p, c = known.probs, known.costs
    root_gap = np.sqrt(p) - np.sqrt(c)
    # Squaring doubles is strictly monotone, so the product picks the first
    # action Python's ** (libm pow), whose bits the value keeps, would pick.
    k = int(np.argmax(np.where(c < p, root_gap * root_gap, 0.0)))
    a = known[k]
    w, val = 1.0, 0.0
    if a.cost < a.prob:
        w, val = math.sqrt(a.cost / a.prob), float(root_gap[k]) ** 2
    return IpeOptimum(w, a, val, 2.0 * val)


@dataclass(frozen=True)
class EulerAdversary:
    """An undercut chain and its construction record (``check_witness`` checks it)."""

    actions: ActionSet
    step: float
    rho: float
    t_hat: float
    clamped: bool


def _joint_chain(best: OdeSolution, n: int) -> tuple[float, float]:
    """(s0, s1) of the joint-evaluation endpoint an n >= 1 step chain extends."""
    if n < 1:
        raise ValueError("chain length n must be >= 1")
    if not best.s1 > best.s0 >= 0.0:
        raise ContractPatternError(
            f"joint evaluation requires w11 > w10, got ({best.s1}, {best.s0})")
    return best.s0, best.s1


def euler_adversary(best: OdeSolution, n: int, rho: float | None = None) -> EulerAdversary:
    """Chain of n undercutting actions from the target ``best.a0`` of the
    joint-evaluation endpoint ``best``, spending its budget ``best.t_hat``.

    Costs sit on the grid (n-k)*t_hat/n and probabilities follow the forward
    step of the undercut dynamics under the marginal wage (s0, s1),

        p_k = p_{k-1} - eps/(p_{k-1}*s1 + (1-p_{k-1})*s0) + rho,

    with eps = t_hat/n and rounding margin rho = t_hat/(n^2*(s1+1)) by
    default (pass ``rho`` to override, e.g. a tiny value to sit at the
    binding best-response limits).  Probabilities are clamped to [0, 1] with
    the ``clamped`` flag raised, since clamped steps leave the recursion.
    The chain is built, not checked: ``check_witness`` under the contract
    (s1, s0, 0, 0) decides whether its last action is the maximal equilibrium.
    """
    s0, s1 = _joint_chain(best, n)
    a0, t_hat = best.a0, best.t_hat
    if t_hat <= 0.0:
        return EulerAdversary(ActionSet([a0.cost], [a0.prob]), 0.0, 0.0, 0.0, False)

    eps = t_hat / n
    rho_n = t_hat / (n * n * (s1 + 1.0)) if rho is None else float(rho)

    probs = [a0.prob]
    clamped = False
    q = a0.prob
    for _ in range(n):
        if q <= 0.0:
            nxt = 0.0
        else:
            denom = q * s1 + (1.0 - q) * s0
            nxt = q - eps / denom + rho_n
        if nxt < 0.0 or nxt > 1.0:
            clamped = True
            nxt = min(1.0, max(0.0, nxt))
        probs.append(nxt)
        q = nxt

    # (n - k)*t_hat/n with that Python expression's bits: n - k is exact
    costs = np.arange(n, -1, -1, dtype=float) * t_hat / n
    costs[0] = a0.cost
    return EulerAdversary(ActionSet(costs, probs, 1), eps, rho_n, t_hat, clamped)


def check_witness(contract: Contract, actions: ActionSet) -> None:
    """Raise ConvergenceError unless the last action of ``actions`` is the
    maximal equilibrium of the game ``contract`` induces on them: the limit of
    maximal best responses from the top action, in a supermodular game
    (Milgrom & Roberts, Econometrica 1990)."""
    from .game import extremal_br_path, induce_game

    limit, last = extremal_br_path(induce_game(contract, actions), "MAX")[0], len(actions) - 1
    if limit != last:
        raise ConvergenceError(f"witness failed verification: the maximal best-response path "
                               f"stops at action {limit}, not at the last action {last}")


def euler_error_bound(best: OdeSolution, n: int) -> float:
    """Global error bound for the end of the n-step chain extending ``best``.

    Returns [(e^(t_hat*k1) - 1)/k1] * [eps*k2/2 + rho/eps] where k1 and k2
    bound the slope and curvature of the analytic solution via the minimum
    marginal wage along it.  When that wage reaches zero within
    budget (s0 = 0 with the probability driven to zero) no finite bound
    exists and math.inf is returned; convergence must then be checked
    empirically.
    """
    s0, s1 = _joint_chain(best, n)
    if best.t_hat <= 0.0:
        return 0.0
    gap = s1 - s0
    d_min = s0 + best.p_end * gap
    if d_min <= 1e-12:
        return math.inf
    k1 = gap / d_min**2
    k2 = gap / d_min**3
    if best.t_hat * k1 > 700.0:  # exp would overflow; the bound is vacuous
        return math.inf
    eps = best.t_hat / n
    rho_over_eps = 1.0 / (n * (s1 + 1.0))
    lead = math.expm1(best.t_hat * k1) / k1 if k1 > 0.0 else best.t_hat
    return lead * (eps * k2 / 2.0 + rho_over_eps)


@dataclass(frozen=True)
class AdversarySet:
    """An independent evaluation's one-undercut witness; ``clamped`` if its target left [0, 1]."""

    actions: ActionSet
    clamped: bool


def ipe_adversary(w: float, a0_set: ActionSet, eps: float) -> AdversarySet:
    """Append the free action succeeding just above max(p(a0) - c(a0)/w).

    For small eps mutual play of the new action is the unique pure
    equilibrium.  The result records whether the target probability had to
    be clamped into [0, 1].
    """
    if not w > 0.0:
        raise ValueError("wage must be positive")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not a0_set.known:
        raise ValueError("action set has no known prefix")
    known = a0_set.known
    target = float((known.probs - known.costs / w).max()) + eps
    clamped = target < 0.0 or target > 1.0
    target = min(1.0, max(0.0, target))
    return AdversarySet(a0_set.extend([ActionSpec(0.0, target)]), clamped)


def worst_case(contract: Contract, a0_set: ActionSet,
               eps: float = DEFAULT_WITNESS_EPS) -> WorstCaseResult:
    """Worst case of an already-reduced contract, with the witness ``_value``
    builds for its row at eps.  Other patterns raise ContractPatternError, eps
    outside (0, inf) ValueError, a failing joint witness ConvergenceError."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    res, witness = _value(*marginal_wage(contract), a0_set)
    return res if witness is None else replace(res, witness=witness(eps))


# ---------------------------------------------------------------------------
# Vectorized closed form over wage grids (used by the optimizer).
# ---------------------------------------------------------------------------

def pbar_grid(w11: np.ndarray, w10: np.ndarray, a0_set: ActionSet) -> np.ndarray:
    """Elementwise max over known actions of the undercut endpoint.  One
    kernel call per target keeps each temporary grid-sized; a single call
    over targets x grid is slower once there are more than a few targets."""
    known = a0_set.known
    out = np.zeros(np.broadcast(w11, w10).shape)
    for p0, c0 in zip(known.probs.tolist(), known.costs.tolist()):
        out = np.maximum(out, _endpoint(w10, w11, p0, c0)[1])
    return out


def value_grid(w11: np.ndarray, w10: np.ndarray, a0_set: ActionSet) -> np.ndarray:
    """Per-agent worst-case value min{1-w11, shirking branch} on a grid."""
    w11 = np.asarray(w11, dtype=float)
    return np.minimum(1.0 - w11, shirk_branch(pbar_grid(w11, w10, a0_set), w11, w10))
