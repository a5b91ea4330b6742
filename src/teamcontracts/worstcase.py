"""Analytic worst-case payoffs and constructive adversary action sets.

For a joint-evaluation contract (w11 > w10, failure wages zero) the
worst-case success probability solves the undercutting dynamics

    dp/dt = -1 / (p*w11 + (1 - p)*w10),    p(0) = p(a0),

where t is cost reduction relative to the targeted known action a0.  The
implicit integral w10*p + (w11 - w10)*p^2/2 is monotone in p, so the
solution is a quadratic root and is never integrated numerically here;
quadrature appears only as a test oracle.  Adversaries realizing the bound
are finite chains of progressively cheaper, less productive actions, each a
best response to its predecessor.

The endpoint is written once, as the array kernel ``_endpoint``, which
broadcasts over wages and targets.  Its joint branch (w11 > w10) is a
quadratic root, and so is the relative-evaluation fixed point; both come
from ``_stable_root``.  Every other cell takes the constant-slope branch at
wage w10, where a zero wage leaves a free target at p(a0) and sends a costly
one to zero.  ``pbar_closed_form`` and ``best_known_solution`` make one
kernel call over their targets, ``pbar_grid`` one per known target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractPatternError
from .game import enumerate_equilibria, extremal_br_path, induce_game
from .model import ActionSet, ActionSpec, Contract, check_known_assumptions

FULL_SUCCESS = "FULL_SUCCESS"
SHIRK_EQ = "SHIRK_EQ"

DEFAULT_WITNESS_EPS = 1e-4

# Cap on Euler chain length when sizing witnesses from an eps target.
MAX_WITNESS_CHAIN = 100_000


@dataclass(frozen=True)
class OdeSolution:
    """Endpoint of the undercut dynamics for one targeted known action.

    ``t_zero`` is the cost budget at which the success probability would
    reach zero; ``t_hat`` = min(cost(a0), t_zero) is the budget actually
    usable, and ``p_end`` the probability reached there.
    """

    a0: ActionSpec
    w11: float
    w10: float
    t_hat: float
    p_end: float
    t_zero: float


@dataclass(frozen=True)
class Witness:
    """Adversarial action set approximating a worst case within O(eps)."""

    actions: ActionSet
    eps: float
    description: str = ""


@dataclass(frozen=True)
class WorstCaseResult:
    pbar: float
    per_agent: float
    total: float
    binding: str
    witness: Witness | None = None

    def to_json(self) -> dict:
        out = {
            "pbar": self.pbar,
            "per_agent": self.per_agent,
            "total": self.total,
            "binding": self.binding,
            "witness": None,
        }
        if self.witness is not None:
            w = self.witness.actions.to_json()
            w["eps"] = self.witness.eps
            out["witness"] = w
        return out


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


def _endpoint(w11, w10, p0, c0):
    """Endpoint ``(t_hat, p_end, t_zero)`` of the undercut dynamics started
    at (cost c0, probability p0), elementwise over the broadcast inputs.

    Joint cells (w11 > w10) reach zero at t_zero = w10*p0 + (w11-w10)*p0^2/2
    and before that end at the root p_end of

        (w11-w10)/2 * p^2 + w10 * p = t_zero - c0.

    Every other cell has constant slope at wage w10: t_zero = w10*p0 and
    p_end = max(0, p0 - c0/w10), or, at zero wage, p0 for a free target and
    0 for a costly one.  t_hat = min(c0, t_zero) is the budget used.
    p_end is kept in [0, p0], which rounding can leave only where the
    squares underflow (wages below about 1e-154).

    Raises OverflowError when an output, or a discriminant it rests on, is not finite.
    """
    w11, w10, p0, c0 = (np.asarray(x, dtype=float) for x in (w11, w10, p0, c0))
    joint = w11 > w10
    paid = w10 > 0.0
    with np.errstate(all="ignore"):
        # Nothing is kept that the root does not need (not even w11 - w10):
        # on a 1001 x 1001 wage grid each kept array is 8 MB of peak memory.
        t_zero = np.where(joint, w10 * p0 + (w11 - w10) * p0 * p0 / 2.0,
                          np.where(paid, w10 * p0, 0.0))
        spent = c0 >= t_zero
        root = np.where(joint, _stable_root((w11 - w10) / 2.0, w10, t_zero - c0),
                        p0 - c0 / w10)
    # Python's max(0.0, root), but keeping NaN for the check below
    p_end = np.where((root <= 0.0) | (joint & spent), 0.0, root)
    p_end = np.where(joint | paid, p_end, np.where(c0 == 0.0, p0, 0.0))
    np.minimum(p_end, p0, out=p_end)
    t_hat = np.where(np.where(joint, spent, t_zero < c0), t_zero, c0)
    # t_hat is t_zero or the finite cost c0
    if not (np.isfinite(p_end).all() and np.isfinite(t_zero).all()):
        raise OverflowError("undercut endpoint is not finite")
    return t_hat, p_end, t_zero


def _best_solution(w11: float, w10: float, targets) -> OdeSolution:
    """Endpoint of the target whose dynamics end highest (the first such
    target on ties), from one kernel call; needs w11 >= w10."""
    if w11 < w10:
        raise ContractPatternError(f"need w11 >= w10, got w11={w11} < w10={w10}")
    t_hat, p_end, t_zero = _endpoint(w11, w10, [a.prob for a in targets],
                                     [a.cost for a in targets])
    k = int(np.argmax(p_end))
    return OdeSolution(targets[k], w11, w10, float(t_hat[k]), float(p_end[k]),
                       float(t_zero[k]))


def pbar_closed_form(w11: float, w10: float, a0: ActionSpec) -> OdeSolution:
    """Closed-form endpoint of the undercut dynamics started at a0 (see
    ``_endpoint``); needs w11 >= w10."""
    return _best_solution(w11, w10, (a0,))


def best_known_solution(w11: float, w10: float, a0_set: ActionSet) -> OdeSolution:
    """Endpoint of the known target whose dynamics end highest (the first
    such target on ties)."""
    if not a0_set.known:
        raise ValueError("action set has no known prefix to target")
    return _best_solution(w11, w10, a0_set.known)


def shirk_branch(pbar, w11, w10):
    """Per-agent principal payoff when both agents succeed w.p. pbar."""
    return pbar * (pbar * (1.0 - w11) + (1.0 - pbar) * (1.0 - w10))


def _min_branch(pbar: float, full: float, shirk: float, a0_set: ActionSet,
                with_witness: bool) -> WorstCaseResult:
    """Result min{full, shirk} with the branch that binds, carrying the free
    full-success witness when asked for and that branch binds."""
    per_agent = min(full, shirk)
    binding = FULL_SUCCESS if full < shirk else SHIRK_EQ
    witness = None
    if with_witness and binding == FULL_SUCCESS:
        witness = Witness(a0_set.extend([ActionSpec(0.0, 1.0)]), 0.0,
                          "free full-success action is dominant")
    return WorstCaseResult(pbar, per_agent, 2.0 * per_agent, binding, witness)


def _require_pattern(contract: Contract, jpe: bool) -> None:
    w11, w10, w01, w00 = contract.as_tuple()
    if w01 != 0.0 or w00 != 0.0:
        raise ContractPatternError("failure wages must be zero (w01 = w00 = 0)")
    if jpe and not w11 > w10:
        raise ContractPatternError(f"joint evaluation requires w11 > w10, got ({w11}, {w10})")
    if not jpe and not w11 < w10:
        raise ContractPatternError(f"relative evaluation requires w11 < w10, got ({w11}, {w10})")


def jpe_value(
    contract: Contract,
    a0_set: ActionSet,
    with_witness: bool = False,
    witness_eps: float = DEFAULT_WITNESS_EPS,
) -> WorstCaseResult:
    """Worst-case value of a joint evaluation with zero failure wages.

    Per agent the value is min{1 - w11, pbar*[pbar*(1-w11) + (1-pbar)*(1-w10)]}
    with pbar the best closed-form endpoint over targeted known actions.  The
    first branch binds when the adversary prefers a free full-success action
    (always so once w10 >= 1); the second is the compounding-shirking limit.
    """
    w11, w10 = contract.w11, contract.w10
    _require_pattern(contract, jpe=True)
    best = best_known_solution(w11, w10, a0_set)
    pbar = best.p_end
    res = _min_branch(pbar, 1.0 - w11, shirk_branch(pbar, w11, w10), a0_set, with_witness)
    if with_witness and res.binding == SHIRK_EQ and best.t_hat > 0.0:
        n = int(min(max(2, math.ceil(best.t_hat / witness_eps)), MAX_WITNESS_CHAIN))
        chain = euler_adversary(contract, best.a0, n, verify=False)
        tail = chain.actions.actions[1:]
        res = replace(res, witness=Witness(
            a0_set.extend(tail), witness_eps, f"undercut chain of {n} steps"))
    return res


def jpe_value_w00(contract: Contract, a0_set: ActionSet) -> WorstCaseResult:
    """Worst case for the variant paying w11 on joint success, w00 on joint
    failure (w10 = w01 = 0).

    The law of motion becomes dp/dt = -1/(p*w11 - (1-p)*w00), which is only
    defined above the singularity p_sing = w00/(w11 + w00).  If the budget
    reaches the singularity the undercutting continues at no cost (below
    p_sing lower success probability is strictly preferred), so the
    worst-case probability collapses to zero and joint failures are paid.
    """
    w11, w00 = contract.w11, contract.w00
    if contract.w10 != 0.0 or contract.w01 != 0.0:
        raise ContractPatternError("pattern requires w10 = w01 = 0")
    if w11 <= 0.0 or w00 < 0.0:
        raise ContractPatternError("pattern requires w11 > 0 and w00 >= 0")
    if not a0_set.known:
        raise ValueError("action set has no known prefix to target")

    p_sing = w00 / (w11 + w00)

    def g2(p):
        return (w11 + w00) * p * p / 2.0 - w00 * p

    pbar = 0.0
    for a in a0_set.known:
        p0, c0 = a.prob, a.cost
        if p0 <= p_sing:
            p_end = 0.0
        else:
            t_sing = g2(p0) - g2(p_sing)
            if c0 >= t_sing:
                p_end = 0.0
            else:
                disc = w00 * w00 + 2.0 * (w11 + w00) * (g2(p0) - c0)
                p_end = (w00 + math.sqrt(max(disc, 0.0))) / (w11 + w00)
        pbar = max(pbar, p_end)

    shirk = pbar * pbar * (1.0 - w11) + (1.0 - pbar) ** 2 * (-w00)
    return _min_branch(pbar, 1.0 - w11, shirk, a0_set, False)


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
    best_val = -math.inf
    best_w = 1.0
    best_a = a0_set.known[0]
    for a in a0_set.known:
        p, c = a.prob, a.cost
        if c < p:
            w = math.sqrt(c / p)
            val = (math.sqrt(p) - math.sqrt(c)) ** 2
        else:
            w = 1.0
            val = 0.0
        if val > best_val:
            best_val, best_w, best_a = val, w, a
    return IpeOptimum(best_w, best_a, best_val, 2.0 * best_val)


def ipe_value(
    w: float,
    a0_set: ActionSet,
    with_witness: bool = False,
    witness_eps: float = DEFAULT_WITNESS_EPS,
) -> WorstCaseResult:
    """Worst case of the independent evaluation paying w for own success."""
    if w < 0.0:
        raise ContractPatternError("wage must be non-negative")
    pbar = best_known_solution(w, w, a0_set).p_end
    # shirk_branch(pbar, w, w) in fewer roundings, which the output bits rest on
    res = _min_branch(pbar, 1.0 - w, pbar * (1.0 - w), a0_set, with_witness)
    if with_witness and res.binding == SHIRK_EQ and w > 0.0:
        adv = ipe_adversary(w, a0_set, witness_eps)
        res = replace(res, witness=Witness(adv.actions, witness_eps,
                                           "single free undercut action"))
    return res


def rpe_value(
    contract: Contract,
    a0_set: ActionSet,
    with_witness: bool = False,
    witness_eps: float = DEFAULT_WITNESS_EPS,
) -> WorstCaseResult:
    """Worst case of a relative evaluation (w11 < w10, failure wages zero).

    The limiting adversary action solves the fixed point

        p* = min{1, max over a0 (and the free null action) of
                    p(a0) - c(a0) / (p* * w11 + (1 - p*) * w10)}.

    Each action's map falls in p*, so p* is the largest per-action fixed
    point.  Divided by w10 > 0, that of a0 is the root of a*p^2 + b*p = r
    with a = w11/w10 - 1, b = 1 - a*p(a0) and r = p(a0) - c(a0)/w10, which
    is positive exactly when r is; other actions lose to the null action.
    """
    w11, w10 = contract.w11, contract.w10
    _require_pattern(contract, jpe=False)
    known = a0_set.known
    if not known:
        raise ValueError("action set has no known prefix")
    prob = np.array([a.prob for a in known])
    surplus = prob - np.array([a.cost for a in known]) / w10
    keep = surplus > 0.0
    a = w11 / w10 - 1.0
    roots = _stable_root(a, 1.0 - a * prob[keep], surplus[keep])
    p_star = min(1.0, float(roots.max(initial=0.0)))

    per_agent = shirk_branch(p_star, w11, w10)
    witness = None
    if with_witness:
        adv = a0_set.extend(
            [ActionSpec(0.0, min(1.0, p_star + witness_eps)), ActionSpec(0.0, 0.0)]
        )
        witness = Witness(adv, witness_eps, "fixed-point undercut plus null action")
    return WorstCaseResult(p_star, per_agent, 2.0 * per_agent, SHIRK_EQ, witness)


@dataclass(frozen=True)
class EulerAdversary:
    """An undercut chain plus its construction and verification record."""

    actions: ActionSet
    step: float
    rho: float
    t_hat: float
    clamped: bool
    verified: bool | None
    failure_step: int | None
    max_eq_prob: float | None

    @property
    def chain_probs(self) -> tuple[float, ...]:
        return tuple(a.prob for a in self.actions.actions)

    @property
    def chain_costs(self) -> tuple[float, ...]:
        return tuple(a.cost for a in self.actions.actions)


def euler_adversary(
    contract: Contract,
    a0: ActionSpec,
    n: int,
    rho: float | None = None,
    verify: bool = True,
) -> EulerAdversary:
    """Chain of n undercutting actions targeting a0.

    Costs sit on the grid (n-k)*t_hat/n and probabilities follow the forward
    step of the undercut dynamics,

        p_k = p_{k-1} - eps/(p_{k-1}*w11 + (1-p_{k-1})*w10) + rho,

    with eps = t_hat/n and rounding margin rho = t_hat/(n^2*(w11+1)) by
    default (pass ``rho`` to override, e.g. a tiny value to sit at the
    binding best-response limits).  Probabilities are clamped to [0, 1] with
    the ``clamped`` flag raised, since clamped steps leave the recursion.
    With ``verify=True`` the maximal best-response path of the induced game
    is computed; ``verified`` records whether it descends to the final chain
    action and ``failure_step`` the first deviation otherwise.
    """
    if n < 1:
        raise ValueError("chain length n must be >= 1")
    w11, w10 = contract.w11, contract.w10
    _require_pattern(contract, jpe=True)

    sol = pbar_closed_form(w11, w10, a0)
    t_hat = sol.t_hat
    if t_hat <= 0.0:
        chain = ActionSet((a0,), 1)
        return EulerAdversary(chain, 0.0, 0.0, 0.0, False, True, None, a0.prob)

    eps = t_hat / n
    rho_n = t_hat / (n * n * (w11 + 1.0)) if rho is None else float(rho)

    probs = [a0.prob]
    clamped = False
    q = a0.prob
    for _ in range(n):
        if q <= 0.0:
            nxt = 0.0
        else:
            denom = q * w11 + (1.0 - q) * w10
            nxt = q - eps / denom + rho_n
        if nxt < 0.0 or nxt > 1.0:
            clamped = True
            nxt = min(1.0, max(0.0, nxt))
        probs.append(nxt)
        q = nxt

    actions = [a0]
    for k in range(1, n + 1):
        actions.append(ActionSpec((n - k) * t_hat / n, probs[k]))
    chain = ActionSet(tuple(actions), 1)

    verified = None
    failure_step = None
    max_eq_prob = None
    if verify:
        game = induce_game(contract, chain)
        limit, path = extremal_br_path(game, "MAX")
        max_eq_prob = chain.actions[limit].prob
        verified = limit == n
        if not verified:
            expected = list(range(len(path)))
            failure_step = next(
                (k for k, (got, want) in enumerate(zip(path, expected)) if got != want),
                len(path),
            )
    return EulerAdversary(chain, eps, rho_n, t_hat, clamped, verified, failure_step, max_eq_prob)


def euler_error_bound(contract: Contract, a0: ActionSpec, n: int) -> float:
    """Global error bound for the n-step undercut chain endpoint.

    Returns [(e^(t_hat*k1) - 1)/k1] * [eps*k2/2 + rho/eps] where k1 and k2
    bound the slope and curvature of the analytic solution via the minimum
    wage denominator along it.  When that denominator reaches zero within
    budget (w10 = 0 with the probability driven to zero) no finite bound
    exists and math.inf is returned; convergence must then be checked
    empirically.
    """
    if n < 1:
        raise ValueError("chain length n must be >= 1")
    w11, w10 = contract.w11, contract.w10
    _require_pattern(contract, jpe=True)
    sol = pbar_closed_form(w11, w10, a0)
    if sol.t_hat <= 0.0:
        return 0.0
    gap = w11 - w10
    d_min = w10 + sol.p_end * gap
    if d_min <= 1e-12:
        return math.inf
    k1 = gap / d_min**2
    k2 = gap / d_min**3
    if sol.t_hat * k1 > 700.0:  # exp would overflow; the bound is vacuous
        return math.inf
    eps = sol.t_hat / n
    rho_over_eps = 1.0 / (n * (w11 + 1.0))
    lead = math.expm1(sol.t_hat * k1) / k1 if k1 > 0.0 else sol.t_hat
    return lead * (eps * k2 / 2.0 + rho_over_eps)


@dataclass(frozen=True)
class AdversarySet:
    """Single-undercut adversary for an independent evaluation."""

    actions: ActionSet
    eps: float
    clamped: bool
    unique_equilibrium: bool


def ipe_adversary(w: float, a0_set: ActionSet, eps: float) -> AdversarySet:
    """Append the free action succeeding just above max(p(a0) - c(a0)/w).

    For small eps mutual play of the new action is the unique pure
    equilibrium; the result records whether that held, and whether the
    target probability had to be clamped into [0, 1].
    """
    if w <= 0.0:
        raise ValueError("wage must be positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not a0_set.known:
        raise ValueError("action set has no known prefix")
    target = max(a.prob - a.cost / w for a in a0_set.known) + eps
    clamped = target < 0.0 or target > 1.0
    target = min(1.0, max(0.0, target))
    star = ActionSpec(0.0, target)
    adv = a0_set.extend([star])
    idx = len(adv) - 1
    game = induce_game(Contract(w, w, 0.0, 0.0), adv)
    pure = enumerate_equilibria(game, mixed=False)
    unique = len(pure) == 1 and pure[0].indices == (idx, idx)
    return AdversarySet(adv, eps, clamped, unique)


# ---------------------------------------------------------------------------
# Vectorized closed form over wage grids (used by the optimizer).
# ---------------------------------------------------------------------------

def pbar_grid(w11: np.ndarray, w10: np.ndarray, a0_set: ActionSet) -> np.ndarray:
    """Elementwise max over known actions of the undercut endpoint."""
    out = np.zeros(np.broadcast(w11, w10).shape)
    for a in a0_set.known:
        out = np.maximum(out, _endpoint(w11, w10, a.prob, a.cost)[1])
    return out


def value_grid(w11: np.ndarray, w10: np.ndarray, a0_set: ActionSet) -> np.ndarray:
    """Per-agent worst-case value min{1-w11, shirking branch} on a grid."""
    w11 = np.asarray(w11, dtype=float)
    return np.minimum(1.0 - w11, shirk_branch(pbar_grid(w11, w10, a0_set), w11, w10))
