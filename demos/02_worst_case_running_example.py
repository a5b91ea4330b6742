"""Worst-case analysis on the running technology: one known action with
cost 1/4 and success probability 1.

The principal never learns what cheaper, less productive actions the agents
might discover.  Independent pay w = 1/2 guarantees 0.25 per agent.  Naively
pooling the same wage into a joint bonus is worthless: adversarial action
sets let the agents undercut each other all the way to zero productivity.
Raising the bonus to 2/3 is worst-case optimal and guarantees 1/3 per agent.
"""

import numpy as np

from teamcontracts import (
    ActionSet,
    ActionSpec,
    Contract,
    ConvergenceError,
    best_known_solution,
    calibrate_jpe,
    calibration_witness,
    enumerate_equilibria,
    euler_adversary,
    euler_error_bound,
    induce_game,
    ipe_adversary,
    ipe_optimal,
    jpe_value,
    optimize_jpe,
    worst_case,
)
from teamcontracts.worstcase import check_witness

a0 = ActionSpec(0.25, 1.0)
known = ActionSet.from_pairs([(0.25, 1.0)])


def verified(contract, actions):
    """Whether the last action is the maximal equilibrium (``check_witness``)."""
    try:
        check_witness(contract, actions)
    except ConvergenceError:
        return False
    return True


print("=== independent benchmark ===")
ipe = ipe_optimal(known)
print(f"best independent wage w* = {ipe.w_star}: {ipe.per_agent} per agent")
adv = ipe_adversary(ipe.w_star, known, eps=0.01)
pure = enumerate_equilibria(induce_game(Contract(ipe.w_star, ipe.w_star, 0.0, 0.0), adv.actions))
last = len(adv.actions) - 1
print("worst adversary adds", adv.actions[-1],
      "| unique equilibrium:", [e.indices for e in pure] == [(last, last)])

print("\n=== pooling the same wage fails ===")
pooled = Contract(0.5, 0.0, 0.0, 0.0)
print("value of (0.5, 0, 0, 0):", jpe_value(pooled, known).per_agent)

# The undercut chain that destroys the pooled scheme, shortest version.  A
# chain extends the closed-form endpoint of the marginal wage (s0, s1) =
# (w10, w11) that it approximates:
floor = best_known_solution(0.0, 0.5, known)
chain = euler_adversary(floor, 2, rho=1e-9)
print("two-step undercut probabilities:", np.round(chain.actions.probs, 6))
print("costs:", chain.actions.costs.tolist(), "| best responses verified:",
      verified(pooled, chain.actions))

# Longer chains approach the analytic floor; each ends at its maximal equilibrium.
for n in (10, 100, 1000):
    c = euler_adversary(floor, n).actions
    check_witness(pooled, c)
    print(f"n={n:5d}: maximal-equilibrium probability {c.probs[-1]:.4f}")
print("analytic floor:", floor.p_end)

print("\n=== the worst-case optimal team scheme ===")
opt = optimize_jpe(known)
print(f"w11 = {opt.w11:.5f}, w10 = {opt.w10:.5f} ({opt.regime}), "
      f"{opt.per_agent:.5f} per agent")
best = Contract(opt.w11, opt.w10, 0.0, 0.0)
res = worst_case(best, known)
print(f"floor pbar = {res.pbar:.5f}; binding branch {res.binding}")
print(f"witness chain of {len(res.witness.actions) - 1} undercuts at "
      f"eps = {res.witness.eps}")
print("chain error bound at n=1000:",
      euler_error_bound(best_known_solution(0.0, 2 / 3, known), 1000))

print("\n=== calibration: a small bonus twist already beats independent pay ===")
eps, contract, value = calibration_witness(known)
print(f"offset eps = {eps}: wages ({contract.w11}, {contract.w10}) "
      f"worth {value:.5f} > {ipe.per_agent}")
for eps in (0.2, 0.1, 0.05, 0.01):
    c = calibrate_jpe(ipe.w_star, a0, eps)
    print(f"  eps={eps:4}: w11={c.w11:.3f} w10={c.w10:.3f} "
          f"-> {jpe_value(c, known).per_agent:.5f} per agent")
