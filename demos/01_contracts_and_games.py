"""Tour of the core types: contracts, action sets, and induced games.

Two identical agents independently succeed or fail at their tasks.  A
contract pays each agent based on both outcomes; the wage pattern decides
whether the induced game is a coordination game (joint evaluation), a
competition (relative evaluation), or strategically inert (independent
evaluation).
"""

import numpy as np

from teamcontracts import (
    ActionSet,
    Contract,
    check_modularity,
    classify,
    enumerate_equilibria,
    extremal_br_path,
    induce_game,
    reduce_failure_wages,
    select_and_value,
)

# ---------------------------------------------------------------------------
# Contracts and their classes
# ---------------------------------------------------------------------------
print("=== contract typology ===")
for w in [
    Contract(0.5, 0.5, 0.0, 0.0),   # pay own success only
    Contract(0.6, 0.2, 0.0, 0.0),   # team bonus on joint success
    Contract(0.3, 0.5, 0.0, 0.1),   # penalize the other's success
    Contract(0.6, 0.3, 0.1, 0.2),   # rewards failure; reducible
]:
    cls = classify(w)
    print(f"{w.as_tuple()} -> {cls.tag:5s} affine={cls.affine}")

w = Contract(0.6, 0.3, 0.1, 0.2)
print("reducing", w.as_tuple(), "->", reduce_failure_wages(w).as_tuple())
print("(same equilibria, weakly lower wages)")

# ---------------------------------------------------------------------------
# The game a contract induces
# ---------------------------------------------------------------------------
print("\n=== induced games ===")
work_shirk = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.45)])

for w, label in [
    (Contract(0.5, 0.5, 0.0, 0.0), "independent wage 0.5"),
    (Contract(0.5, 0.0, 0.0, 0.0), "pooled team bonus 0.5"),
]:
    g = induce_game(w, work_shirk)
    print(f"{label}: modularity {check_modularity(g)}")
    print(np.round([g.payoff_row(i) for i in range(len(g))], 5))  # the matrix U[i, j]

# Under the team bonus both mutual work and mutual shirk can be equilibria.
g = induce_game(Contract(0.5, 0.0, 0.0, 0.0),
                ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.4)]))
eqs = enumerate_equilibria(g, mixed=True)
print("\nteam bonus with a 0.4-shirk available:")
for e in eqs:
    kind = f"pure {e.indices}" if e.is_pure else f"mixed x={np.round(e.x, 4)}"
    print("  equilibrium:", kind)
best = select_and_value(g, eqs, "PRINCIPAL_BEST")
pess = select_and_value(g, eqs, "PESSIMISTIC_PARETO")
print(f"principal-preferred total {best.principal_total:.4f}; "
      f"pessimistic Pareto total {pess.principal_total:.4f}")

# ---------------------------------------------------------------------------
# Best-response dynamics descend undercut chains
# ---------------------------------------------------------------------------
print("\n=== extremal best-response dynamics ===")
chain = ActionSet.from_pairs([(0.25, 1.0), (0.125, 0.76), (0.0, 0.45)])
g = induce_game(Contract(0.5, 0.0, 0.0, 0.0), chain)
limit, path = extremal_br_path(g, "MAX")
print("maximal best responses from the top action visit", path)
print("limit action:", chain[limit])
