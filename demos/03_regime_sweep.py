"""When does monitoring individual output pay?

Sweeping the known technology (p0, c0) shows two regimes of the optimal
team scheme: with a large surplus p0 - c0 the optimum pools pay entirely
into the joint bonus (w10 = 0); as the surplus shrinks, a positive
individual wage w10 > 0 appears.  Agent-specific wages (discrimination)
only help when the known action is expensive.
"""

from dataclasses import astuple

from teamcontracts import ActionSet, discriminatory_ipe, optimize_jpe, sweep_regimes

print("=== regime sweep (rows: p0; cells: regime at c0/p0) ===")
ratios = [0.1 * k for k in range(1, 10)]
for p0 in (0.6, 0.8, 1.0):
    cells = sweep_regimes([p0], [r * p0 for r in ratios])
    marks = " ".join("P" if c.regime == "POOLED" else "M" for c in cells)
    print(f"p0={p0:.1f}: {marks}   (P = pooled bonus, M = mixed wages)")

print("\n=== CSV rows, as emitted by the sweep verb ===")
print("p0,c0,w11,w10,per_agent,regime")
for cell in sweep_regimes([1.0], [0.25, 0.5, 0.75, 0.9]):
    print(",".join("" if v is None else str(v) for v in astuple(cell)))

print("\n=== does discrimination beat the symmetric optimum? ===")
for c0 in (0.25, 0.75):
    known = ActionSet.from_pairs([(c0, 1.0)])
    sym = optimize_jpe(known)
    disc = discriminatory_ipe(known, grid=1e-2)
    verdict = "no" if disc.value_total / 2 <= sym.per_agent else "YES"
    print(f"c0={c0}: symmetric {sym.per_agent:.4f} vs agent-specific "
          f"{disc.value_total / 2:.4f} (w1={disc.w1:.2f}, w2={disc.w2:.2f})"
          f" -> improvement: {verdict}")
