"""Extensions: many agents, Bayesian uncertainty, heterogeneous unknown
actions, and pessimistic equilibrium selection."""

from teamcontracts import (
    ActionSet,
    ActionSpec,
    BayesianEnv,
    Contract,
    MultiAgentContract,
    asym_unknown_value,
    bayesian_eval,
    best_ipe_value,
    best_jpe_value,
    best_known_solution,
    calibrate_jpe,
    calibration_witness,
    euler_adversary,
    ipe_adversary,
    ipe_optimal,
    linear_contract,
    mu_threshold_ipe,
    mu_threshold_jpe,
    multi_agent_value,
    pessimistic_value,
)

known = ActionSet.from_pairs([(0.25, 1.0)])
a0 = ActionSpec(0.25, 1.0)

print("=== teams of n agents ===")
_, contract, _ = calibration_witness(known)
base = ipe_optimal(known).per_agent
for n in (2, 3, 5, 10):
    mac = MultiAgentContract(n, contract.w10, contract.w11 - contract.w10)
    per_agent, total = multi_agent_value(mac, known)
    print(f"n={n:2d}: total {total:.4f} vs independent benchmark {n * base:.4f}")

print("\n=== Bayesian technology uncertainty ===")
env = BayesianEnv(mu=0.9, p0=1.0, c0=0.25, p_star=0.5)
print("pay nothing:           ", bayesian_eval(env, "ZERO"))
print("independent, wage c0/p0:", bayesian_eval(env, "IPE_MIXED"))
print("independent, always a0: ", bayesian_eval(env, "IPE_ALWAYS_A0"))
print("calibrated team (w0=0.2):", bayesian_eval(env, "JPE", 0.2))
print("best team vs best independent:",
      best_jpe_value(env), ">", best_ipe_value(env))
print("regime thresholds in mu:",
      f"independent flip at {mu_threshold_ipe(1.0, 0.25, 0.5):.4f},",
      f"team advantage from {mu_threshold_jpe(1.0, 0.25, 0.5):.4f}")

print("\n=== agent-specific unknown actions ===")
for eps in (0.1, 0.01):
    w = calibrate_jpe(0.5, a0, eps)
    p1, p2, total = asym_unknown_value(w, a0)
    print(f"eps={eps}: undercuts (p1={p1:.4f}, p2={p2:.4f}), total {total:.4f}")
print("(independent benchmark total: 0.5)")

print("\n=== pessimistic equilibrium selection ===")
w = Contract(2 / 3, 0.0, 0.0, 0.0)
chain = euler_adversary(best_known_solution(0.0, 2 / 3, known), 50)
print("team scheme on its witness chain:",
      pessimistic_value(w, chain.actions))
for alpha in (0.3, 0.5, 0.7):
    adv = ipe_adversary(alpha, known, 1e-4)
    val = pessimistic_value(linear_contract(alpha), adv.actions)
    print(f"linear share alpha={alpha}: pessimistic total {val:.4f} "
          f"(independent optimum pays 0.5)")
