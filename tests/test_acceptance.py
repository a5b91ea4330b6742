"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The randomized criteria use fixed seeds and are deterministic.
"""

import math

import numpy as np
import pytest

import teamcontracts as tc
from teamcontracts import game as gm
from teamcontracts.game import extremal_br_path, induce_game
from teamcontracts.selftest import (
    _chain_max_eq,
    draw_jpe,
    draw_known_set,
    draw_rpe,
    draw_superset,
)

from dense_game import dense_agent_payoffs, dense_enumerate_equilibria, dense_verify_profile
from rk4_oracle import ode_quadrature_p

A0 = tc.ActionSet.from_pairs([(0.25, 1.0)])
TARGET = tc.ActionSpec(0.25, 1.0)


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def jpe_instances():
    """Shared random instances for criteria 7 and 14: joint-evaluation
    contracts with known sets and adversarial supersets of at most 6
    actions."""
    rng = np.random.default_rng(20240)
    out = []
    for _ in range(500):
        w = draw_jpe(rng)
        a0 = draw_known_set(rng)
        acts = draw_superset(rng, a0)
        out.append((w, a0, acts))
    return out


def test_c01_independent_evaluation_running_example():
    res = tc.ipe_optimal(A0)
    assert abs(res.w_star - 0.5) <= 1e-9
    assert abs(res.per_agent - 0.25) <= 1e-9
    assert abs(res.total - 0.5) <= 1e-9
    report(1, "best independent evaluation is w*=0.5 worth 0.25 per agent")


def test_c02_joint_evaluation_optimum():
    res = tc.optimize_jpe(A0, coarse=1e-2, refine_rounds=3)
    assert abs(res.w11 - 2.0 / 3.0) <= 1e-3
    assert abs(res.w10 - 0.0) <= 1e-3
    assert abs(res.per_agent - 1.0 / 3.0) <= 1e-3
    report(2, "optimal team scheme is w11=2/3, w10=0 worth 1/3 per agent")


def test_c03_naive_pooling_collapses():
    res = tc.worst_case_value(tc.Contract(0.5, 0.0, 0.0, 0.0), A0)
    assert res.pbar == 0.0
    report(3, "pooled bonus at the independent wage collapses to pbar = 0")


def test_c04_two_step_undercut_chain():
    contract = tc.Contract(0.5, 0.0, 0.0, 0.0)
    adv = tc.euler_adversary(tc.best_known_solution(0.0, 0.5, A0), 2, rho=1e-9)
    probs = adv.actions.probs
    assert abs(probs[0] - 1.0) <= 1e-6
    assert abs(probs[1] - 0.75) <= 1e-6
    assert abs(probs[2] - 5.0 / 12.0) <= 1e-6
    game = induce_game(contract, adv.actions)
    limit, path = extremal_br_path(game, "MAX")
    assert path == [0, 1, 2] and limit == 2
    report(4, "chain 1 -> 3/4 -> 5/12 is the maximal best-response path")


def test_c05_calibration_limit_identities():
    def pbar_eps(eps):
        cal = tc.calibrate_jpe(0.5, TARGET, eps)
        return tc.best_known_solution(cal.w10, cal.w11, A0).p_end

    assert abs(pbar_eps(1e-4) - 0.5) <= 1e-3
    slope = (pbar_eps(1.5e-4) - pbar_eps(0.5e-4)) / 1e-4
    assert abs(slope - (-0.25)) <= 1e-2

    base = tc.ipe_optimal(A0).per_agent
    cal = tc.calibrate_jpe(0.5, TARGET, 1e-4)
    deriv = (tc.worst_case_value(cal, A0).per_agent - base) / 1e-4
    assert abs(deriv - 0.125) <= 1e-2
    report(5, "offset limits: pbar -> 0.5, slope -> -1/4, profit slope -> 1/8")


def test_c06_relative_never_beats_independent():
    rng = np.random.default_rng(601)
    worst_gap = -math.inf
    for _ in range(500):
        w = draw_rpe(rng)
        a0 = draw_known_set(rng)
        gap = tc.worst_case_value(w, a0).per_agent - tc.ipe_optimal(a0).per_agent
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9
    report(6, f"500/500 relative evaluations below the independent optimum "
              f"(max gap {worst_gap:.2e})")


def test_c07_floor_is_tight_lower_bound(jpe_instances):
    checked_bound = 0
    checked_empirical = 0
    for w, a0, acts in jpe_instances:
        def endpoint(a, w=w):
            return tc.best_known_solution(w.w10, w.w11, tc.ActionSet([a.cost], [a.prob]))

        pbar = max(endpoint(a).p_end for a in a0.known)
        best = endpoint(max(a0.known, key=lambda a: endpoint(a).p_end))

        game = induce_game(w, acts)
        hi, _ = extremal_br_path(game, "MAX")
        assert acts.actions[hi].prob >= pbar - 1e-6

        err = abs(_chain_max_eq(w, best, 2000) - pbar)
        bound = tc.euler_error_bound(best, 2000)
        if math.isfinite(bound):
            assert err <= max(bound, 5e-3)
            checked_bound += 1
        else:
            # no finite bound at the collapse boundary: verify empirically
            assert err <= 5e-3 or err < abs(_chain_max_eq(w, best, 500) - pbar)
            checked_empirical += 1
    report(7, f"500/500 floors hold; tightness via bound on {checked_bound}, "
              f"empirical convergence on {checked_empirical}")


def test_c08_calibration_improvement_everywhere():
    rng = np.random.default_rng(801)
    for _ in range(50):
        p0 = rng.uniform(0.2, 1.0)
        c0 = p0 * rng.uniform(0.05, 0.9)
        a0 = tc.ActionSet.from_pairs([(c0, p0)])
        base = tc.ipe_optimal(a0).per_agent
        eps, _, val = tc.calibration_witness(a0)
        assert val >= base + 1e-6
    report(8, "50/50 random technologies admit a strictly improving calibration")


def test_c09_many_agents_scale():
    base = tc.ipe_optimal(A0).per_agent
    _, contract, _ = tc.calibration_witness(A0)
    per_agent_values = []
    for n in (2, 3, 5):
        mac = tc.MultiAgentContract(n, contract.w10, contract.w11 - contract.w10)
        per_agent, total = tc.multi_agent_value(mac, A0)
        per_agent_values.append(per_agent)
        assert total > n * base
    spread = max(per_agent_values) - min(per_agent_values)
    assert spread <= 1e-12
    report(9, "n in {2,3,5}: totals beat n x independent; per-agent n-invariant")


def test_c10_regime_sweep():
    ratios = [round(0.1 * k, 10) for k in range(1, 10)]
    for p0 in (0.6, 0.8, 1.0):
        cells = tc.sweep_regimes([p0], [r * p0 for r in ratios])
        regimes = [c.regime for c in cells]
        assert all(r in ("POOLED", "MIXED") for r in regimes)
        assert regimes[0] == "POOLED"      # large surplus pools pay
        assert regimes[-1] == "MIXED"      # small surplus monitors output
        switched = False
        for r in regimes:
            if r == "MIXED":
                switched = True
            else:
                assert not switched, "regime boundary not monotone in c0/p0"
    report(10, "pooled at low cost ratios, mixed at high, single switch per row")


def test_c11_bayesian_comparison_and_thresholds():
    env = tc.BayesianEnv(0.9, 1.0, 0.25, 0.5)
    mixed = tc.bayesian_eval(env, "IPE_MIXED")
    team = tc.bayesian_eval(env, "JPE", 0.2)
    assert abs(mixed - 0.7125) <= 1e-9
    assert abs(team - 0.71375) <= 1e-9
    assert team > mixed
    t_ipe = tc.mu_threshold_ipe(1.0, 0.25, 0.5)
    t_jpe = tc.mu_threshold_jpe(1.0, 0.25, 0.5)
    assert 0.0 < t_ipe < 1.0 and 0.0 < t_jpe < 1.0
    report(11, f"scheme values exact; regime thresholds at mu={t_ipe:.4f} "
               f"and mu={t_jpe:.4f}")


def test_c12_discrimination_helps_only_at_high_cost():
    low = tc.ActionSet.from_pairs([(0.25, 1.0)])
    res_low = tc.discriminatory_ipe(low, grid=1e-2)
    jpe_low = tc.optimize_jpe(low)
    assert res_low.value_total / 2.0 <= jpe_low.per_agent + 1e-9

    high = tc.ActionSet.from_pairs([(0.75, 1.0)])
    res_high = tc.discriminatory_ipe(high, grid=1e-2)
    jpe_high = tc.optimize_jpe(high)
    assert res_high.w1 != res_high.w2
    assert res_high.value_total / 2.0 > jpe_high.per_agent
    report(12, "agent-specific wages lose at c0=1/4 and win at c0=3/4")


def test_c13_asymmetric_unknown_actions():
    p1, p2, total = tc.asym_unknown_value(tc.Contract(0.5, 0.0, 0.0, 0.0), TARGET)
    assert (p1, p2, total) == (0.5, 0.0, 0.5)
    report(13, "asymmetric undercuts give (p1, p2, total) = (0.5, 0, 0.5)")


def test_c14_pessimistic_selection(jpe_instances):
    for w, _, acts in jpe_instances:
        game = induce_game(w, acts)
        hi, _ = extremal_br_path(game, "MAX")
        maximal = tc.principal_value(game, tc.Profile.pure(hi, hi))
        eqs = tc.enumerate_equilibria(game, mixed=True)
        best = tc.select_and_value(game, eqs, "PRINCIPAL_BEST").principal_total
        pess = tc.pessimistic_value(w, acts)
        assert abs(pess - maximal) <= 1e-12
        assert pess <= best + 1e-12

    base_total = tc.ipe_optimal(A0).total
    for alpha in [k / 10 for k in range(1, 10)]:
        adv = tc.ipe_adversary(alpha, A0, 1e-4)
        val = tc.pessimistic_value(tc.linear_contract(alpha), adv.actions)
        assert val < base_total
    report(14, "pessimistic = maximal equilibrium on 500 instances; "
               "every linear share loses to the independent optimum")


def test_c14_instances_match_dense_oracle(jpe_instances, monkeypatch):
    """Equilibria, verification and selection read the bilinear form; on the
    criterion-14 instances they decide as the dense-matrix versions did."""
    for w, _, acts in jpe_instances:
        game = induce_game(w, acts)
        n = len(acts)
        eqs = tc.enumerate_equilibria(game, mixed=True)
        assert eqs == dense_enumerate_equilibria(game, mixed=True)
        for prof in [tc.Profile.pure(i, j) for i in range(n) for j in range(n)] + eqs:
            assert tc.verify_profile(game, prof) == dense_verify_profile(game, prof)
        for rule in ("PRINCIPAL_BEST", "PESSIMISTIC_PARETO"):
            got = tc.select_and_value(game, eqs, rule)
            with monkeypatch.context() as m:
                m.setattr(gm, "agent_payoffs", dense_agent_payoffs)
                want = tc.select_and_value(game, eqs, rule)
            assert got.selected == want.selected
            assert got.principal_total == want.principal_total
            assert got.agent_payoffs == pytest.approx(want.agent_payoffs, rel=1e-15, abs=1e-15)


def test_c15_closed_form_vs_quadrature():
    rng = np.random.default_rng(1501)
    n_cand = 700
    w10 = rng.uniform(0.0, 0.7, n_cand)
    gap = rng.uniform(0.05, 1.0, n_cand)
    w11 = w10 + gap
    p0 = rng.uniform(0.3, 1.0, n_cand)
    t_zero = w10 * p0 + gap * p0 * p0 / 2.0
    c0 = t_zero * rng.uniform(0.1, 0.85, n_cand)
    p_num, d_min = ode_quadrature_p(w11, w10, p0, c0, steps=1_000_000)
    keep = np.flatnonzero(d_min >= 0.02)[:200]
    assert len(keep) == 200
    worst = 0.0
    for k in keep:
        closed = tc.best_known_solution(w10[k], w11[k], tc.ActionSet([c0[k]], [p0[k]])).p_end
        worst = max(worst, abs(closed - p_num[k]))
        assert abs(closed - p_num[k]) <= 1e-6
    report(15, f"200/200 endpoints match the 1e6-step integrator "
               f"(max dev {worst:.1e})")
