import math

import numpy as np
import pytest

from teamcontracts import (
    ActionSet,
    ActionSpec,
    AssumptionError,
    Contract,
    ContractPatternError,
    calibrate_jpe,
    euler_adversary,
    euler_error_bound,
    ipe_adversary,
    ipe_optimal,
    ipe_value,
    jpe_value,
    jpe_value_w00,
    pbar_closed_form,
    rpe_value,
)
from teamcontracts.selftest import (
    draw_jpe,
    draw_known_set,
    ode_quadrature,
    ode_quadrature_w00,
)

A0 = ActionSet.from_pairs([(0.25, 1.0)])
TARGET = ActionSpec(0.25, 1.0)


class TestClosedForm:
    def test_budget_exhausts_exactly(self):
        sol = pbar_closed_form(0.5, 0.0, TARGET)
        assert sol.p_end == 0.0
        assert sol.t_hat == 0.25

    def test_optimal_wage_endpoint(self):
        sol = pbar_closed_form(2.0 / 3.0, 0.0, TARGET)
        assert sol.p_end == pytest.approx(0.5, abs=1e-12)
        assert sol.t_hat == 0.25

    def test_calibrated_endpoint(self):
        sol = pbar_closed_form(0.5, 0.32, TARGET)
        assert sol.p_end == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_flat_wage_is_linear_dynamics(self):
        sol = pbar_closed_form(0.5, 0.5, TARGET)
        assert sol.p_end == pytest.approx(0.5, abs=1e-15)

    def test_rejects_relative_pattern(self):
        with pytest.raises(ContractPatternError):
            pbar_closed_form(0.3, 0.5, TARGET)

    def test_flat_wage_matches_simple_formula_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = rng.uniform(0.01, 1.2)
            a = ActionSpec(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            assert pbar_closed_form(w, w, a).p_end == max(0.0, a.prob - a.cost / w)


class TestJpeValue:
    def test_optimal_contract_value(self):
        res = jpe_value(Contract(2.0 / 3.0, 0.0, 0.0, 0.0), A0)
        assert res.pbar == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.total == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_naive_pooling_collapses(self):
        res = jpe_value(Contract(0.5, 0.0, 0.0, 0.0), A0)
        assert res.pbar == 0.0
        assert res.per_agent == 0.0
        assert res.binding == "SHIRK_EQ"

    def test_high_wage_full_success_branch(self):
        res = jpe_value(Contract(1.2, 1.1, 0.0, 0.0), A0)
        assert res.per_agent == pytest.approx(-0.2, abs=1e-12)
        assert res.binding == "FULL_SUCCESS"

    def test_full_success_witness(self):
        res = jpe_value(Contract(1.2, 1.1, 0.0, 0.0), A0, with_witness=True)
        star = res.witness.actions.actions[-1]
        assert (star.cost, star.prob) == (0.0, 1.0)

    def test_shirk_witness_carries_eps(self):
        res = jpe_value(Contract(2.0 / 3.0, 0.0, 0.0, 0.0), A0,
                        with_witness=True, witness_eps=1e-3)
        assert res.witness.eps == 1e-3
        assert len(res.witness.actions) > 100
        assert res.witness.actions.known == A0.actions

    def test_rejects_wrong_class(self):
        with pytest.raises(ContractPatternError):
            jpe_value(Contract(0.3, 0.5, 0.0, 0.0), A0)
        with pytest.raises(ContractPatternError):
            jpe_value(Contract(0.6, 0.2, 0.0, 0.1), A0)

    def test_multiple_targets_take_best(self):
        pairs = [(0.25, 1.0), (0.05, 0.4)]
        res = jpe_value(Contract(2.0 / 3.0, 0.0, 0.0, 0.0),
                        ActionSet.from_pairs(pairs))
        solo = max(
            pbar_closed_form(2.0 / 3.0, 0.0, ActionSpec(*p)).p_end for p in pairs
        )
        assert res.pbar == solo


class TestJpeValueW00:
    def test_vanishing_joint_failure_pay_recovers_pooled(self):
        res = jpe_value_w00(Contract(2.0 / 3.0, 0.0, 0.0, 1e-12), A0)
        assert res.pbar == pytest.approx(0.5, abs=1e-9)

    def test_positive_joint_failure_pay_hurts(self):
        res = jpe_value_w00(Contract(2.0 / 3.0, 0.0, 0.0, 0.1), A0)
        assert res.per_agent < 1.0 / 3.0
        assert res.pbar == pytest.approx(0.45287819509111576, abs=1e-12)
        oracle = ode_quadrature_w00(2.0 / 3.0, 0.1, 1.0, 0.25)[0]
        assert res.pbar == pytest.approx(float(oracle), abs=1e-5)

    def test_singularity_collapse_goes_negative(self):
        res = jpe_value_w00(Contract(0.5, 0.0, 0.0, 0.5), A0)
        assert res.pbar == 0.0
        assert res.per_agent == pytest.approx(-0.5, abs=1e-15)
        assert res.per_agent < 0.0
        oracle = ode_quadrature_w00(0.5, 0.5, 1.0, 0.25)[0]
        assert float(oracle) == 0.0

    def test_rejects_wrong_pattern(self):
        with pytest.raises(ContractPatternError):
            jpe_value_w00(Contract(0.5, 0.1, 0.0, 0.2), A0)


class TestIpeOptimal:
    def test_running_example(self):
        res = ipe_optimal(A0)
        assert res.w_star == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(0.25, abs=1e-12)
        assert res.total == pytest.approx(0.5, abs=1e-12)

    def test_partial_productivity(self):
        res = ipe_optimal(ActionSet.from_pairs([(0.2, 0.8)]))
        assert res.w_star == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(0.2, abs=1e-12)

    def test_picks_best_target(self):
        res = ipe_optimal(ActionSet.from_pairs([(0.25, 1.0), (0.05, 0.4)]))
        assert res.a0_star == ActionSpec(0.25, 1.0)

    def test_assumption_violation(self):
        with pytest.raises(AssumptionError):
            ipe_optimal(ActionSet.from_pairs([(0.5, 0.5)]))

    def test_interior_wage_beats_neighbors(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.uniform(0.2, 1.0)
            c = p * rng.uniform(0.05, 0.9)
            res = ipe_optimal(ActionSet.from_pairs([(c, p)]))

            def value(w):
                return (p - c / w) * (1.0 - w)

            assert res.per_agent >= value(res.w_star * 1.01) - 1e-12
            assert res.per_agent >= value(res.w_star * 0.99) - 1e-12
            assert res.per_agent == pytest.approx(value(res.w_star), abs=1e-12)


class TestRpeValue:
    def test_pure_relative_fixed_point(self):
        res = rpe_value(Contract(0.0, 0.5, 0.0, 0.0), A0)
        assert res.pbar == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)
        assert res.per_agent == pytest.approx(0.18933982822729536, abs=1e-9)

    def test_never_beats_independent(self):
        res = rpe_value(Contract(0.4, 0.5, 0.0, 0.0), A0)
        assert res.per_agent <= 0.25 + 1e-9

    def test_zero_surplus_known_actions(self):
        res = rpe_value(Contract(0.1, 0.6, 0.0, 0.0),
                        ActionSet.from_pairs([(0.7, 0.7)]))
        assert res.pbar == 0.0
        assert res.per_agent == 0.0

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            w10 = rng.uniform(0.05, 1.0)
            w11 = rng.uniform(0.0, w10 * 0.95)
            a0 = draw_known_set(rng)
            res = rpe_value(Contract(w11, w10, 0.0, 0.0), a0)
            p = res.pbar
            denom = p * w11 + (1 - p) * w10
            best = max(
                [0.0]
                + [a.prob - a.cost / denom for a in a0.known if denom > 0]
            )
            assert min(best, 1.0) == pytest.approx(p, abs=1e-8)


class TestEulerAdversary:
    def test_two_step_chain_at_binding_limits(self):
        adv = euler_adversary(Contract(0.5, 0.0, 0.0, 0.0), TARGET, 2, rho=1e-9)
        probs = adv.chain_probs
        assert probs[0] == 1.0
        assert probs[1] == pytest.approx(0.75, abs=1e-6)
        assert probs[2] == pytest.approx(5.0 / 12.0, abs=1e-6)
        assert adv.chain_costs == (0.25, 0.125, 0.0)
        assert adv.verified
        assert adv.max_eq_prob == probs[2]

    def test_single_undercut(self):
        w = calibrate_jpe(0.5, ActionSpec(0.2, 0.8), 0.1)
        adv = euler_adversary(w, ActionSpec(0.2, 0.8), 1)
        denom = 0.8 * w.w11 + 0.2 * w.w10
        assert adv.chain_probs[1] == pytest.approx(0.8 - 0.2 / denom + adv.rho, abs=1e-15)
        assert adv.verified

    def test_long_chain_approaches_collapsed_floor(self):
        # At the collapse point the error bound degenerates, and the chain
        # endpoint decays like n**-0.5; convergence is checked empirically.
        w = Contract(0.5, 0.0, 0.0, 0.0)
        ends = {
            n: euler_adversary(w, TARGET, n).max_eq_prob for n in (625, 2500, 10_000)
        }
        assert ends[2500] < ends[625]
        assert ends[10_000] < ends[2500]
        assert ends[10_000] / ends[2500] == pytest.approx(0.5, rel=0.3)
        assert ends[10_000] <= 0.02

    def test_clamping_flagged(self):
        adv = euler_adversary(Contract(0.5, 0.0, 0.0, 0.0), TARGET, 1, rho=2.0)
        assert adv.clamped
        assert adv.chain_probs[1] == 1.0

    def test_default_rho_schedule(self):
        adv = euler_adversary(Contract(0.5, 0.0, 0.0, 0.0), TARGET, 4)
        assert adv.step == pytest.approx(0.25 / 4)
        assert adv.rho == pytest.approx(0.25 / (16 * 1.5))

    def test_chain_set_shape(self):
        adv = euler_adversary(Contract(2.0 / 3.0, 0.0, 0.0, 0.0), TARGET, 5)
        assert len(adv.actions) == 6
        assert adv.actions.known_count == 1
        assert adv.actions.actions[0] == TARGET


class TestEulerErrorBound:
    def test_finite_and_decreasing(self):
        w = Contract(2.0 / 3.0, 0.0, 0.0, 0.0)
        b100 = euler_error_bound(w, TARGET, 100)
        b200 = euler_error_bound(w, TARGET, 200)
        assert math.isfinite(b100) and b100 > 0
        assert b200 < b100

    def test_step_term_halves(self):
        w = Contract(2.0 / 3.0, 0.0, 0.0, 0.0)
        d_min = 0.5 * (2.0 / 3.0)
        k1 = (2.0 / 3.0) / d_min**2
        lead = math.expm1(0.25 * k1) / k1
        t1 = euler_error_bound(w, TARGET, 100) - lead / (100 * (2.0 / 3.0 + 1.0))
        t2 = euler_error_bound(w, TARGET, 200) - lead / (200 * (2.0 / 3.0 + 1.0))
        assert t1 == pytest.approx(2.0 * t2, rel=1e-12)

    def test_degenerate_is_unbounded(self):
        assert euler_error_bound(Contract(0.5, 0.0, 0.0, 0.0), TARGET, 100) == math.inf

    def test_empirical_convergence_when_unbounded(self):
        w = Contract(0.5, 0.0, 0.0, 0.0)
        coarse = euler_adversary(w, TARGET, 500).max_eq_prob
        fine = euler_adversary(w, TARGET, 2000).max_eq_prob
        assert fine < coarse


class TestIpeAdversary:
    def test_single_free_undercut(self):
        adv = ipe_adversary(0.5, A0, 0.01)
        star = adv.actions.actions[-1]
        assert star == ActionSpec(0.0, 0.51)
        assert adv.unique_equilibrium
        assert not adv.clamped

    def test_value_approaches_optimum(self):
        adv = ipe_adversary(0.5, A0, 1e-6)
        p = adv.actions.actions[-1].prob
        total = 2 * p * 0.5
        assert total == pytest.approx(0.5, abs=1e-5)

    def test_clamping_reported(self):
        adv = ipe_adversary(0.5, A0, 0.7)
        assert adv.clamped
        assert adv.actions.actions[-1].prob == 1.0


class TestIpeValue:
    def test_given_wage_worst_case(self):
        res = ipe_value(0.5, A0)
        assert res.pbar == pytest.approx(0.5, abs=1e-12)
        assert res.per_agent == pytest.approx(0.25, abs=1e-12)

    def test_excessive_wage_uses_full_branch(self):
        res = ipe_value(1.25, A0)
        assert res.per_agent == pytest.approx(-0.25, abs=1e-12)
        assert res.binding == "FULL_SUCCESS"

    def test_zero_wage_contract(self):
        res = ipe_value(0.0, A0)
        assert res.per_agent == 0.0


class TestLowerBoundAndQuadrature:
    def test_floor_holds_on_random_supersets(self):
        from teamcontracts.game import extremal_br_path, induce_game
        from teamcontracts.selftest import draw_superset

        rng = np.random.default_rng(29)
        for _ in range(60):
            w = draw_jpe(rng)
            a0 = draw_known_set(rng)
            pbar = max(pbar_closed_form(w.w11, w.w10, a).p_end for a in a0.known)
            acts = draw_superset(rng, a0, 3)
            g = induce_game(w, acts)
            hi, _ = extremal_br_path(g, "MAX")
            assert acts.actions[hi].prob >= pbar - 1e-6

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(31)
        n = 60
        w10 = rng.uniform(0.0, 0.7, n)
        gap = rng.uniform(0.05, 1.0, n)
        p0 = rng.uniform(0.3, 1.0, n)
        t_zero = w10 * p0 + gap * p0 * p0 / 2
        c0 = t_zero * rng.uniform(0.1, 0.85, n)
        p_num, d_min = ode_quadrature(w10 + gap, w10, p0, c0, steps=100_000)
        checked = 0
        for k in range(n):
            if d_min[k] < 0.02:
                continue
            closed = pbar_closed_form(w10[k] + gap[k], w10[k],
                                      ActionSpec(c0[k], p0[k])).p_end
            assert abs(closed - p_num[k]) <= 1e-6
            checked += 1
        assert checked >= 40


class TestCalibrationLimits:
    def test_running_example_limits(self):
        def pbar_eps(eps):
            cal = calibrate_jpe(0.5, TARGET, eps)
            return pbar_closed_form(cal.w11, cal.w10, TARGET).p_end

        assert pbar_eps(1e-4) == pytest.approx(0.5, abs=1e-3)
        slope = (pbar_eps(1e-3) - pbar_eps(1e-4)) / (1e-3 - 1e-4)
        assert slope == pytest.approx(-0.25, abs=1e-2)

    def test_analytic_form_of_calibrated_endpoint(self):
        # For the calibrated scheme the endpoint collapses to
        # p0 * [w*(sqrt(1-2e)-1) + e] / e; spot-check against the solver.
        rng = np.random.default_rng(37)
        for _ in range(50):
            p0 = rng.uniform(0.3, 1.0)
            c0 = p0 * rng.uniform(0.05, 0.8)
            w_star = math.sqrt(c0 / p0)
            eps = rng.uniform(1e-4, min(0.3, w_star * 0.9))
            cal = calibrate_jpe(w_star, ActionSpec(c0, p0), eps)
            got = pbar_closed_form(cal.w11, cal.w10, ActionSpec(c0, p0)).p_end
            # valid while the endpoint stays interior; the solver clamps at 0
            ref = p0 * (w_star * (math.sqrt(1 - 2 * eps) - 1) + eps) / eps
            assert got == pytest.approx(max(0.0, ref), abs=1e-10)

    def test_profit_right_derivative(self):
        a0_set = A0
        base = ipe_optimal(a0_set).per_agent

        def profit(eps):
            cal = calibrate_jpe(0.5, TARGET, eps)
            return jpe_value(cal, a0_set).per_agent

        deriv = (profit(1e-4) - base) / 1e-4
        assert deriv == pytest.approx(0.125, abs=1e-2)


def _rk4_reference(w11, w10, p0, budget, steps):
    """ode_quadrature's loop as first written, kept as the bitwise reference."""
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w10, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w10, p0, budget))
    gap = w11 - w10
    p = p0.copy()
    h = budget / steps
    d_min = w10 + gap * p

    def f(x):
        return -1.0 / np.clip(w10 + gap * x, 1e-300, None)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d_min = np.minimum(d_min, w10 + gap * p)
    return p, d_min


def _rk4_w00_reference(w11, w00, p0, budget, steps):
    """ode_quadrature_w00's loop as first written, kept as the bitwise reference."""
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w00, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w00, p0, budget))
    p = p0.copy()
    h = budget / steps
    sing_tol = 1e-7
    frozen = (p * w11 - (1.0 - p) * w00) <= sing_tol

    def f(x):
        return -1.0 / np.clip(x * w11 - (1.0 - x) * w00, sing_tol, None)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + 0.5 * h * k1)
        k3 = f(p + 0.5 * h * k2)
        k4 = f(p + h * k3)
        step = h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nxt = np.where(frozen, p, p + step)
        frozen |= (nxt * w11 - (1.0 - nxt) * w00) <= sing_tol
        p = nxt
    return np.where(frozen, 0.0, p)


class TestQuadratureBits:
    """The RK4 oracles give the bits of their original loops."""

    def test_undercut_quadrature(self):
        rng = np.random.default_rng(41)
        w10 = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 0.7, 30)])
        w11 = w10 + np.concatenate([[0.5, 1.0], rng.uniform(0.05, 1.0, 30)])
        p0 = np.concatenate([[0.5, 1.0], rng.uniform(0.3, 1.0, 30)])
        # budgets up to and past the collapse point, where the clamp acts
        budget = (w10 * p0 + (w11 - w10) * p0 * p0 / 2) * rng.uniform(0.1, 1.2, 32)
        got = ode_quadrature(w11, w10, p0, budget, steps=2000)
        want = _rk4_reference(w11, w10, p0, budget, steps=2000)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_joint_failure_quadrature(self):
        rng = np.random.default_rng(43)
        w11 = rng.uniform(0.2, 1.0, 32)
        w00 = np.concatenate([[0.0], rng.uniform(0.0, 0.5, 31)])
        p0 = rng.uniform(0.1, 1.0, 32)
        budget = rng.uniform(0.0, 0.5, 32)
        got = ode_quadrature_w00(w11, w00, p0, budget, steps=2000)
        want = _rk4_w00_reference(w11, w00, p0, budget, steps=2000)
        assert np.array_equal(got, want)
