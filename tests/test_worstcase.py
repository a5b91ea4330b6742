import math
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teamcontracts import (
    ActionSet,
    ActionSpec,
    AssumptionError,
    Contract,
    ContractPatternError,
    OdeSolution,
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
from teamcontracts.worstcase import _endpoint, best_known_solution, pbar_grid

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


def _rpe_bisection_reference(w11, w10, known, tol=1e-10):
    """rpe_value's former bisection on its fixed-point map, kept as the
    reference for the closed form; returns the fixed point and the map."""
    def t0(p):
        denom = p * w11 + (1.0 - p) * w10
        best = 0.0  # the free null action
        for a in known:
            if denom > 0.0:
                term = a.prob - a.cost / denom
            else:
                term = a.prob if a.cost == 0.0 else -math.inf
            best = max(best, term)
        return min(best, 1.0)

    lo, hi = 0.0, 1.0
    if t0(0.0) <= 0.0:
        return 0.0, t0
    if t0(1.0) >= 1.0:
        return 1.0, t0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t0(mid) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * 0.5:
            break
    return 0.5 * (lo + hi), t0


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

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(19)
        for t in range(2000):
            w10 = rng.uniform(0.01, 1.5)
            w11 = 0.0 if t % 5 == 0 else rng.uniform(0.0, w10)
            known = draw_known_set(rng)
            got = rpe_value(Contract(w11, w10, 0.0, 0.0), known).pbar
            want, fixed_point_map = _rpe_bisection_reference(w11, w10, known.known)
            assert abs(got - want) <= 1e-10
            assert abs(fixed_point_map(got) - got) <= 1e-14

    def test_sure_free_action_and_extreme_wages(self):
        sure = ActionSet.from_pairs([(0.0, 1.0), (0.25, 1.0)])
        assert rpe_value(Contract(0.3, 0.6, 0.0, 0.0), sure).pbar == 1.0
        # dividing through by w10 keeps the squares in range at any scale
        for scale in (1e-300, 1e-150, 1e150, 1e300):
            w = Contract(0.0, 0.5 * scale, 0.0, 0.0)
            a0 = ActionSet.from_pairs([(0.25 * scale, 1.0)])
            assert rpe_value(w, a0).pbar == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-15)


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


def _pbar_closed_form_reference(w11, w10, a0):
    """pbar_closed_form as first written: the bitwise reference for t_hat,
    t_zero and the flat branch.  Its joint root cancels when w11 - w10 is
    small against w10."""
    if w11 < w10:
        raise ContractPatternError(f"need w11 >= w10, got w11={w11} < w10={w10}")
    p0, c0 = a0.prob, a0.cost
    if w11 == w10:
        w = w11
        if w <= 0.0:
            p_end = p0 if c0 == 0.0 else 0.0
            t_zero = 0.0
        else:
            t_zero = w * p0
            p_end = max(0.0, p0 - c0 / w)
        return OdeSolution(a0, w11, w10, min(c0, t_zero), p_end, t_zero)

    gap = w11 - w10
    t_zero = w10 * p0 + gap * p0 * p0 / 2.0
    if c0 >= t_zero:
        return OdeSolution(a0, w11, w10, t_zero, 0.0, t_zero)
    disc = (p0 * w11 + (1.0 - p0) * w10) ** 2 - 2.0 * c0 * gap
    p_end = (math.sqrt(max(disc, 0.0)) - w10) / gap
    return OdeSolution(a0, w11, w10, c0, max(0.0, p_end), t_zero)


def _pbar_grid_reference(w11, w10, a0_set):
    """pbar_grid as first written, with the same joint root as
    ``_pbar_closed_form_reference``.  Away from that root it differs from the
    kernel only at zero wages with a free known action (0, not p0)."""
    w11 = np.asarray(w11, dtype=float)
    w10 = np.asarray(w10, dtype=float)
    gap = w11 - w10
    out = np.zeros(np.broadcast(w11, w10).shape)
    for a in a0_set.known:
        p0, c0 = a.prob, a.cost
        with np.errstate(divide="ignore", invalid="ignore"):
            t_zero = w10 * p0 + gap * p0 * p0 / 2.0
            disc = (p0 * w11 + (1.0 - p0) * w10) ** 2 - 2.0 * c0 * gap
            safe_gap = np.where(gap > 0.0, gap, 1.0)
            jpe_end = (np.sqrt(np.clip(disc, 0.0, None)) - w10) / safe_gap
            jpe_end = np.where(c0 >= t_zero, 0.0, np.clip(jpe_end, 0.0, None))
            safe_w = np.where(w10 > 0.0, w10, 1.0)
            ipe_end = np.where(w10 > 0.0, np.clip(p0 - c0 / safe_w, 0.0, None), 0.0)
        p_end = np.where(gap > 0.0, jpe_end, ipe_end)
        out = np.maximum(out, p_end)
    return out


ULP1 = 2.0**-52  # unit in the last place of 1.0
IN_RANGE = (1e-140, 1e140)  # magnitudes whose squares neither overflow nor underflow


def _in_range(*xs):
    return all(x == 0.0 or IN_RANGE[0] <= abs(x) <= IN_RANGE[1] for x in xs)


def _oracle_p_end(w11, w10, c0, t_zero):
    """Joint endpoint in 80-digit decimal arithmetic: the root of
    (w11-w10)/2 * p^2 + w10 * p = t_zero - c0.

    It takes the kernel's t_zero, which is bit-equal to the reference's, so
    it judges the root alone: where t_zero - c0 cancels, the two are within
    a factor 2 and their float difference is exact (Sterbenz)."""
    with localcontext() as ctx:
        ctx.prec = 80
        r = Decimal(t_zero) - Decimal(c0)
        if r <= 0:
            return 0.0
        gap, b = Decimal(w11) - Decimal(w10), Decimal(w10)
        return float(2 * r / (b + (b * b + 2 * gap * r).sqrt()))


def _check_against_reference(w11, w10, a0):
    """The kernel's endpoint at one in-range input: t_hat, t_zero and the
    flat branch are the reference's bits, and the joint p_end is within
    4 ulps of 1 of the decimal oracle.  Returns whether the reference's own
    p_end also is."""
    got = pbar_closed_form(w11, w10, a0)
    want = _pbar_closed_form_reference(w11, w10, a0)
    assert (got.t_hat, got.t_zero) == (want.t_hat, want.t_zero)
    if w11 == w10:
        assert got.p_end == want.p_end
        return True
    exact = _oracle_p_end(w11, w10, a0.cost, got.t_zero)
    assert abs(got.p_end - exact) <= 4 * ULP1, (w11, w10, a0)
    return abs(want.p_end - exact) <= 4 * ULP1


def _expect_overflow(w11, w10, a0):
    """Whether the kernel must raise: t_zero is not finite, or a joint cell
    whose budget is not spent has a discriminant that is not finite."""
    gap = w11 - w10
    t_zero = w10 * a0.prob + gap * a0.prob * a0.prob / 2.0
    if w11 == w10:
        return False  # w10 * p0 is finite for finite inputs
    if not math.isfinite(t_zero):
        return True
    return a0.cost < t_zero and not math.isfinite(w10 * w10 + 2.0 * gap * (t_zero - a0.cost))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestEndpointBits:
    """The undercut kernel against the scalar and grid code it replaced:
    the same t_hat, t_zero and flat-branch bits, and a joint endpoint that
    the stable root puts within 4 ulps of the exact root, where the former
    (sqrt(disc) - w10)/gap was not."""

    def test_scalar_seeded(self):
        rng = np.random.default_rng(51)
        reference_misses = 0
        for t in range(20_000):
            kind = t % 6  # 1: w10 = 0, 2: w11 = w10, 3: free target, 5: all three
            w10 = 0.0 if kind in (1, 5) else rng.uniform(0.0, 1.2)
            w11 = w10 if kind in (2, 5) else w10 + rng.uniform(0.0, 1.0)
            p0 = rng.uniform(0.0, 1.0)
            c0 = 0.0 if kind in (3, 5) and t % 12 < 6 else rng.uniform(0.0, 1.0)
            if kind == 4:  # budgets around the collapse point
                c0 = (w10 * p0 + (w11 - w10) * p0 * p0 / 2.0) * rng.uniform(0.5, 1.5)
            reference_misses += not _check_against_reference(w11, w10, ActionSpec(c0, p0))
        assert reference_misses > 0  # the former cancelling root fails this check

    @settings(max_examples=300, deadline=None)
    @given(
        w10=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
        gap=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
        p0=st.floats(0.0, 1.0),
        c0=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
    )
    def test_scalar_property(self, w10, gap, p0, c0):
        w11 = w10 + gap
        assume(math.isfinite(w11))
        a0 = ActionSpec(c0, p0)
        if _in_range(w11, w10, w11 - w10, p0, c0):
            _check_against_reference(w11, w10, a0)
            return
        try:
            got = pbar_closed_form(w11, w10, a0)
        except OverflowError:
            assert _expect_overflow(w11, w10, a0)
            return
        assert not _expect_overflow(w11, w10, a0)
        assert 0.0 <= got.p_end <= p0

    def test_stable_where_former_root_cancelled(self):
        # w11 - w10 is half an ulp of w10, so the dynamics are all but flat
        for cost, want, former in ((0.1, 0.8, 1.0), (0.2, 0.6, 0.0)):
            a0 = ActionSpec(cost, 1.0)
            got = pbar_closed_form(0.5 + 2**-53, 0.5, a0).p_end
            assert got == pytest.approx(want, abs=4 * ULP1)
            assert _pbar_closed_form_reference(0.5 + 2**-53, 0.5, a0).p_end == former

    def test_scalar_and_grid_bits_agree(self):
        rng = np.random.default_rng(55)
        n = 20_000
        w10 = 10.0 ** rng.uniform(-3.0, 1.0, n) * (rng.random(n) < 0.9)
        w11 = w10 + 10.0 ** rng.uniform(-17.0, 1.0, n) * (rng.random(n) < 0.9)
        p0 = rng.uniform(0.0, 1.0, n)
        c0 = (w10 * p0 + (w11 - w10) * p0 * p0 / 2.0) * rng.uniform(0.0, 1.2, n)
        scalar = np.array([
            astuple(pbar_closed_form(w11[k], w10[k], ActionSpec(c0[k], p0[k])))[3:]
            for k in range(n)])
        t_hat, p_end, t_zero = _endpoint(w11, w10, p0, c0)
        assert np.array_equal(_bits(scalar), _bits(np.stack([t_hat, p_end, t_zero], axis=1)))

    def test_grid_seeded(self):
        rng = np.random.default_rng(53)
        axis = np.linspace(0.0, 1.0, 101)
        w11, w10 = np.meshgrid(axis, axis, indexing="ij")
        flat = w11 <= w10
        for _ in range(60):
            k = int(rng.integers(1, 4))
            known = ActionSet.from_pairs(
                [(rng.uniform(1e-3, 1.0), rng.uniform(0.0, 1.0)) for _ in range(k)])
            got = pbar_grid(w11, w10, known)
            want = _pbar_grid_reference(w11, w10, known)
            assert np.array_equal(_bits(got[flat]), _bits(want[flat]))
            # here w10/(w11 - w10) <= 100 bounds how far the former root cancelled
            assert np.abs(got - want).max() <= 400 * ULP1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @settings(max_examples=100, deadline=None)
    @given(
        wages=st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
                       min_size=1, max_size=20),
        known=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=3),
    )
    def test_grid_property(self, wages, known):
        w11, w10 = (np.array(x) for x in zip(*wages))
        known = ActionSet.from_pairs(known)
        got = pbar_grid(w11, w10, known)
        flat = w11 <= w10
        want = _pbar_grid_reference(w11, w10, known)
        assert np.array_equal(_bits(got[flat]), _bits(want[flat]))
        for k in range(len(w11)):
            if w11[k] >= w10[k]:
                assert got[k] == max(pbar_closed_form(w11[k], w10[k], a).p_end
                                     for a in known.known)

    def test_zero_wage_free_action(self):
        free = ActionSet.from_pairs([(0.0, 0.7)])
        assert pbar_closed_form(0.0, 0.0, ActionSpec(0.0, 0.7)).p_end == 0.7
        assert pbar_grid(0.0, 0.0, free) == 0.7
        assert _pbar_grid_reference(0.0, 0.0, free) == 0.0  # the former disagreement

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            pbar_closed_form(1e308, 0.2, TARGET)
        with pytest.raises(OverflowError):
            pbar_grid(np.array([0.5, 1e308]), np.array([0.0, 0.2]), A0)
        # the discriminant overflows though 2r/(b + inf) would be a finite 0
        with pytest.raises(OverflowError):
            pbar_closed_form(2e200, 1e200, TARGET)
        # flat cells and spent budgets need no discriminant
        assert pbar_closed_form(1e200, 1e200, TARGET).p_end == 1.0 - 0.25 / 1e200
        assert pbar_closed_form(2e200, 1e200, ActionSpec(1e300, 1.0)).p_end == 0.0

    def test_underflowing_squares_stay_below_p0(self):
        for w10, gap in ((0.0, 1e-300), (1e-295, 1e-295), (3e-160, 1e-300)):
            sol = pbar_closed_form(w10 + gap, w10, ActionSpec(0.0, 0.5))
            assert 0.0 <= sol.p_end <= 0.5


class TestBestKnownSolution:
    def test_first_of_tied_targets(self):
        known = ActionSet.from_pairs([(0.0, 0.2), (0.25, 1.0), (0.25, 1.0)])
        best = best_known_solution(0.5, 0.5, known)
        assert best.a0 is known.actions[1] and best.p_end == 0.5

    def test_takes_highest_endpoint(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            w = draw_jpe(rng)
            known = draw_known_set(rng)
            sols = [pbar_closed_form(w.w11, w.w10, a) for a in known.known]
            assert best_known_solution(w.w11, w.w10, known) == max(sols, key=lambda s: s.p_end)

    def test_needs_known_prefix(self):
        with pytest.raises(ValueError):
            best_known_solution(0.5, 0.0, ActionSet((TARGET,), 0))
