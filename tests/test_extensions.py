import functools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from teamcontracts import (
    ActionSet,
    ActionSpec,
    BayesianEnv,
    Contract,
    ContractPatternError,
    MultiAgentContract,
    Profile,
    asym_unknown_value,
    bayesian_eval,
    best_ipe_value,
    best_jpe_value,
    best_known_solution,
    calibrate_jpe,
    calibration_witness,
    enumerate_equilibria,
    euler_adversary,
    extremal_br_path,
    induce_game,
    ipe_adversary,
    ipe_optimal,
    linear_contract,
    mu_threshold_ipe,
    mu_threshold_jpe,
    multi_agent_value,
    pessimistic_value,
    principal_value,
    select_and_value,
    worst_case_value,
)
from teamcontracts import extensions
from teamcontracts.selftest import draw_known_set

from worst_case_oracle import two_agent_equivalent

A0 = ActionSet.from_pairs([(0.25, 1.0)])
ENV = BayesianEnv(mu=0.9, p0=1.0, c0=0.25, p_star=0.5)


class TestMultiAgent:
    def test_two_agents_reduce_exactly(self):
        mac = MultiAgentContract(2, 0.4, 0.1)
        per_agent, total = multi_agent_value(mac, A0)
        direct = worst_case_value(Contract(0.5, 0.4, 0.0, 0.0), A0).per_agent
        assert per_agent == direct
        assert total == 2 * per_agent

    def test_calibration_example(self):
        mac = MultiAgentContract(3, 0.4, 0.1)
        assert 1.0 * (mac.w0 + mac.b * 1.0) == pytest.approx(0.5)
        per_agent, total = multi_agent_value(mac, A0)
        assert total == pytest.approx(3 * per_agent)

    def test_coefficients_value_as_the_two_agent_equivalent(self):
        # the marginal wage (w0, w0 + b) is valued as the contract
        # (w0 + b, w0, 0, 0) was, bit for bit, pooled (w0 = 0) or not
        rng = np.random.default_rng(163)
        for _ in range(300):
            w0 = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.6)
            mac = MultiAgentContract(int(rng.integers(2, 7)), w0, rng.uniform(0.01, 0.8))
            known = draw_known_set(rng, 3)
            per_agent = worst_case_value(two_agent_equivalent(mac), known).per_agent
            assert repr(multi_agent_value(mac, known)) == repr((per_agent, mac.n * per_agent))
        # b below half an ulp of w0, so w0 + b rounds to w0 and the contract is
        # an independent evaluation; at the first, the joint row's shirk term
        # shirk_branch(pbar, s1, s0) differs from the independent one in the last bit
        edge = [(0.7375172376794694, 7.375172376794694e-18,
                 ActionSet.from_pairs([(0.26697800472467365, 0.407005516201971)]))]
        edge += [(w0, w0 * 1e-17, draw_known_set(rng, 3))
                 for w0 in rng.uniform(0.01, 0.8, size=200)]
        for w0, b, known in edge:
            mac = MultiAgentContract(int(rng.integers(2, 7)), w0, b)
            assert w0 + b == w0
            per_agent = worst_case_value(two_agent_equivalent(mac), known).per_agent
            assert repr(multi_agent_value(mac, known)) == repr((per_agent, mac.n * per_agent))

    def test_per_agent_invariant_in_n(self):
        values = {
            n: multi_agent_value(MultiAgentContract(n, 0.4, 0.1), A0)[0]
            for n in (2, 3, 5)
        }
        assert values[2] == values[3] == values[5]

    def test_witness_calibration_beats_independent(self):
        _, contract, _ = calibration_witness(A0)
        base = ipe_optimal(A0).per_agent
        for n in (2, 3, 5):
            mac = MultiAgentContract(n, contract.w10, contract.w11 - contract.w10)
            per_agent, total = multi_agent_value(mac, A0)
            assert total > n * base

    def test_rejects_nonpositive_bonus(self):
        with pytest.raises(ValueError):
            MultiAgentContract(3, 0.4, 0.0)
        with pytest.raises(ValueError):
            MultiAgentContract(1, 0.4, 0.1)


class TestBayesian:
    def test_closed_forms(self):
        assert bayesian_eval(ENV, "ZERO") == pytest.approx(0.05, abs=1e-12)
        assert bayesian_eval(ENV, "IPE_MIXED") == pytest.approx(0.7125, abs=1e-9)
        assert bayesian_eval(ENV, "IPE_ALWAYS_A0") == pytest.approx(0.5, abs=1e-12)
        assert bayesian_eval(ENV, "JPE", 0.2) == pytest.approx(0.71375, abs=1e-9)

    def test_team_scheme_beats_independent_here(self):
        assert bayesian_eval(ENV, "JPE", 0.2) > bayesian_eval(ENV, "IPE_MIXED")

    def test_team_scheme_continuous_into_independent(self):
        w_star = ENV.c0 / ENV.p0
        near = bayesian_eval(ENV, "JPE", w_star - 1e-9)
        assert near == pytest.approx(bayesian_eval(ENV, "IPE_MIXED"), abs=1e-8)

    def test_team_value_decreasing_in_base_wage(self):
        # Substituting base wage for bonus raises expected pay w0 + p* b
        # when p* < p0, so the value falls toward the independent scheme.
        grid = [0.05, 0.1, 0.15, 0.2, 0.24]
        vals = [bayesian_eval(ENV, "JPE", w0) for w0 in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > bayesian_eval(ENV, "IPE_MIXED") for v in vals)

    def test_best_team_value_is_first_grid_point(self):
        def grid_max(env):  # best_jpe_value as first written
            grid = np.linspace(0.0, env.c0 / env.p0, 42)[1:-1]
            return max(bayesian_eval(env, "JPE", w0) for w0 in grid)

        rng = np.random.default_rng(61)
        for t in range(4000):
            p0 = rng.uniform(1e-3, 1.0)
            mu = (1e-9, 1.0 - 1e-9)[t % 2] if t % 10 < 2 else rng.uniform(1e-9, 1.0 - 1e-9)
            env = BayesianEnv(mu, p0, p0 * rng.uniform(1e-3, 1.0), p0 * rng.uniform(1e-3, 1.0))
            assert best_jpe_value(env) == grid_max(env)

    def test_invalid_scheme_parameters(self):
        with pytest.raises(ValueError):
            bayesian_eval(ENV, "JPE", 0.3)
        with pytest.raises(ValueError):
            bayesian_eval(ENV, "JPE")
        with pytest.raises(ValueError):
            bayesian_eval(ENV, "BONUS")

    def test_thresholds_in_unit_interval(self):
        t_ipe = mu_threshold_ipe(1.0, 0.25, 0.5)
        t_jpe = mu_threshold_jpe(1.0, 0.25, 0.5)
        assert 0.0 < t_ipe < 1.0
        assert 0.0 < t_jpe < 1.0
        # implementing wage overtakes the constant schemes at mu = 1/3 here
        assert t_ipe == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_regimes_flip_around_threshold(self):
        t = mu_threshold_jpe(1.0, 0.25, 0.5)
        lo = BayesianEnv(t * 0.5, 1.0, 0.25, 0.5)
        hi = BayesianEnv(t + (1 - t) * 0.5, 1.0, 0.25, 0.5)
        assert best_jpe_value(lo) <= best_ipe_value(lo)
        assert best_jpe_value(hi) > best_ipe_value(hi)

    def test_rare_unknown_action_favors_zero_contract(self):
        env = BayesianEnv(0.05, 1.0, 0.25, 0.95)
        assert bayesian_eval(env, "ZERO") == best_ipe_value(env)
        assert best_jpe_value(env) < bayesian_eval(env, "ZERO")

    def test_env_validation(self):
        with pytest.raises(ValueError):
            BayesianEnv(0.0, 1.0, 0.25, 0.5)
        with pytest.raises(ValueError):
            BayesianEnv(0.5, 1.0, 1.25, 0.5)
        with pytest.raises(ValueError):
            BayesianEnv(0.5, 1.0, 0.25, 1.0)


MU_LO, MU_HI = 1e-9, 1.0 - 1e-9
RIVALS = {"IPE_MIXED": ("ZERO", "IPE_ALWAYS_A0"), "JPE": ("ZERO", "IPE_MIXED", "IPE_ALWAYS_A0")}
THRESHOLDS = {"IPE_MIXED": mu_threshold_ipe, "JPE": mu_threshold_jpe}


def _bisect_sign_change(h, lo, hi, iters=80):
    flo = h(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (h(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_threshold(h, points=1001):
    """The former threshold search, kept as the oracle: first sign change of
    h on a 1001-point grid, refined by 80 bisection steps.  The grid is
    evaluated and searched in whole-array calls instead of point by point."""
    grid = np.linspace(1e-9, 1.0 - 1e-9, points)
    pos = h(grid) > 0.0
    flips = np.flatnonzero(pos[:-1] != pos[1:])
    if flips.size:
        k = flips[0]
        return _bisect_sign_change(h, float(grid[k]), float(grid[k + 1]))
    raise ValueError("no regime flip in (0, 1) for these parameters")


def _scan_gap(own, p0, c0, p_star):
    """The former h(mu): own scheme minus the best rival, through the
    library's scheme values, the team scheme at best_jpe_value's base wage.
    bayesian_eval reads only the four fields of its environment and is
    elementwise in mu, so mu may be the whole grid."""
    w0 = float(np.linspace(0.0, c0 / p0, 42)[1]) if own == "JPE" else None

    def h(mu):
        env = SimpleNamespace(mu=mu, p0=p0, c0=c0, p_star=p_star)
        rivals = [bayesian_eval(env, r) for r in RIVALS[own]]
        return bayesian_eval(env, own, w0) - functools.reduce(np.maximum, rivals)

    return h


def _exact_first_flip(ends):
    """First sign change of h = min of the lines through the exact end values
    ``ends`` = [(gap at 1e-9, gap at 1 - 1e-9), ...], or None.

    The flip is the left end or one of the lines' roots: walk them in order
    and test the sign of h at each and just after it.
    """
    lo, hi = Fraction(MU_LO), Fraction(MU_HI)

    def h(mu):
        return min(a + (b - a) * (mu - lo) / (hi - lo) for a, b in ends)

    points = {lo, hi}
    points.update(lo + (hi - lo) * a / (a - b) for a, b in ends if a != b)
    points = sorted(mu for mu in points if lo <= mu <= hi)
    start = h(lo) > 0
    for here, after in zip(points, points[1:]):
        if start and h(here) <= 0:
            return here
        if (h((here + after) / 2) > 0) != start:
            return here
    return hi if start and h(hi) <= 0 else None


def _exact_flip(own, p0, c0, p_star):
    """The threshold in exact rational arithmetic on the float inputs and the
    float base wage of best_jpe_value, or None."""
    p0, c0, ps = Fraction(p0), Fraction(c0), Fraction(p_star)
    w0 = Fraction(float(np.linspace(0.0, float(c0 / p0), 42)[1]))

    def gaps(mu):
        w_star = c0 / p0
        b = (w_star - w0) / p0
        v = {
            "ZERO": (1 - mu) * ps,
            "IPE_MIXED": (mu * p0 + (1 - mu) * ps) * (1 - w_star),
            "IPE_ALWAYS_A0": p0 * (1 - c0 / (p0 - ps)),
            "JPE": mu * p0 * (1 - w_star) + (1 - mu) * ps * (1 - (w0 + ps * b)),
        }
        return [v[own] - v[r] for r in RIVALS[own]]

    return _exact_first_flip(list(zip(gaps(Fraction(MU_LO)), gaps(Fraction(MU_HI)))))


def _flip_or_none(threshold, *args):
    try:
        return threshold(*args)
    except ValueError:
        return None


class TestBayesianThresholds:
    def test_agree_with_scan_on_well_conditioned_environments(self):
        rng = np.random.default_rng(67)
        found = 0
        for _ in range(2000):
            p0 = rng.uniform(1e-3, 1.0)
            c0, p_star = p0 * rng.uniform(1e-3, 1.0 - 1e-3, 2)
            for own, threshold in THRESHOLDS.items():
                got = _flip_or_none(threshold, p0, c0, p_star)
                want = _flip_or_none(_scan_threshold, _scan_gap(own, p0, c0, p_star))
                assert (got is None) == (want is None), (own, p0, c0, p_star, got, want)
                if got is not None:
                    found += 1
                    assert abs(got - want) <= 1e-14, (own, p0, c0, p_star, got, want)
        assert found > 1000

    def test_narrow_flip_the_scan_misses(self):
        args = (6.333700452897154e-07, 4.020851913622603e-18, 6.273650503431308e-07)
        with pytest.raises(ValueError):
            _scan_threshold(_scan_gap("JPE", *args))
        exact = _exact_flip("JPE", *args)
        assert float(exact) == 0.9999999300459107
        # the scheme values at the ends carry their own rounding, which the
        # root inherits scaled by the gap's slope
        assert mu_threshold_jpe(*args) == pytest.approx(float(exact), abs=1e-13)

    def test_rounding_flip_the_scan_reports(self):
        args = (2.4015180385935126e-160, 1.6943560675778482e-171, 2.401518038586669e-160)
        assert 0.0 < _scan_threshold(_scan_gap("JPE", *args)) < 1.0
        assert _exact_flip("JPE", *args) is None
        with pytest.raises(ValueError):
            mu_threshold_jpe(*args)

    def test_rule_on_every_arrangement_of_lines(self, monkeypatch):
        # Gap lines with small integer end values: rises, falls, lines that
        # stay on one side, exact zeros at an end, ties, and flat lines.
        rng = np.random.default_rng(71)
        ends = {}
        monkeypatch.setattr(extensions, "bayesian_eval", lambda env, r: ends[r][env.mu > 0.5])
        seen = set()
        for _ in range(3000):
            k = int(rng.integers(1, 4))
            lines = [tuple(int(v) for v in rng.integers(-2, 3, 2)) for _ in range(k)]
            ends.update({str(j): (-a, -b) for j, (a, b) in enumerate(lines)})
            got = _flip_or_none(extensions._first_flip, 1.0, 0.25, 0.5, lambda env: 0,
                                [str(j) for j in range(k)])
            want = _exact_first_flip([(Fraction(a), Fraction(b)) for a, b in lines])
            assert (got is None) == (want is None), (lines, got, want)
            if got is not None:
                seen.add(got)
                assert got == pytest.approx(float(want), abs=1e-15), (lines, got, want)
        assert {MU_LO, MU_HI} < seen

    def test_flat_gap_is_not_solved(self):
        # the team scheme and IPE_MIXED tie exactly at both ends here
        args = (1.494170091077305e-169, 8.580434303996489e-178, 1.4941700910773034e-169)
        for threshold in THRESHOLDS.values():
            got = _flip_or_none(threshold, *args)
            assert got is None or MU_LO <= got <= MU_HI

    def test_root_at_the_right_end_stays_inside(self):
        # the gap to IPE_MIXED is exactly 0 at the right end: a fall whose root is that end
        args = (5.213895349188049e-181, 1.3271323688356002e-190, 5.213882808861346e-181)
        assert mu_threshold_jpe(*args) == MU_HI

    def test_extreme_inputs_stay_in_range(self):
        # Down here the gaps are at rounding level and neither the scan nor
        # the lines are exact; only the range and the exception are promised.
        rng = np.random.default_rng(83)
        for t in range(4000):
            p0 = 10.0 ** rng.uniform(-300.0, 0.0)
            c0 = p0 * 10.0 ** rng.uniform(-16.0, -1e-3)
            small = 10.0 ** rng.uniform(-16.0, -1e-3)
            p_star = p0 * (small if t % 2 else 1.0 - small)
            for threshold in THRESHOLDS.values():
                got = _flip_or_none(threshold, p0, c0, p_star)
                assert got is None or MU_LO <= got <= MU_HI, (p0, c0, p_star, got)

    def test_few_scheme_evaluations(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return bayesian_eval(*args, **kwargs)

        monkeypatch.setattr(extensions, "bayesian_eval", counted)
        mu_threshold_ipe(1.0, 0.25, 0.5)
        mu_threshold_jpe(1.0, 0.25, 0.5)
        assert len(calls) <= 20


class TestAsymUnknown:
    def test_pooled_bonus_example(self):
        p1, p2, total = asym_unknown_value(Contract(0.5, 0.0, 0.0, 0.0),
                                           ActionSpec(0.25, 1.0))
        assert (p1, p2, total) == (0.5, 0.0, 0.5)

    def test_calibrated_scheme_beats_independent_total(self):
        for eps in (0.1, 0.01):
            w = calibrate_jpe(0.5, ActionSpec(0.25, 1.0), eps)
            _, _, total = asym_unknown_value(w, ActionSpec(0.25, 1.0))
            assert total > 0.5

    def test_total_right_derivative(self):
        def total(eps):
            w = calibrate_jpe(0.5, ActionSpec(0.25, 1.0), eps)
            return asym_unknown_value(w, ActionSpec(0.25, 1.0))[2]

        deriv = (total(1e-4) - 0.5) / 1e-4
        # p0*w* - c0 at the running example
        assert deriv == pytest.approx(0.25, abs=1e-2)

    def test_equal_wages_degenerate(self):
        p1, p2, _ = asym_unknown_value(Contract(0.5, 0.5, 0.0, 0.0),
                                       ActionSpec(0.25, 1.0))
        assert p1 == p2 == pytest.approx(0.5, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ContractPatternError):
            asym_unknown_value(Contract(0.3, 0.5, 0.0, 0.0), ActionSpec(0.25, 1.0))
        with pytest.raises(ValueError):
            asym_unknown_value(Contract(0.5, 0.0, 0.0, 0.0), ActionSpec(0.0, 0.5))


class TestPessimistic:
    def test_agrees_on_witness_chain(self):
        w = Contract(2.0 / 3.0, 0.0, 0.0, 0.0)
        adv = euler_adversary(best_known_solution(w.w10, w.w11, A0), 10)
        pess = pessimistic_value(w, adv.actions)
        g = induce_game(w, adv.actions)
        eqs = enumerate_equilibria(g, mixed=False)
        best = select_and_value(g, eqs, "PRINCIPAL_BEST").principal_total
        assert pess == pytest.approx(best, abs=1e-12)

    def test_linear_contract_below_independent_optimum(self):
        base_total = ipe_optimal(A0).total
        for alpha in [k / 10 for k in range(1, 10)]:
            adv = ipe_adversary(alpha, A0, 1e-4)
            val = pessimistic_value(linear_contract(alpha), adv.actions)
            assert val < base_total

    def test_indifferent_agents_keep_all_equilibria(self):
        # With the wage making both actions exactly indifferent every pure
        # profile is an equilibrium and none Pareto-dominates; pessimistic
        # selection then takes the principal's worst.
        acts = ActionSet.from_pairs([(0.25, 1.0), (0.0, 0.5)])
        w = Contract(0.5, 0.5, 0.0, 0.0)
        pess = pessimistic_value(w, acts)
        g = induce_game(w, acts)
        eqs = enumerate_equilibria(g, mixed=False)
        assert len(eqs) == 4
        best = select_and_value(g, eqs, "PRINCIPAL_BEST").principal_total
        assert pess == pytest.approx(0.5)
        assert best == pytest.approx(1.0)

    def test_identical_actions_stay_small(self):
        # every one of the 150^2 pure profiles is an equilibrium and all pay
        # alike, so each is the maximal one
        n = 150
        w, acts = Contract(0.5, 0.2, 0.0, 0.0), ActionSet([0.1] * n, [0.5] * n)
        g = induce_game(w, acts)
        hi, _ = extremal_br_path(g, "MAX")
        maximal = principal_value(g, Profile.pure(hi, hi))
        tracemalloc.start()
        try:
            pess = pessimistic_value(w, acts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(pess - maximal) <= 1e-12
        assert peak < 20e6, peak
