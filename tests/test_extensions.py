import numpy as np
import pytest

from teamcontracts import (
    ActionSet,
    ActionSpec,
    BayesianEnv,
    Contract,
    ContractPatternError,
    MultiAgentContract,
    asym_unknown_value,
    bayesian_eval,
    best_ipe_value,
    best_jpe_value,
    calibrate_jpe,
    calibration_witness,
    enumerate_equilibria,
    euler_adversary,
    induce_game,
    ipe_adversary,
    ipe_optimal,
    jpe_value,
    linear_contract,
    mu_threshold_ipe,
    mu_threshold_jpe,
    multi_agent_value,
    pessimistic_value,
    select_and_value,
)

A0 = ActionSet.from_pairs([(0.25, 1.0)])
ENV = BayesianEnv(mu=0.9, p0=1.0, c0=0.25, p_star=0.5)


class TestMultiAgent:
    def test_two_agents_reduce_exactly(self):
        mac = MultiAgentContract(2, 0.4, 0.1)
        per_agent, total = multi_agent_value(mac, A0)
        direct = jpe_value(Contract(0.5, 0.4, 0.0, 0.0), A0).per_agent
        assert per_agent == direct
        assert total == 2 * per_agent

    def test_calibration_example(self):
        mac = MultiAgentContract(3, 0.4, 0.1)
        assert 1.0 * (mac.w0 + mac.b * 1.0) == pytest.approx(0.5)
        per_agent, total = multi_agent_value(mac, A0)
        assert total == pytest.approx(3 * per_agent)

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
        def grid_max(env, points=40):  # best_jpe_value as first written
            grid = np.linspace(0.0, env.c0 / env.p0, points + 2)[1:-1]
            return max(bayesian_eval(env, "JPE", w0) for w0 in grid)

        rng = np.random.default_rng(61)
        for t in range(4000):
            p0 = rng.uniform(1e-3, 1.0)
            mu = (1e-9, 1.0 - 1e-9)[t % 2] if t % 10 < 2 else rng.uniform(1e-9, 1.0 - 1e-9)
            env = BayesianEnv(mu, p0, p0 * rng.uniform(1e-3, 1.0), p0 * rng.uniform(1e-3, 1.0))
            points = 40 if t % 3 else int(rng.integers(1, 60))
            assert best_jpe_value(env, points) == grid_max(env, points)

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
        adv = euler_adversary(w, ActionSpec(0.25, 1.0), 10)
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
