import numpy as np
import pytest

from teamcontracts import (
    ActionSet,
    AssumptionError,
    Contract,
    calibration_witness,
    classify,
    discriminatory_inner,
    discriminatory_ipe,
    ipe_optimal,
    jpe_value,
    optimize_jpe,
    sweep_regimes,
)
from teamcontracts.optimize import _grid_best
from teamcontracts.worstcase import value_grid

A0 = ActionSet.from_pairs([(0.25, 1.0)])


def _grid_best_reference(w11, w10, a0_set):
    """_grid_best as first written, kept as its oracle: every tied cell,
    sorted by (w11, w10)."""
    vals = np.where(w10 <= w11 + 1e-15, value_grid(w11, w10, a0_set), -np.inf)
    vmax = vals.max()
    ties = np.argwhere(vals == vmax)
    pairs = sorted((float(w11[tuple(t)]), float(w10[tuple(t)])) for t in ties)
    return pairs[0][0], pairs[0][1], float(vmax)


def _seeded_known_set(rng):
    p0 = rng.uniform(0.3, 1.0)
    pairs = [(p0 * rng.uniform(0.05, 0.9), p0)]
    pairs += [(rng.uniform(0.02, 1.0), rng.uniform(0.05, 1.0))
              for _ in range(int(rng.integers(0, 3)))]
    return ActionSet.from_pairs(pairs)


class TestOptimizeJpe:
    def test_running_example_optimum(self):
        res = optimize_jpe(A0)
        assert res.w11 == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert res.w10 == pytest.approx(0.0, abs=1e-3)
        assert res.per_agent == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert res.regime == "POOLED"

    def test_beats_independent_benchmark(self):
        res = optimize_jpe(A0)
        assert res.per_agent > ipe_optimal(A0).per_agent

    def test_value_consistent_with_solver(self):
        # grid cells and scalar calls share the kernel's arithmetic, bit for
        # bit; the pinned set differed in the last digit when they did not
        pinned = ActionSet.from_pairs([(0.33128811555034887, 0.5871197848727463)])
        rng = np.random.default_rng(45)
        for a0 in [A0, pinned] + [_seeded_known_set(rng) for _ in range(30)]:
            res = optimize_jpe(a0, refine_rounds=2)
            direct = jpe_value(Contract(res.w11, res.w10, 0.0, 0.0), a0).per_agent
            assert res.per_agent == direct

    def test_grid_best_is_first_maximum(self):
        rng = np.random.default_rng(47)
        axis = np.linspace(0.0, 1.0, 101)
        for _ in range(100):
            a0 = _seeded_known_set(rng)
            grids = [np.meshgrid(axis, axis, indexing="ij")]
            # refinement windows as optimize_jpe builds them, some clipped at 0 or 1
            for centre in ((0.0, 0.0), (1.0, 0.0), tuple(rng.uniform(0.0, 1.0, 2))):
                for step in (1e-3, 1e-4):
                    offs = np.arange(-10, 11) * step
                    grids.append(np.meshgrid(np.clip(centre[0] + offs, 0.0, 1.0),
                                             np.clip(centre[1] + offs, 0.0, 1.0),
                                             indexing="ij"))
            for w11, w10 in grids:
                assert _grid_best(w11, w10, a0) == _grid_best_reference(w11, w10, a0)

    def test_small_surplus_is_mixed(self):
        res = optimize_jpe(ActionSet.from_pairs([(0.9, 1.0)]))
        assert res.regime == "MIXED"
        assert res.w10 > 0.0

    def test_incumbent_monotone_in_refinement(self):
        vals = [optimize_jpe(A0, refine_rounds=r).per_agent for r in range(4)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_grid_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            p0 = rng.uniform(0.4, 1.0)
            c0 = p0 * rng.uniform(0.1, 0.8)
            a0 = ActionSet.from_pairs([(c0, p0)])
            coarse = optimize_jpe(a0, coarse=1e-2, refine_rounds=0)
            fine = optimize_jpe(a0, coarse=1e-3, refine_rounds=0)
            assert abs(coarse.per_agent - fine.per_agent) <= 2e-2

    def test_optimum_is_nonaffine_jpe(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            p0 = rng.uniform(0.4, 1.0)
            c0 = p0 * rng.uniform(0.1, 0.8)
            res = optimize_jpe(ActionSet.from_pairs([(c0, p0)]), refine_rounds=2)
            cls = classify(Contract(res.w11, res.w10, 0.0, 0.0), tol=1e-9)
            assert cls.tag == "JPE" and not cls.affine

    def test_assumption_checked(self):
        with pytest.raises(AssumptionError):
            optimize_jpe(ActionSet.from_pairs([(0.5, 0.5)]))


class TestCalibrationWitness:
    def test_running_example(self):
        eps, contract, val = calibration_witness(A0)
        assert eps <= 0.1
        assert val > 0.25 + 1e-6
        assert classify(contract).tag == "JPE"

    def test_partial_productivity(self):
        a0 = ActionSet.from_pairs([(0.2, 0.8)])
        eps, contract, val = calibration_witness(a0)
        assert val > ipe_optimal(a0).per_agent + 1e-6

    def test_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            p0 = rng.uniform(0.3, 1.0)
            c0 = p0 * rng.uniform(0.05, 0.9)
            a0 = ActionSet.from_pairs([(c0, p0)])
            eps, _, val = calibration_witness(a0)
            assert val >= ipe_optimal(a0).per_agent + 1e-6


class TestSweep:
    def test_regimes_and_infeasible_cell(self):
        cells = sweep_regimes([1.0], [0.25, 0.9], refine_rounds=2)
        assert cells[0].regime == "POOLED"
        assert cells[1].regime == "MIXED"
        bad = sweep_regimes([0.5], [0.5])
        assert bad[0].regime == "INFEASIBLE"
        assert bad[0].w11 is None

    def test_rows_are_stable(self):
        cells = sweep_regimes([0.8], [0.2], refine_rounds=1)
        row = cells[0].to_row()
        assert row[0] == "0.8" and row[1] == "0.2"
        assert row[5] in ("POOLED", "MIXED")


class TestDiscriminatory:
    def test_symmetric_slice_matches_independent_worst_case(self):
        val, witness = discriminatory_inner(A0, 0.5, 0.5)
        assert val == pytest.approx(0.5, abs=2e-2)
        c1, p1, p2 = witness
        assert p1 == pytest.approx(0.5, abs=2e-2)
        assert p2 == pytest.approx(0.5, abs=2e-2)

    def test_no_improvement_at_low_cost(self):
        res = discriminatory_ipe(A0, grid=2e-2)
        jpe = optimize_jpe(A0)
        assert res.value_total / 2.0 <= jpe.per_agent + 1e-9

    def test_improvement_at_high_cost(self):
        a0 = ActionSet.from_pairs([(0.75, 1.0)])
        res = discriminatory_ipe(a0, grid=2e-2)
        jpe = optimize_jpe(a0)
        assert res.w1 != res.w2
        assert res.value_total / 2.0 > jpe.per_agent

    def test_inner_witness_satisfies_constraints(self):
        res = discriminatory_ipe(A0, grid=2e-2)
        c1, p1, p2 = res.inner_witness
        w1, w2 = res.w1, res.w2
        m1 = max(a.prob * w1 - a.cost for a in A0.known)
        m2 = max(a.prob * w2 - a.cost for a in A0.known)
        assert p1 * w1 - c1 >= max(m1, p2 * w1) - 1e-6
        assert p2 * w2 >= max(m2, p1 * w2 - c1) - 1e-6

    def test_null_actions_feasible_bound(self):
        # The adversary can always fall back to fully unproductive actions,
        # so the inner value never exceeds what known actions alone give.
        val, _ = discriminatory_inner(A0, 0.6, 0.4)
        known_only = 1.0 * (1 - 0.6) + 1.0 * (1 - 0.4)
        assert val <= known_only + 1e-9
