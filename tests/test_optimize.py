import math
import tracemalloc

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
import teamcontracts.optimize as opt
from teamcontracts.optimize import (
    IC_TOL,
    _BLOCK_CELLS,
    _best_known,
    _inner_grid,
    _inner_rows,
    _regime_a,
    _triangle_best,
)
from teamcontracts.worstcase import value_grid

A0 = ActionSet.from_pairs([(0.25, 1.0)])


def _grid_best(w11, w10, a0_set):
    """The full-grid search optimize_jpe used before it scanned the triangle
    in row blocks, kept as the oracle of ``_triangle_best``: best cell on
    w10 <= w11 of ``np.meshgrid(..., indexing="ij")`` grids of
    non-decreasing axes, ties to the first row-major maximum."""
    vals = np.where(w10 <= w11 + 1e-15, value_grid(w11, w10, a0_set), -np.inf)
    k = np.unravel_index(np.argmax(vals), vals.shape)
    return float(w11[k]), float(w10[k]), float(vals[k])


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


def _axes(rng, axis):
    """The coarse axis and refinement windows as optimize_jpe builds them:
    some clipped at 0 or 1, so repeated values tie exactly, and some with
    the w10 axis a few ulps above the w11 axis."""
    pairs = [(axis, axis)]
    centres = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), tuple(rng.uniform(0.0, 1.0, 2))]
    c = float(rng.uniform(0.0, 1.0))
    centres += [(c, c), (c, c + 4e-16), (c, c + 3e-15)]
    for c11, c10 in centres:
        for step in (1e-3, 1e-4):
            offs = np.arange(-10, 11) * step
            pairs.append((np.clip(c11 + offs, 0.0, 1.0), np.clip(c10 + offs, 0.0, 1.0)))
    return pairs


class TestTriangleBest:
    """``_triangle_best`` against the full-grid oracle, bit for bit."""

    BLOCKS = (1, 7, 100, 1000, _BLOCK_CELLS)  # one row per block, uneven splits, one block

    def _check(self, ax11, ax10, a0, blocks=BLOCKS):
        w11, w10 = np.meshgrid(ax11, ax10, indexing="ij")
        expected = _grid_best(w11, w10, a0)
        for cells in blocks:
            assert _triangle_best(ax11, ax10, a0, block_cells=cells) == expected

    def test_seeded_sets_at_step_1e_2(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            a0 = _seeded_known_set(rng)
            for ax11, ax10 in _axes(rng, np.linspace(0.0, 1.0, 101)):
                self._check(ax11, ax10, a0, blocks=(1000, _BLOCK_CELLS))

    def test_block_sizes(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            a0 = _seeded_known_set(rng)
            for ax11, ax10 in _axes(rng, np.linspace(0.0, 1.0, 101)):
                self._check(ax11, ax10, a0)

    def test_seeded_sets_at_step_1e_3(self):
        rng = np.random.default_rng(59)
        axis = np.linspace(0.0, 1.0, 1001)
        for _ in range(3):
            self._check(axis, axis, _seeded_known_set(rng), blocks=(4099, _BLOCK_CELLS))

    def test_exact_ties_across_blocks_go_to_the_first_cell(self):
        # c0 close to p0: every cell of the step-1e-2 grid is worth exactly 0
        a0 = ActionSet.from_pairs([(0.9999, 1.0)])
        axis = np.linspace(0.0, 1.0, 101)
        assert _triangle_best(axis, axis, a0, block_cells=1) == (0.0, 0.0, 0.0)
        self._check(axis, axis, a0)

    def test_cells_within_tolerance_above_the_diagonal_are_feasible(self):
        for c in (0.3, 0.5, 0.8):
            ax11 = np.array([c])
            ax10 = np.array([c + 4e-16])
            assert ax10[0] > ax11[0]
            best = _triangle_best(ax11, ax10, A0)
            assert best[2] > -math.inf
            self._check(ax11, ax10, A0)

    def test_no_feasible_cell_gives_minus_infinity_at_the_first_cell(self):
        ax11 = np.array([0.1, 0.2])
        ax10 = np.array([0.5, 0.6])
        assert _triangle_best(ax11, ax10, A0) == (0.1, 0.5, -math.inf)
        self._check(ax11, ax10, A0)

    def test_fine_grid_memory_stays_in_blocks(self):
        # the full 1001^2 grid peaked at about 76 MB traced
        a0 = ActionSet.from_pairs([(0.2, 0.9), (0.3, 0.95), (0.1, 0.5)])
        tracemalloc.start()
        try:
            optimize_jpe(a0, coarse=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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
        for _ in range(100):
            a0 = _seeded_known_set(rng)
            for ax11, ax10 in _axes(rng, np.linspace(0.0, 1.0, 101)):
                w11, w10 = np.meshgrid(ax11, ax10, indexing="ij")
                first = _grid_best_reference(w11, w10, a0)
                assert _grid_best(w11, w10, a0) == first
                assert _triangle_best(ax11, ax10, a0) == first

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

    def test_refinement_below_the_finest_step_is_refused(self):
        # 15 rounds from 1e-2 reported w10 = 3e-17, regime MIXED, at the
        # pooled optimum of the running example
        with pytest.raises(ValueError, match="reach step 1e-17, below 1e-12"):
            optimize_jpe(A0, refine_rounds=15)
        with pytest.raises(ValueError, match="reach step 1e-17, below 1e-12"):
            sweep_regimes([1.0], [0.25], refine_rounds=15)
        assert optimize_jpe(A0, refine_rounds=10).regime == "POOLED"

    def test_default_refinement_is_unchanged(self):
        assert repr(optimize_jpe(A0).to_json()) == repr({
            "w11": 0.66666, "w10": 0.0, "per_agent": 0.3333324998687473,
            "total": 0.6666649997374946, "grid_step": 1e-05, "refined": True,
            "regime": "POOLED"})


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


def _inner_adversary_reference(kp, kc, w1, w2, c1f, p2f, grid):
    """The inner adversary as first written, kept as the oracle of the row
    kernel: every cell of the flat (c1, p2) grid scored, first minimum."""
    m1 = float((kp * w1 - kc).max())
    m2 = float((kp * w2 - kc).max())
    if w1 > 0.0:
        need = np.maximum(m1, p2f * w1) + c1f - IC_TOL
        p1f = np.ceil(np.clip(need, 0.0, None) / w1 / grid - 1e-9) * grid
        feas = p1f <= 1.0 + 1e-12
        p1f = np.clip(p1f, 0.0, 1.0)
    else:
        feas = c1f <= IC_TOL
        p1f = np.zeros_like(c1f)
    feas &= p2f * w2 >= np.maximum(m2, p1f * w2 - c1f) - IC_TOL
    obj = np.where(feas, p1f * (1.0 - w1) + p2f * (1.0 - w2), np.inf)
    k = int(np.argmin(obj))
    val = float(obj[k])
    if not math.isfinite(val):
        return math.inf, None
    return val, (float(c1f[k]), float(p1f[k]), float(p2f[k]))


def _flat_grid(axis):
    c1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    return c1g.ravel(), p2g.ravel()


def _known(a0):
    return a0.known.probs, a0.known.costs


def _discriminatory_ipe_reference(a0, grid, step=None):
    """The max-min scan as written before it went by rows, kept as the oracle
    of ``discriminatory_ipe``: for each w1, every (c1, p2) cell of every
    w2 <= w1 scored at once with ``_inner_adversary_reference``'s
    expressions, the first minimum per pair, then the first maximum in
    (w1, w2) order.  p1 is rounded up to multiples of ``step``, by default
    the axis spacing 1/N.  Returns ``(w1, w2, witness, value)``."""
    axis = np.linspace(0.0, 1.0, max(1, round(1.0 / grid)) + 1)
    grid = axis[1] if step is None else step
    kp, kc = _known(a0)
    c1f, p2f = _flat_grid(axis)
    best = None
    for w1 in map(float, axis):
        w2 = axis[axis <= w1 + 1e-15][:, None]
        m1 = float((kp * w1 - kc).max())
        m2 = (kp * w2 - kc).max(axis=1, keepdims=True)
        if w1 > 0.0:
            need = np.maximum(m1, p2f * w1) + c1f - IC_TOL
            p1f = np.ceil(np.clip(need, 0.0, None) / w1 / grid - 1e-9) * grid
            feas = p1f <= 1.0 + 1e-12
            p1f = np.clip(p1f, 0.0, 1.0)
        else:
            feas = c1f <= IC_TOL
            p1f = np.zeros_like(c1f)
        feas = feas & (p2f * w2 >= np.maximum(m2, p1f * w2 - c1f) - IC_TOL)
        obj = np.where(feas, p1f * (1.0 - w1) + p2f * (1.0 - w2), np.inf)
        for r, k in enumerate(np.argmin(obj, axis=1)):
            val = float(obj[r, k])
            if math.isfinite(val) and (best is None or val > best[3]):
                best = (w1, float(w2[r, 0]), (float(c1f[k]), float(p1f[k]), float(p2f[k])), val)
    return best


def _ipe_tuple(res):
    return (res.w1, res.w2, res.inner_witness, res.value_total)


def _kernel(a0, w1, w2, grid, axis=None):
    """``_inner_rows`` on one wage pair, as ``discriminatory_inner`` calls it
    but with p1 rounded on ``grid`` itself, not on the axis spacing; returns
    ((value, (c1, p1, p2)) or (inf, None), rows scored densely)."""
    if axis is None:
        axis = np.linspace(0.0, 1.0, max(1, round(1.0 / grid)) + 1)
    kp, kc = _known(a0)
    m1 = float(_best_known(kp, kc, w1))
    w2s = np.array([w2])
    val, c1, p1, p2, dense = _inner_rows(axis, grid, w1, m1, w2s, _best_known(kp, kc, w2s),
                                         *_regime_a(axis, grid, w1, m1))
    if not math.isfinite(val[0]):
        return (math.inf, None), dense
    return (float(val[0]), (float(c1[0]), float(p1[0]), float(p2[0]))), dense


# Known sets at the ends of the two regimes: prob 1 at a tiny cost puts
# almost every cell of every row in regime A (p2*w1 <= m1); a cost just
# under the prob makes m1 < 0 for w1 < 0.99, so every row is regime B.
REGIME_A_SET = ActionSet.from_pairs([(1e-3, 1.0)])
REGIME_B_SET = ActionSet.from_pairs([(0.99, 1.0)])


class TestDiscriminatory:
    """``discriminatory_ipe`` and ``discriminatory_inner`` against the dense
    oracles, compared by repr so that signed zeros count."""

    def test_inner_adversary_matches_reference(self):
        rng = np.random.default_rng(61)
        for grid in (1e-2, 0.05):
            axis, _, _ = _inner_grid(A0, grid, lambda n: 1)
            c1f, p2f = _flat_grid(axis)
            for _ in range(1500):
                a0 = _seeded_known_set(rng)
                kp, kc = _known(a0)
                w1, w2 = sorted(map(float, rng.choice(axis, 2)), reverse=True)
                if rng.uniform() < 0.1:
                    w1 = 0.0 if rng.uniform() < 0.5 else w1
                    w2 = min(w2, w1)
                got = discriminatory_inner(a0, w1, w2, grid)
                assert repr(got) == repr(
                    _inner_adversary_reference(kp, kc, w1, w2, c1f, p2f, grid))

    def test_inner_at_any_wages_in_the_unit_square(self):
        # off-axis wages, w2 > w1, and steps whose inverse is not an integer,
        # where the ceilings' step and the axis spacing differ and rows
        # need the dense fallback
        rng = np.random.default_rng(71)
        dense = 0
        for _ in range(600):
            grid = float(rng.choice([0.05, 0.03, 0.07, 0.13]))
            a0 = _seeded_known_set(rng)
            kp, kc = _known(a0)
            axis, _, _ = _inner_grid(a0, grid, lambda n: 1)
            w1, w2 = (float(w) for w in rng.uniform(0.0, 1.0, 2))
            got, d = _kernel(a0, w1, w2, grid)
            dense += d
            assert repr(got) == repr(
                _inner_adversary_reference(kp, kc, w1, w2, *_flat_grid(axis), grid))
        assert dense > 0

    def test_wages_outside_the_unit_interval_are_refused(self):
        for w1, w2 in ((1.5, 0.5), (0.5, -0.1), (math.nan, 0.5)):
            with pytest.raises(ValueError, match="must lie in"):
                discriminatory_inner(A0, w1, w2)

    def test_max_min_matches_reference_on_seeded_sets(self):
        rng = np.random.default_rng(73)
        sets = [REGIME_A_SET, REGIME_B_SET] + [_seeded_known_set(rng) for _ in range(300)]
        for k, a0 in enumerate(sets):
            grid = 2e-2 if k % 30 == 0 else 5e-2
            res = discriminatory_ipe(a0, grid)
            assert repr(_ipe_tuple(res)) == repr(_discriminatory_ipe_reference(a0, grid))
            assert res.dense_rows == 0

    def test_regime_extremes(self):
        axis = np.linspace(0.0, 1.0, 21)
        for w1 in axis[1:]:
            kp, kc = _known(REGIME_A_SET)
            m1 = float(_best_known(kp, kc, w1))
            assert _regime_a(axis, 5e-2, float(w1), m1)[0] >= len(axis) - 1
            kp, kc = _known(REGIME_B_SET)
            m1 = float(_best_known(kp, kc, w1))
            assert _regime_a(axis, 5e-2, float(w1), m1)[0] == (0 if w1 < 0.99 else 1)

    def test_max_min_with_dense_rows_matches_reference(self):
        # the max-min scan of ``discriminatory_ipe`` with p1 rounded on the
        # raw step 0.07, off the axis of spacing 1/14: the fallback runs
        rng = np.random.default_rng(79)
        dense = 0
        for a0 in [A0] + [_seeded_known_set(rng) for _ in range(5)]:
            axis, kp, kc = _inner_grid(a0, 0.07, lambda n: 1)
            best = None
            for w1 in map(float, axis):
                m1 = float(_best_known(kp, kc, w1))
                w2 = axis[axis <= w1 + 1e-15]
                val, c1, p1, p2, d = _inner_rows(axis, 0.07, w1, m1, w2, _best_known(kp, kc, w2),
                                                 *_regime_a(axis, 0.07, w1, m1))
                dense += d
                k = int(np.argmax(np.where(val < np.inf, val, -np.inf)))
                if val[k] < np.inf and (best is None or val[k] > best[3]):
                    best = (w1, float(w2[k]), (float(c1[k]), float(p1[k]), float(p2[k])),
                            float(val[k]))
            assert repr(best) == repr(_discriminatory_ipe_reference(a0, 0.07, 0.07))
        assert dense > 0

    def test_non_integer_steps_round_on_the_axis(self):
        # both agents' actions on the axis of spacing 1/N, N = round(1/step):
        # at step 0.03 the running example is worth 0.6116 (0.6138 at 1e-2),
        # where rounding p1 on 0.03 itself gave 0.6894 with 486 dense rows
        rng = np.random.default_rng(83)
        for k, a0 in enumerate([A0] + [_seeded_known_set(rng) for _ in range(5)]):
            for grid in (0.03, 0.07):
                res = discriminatory_ipe(a0, grid)
                assert repr(_ipe_tuple(res)) == repr(_discriminatory_ipe_reference(a0, grid))
                axis = np.linspace(0.0, 1.0, round(1.0 / grid) + 1)
                assert res.inner_witness[1] in axis and res.dense_rows == 0
                if k == 0 and grid == 0.03:
                    assert res.value_total == pytest.approx(0.6116, abs=1e-4)

    def test_benchmark_like_sets_at_grid_1e_2(self):
        for a0 in (ActionSet.from_pairs([(0.2, 0.9), (0.3, 0.95), (0.1, 0.5)]),
                   ActionSet.from_pairs([(0.31, 0.82), (0.05, 0.27)])):
            res = discriminatory_ipe(a0, 1e-2)
            assert repr(_ipe_tuple(res)) == repr(_discriminatory_ipe_reference(a0, 1e-2))
            assert res.dense_rows == 0

    def test_dense_fallback_changes_the_answer(self, monkeypatch):
        # grid 0.03 on a 34-point axis: at p2 = j0 the coupled part of agent
        # two's constraint fails, yet holds further along the same row, and
        # that row holds the minimum
        a0 = ActionSet.from_pairs([(0.17620221241371695, 0.3659417692573047),
                                   (0.06475856079604708, 0.20025294387364573)])
        w1, w2, grid = 0.7476773506956695, 0.7433124218800472, 0.03
        kp, kc = _known(a0)
        axis, _, _ = _inner_grid(a0, grid, lambda n: 1)
        expected = _inner_adversary_reference(kp, kc, w1, w2, *_flat_grid(axis), grid)
        got, dense = _kernel(a0, w1, w2, grid)
        assert repr(got) == repr(expected) and dense > 0
        monkeypatch.setattr(opt, "_dense_row", lambda *args: (math.inf, math.nan, math.nan))
        without, _ = _kernel(a0, w1, w2, grid)
        assert without[0] > expected[0]

    def test_undecided_row_tying_the_least_row_is_rescored(self):
        # crafted axis, step 0.5 and w1 = w2 = 1, so every cell is worth 0:
        # row c1 = 0 fails the coupled part at p2 = 0.3 but is feasible at
        # p2 = 0.5, and ties row c1 = 0.2, decided at p2 = 0.3; the first
        # row must win.  Rows 0, 0.3 and 0.5 are undecided with bound 0.
        axis, grid = np.array([0.0, 0.2, 0.3, 0.5, 1.0]), 0.5
        a0 = ActionSet.from_pairs([(0.25, 0.5)])
        expected = _inner_adversary_reference(*_known(a0), 1.0, 1.0, *_flat_grid(axis), grid)
        assert expected == (0.0, (0.0, 0.5, 0.5))
        assert repr(_kernel(a0, 1.0, 1.0, grid, axis)) == repr((expected, 3))

    def test_m2_threshold_binding_with_equality(self):
        # the m2 threshold equals p2*w2 exactly at p2 = 0.4: the search must
        # take that cell
        kp, kc, w1, w2, grid = 0.6847155813711416, 0.0711778953427854, 0.8500000000000001, 0.25, 0.05
        assert (kp * w2 - kc) - IC_TOL == 0.4 * w2
        a0 = ActionSet.from_pairs([(kc, kp)])
        axis, _, _ = _inner_grid(a0, grid, lambda n: 1)
        expected = _inner_adversary_reference(*_known(a0), w1, w2, *_flat_grid(axis), grid)
        assert expected == (0.4125, (0.1, 0.75, 0.4))
        assert repr(_kernel(a0, w1, w2, grid)) == repr((expected, 0))

    def test_coupled_constraint_binding_with_equality(self):
        # the coupled part binds with equality at the first regime-B cell of
        # a row: that cell is feasible, and no row is scored densely
        a0 = ActionSet.from_pairs([(0.48256646570293216, 0.8574476411931955),
                                   (0.35270465625415665, 0.7446928145012908)])
        w1, w2, grid = 0.6864809611091993, 0.500005, 0.1
        axis, _, _ = _inner_grid(a0, grid, lambda n: 1)
        expected = _inner_adversary_reference(*_known(a0), w1, w2, *_flat_grid(axis), grid)
        assert repr(_kernel(a0, w1, w2, grid)) == repr((expected, 0))

    def test_regime_a_ends_at_equality(self):
        # p2*w1 equals m1 exactly at p2 = 1/3: that cell is in regime A,
        # where its p1 is the row's constant and the search decides it
        kp, kc, w1, w2, grid = 0.40504358431373527, 0.04837296472357463, 0.674561364131813, \
            0.562265662780428, 0.3
        a0 = ActionSet.from_pairs([(kc, kp)])
        axis, _, _ = _inner_grid(a0, grid, lambda n: 1)
        assert kp * w1 - kc in axis * w1
        expected = _inner_adversary_reference(*_known(a0), w1, w2, *_flat_grid(axis), grid)
        assert repr(_kernel(a0, w1, w2, grid)) == repr((expected, 0))

    def test_max_min_memory(self):
        a0 = ActionSet.from_pairs([(0.2, 0.9), (0.3, 0.95), (0.1, 0.5)])
        tracemalloc.start()
        try:
            discriminatory_ipe(a0, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

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
