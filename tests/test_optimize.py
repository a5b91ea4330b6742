import itertools
import json
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
from teamcontracts.cli import main
from teamcontracts.optimize import (
    IC_TOL,
    _BLOCK_CELLS,
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


def _score(a0_set):
    """``value_grid`` on ``a0_set``, as ``optimize_jpe`` scores its cells."""
    return lambda w11, w10: value_grid(w11, w10, a0_set)


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
            assert _triangle_best(ax11, ax10, _score(a0), block_cells=cells) == expected

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
        assert _triangle_best(axis, axis, _score(a0), block_cells=1) == (0.0, 0.0, 0.0)
        self._check(axis, axis, a0)

    def test_cells_within_tolerance_above_the_diagonal_are_feasible(self):
        for c in (0.3, 0.5, 0.8):
            ax11 = np.array([c])
            ax10 = np.array([c + 4e-16])
            assert ax10[0] > ax11[0]
            best = _triangle_best(ax11, ax10, _score(A0))
            assert best[2] > -math.inf
            self._check(ax11, ax10, A0)

    def test_no_feasible_cell_gives_minus_infinity_at_the_first_cell(self):
        ax11 = np.array([0.1, 0.2])
        ax10 = np.array([0.5, 0.6])
        assert _triangle_best(ax11, ax10, _score(A0)) == (0.1, 0.5, -math.inf)
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
                assert _triangle_best(ax11, ax10, _score(a0)) == first

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

    def test_default_refinement_is_unchanged(self, tmp_path, capsys):
        inp = tmp_path / "a0.json"
        inp.write_text(json.dumps(A0.to_json()))
        assert main(["optimize", "--input", str(inp)]) == 0
        assert repr(json.loads(capsys.readouterr().out)["result"]) == repr({
            "grid_step": 1e-05, "per_agent": 0.3333324998687473, "refined": True,
            "regime": "POOLED", "total": 0.6666649997374946, "w10": 0.0, "w11": 0.66666})


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

    def test_rows_are_stable(self, tmp_path, capsys):
        inp = tmp_path / "grid.json"
        inp.write_text(json.dumps({"p_grid": [0.8], "c_grid": [0.2]}))
        assert main(["sweep", "--input", str(inp), "--refine", "1", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[3].split(",")
        assert row[0] == "0.8" and row[1] == "0.2"
        assert row[5] in ("POOLED", "MIXED")


def _inner_adversary_reference(kp, kc, w1, w2, c1f, p2f, grid):
    """The inner adversary as first written, on a grid: every cell of the
    flat (c1, p2) grid scored, first minimum.  Each cell is a feasible point
    of the inner LP, so its value bounds ``discriminatory_inner`` above."""
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


def _discriminatory_ipe_reference(a0, grid):
    """The max-min scan as first written, on a grid, an upper bound of
    ``discriminatory_ipe``: for each w1, every (c1, p2) cell of every
    w2 <= w1 scored at once with ``_inner_adversary_reference``'s
    expressions, the first minimum per pair, then the first maximum in
    (w1, w2) order.  p1 is rounded up to multiples of the axis spacing 1/N.
    Returns ``(w1, w2, witness, value)``."""
    axis = np.linspace(0.0, 1.0, max(1, round(1.0 / grid)) + 1)
    grid = axis[1]
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


def _inner_lp_reference(a0, w1, w2):
    """The inner adversary as the 3-variable LP in (c1, p1, p2), solved by
    brute force at each wage pair of the arrays ``w1, w2``: every vertex of
    its ten planes (four incentive constraints, the unit box) from
    ``np.linalg.solve``, the least objective over the vertices feasible to
    1e-12.  Returns the values."""
    kp, kc = _known(a0)
    w1, w2 = np.asarray(w1, float), np.asarray(w2, float)
    m1, m2 = ((np.multiply.outer(w, kp) - kc).max(axis=-1) for w in (w1, w2))
    one, zero = np.ones_like(w1), np.zeros_like(w1)
    # rows g . (c1, p1, p2) >= h: agent one against m1 and against p2, agent
    # two against m2 and against p1, then the box
    g = np.stack([np.stack(row, axis=-1) for row in (
        (-one, w1, zero), (-one, w1, -w1), (zero, zero, w2), (one, -w2, w2),
        (one, zero, zero), (-one, zero, zero), (zero, one, zero), (zero, -one, zero),
        (zero, zero, one), (zero, zero, -one))], axis=-2)
    h = np.stack([m1 - IC_TOL, zero - IC_TOL, m2 - IC_TOL, zero - IC_TOL,
                  zero, -one, zero, -one, zero, -one], axis=-1)
    triples = np.array(list(itertools.combinations(range(10), 3)))
    a, r = g[:, triples], h[:, triples]
    regular = abs(np.linalg.det(a)) > 1e-13
    x = np.linalg.solve(np.where(regular[..., None, None], a, np.eye(3)), r[..., None])[..., 0]
    feas = regular & (np.einsum("pkj,pvj->pvk", g, x) >= h[:, None, :] - 1e-12).all(axis=-1)
    obj = x[..., 1] * (1.0 - w1[:, None]) + x[..., 2] * (1.0 - w2[:, None])
    return np.where(feas, obj, np.inf).min(axis=1)


def _check_witness(a0, w1, w2, value, witness):
    """The witness lies in the unit cube, is worth ``value``, and meets both
    agents' incentive constraints up to IC_TOL, in floating point."""
    kp, kc = _known(a0)
    c1, p1, p2 = witness
    assert all(0.0 <= x <= 1.0 for x in witness)
    assert value == p1 * (1.0 - w1) + p2 * (1.0 - w2)
    m1, m2 = float((kp * w1 - kc).max()), float((kp * w2 - kc).max())
    assert p1 * w1 - c1 >= max(m1, p2 * w1) - IC_TOL
    assert p2 * w2 >= max(m2, p1 * w2 - c1) - IC_TOL


def _check_inner(a0, pairs, grid=None):
    """``discriminatory_inner`` at each (w1, w2) of ``pairs``: equal to the
    brute-force LP within 1e-12, a valid witness, and, on a grid of step
    ``grid``, no worse than the grid's reference up to 1e-12."""
    w1s, w2s = np.array(pairs, float).T
    expected = _inner_lp_reference(a0, w1s, w2s)
    if grid is not None:
        axis = np.linspace(0.0, 1.0, max(1, round(1.0 / grid)) + 1)
        flat = _flat_grid(axis)
    for (w1, w2), ref in zip(pairs, expected):
        val, witness = discriminatory_inner(a0, w1, w2)
        assert abs(val - ref) <= 1e-12
        _check_witness(a0, w1, w2, val, witness)
        if grid is not None:
            assert val <= _inner_adversary_reference(*_known(a0), w1, w2, *flat, grid)[0] + 1e-12


def _check_max_min(a0, grid, res):
    """``discriminatory_ipe``'s result at ``grid``: wages on the axis with
    w2 <= w1, the brute-force LP's max-min within 1e-12 at that pair and over
    all pairs, a valid witness, and no worse than the grid's reference."""
    axis = np.linspace(0.0, 1.0, max(1, round(1.0 / grid)) + 1)
    assert res.w1 in axis and res.w2 in axis and res.w2 <= res.w1
    w1s, w2s = np.meshgrid(axis, axis, indexing="ij")
    w1s, w2s = w1s[w2s <= w1s], w2s[w2s <= w1s]
    assert abs(_inner_lp_reference(a0, w1s, w2s).max() - res.value_total) <= 1e-12
    assert abs(_inner_lp_reference(a0, [res.w1], [res.w2])[0] - res.value_total) <= 1e-12
    _check_witness(a0, res.w1, res.w2, res.value_total, res.inner_witness)
    assert res.value_total <= _discriminatory_ipe_reference(a0, grid)[3] + 1e-12


# Known sets at two extremes of agent one's constraint against its known
# actions: prob 1 at a tiny cost makes m1 almost w1, so the constraint
# binds wherever p1 < 1; a cost just under the prob makes m1 < 0 for
# w1 < 0.99, so it is slack.
REGIME_A_SET = ActionSet.from_pairs([(1e-3, 1.0)])
REGIME_B_SET = ActionSet.from_pairs([(0.99, 1.0)])


class TestDiscriminatory:
    """``discriminatory_inner`` and ``discriminatory_ipe`` against the
    brute-force LP and the grid references."""

    def test_inner_adversary_matches_reference(self):
        rng = np.random.default_rng(61)
        for grid in (1e-2, 0.05):
            axis = np.linspace(0.0, 1.0, round(1.0 / grid) + 1)
            for _ in range(150):
                a0 = _seeded_known_set(rng)
                pairs = []
                for _ in range(10):
                    w1, w2 = sorted(map(float, rng.choice(axis, 2)), reverse=True)
                    if rng.uniform() < 0.1:
                        w1 = 0.0 if rng.uniform() < 0.5 else w1
                        w2 = 0.0 if rng.uniform() < 0.5 else min(w2, w1)
                    pairs.append((w1, w2))
                _check_inner(a0, pairs, grid)

    def test_inner_at_any_wages_in_the_unit_square(self):
        # off-axis wages and w2 > w1, against grids whose step has no
        # integer inverse
        rng = np.random.default_rng(71)
        for _ in range(200):
            grid = float(rng.choice([0.05, 0.03, 0.07, 0.13]))
            pairs = [tuple(float(w) for w in rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
            _check_inner(_seeded_known_set(rng), pairs, grid)

    def test_wages_outside_the_unit_interval_are_refused(self):
        for w1, w2 in ((1.5, 0.5), (0.5, -0.1), (math.nan, 0.5)):
            with pytest.raises(ValueError, match="must lie in"):
                discriminatory_inner(A0, w1, w2)

    def test_max_min_matches_reference_on_seeded_sets(self):
        rng = np.random.default_rng(73)
        for k in range(60):
            a0 = _seeded_known_set(rng)
            grid = 2e-2 if k % 20 == 0 else 5e-2
            _check_max_min(a0, grid, discriminatory_ipe(a0, grid))

    def test_regime_extremes(self):
        axis = np.linspace(0.0, 1.0, 21)
        pairs = [(float(w1), float(w2)) for w1 in axis for w2 in axis if w2 <= w1]
        for a0 in (REGIME_A_SET, REGIME_B_SET):
            _check_inner(a0, pairs, 5e-2)
            _check_max_min(a0, 5e-2, discriminatory_ipe(a0, 5e-2))

    def test_non_integer_steps_round_on_the_axis(self):
        # the wages run on the axis of spacing 1/N, N = round(1/step): at
        # step 0.03 the running example is worth 0.6073 (0.6109 at 1e-2)
        rng = np.random.default_rng(83)
        for k, a0 in enumerate([A0] + [_seeded_known_set(rng) for _ in range(5)]):
            for grid in (0.03, 0.07):
                res = discriminatory_ipe(a0, grid)
                _check_max_min(a0, grid, res)
                if k == 0 and grid == 0.03:
                    assert res.value_total == pytest.approx(0.6073, abs=1e-4)

    def test_benchmark_like_sets_at_grid_1e_2(self):
        for a0 in (ActionSet.from_pairs([(0.2, 0.9), (0.3, 0.95), (0.1, 0.5)]),
                   ActionSet.from_pairs([(0.31, 0.82), (0.05, 0.27)])):
            _check_max_min(a0, 1e-2, discriminatory_ipe(a0, 1e-2))

    def test_max_min_values_at_grid_1e_2(self):
        # the exact inner optimum, below the (c1, p2) grid's 0.6138, 0.369
        # and 0.1052 at the same step
        for pairs, value, wages in (([(0.25, 1.0)], 0.61091, (0.55, 0.33)),
                                    ([(0.1, 0.5), (0.4, 0.9)], 0.36166, (0.51, 0.3)),
                                    ([(0.6, 0.9)], 0.10400, (0.84, 0.6))):
            res = discriminatory_ipe(ActionSet.from_pairs(pairs), 1e-2)
            assert res.value_total == pytest.approx(value, abs=1e-5)
            assert (res.w1, res.w2) == wages
            assert repr(discriminatory_ipe(ActionSet.from_pairs(pairs), 1e-2)) == repr(res)

    def test_max_min_memory(self):
        a0 = ActionSet.from_pairs([(0.2, 0.9), (0.3, 0.95), (0.1, 0.5)])
        tracemalloc.start()
        try:
            discriminatory_ipe(a0, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_max_min_memory_with_many_known_actions(self):
        # blocks of 4 096 known-action payoffs, here one wage pair each;
        # blocks of 113 pairs whatever the known set peaked at about 21 MB
        k = 20000
        t = np.arange(k) / k
        a0 = ActionSet(0.25 + 0.5 * t, 1.0 - 0.5 * t)
        tracemalloc.start()
        try:
            res = discriminatory_ipe(a0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert (res.w1, res.w2) == (0.5, pytest.approx(0.3))

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
