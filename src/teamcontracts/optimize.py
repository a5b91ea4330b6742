"""Search for worst-case optimal contracts.

The joint-evaluation program maximizes

    min{1 - w11, pbar(w11, w10)*[pbar*(1-w11) + (1-pbar)*(1-w10)]}

over the triangle 0 <= w10 <= w11 <= 1.  The objective is a min of two
pieces with a kink and pbar carries a square-root singularity at the
discriminant boundary, so the search uses a coarse grid plus nested
refinement rather than derivatives; given identical parameters the result
is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import ActionSet, calibrate_jpe, check_known_assumptions, Contract
from .worstcase import ipe_optimal, jpe_value, value_grid

POOLED = "POOLED"
MIXED = "MIXED"
INFEASIBLE = "INFEASIBLE"

# Inner-adversary incentive-constraint tolerance for the discriminatory program.
IC_TOL = 1e-6

# Descending ladder of calibration offsets tried by calibration_witness.
EPS_LADDER = tuple(
    m * 10.0**e for e in range(-1, -8, -1) for m in (1.0, 0.5, 0.2)
)


@dataclass(frozen=True)
class OptimizationResult:
    w11: float
    w10: float
    per_agent: float
    grid_step: float
    refined: bool
    regime: str

    def to_json(self) -> dict:
        return {
            "w11": self.w11,
            "w10": self.w10,
            "per_agent": self.per_agent,
            "total": 2.0 * self.per_agent,
            "grid_step": self.grid_step,
            "refined": self.refined,
            "regime": self.regime,
        }


def _grid_best(w11: np.ndarray, w10: np.ndarray, a0_set: ActionSet):
    """Best cell on the triangle w10 <= w11, ties to smallest (w11, w10): the
    grids are ``np.meshgrid(..., indexing="ij")`` of non-decreasing axes, so
    that is the first maximum in row-major order."""
    vals = np.where(w10 <= w11 + 1e-15, value_grid(w11, w10, a0_set), -np.inf)
    k = np.unravel_index(np.argmax(vals), vals.shape)
    return float(w11[k]), float(w10[k]), float(vals[k])


def optimize_jpe(
    a0_set: ActionSet, coarse: float = 1e-2, refine_rounds: int = 3
) -> OptimizationResult:
    """Grid-plus-refinement maximization of the worst-case value.

    The coarse pass scans the whole feasible triangle at step ``coarse``;
    each refinement round re-grids a window of one old step around the
    incumbent at a tenth of the step.  The incumbent is always re-evaluated,
    so the value is non-decreasing in ``refine_rounds``.  Existence of a
    maximizer follows from continuity on the compact triangle.
    """
    check_known_assumptions(a0_set)
    if coarse <= 0.0:
        raise ValueError("grid step must be positive")
    n = max(1, round(1.0 / coarse))
    axis = np.linspace(0.0, 1.0, n + 1)
    w11g, w10g = np.meshgrid(axis, axis, indexing="ij")
    b11, b10, bval = _grid_best(w11g, w10g, a0_set)

    step = coarse
    for _ in range(refine_rounds):
        new_step = step / 10.0
        offs = np.arange(-10, 11) * new_step
        ax11 = np.clip(b11 + offs, 0.0, 1.0)
        ax10 = np.clip(b10 + offs, 0.0, 1.0)
        w11g, w10g = np.meshgrid(ax11, ax10, indexing="ij")
        c11, c10, cval = _grid_best(w11g, w10g, a0_set)
        if cval > bval or (cval == bval and (c11, c10) < (b11, b10)):
            b11, b10, bval = c11, c10, cval
        step = new_step

    regime = POOLED if b10 <= step else MIXED
    return OptimizationResult(b11, b10, bval, step, refine_rounds > 0, regime)


def calibration_witness(
    a0_set: ActionSet, ladder=EPS_LADDER, min_gain: float = 1e-6
) -> tuple[float, Contract, float]:
    """Smallest tried calibration offset whose joint evaluation strictly
    beats the best independent evaluation.

    Walks ``ladder`` downward, calibrating w10 = w* - eps to the optimal
    independent wage and its targeted action, and returns the first eps
    improving the per-agent value by at least ``min_gain``.  Termination is
    guaranteed in theory because the profit's right-derivative at eps = 0 is
    p*w*(1-w*)/2 > 0; exhausting the ladder signals numerical pathology.
    """
    ipe = ipe_optimal(a0_set)
    for eps in ladder:
        if eps >= ipe.w_star:
            continue
        contract = calibrate_jpe(ipe.w_star, ipe.a0_star, eps)
        val = jpe_value(contract, a0_set).per_agent
        if val >= ipe.per_agent + min_gain:
            return eps, contract, val
    raise ConvergenceError(
        "calibration ladder exhausted without the guaranteed improvement"
    )


@dataclass(frozen=True)
class SweepCell:
    p0: float
    c0: float
    w11: float | None
    w10: float | None
    per_agent: float | None
    regime: str

    def to_row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else repr(x)

        return [repr(self.p0), repr(self.c0), fmt(self.w11), fmt(self.w10),
                fmt(self.per_agent), self.regime]


def sweep_regimes(
    p_grid, c_grid, coarse: float = 1e-2, refine_rounds: int = 3
) -> list[SweepCell]:
    """Optimal wages per (p0, c0) cell; infeasible cells are flagged.

    Pooled cells (w10 = 0) arise where the surplus p0 - c0 is large, mixed
    cells (w10 > 0) where it is small and monitoring individual output pays.
    """
    rows = []
    for p0 in p_grid:
        for c0 in c_grid:
            if not 0.0 < c0 < p0:
                rows.append(SweepCell(p0, c0, None, None, None, INFEASIBLE))
                continue
            res = optimize_jpe(ActionSet.from_pairs([(c0, p0)]), coarse, refine_rounds)
            rows.append(SweepCell(p0, c0, res.w11, res.w10, res.per_agent, res.regime))
    return rows


@dataclass(frozen=True)
class DiscriminatoryResult:
    w1: float
    w2: float
    inner_witness: tuple[float, float, float]  # (c1, p1, p2)
    value_total: float

    def to_json(self) -> dict:
        c1, p1, p2 = self.inner_witness
        return {
            "w1": self.w1,
            "w2": self.w2,
            "inner_witness": {"c1": c1, "p1": p1, "p2": p2},
            "value_total": self.value_total,
            "value_per_agent": self.value_total / 2.0,
        }


def _inner_adversary(kp, kc, w1, w2, c1f, p2f, grid):
    """Adversary's grid minimum of p1*(1-w1) + p2*(1-w2) at fixed wages.

    (c1, p1) is agent one's unknown action and p2 agent two's free action;
    each must best-respond against the known actions and the other unknown
    action up to IC_TOL.  Returns (value, (c1, p1, p2)) or (inf, None).
    """
    m1 = float((kp * w1 - kc).max())
    m2 = float((kp * w2 - kc).max())
    if w1 > 0.0:
        need = np.maximum(m1, p2f * w1) + c1f - IC_TOL
        p1f = np.ceil(np.clip(need, 0.0, None) / w1 / grid - 1e-9) * grid
        feas = p1f <= 1.0 + 1e-12
        p1f = np.clip(p1f, 0.0, 1.0)
    else:
        # w1 = 0 forces c1 = 0 (up to tolerance); any p1 is a best
        # response then, and 0 minimizes the objective.
        feas = c1f <= IC_TOL
        p1f = np.zeros_like(c1f)
    feas &= p2f * w2 >= np.maximum(m2, p1f * w2 - c1f) - IC_TOL
    obj = np.where(feas, p1f * (1.0 - w1) + p2f * (1.0 - w2), np.inf)
    k = int(np.argmin(obj))
    val = float(obj[k])
    if not math.isfinite(val):
        return math.inf, None
    return val, (float(c1f[k]), float(p1f[k]), float(p2f[k]))


def discriminatory_inner(
    a0_set: ActionSet, w1: float, w2: float, grid: float = 1e-2
) -> tuple[float, tuple[float, float, float] | None]:
    """Worst-case total for fixed agent-specific wages (w1, w2)."""
    n = max(1, round(1.0 / grid))
    axis = np.linspace(0.0, 1.0, n + 1)
    kp = np.array([a.prob for a in a0_set.known])
    kc = np.array([a.cost for a in a0_set.known])
    c1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    return _inner_adversary(kp, kc, w1, w2, c1g.ravel(), p2g.ravel(), grid)


def discriminatory_ipe(a0_set: ActionSet, grid: float = 1e-2) -> DiscriminatoryResult:
    """Max-min value of agent-specific success wages w1 >= w2.

    The inner adversary chooses one costly unknown action (c1, p1) for agent
    one and one free action p2 for agent two to minimize
    p1*(1-w1) + p2*(1-w2) subject to each action being a best response
    against the known actions and the other unknown action.  Zero cost for
    the second action is without loss here because cost only tightens its
    incentive constraint without helping the objective.  Both layers run on
    grids of the same step; constraints hold up to IC_TOL.
    """
    check_known_assumptions(a0_set)
    if grid <= 0.0:
        raise ValueError("grid step must be positive")
    n = max(1, round(1.0 / grid))
    axis = np.linspace(0.0, 1.0, n + 1)
    kp = np.array([a.prob for a in a0_set.known])
    kc = np.array([a.cost for a in a0_set.known])

    c1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    c1f = c1g.ravel()
    p2f = p2g.ravel()

    best = None
    for w1 in axis:
        for w2 in axis[axis <= w1 + 1e-15]:
            inner, witness = _inner_adversary(kp, kc, float(w1), float(w2), c1f, p2f, grid)
            if witness is None:
                continue
            better = best is None or inner > best[0] or (
                inner == best[0] and (float(w1), float(w2)) < (best[1], best[2])
            )
            if better:
                best = (inner, float(w1), float(w2), witness)
    assert best is not None
    return DiscriminatoryResult(best[1], best[2], best[3], best[0])
