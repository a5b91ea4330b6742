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

# Caps on the work one request may ask for, checked before any grid is built.
# optimize: wage-triangle cells times known actions; step 1e-4 with one known
# action (5.0e7) fits, and takes a few seconds.
MAX_GRID_WORK = 10**8
# discriminate: (N+1)^2 inner cells for each of the (N+1)(N+2)/2 wage pairs;
# grid 1e-2 (5.3e7) fits, grid 1e-3 (5.0e11) does not.
MAX_INNER_CELLS = 10**9

# Cells per value_grid call when scanning a wage triangle: 128 KB per
# temporary whatever the step.  Blocks of 2^16 cells were slower at step 1e-3
# and raised peak RSS by 6 MB more.
_BLOCK_CELLS = 1 << 14

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


def _grid_intervals(step: float, work, cap: int, unit: str) -> int:
    """Number of intervals of a grid of step ``step`` on [0, 1], refusing
    with ValueError, before anything is allocated, a grid whose estimate
    ``work(n)`` exceeds ``cap``."""
    if not step > 0.0:
        raise ValueError("grid step must be positive")
    inv = 1.0 / step
    n = max(1, round(inv)) if math.isfinite(inv) else math.inf
    estimate = work(float(n))
    if estimate > cap:
        raise ValueError(f"grid step {step!r} asks for about {estimate:.3g} {unit}, "
                         f"above the cap of {cap:.3g}; use a coarser step")
    return int(n)


def _triangle_best(ax11: np.ndarray, ax10: np.ndarray, a0_set: ActionSet,
                   block_cells: int = _BLOCK_CELLS):
    """Best cell ``(w11, w10, value)`` of the grid ``ax11 x ax10`` on the
    triangle w10 <= w11 (to 1e-15), ties to the smallest (w11, w10).

    Both axes are non-decreasing, so each row's feasible columns are a
    prefix of ``ax10``.  Rows are taken in blocks of at most ``block_cells``
    cells (at least one row), and a block's feasible cells are gathered in
    row-major order into one ``value_grid`` call, which is elementwise, so
    each cell has the bits a full grid gives it.  ``np.argmax`` takes a
    block's first maximum and a later block wins only when strictly
    greater: the first row-major maximum.  With no feasible cell the value
    is -inf at the first cell.
    """
    counts = np.searchsorted(ax10, ax11 + 1e-15, side="right")
    ends = np.cumsum(counts)
    best = (float(ax11[0]), float(ax10[0]), -math.inf)
    r0 = 0
    while r0 < len(ax11):
        start = ends[r0] - counts[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, start + block_cells, side="right")))
        rows = counts[r0:r1]
        w11 = np.repeat(ax11[r0:r1], rows)
        w10 = ax10[np.arange(w11.size) - np.repeat(ends[r0:r1] - rows - start, rows)]
        r0 = r1
        if w11.size:
            vals = value_grid(w11, w10, a0_set)
            k = int(np.argmax(vals))
            if vals[k] > best[2]:
                best = (float(w11[k]), float(w10[k]), float(vals[k]))
    return best


def optimize_jpe(
    a0_set: ActionSet, coarse: float = 1e-2, refine_rounds: int = 3
) -> OptimizationResult:
    """Grid-plus-refinement maximization of the worst-case value.

    The coarse pass scans the feasible triangle at step ``coarse``, in
    blocks of w11 rows with no cell above the diagonal (``_triangle_best``);
    each refinement round re-grids a window of one old step around the
    incumbent at a tenth of the step.  The incumbent is always re-evaluated,
    so the value is non-decreasing in ``refine_rounds``.  Existence of a
    maximizer follows from continuity on the compact triangle.  A step whose
    triangle cells times known actions exceed ``MAX_GRID_WORK`` raises
    ValueError.
    """
    check_known_assumptions(a0_set)
    n = _grid_intervals(coarse, lambda n: (n + 1) * (n + 2) / 2 * len(a0_set.known),
                        MAX_GRID_WORK, "value evaluations (triangle cells x known actions)")
    axis = np.linspace(0.0, 1.0, n + 1)
    b11, b10, bval = _triangle_best(axis, axis, a0_set)

    step = coarse
    for _ in range(refine_rounds):
        new_step = step / 10.0
        offs = np.arange(-10, 11) * new_step
        c11, c10, cval = _triangle_best(np.clip(b11 + offs, 0.0, 1.0),
                                        np.clip(b10 + offs, 0.0, 1.0), a0_set)
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


def _inner_work(size: int):
    """Work arrays for ``_inner_adversary``: p1, objective, scratch, two masks."""
    return (np.empty(size), np.empty(size), np.empty(size),
            np.empty(size, dtype=bool), np.empty(size, dtype=bool))


def _inner_adversary(kp, kc, w1, w2, c1f, p2f, grid, work):
    """Adversary's grid minimum of p1*(1-w1) + p2*(1-w2) at fixed wages.

    (c1, p1) is agent one's unknown action and p2 agent two's free action;
    each must best-respond against the known actions and the other unknown
    action up to IC_TOL.  Returns (value, (c1, p1, p2)) or (inf, None).
    Every array step writes into ``work`` (from ``_inner_work``), which the
    max-min scan reuses for all its wage pairs, so no call allocates a
    grid-sized array.
    """
    p1f, obj, tmp, feas, ok = work
    m1 = float((kp * w1 - kc).max())
    m2 = float((kp * w2 - kc).max())
    if w1 > 0.0:
        # p1 = grid ceiling of (max(m1, p2*w1) + c1 - IC_TOL)^+ / w1
        np.multiply(p2f, w1, out=p1f)
        np.maximum(m1, p1f, out=p1f)
        np.add(p1f, c1f, out=p1f)
        np.subtract(p1f, IC_TOL, out=p1f)
        np.clip(p1f, 0.0, None, out=p1f)
        np.divide(p1f, w1, out=p1f)
        np.divide(p1f, grid, out=p1f)
        np.subtract(p1f, 1e-9, out=p1f)
        np.ceil(p1f, out=p1f)
        np.multiply(p1f, grid, out=p1f)
        np.less_equal(p1f, 1.0 + 1e-12, out=feas)
        np.clip(p1f, 0.0, 1.0, out=p1f)
    else:
        # w1 = 0 forces c1 = 0 (up to tolerance); any p1 is a best
        # response then, and 0 minimizes the objective.
        np.less_equal(c1f, IC_TOL, out=feas)
        p1f.fill(0.0)
    # agent two: p2*w2 >= max(m2, p1*w2 - c1) - IC_TOL
    np.multiply(p1f, w2, out=tmp)
    np.subtract(tmp, c1f, out=tmp)
    np.maximum(m2, tmp, out=tmp)
    np.subtract(tmp, IC_TOL, out=tmp)
    np.multiply(p2f, w2, out=obj)
    np.greater_equal(obj, tmp, out=ok)
    feas &= ok
    np.multiply(p1f, 1.0 - w1, out=obj)
    np.multiply(p2f, 1.0 - w2, out=tmp)
    np.add(obj, tmp, out=obj)
    np.logical_not(feas, out=ok)
    np.copyto(obj, np.inf, where=ok)
    k = int(np.argmin(obj))
    val = float(obj[k])
    if not math.isfinite(val):
        return math.inf, None
    return val, (float(c1f[k]), float(p1f[k]), float(p2f[k]))


def _inner_grid(a0_set: ActionSet, grid: float, pairs):
    """The axis, the known actions' (prob, cost) and the flat (c1, p2) grid,
    refusing a step whose ``pairs(N)`` inner scans of (N+1)^2 cells would
    exceed ``MAX_INNER_CELLS``."""
    n = _grid_intervals(grid, lambda n: (n + 1) ** 2 * pairs(n), MAX_INNER_CELLS,
                        "inner-adversary cells ((N+1)^2 per wage pair)")
    axis = np.linspace(0.0, 1.0, n + 1)
    kp = np.array([a.prob for a in a0_set.known])
    kc = np.array([a.cost for a in a0_set.known])
    c1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    return axis, kp, kc, c1g.ravel(), p2g.ravel()


def discriminatory_inner(
    a0_set: ActionSet, w1: float, w2: float, grid: float = 1e-2
) -> tuple[float, tuple[float, float, float] | None]:
    """Worst-case total for fixed agent-specific wages (w1, w2)."""
    _, kp, kc, c1f, p2f = _inner_grid(a0_set, grid, lambda n: 1)
    return _inner_adversary(kp, kc, w1, w2, c1f, p2f, grid, _inner_work(c1f.size))


def discriminatory_ipe(a0_set: ActionSet, grid: float = 1e-2) -> DiscriminatoryResult:
    """Max-min value of agent-specific success wages w1 >= w2.

    The inner adversary chooses one costly unknown action (c1, p1) for agent
    one and one free action p2 for agent two to minimize
    p1*(1-w1) + p2*(1-w2) subject to each action being a best response
    against the known actions and the other unknown action.  Zero cost for
    the second action is without loss here because cost only tightens its
    incentive constraint without helping the objective.  Both layers run on
    grids of the same step; constraints hold up to IC_TOL.  A step whose
    scan exceeds ``MAX_INNER_CELLS`` raises ValueError.
    """
    check_known_assumptions(a0_set)
    axis, kp, kc, c1f, p2f = _inner_grid(a0_set, grid, lambda n: (n + 1) * (n + 2) / 2)
    work = _inner_work(c1f.size)

    best = None
    for w1 in axis:
        for w2 in axis[axis <= w1 + 1e-15]:
            inner, witness = _inner_adversary(kp, kc, float(w1), float(w2), c1f, p2f,
                                              grid, work)
            if witness is None:
                continue
            better = best is None or inner > best[0] or (
                inner == best[0] and (float(w1), float(w2)) < (best[1], best[2])
            )
            if better:
                best = (inner, float(w1), float(w2), witness)
    assert best is not None
    return DiscriminatoryResult(best[1], best[2], best[3], best[0])
