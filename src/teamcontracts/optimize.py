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
# discriminate: N+1 inner-adversary rows, one cell scored in each, for each of
# the (N+1)(N+2)/2 wage pairs and each of the N+1 values of w1; grid 1e-3
# (5.0e8, about 40 s) fits, grid 5e-4 (4.0e9) does not.
MAX_INNER_CELLS = 6 * 10**8
# optimize and sweep: finest step refinement may reach.  Below it the window
# offsets fall under the rounding of the wages (15 rounds from 1e-2 reported
# w10 = 3e-17, regime MIXED, at a pooled optimum).
MIN_REFINED_STEP = 1e-12

# Cells per block of both scans: a wage triangle's value_grid calls and the
# discriminatory max-min's (w2 values x c1 rows).  Every temporary stays at
# 32 KB, below the 64 KB free that makes glibc check whether to trim the
# heap and below its 128 KB mmap threshold, so a scan takes no minor page
# faults as the heap is trimmed and regrown (at 2^14 cells, thousands).
_BLOCK_CELLS = 1 << 12

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


def _check_refinement(coarse: float, refine_rounds: int) -> None:
    """Refuse with ValueError refinement whose final step is below
    ``MIN_REFINED_STEP``."""
    final = coarse * 10.0 ** -refine_rounds
    if refine_rounds > 0 and not final >= MIN_REFINED_STEP:
        raise ValueError(f"{refine_rounds} refinement rounds from grid step {coarse!r} reach "
                         f"step {final:.3g}, below {MIN_REFINED_STEP:g}; use fewer rounds")


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
    triangle cells times known actions exceed ``MAX_GRID_WORK``, or a final
    step below ``MIN_REFINED_STEP``, raises ValueError.
    """
    check_known_assumptions(a0_set)
    n = _grid_intervals(coarse, lambda n: (n + 1) * (n + 2) / 2 * len(a0_set.known),
                        MAX_GRID_WORK, "value evaluations (triangle cells x known actions)")
    _check_refinement(coarse, refine_rounds)
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
    Refinement below ``MIN_REFINED_STEP`` raises ValueError.
    """
    _check_refinement(coarse, refine_rounds)
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
    dense_rows: int = 0  # c1 rows the inner minima scored cell by cell

    def to_json(self) -> dict:
        c1, p1, p2 = self.inner_witness
        return {
            "w1": self.w1,
            "w2": self.w2,
            "inner_witness": {"c1": c1, "p1": p1, "p2": p2},
            "value_total": self.value_total,
            "value_per_agent": self.value_total / 2.0,
        }


def _agent_one(p2w1, c1, m1, w1, grid):
    """Agent one's least best response p1 on the grid, clipped to [0, 1], and
    whether it is at most 1, elementwise, given ``p2w1`` = p2*w1: the grid
    ceiling of (max(m1, p2*w1) + c1 - IC_TOL)^+ / w1."""
    if w1 > 0.0:
        p1 = np.ceil(np.clip(np.maximum(m1, p2w1) + c1 - IC_TOL, 0.0, None) / w1 / grid
                     - 1e-9) * grid
        return np.clip(p1, 0.0, 1.0), p1 <= 1.0 + 1e-12
    # w1 = 0 forces c1 = 0 (up to tolerance); any p1 is a best response
    # then, and 0 minimizes the objective.
    feas = np.broadcast_to(c1 <= IC_TOL, np.broadcast(p2w1, c1).shape)
    return np.zeros(feas.shape), feas


def _agent_two_ok(p2w2, p1, c1, m2, w2):
    """Agent two's incentive constraint p2*w2 >= max(m2, p1*w2 - c1) - IC_TOL."""
    return p2w2 >= np.maximum(m2, p1 * w2 - c1) - IC_TOL


def _objective(p1, p2, w1, w2):
    return p1 * (1.0 - w1) + p2 * (1.0 - w2)


def _dense_row(axis, grid, w1, m1, w2, m2, c1):
    """First minimum ``(value, p1, p2)`` of the objective over the c1 row of
    the grid, scored cell by cell; value inf if no cell is feasible."""
    p1, feas = _agent_one(axis * w1, c1, m1, w1, grid)
    feas = feas & _agent_two_ok(axis * w2, p1, c1, m2, w2)
    obj = np.where(feas, _objective(p1, axis, w1, w2), np.inf)
    j = int(np.argmin(obj))
    return obj[j], p1[j], axis[j]


def _regime_a(axis, grid, w1, m1):
    """Regime A of agent one's wage ``w1`` (best known payoff ``m1``): the
    number of p2 cells with p2*w1 <= m1 (all of them at w1 = 0), where p1
    depends on c1 alone, and that p1 for each c1 row."""
    ja = int(np.searchsorted(axis * w1, m1, side="right")) if w1 > 0.0 else axis.size
    return ja, _agent_one(m1, axis, m1, w1, grid)[0]


def _inner_rows(axis, grid, w1, m1, w2, m2, ja, pa):
    """Adversary's grid minimum of p1*(1-w1) + p2*(1-w2) over (c1, p2) in
    ``axis x axis``, for agent one's wage ``w1`` in [0, 1] (best known payoff
    ``m1``, regime A ``ja, pa`` from ``_regime_a``) and each wage of the
    array ``w2`` in [0, 1] (best known payoffs ``m2``).

    (c1, p1) is agent one's unknown action and p2 agent two's free action;
    each must best-respond against the known actions and the other unknown
    action up to IC_TOL.  Returns, per w2, the value (inf if no cell is
    feasible) and the (c1, p1, p2) of the first minimum in row-major order,
    as arrays, and the number of c1 rows scored cell by cell.

    Every rounded step that builds p1, and the objective, is non-decreasing
    in p2 along a c1 row, so a row's first minimum is its first feasible
    cell, and only that cell is scored.  Agent one's constraint p1 <= 1
    holds on a prefix of the row.  Agent two's is
    p2*w2 >= max(m2 - IC_TOL, (p1*w2 - c1) - IC_TOL), once rounded; its m2
    part holds on a suffix.  Where p2*w1 <= m1 (regime A, a prefix common
    to all rows) p1 is the row's constant, so the whole constraint holds on
    a suffix, found by one search.  Otherwise the row's first candidate is
    the first cell j0 of regime B past the m2 threshold.  If the coupled
    part fails there, the row is undecided: its objective at j0 bounds it
    from below, and it is scored cell by cell when that bound does not
    exceed the least value of the decided rows.
    """
    n = axis.size
    w2, m2 = w2[:, None], m2[:, None]
    q = w2 * axis                                # p2*w2, non-decreasing along each row
    targets = np.concatenate([np.maximum(m2, pa * w2 - axis) - IC_TOL, m2 - IC_TOL], axis=1)
    first = np.array([qk.searchsorted(tk) for qk, tk in zip(q, targets)])
    j = np.where(first[:, :-1] < ja, first[:, :-1], np.maximum(ja, first[:, -1:]))
    scored = j < n
    j = np.minimum(j, n - 1)
    ks = np.arange(len(q))
    p2 = axis[j]
    p1, feas = _agent_one(p2 * w1, axis, m1, w1, grid)
    ok = _agent_two_ok(q[ks[:, None], j], p1, axis, m2, w2)
    feas = feas & scored
    bound = _objective(p1, p2, w1, w2)
    val = np.where(feas & ok, bound, np.inf)
    rows = val.argmin(axis=1)
    undecided = feas & ~ok & (bound <= val[ks, rows][:, None])
    for k, i in np.argwhere(undecided):
        val[k, i], p1[k, i], p2[k, i] = _dense_row(axis, grid, w1, m1, float(w2[k, 0]),
                                                   float(m2[k, 0]), axis[i])
        rows[k] = np.argmin(val[k])
    return val[ks, rows], axis[rows], p1[ks, rows], p2[ks, rows], int(undecided.sum())


def _best_known(kp, kc, w):
    """An agent's best known payoff max(p*w - c) at each wage of ``w``."""
    return (np.multiply.outer(w, kp) - kc).max(axis=-1)


def _inner_grid(a0_set: ActionSet, grid: float, rows):
    """The axis of N = round(1/grid) intervals and the known (prob, cost),
    refusing a step whose ``rows(N)`` rows would exceed ``MAX_INNER_CELLS``."""
    n = _grid_intervals(grid, rows, MAX_INNER_CELLS,
                        "inner-adversary rows (N+1 per wage pair and per agent-one wage)")
    known = a0_set.known
    return np.linspace(0.0, 1.0, n + 1), known.probs, known.costs


def discriminatory_inner(
    a0_set: ActionSet, w1: float, w2: float, grid: float = 1e-2
) -> tuple[float, tuple[float, float, float] | None]:
    """Worst-case total for fixed agent-specific wages (w1, w2) in [0, 1]:
    (value, (c1, p1, p2)), or (inf, None) if no grid cell is feasible."""
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise ValueError(f"wages ({w1!r}, {w2!r}) must lie in [0, 1]")
    axis, kp, kc = _inner_grid(a0_set, grid, lambda n: 2 * (n + 1))
    w1, w2s = float(w1), np.array([float(w2)])
    m1 = float(_best_known(kp, kc, w1))
    val, c1, p1, p2, _ = _inner_rows(axis, axis[1], w1, m1, w2s, _best_known(kp, kc, w2s),
                                     *_regime_a(axis, axis[1], w1, m1))
    if not math.isfinite(val[0]):
        return math.inf, None
    return float(val[0]), (float(c1[0]), float(p1[0]), float(p2[0]))


def discriminatory_ipe(a0_set: ActionSet, grid: float = 1e-2) -> DiscriminatoryResult:
    """Max-min value of agent-specific success wages w1 >= w2.

    The inner adversary chooses one costly unknown action (c1, p1) for agent
    one and one free action p2 for agent two to minimize
    p1*(1-w1) + p2*(1-w2) subject to each action being a best response
    against the known actions and the other unknown action.  Zero cost for
    the second action is without loss here because cost only tightens its
    incentive constraint without helping the objective.  Both layers, and
    both agents' actions, run on one grid of spacing 1/N, N = round(1/grid);
    constraints hold up to IC_TOL.  For each w1 the inner minima of all
    w2 <= w1 come from ``_inner_rows``, in blocks of at most ``_BLOCK_CELLS``
    rows; ties go to the smallest (w1, w2).  A step whose rows exceed
    ``MAX_INNER_CELLS`` raises ValueError.
    """
    check_known_assumptions(a0_set)
    axis, kp, kc = _inner_grid(a0_set, grid,
                               lambda n: (n + 1) * ((n + 1) * (n + 2) / 2 + n + 1))
    grid = axis[1]
    block = max(1, _BLOCK_CELLS // axis.size)
    best, dense = None, 0
    for w1 in map(float, axis):
        m1 = float(_best_known(kp, kc, w1))
        regime_a = _regime_a(axis, grid, w1, m1)
        w2s = axis[:np.searchsorted(axis, w1 + 1e-15, side="right")]
        for s in range(0, w2s.size, block):
            w2 = w2s[s:s + block]
            val, c1, p1, p2, d = _inner_rows(axis, grid, w1, m1, w2, _best_known(kp, kc, w2),
                                             *regime_a)
            dense += d
            k = int(np.argmax(np.where(val < np.inf, val, -np.inf)))
            if val[k] < np.inf and (best is None or val[k] > best[0]):
                best = (float(val[k]), w1, float(w2[k]),
                        (float(c1[k]), float(p1[k]), float(p2[k])))
    assert best is not None
    return DiscriminatoryResult(best[1], best[2], best[3], best[0], dense)
