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
# action (5.0e7) fits, and takes a few seconds.  sweep: the same cells times
# its (p0, c0) cells, one known action each.  discriminate: wage pairs times
# known actions, whose payoffs each pair's inner LP reads.
MAX_GRID_WORK = 10**8
# discriminate: (N+1)(N+2)/2 wage pairs w2 <= w1, each one vertex pass of the
# inner LP; grid 1e-3 (5.0e5 pairs, about 2 s) fits, grid 5e-4 (2.0e6) does not.
MAX_WAGE_PAIRS = 10**6
# optimize and sweep: finest step refinement may reach.  Below it the window
# offsets fall under the rounding of the wages (15 rounds from 1e-2 reported
# w10 = 3e-17, regime MIXED, at a pooled optimum).
MIN_REFINED_STEP = 1e-12

# Cells per block of both scans: a wage triangle's value_grid calls and the
# discriminatory max-min's (36 vertices x wage pairs).  Every temporary stays at
# 32 KB, below the 64 KB free that makes glibc check whether to trim the
# heap and below its 128 KB mmap threshold, so a scan takes no minor page
# faults as the heap is trimmed and regrown (at 2^14 cells, thousands).
_BLOCK_CELLS = 1 << 12

# Vertex-feasibility margin of the discriminatory inner LP per unit of its
# magnitude 2 + max|m_i|, which bounds |a*p1| + |b*p2| + |r| for every
# residual a*p1 + b*p2 - r at a vertex in the unit box.  With unit roundoff
# u = 2**-53, the optimal vertices that Cramer's rule gave on 150 000 seeded
# wage pairs missed their lines by at most 2u; 4u per unit, so at least 8u,
# leaves room for that.
_VERTEX_UNITS = 2.0 ** -51

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


def _triangle_best(ax11: np.ndarray, ax10: np.ndarray, score, block_cells: int = _BLOCK_CELLS):
    """Best cell ``(w11, w10, value)`` of the grid ``ax11 x ax10`` on the
    triangle w10 <= w11 (to 1e-15), ties to the smallest (w11, w10), where
    ``score(w11, w10)`` values cells given as two flat arrays, elementwise.

    Both axes are non-decreasing, so each row's feasible columns are a
    prefix of ``ax10``.  The feasible cells are taken in row-major order, in
    blocks of ``block_cells`` cells, each one ``score`` call, which is
    elementwise, so each cell has the bits a full grid gives it.
    ``np.argmax`` takes a block's first maximum and a later block wins only
    when strictly greater: the first row-major maximum.  With no feasible
    cell the value is -inf at the first cell.
    """
    counts = np.searchsorted(ax10, ax11 + 1e-15, side="right")
    ends = np.cumsum(counts)
    starts = ends - counts
    best, total = (float(ax11[0]), float(ax10[0]), -math.inf), int(ends[-1])
    for lo in range(0, total, block_cells):
        hi = min(lo + block_cells, total)
        r0, r1 = np.searchsorted(ends, (lo, hi - 1), side="right") + (0, 1)
        lens = np.minimum(ends[r0:r1], hi) - np.maximum(starts[r0:r1], lo)  # in [lo, hi)
        w11 = np.repeat(ax11[r0:r1], lens)
        w10 = ax10[np.arange(lo, hi) - np.repeat(starts[r0:r1], lens)]
        vals = score(w11, w10)
        k = int(np.argmax(vals))
        if vals[k] > best[2]:
            best = (float(w11[k]), float(w10[k]), float(vals[k]))
    return best


def optimize_jpe(
    a0_set: ActionSet, coarse: float = 1e-2, refine_rounds: int = 3
) -> OptimizationResult:
    """Grid-plus-refinement maximization of the worst-case value.

    The coarse pass scans the feasible triangle at step ``coarse``, in
    blocks of cells with none above the diagonal (``_triangle_best``);
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

    def score(w11, w10):
        return value_grid(w11, w10, a0_set)

    b11, b10, bval = _triangle_best(axis, axis, score)

    step = coarse
    for _ in range(refine_rounds):
        new_step = step / 10.0
        offs = np.arange(-10, 11) * new_step
        # offs[10] is 0: the window holds the incumbent, scored to the same
        # bits, and _triangle_best keeps the smallest (w11, w10) of its ties
        b11, b10, bval = _triangle_best(np.clip(b11 + offs, 0.0, 1.0),
                                        np.clip(b10 + offs, 0.0, 1.0), score)
        step = new_step

    regime = POOLED if b10 <= step else MIXED
    return OptimizationResult(b11, b10, bval, step, refine_rounds > 0, regime)


def calibration_witness(a0_set: ActionSet) -> tuple[float, Contract, float]:
    """Smallest tried calibration offset whose joint evaluation strictly
    beats the best independent evaluation.

    Walks ``EPS_LADDER`` downward, calibrating w10 = w* - eps to the optimal
    independent wage and its targeted action, and returns the first eps
    improving the per-agent value by at least 1e-6.  Termination is
    guaranteed in theory because the profit's right-derivative at eps = 0 is
    p*w*(1-w*)/2 > 0; exhausting the ladder signals numerical pathology.
    """
    ipe = ipe_optimal(a0_set)
    for eps in EPS_LADDER:
        if eps >= ipe.w_star:
            continue
        contract = calibrate_jpe(ipe.w_star, ipe.a0_star, eps)
        val = jpe_value(contract, a0_set).per_agent
        if val >= ipe.per_agent + 1e-6:
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


def sweep_regimes(
    p_grid, c_grid, coarse: float = 1e-2, refine_rounds: int = 3
) -> list[SweepCell]:
    """Optimal wages per (p0, c0) cell; infeasible cells are flagged.

    Pooled cells (w10 = 0) arise where the surplus p0 - c0 is large, mixed
    cells (w10 > 0) where it is small and monitoring individual output pays.
    Refinement below ``MIN_REFINED_STEP``, or cells times triangle cells
    above ``MAX_GRID_WORK``, raises ValueError before any cell is solved.
    """
    _check_refinement(coarse, refine_rounds)
    cells = len(p_grid) * len(c_grid)
    _grid_intervals(coarse, lambda n: cells * (n + 1) * (n + 2) / 2, MAX_GRID_WORK,
                    f"value evaluations ({cells} sweep cells x triangle cells)")
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


# The inner LP's candidate vertices: each pair of its nine lines, in this
# fixed order, which breaks ties between equally good vertices.
_LINE_PAIRS = np.triu_indices(9, 1)


def _objective(p1, p2, w1, w2):
    return p1 * (1.0 - w1) + p2 * (1.0 - w2)


def _inner_lp(known: ActionSet, w1, w2):
    """The inner adversary's linear program at each wage pair of the arrays
    ``w1, w2``, solved by one vertex pass: arrays (value, c1, p1, p2).

    With m_i = max(p*w_i - c) over the known actions and tolerance t, some
    c1 meets both incentive constraints exactly when L = max(0, (p1-p2)*w2
    - t) <= min(1, p1*w1 - m1 + t, (p1-p2)*w1 + t), and the objective does
    not involve c1.  That leaves nine half-planes a*p1 + b*p2 >= r, with
    p2*w2 >= m2 - t and the unit box, which (1, 1) meets.  The minimum is at
    the best vertex, ties to the first in ``_LINE_PAIRS``; a vertex is
    feasible when no residual is below -tol, ``_VERTEX_UNITS`` times the
    magnitude.  The witness is that vertex clipped to the box, with c1 = L.
    At t = IC_TOL - 2*tol it meets IC_TOL in floating point, and the value
    exceeds the optimum at IC_TOL by 2*tol times the constraints'
    multipliers, which grow as 1/w1, 1/w2 and 1/(w1 - w2): below 1e-12
    where these are at most 100.
    """
    m1, m2 = ((np.multiply.outer(w, known.probs) - known.costs).max(axis=-1) for w in (w1, w2))
    zero, one, d = np.zeros_like(w1), np.ones_like(w1), w1 - w2
    a = np.stack([w1, w1, d, d, zero, one, -one, zero, zero])
    b = np.stack([zero, -w1, w2, -d, w2, zero, zero, one, -one])
    tol = _VERTEX_UNITS * (2.0 + np.maximum(abs(m1), abs(m2)))
    t = IC_TOL - 2.0 * tol
    r = np.stack([m1 - t, zero - t, m1 - 2.0 * t, zero - 2.0 * t, m2 - t, zero, -one, zero, -one])
    i, j = _LINE_PAIRS
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a[i] * b[j] - a[j] * b[i]
        p1 = (r[i] * b[j] - r[j] * b[i]) / det
        p2 = (a[i] * r[j] - a[j] * r[i]) / det
        ok = np.ones(det.shape, bool)
        for ak, bk, rk in zip(a, b, r):
            ok &= ak * p1 + bk * p2 - rk >= -tol
        best = np.where(ok, _objective(p1, p2, w1, w2), np.inf).argmin(axis=0)
    cols = np.arange(best.size)
    # + 0.0 turns the -0.0 of some vertices into 0.0
    p1, p2 = (np.clip(p[best, cols], 0.0, 1.0) + 0.0 for p in (p1, p2))
    c1 = np.maximum(0.0, (p1 - p2) * w2 - t)
    return _objective(p1, p2, w1, w2), c1, p1, p2


def discriminatory_inner(
    a0_set: ActionSet, w1: float, w2: float
) -> tuple[float, tuple[float, float, float]]:
    """Worst-case total for fixed agent-specific wages (w1, w2) in [0, 1]:
    (value, (c1, p1, p2)), the optimum of the inner LP (``_inner_lp``)."""
    if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
        raise ValueError(f"wages ({w1!r}, {w2!r}) must lie in [0, 1]")
    v, c1, p1, p2 = (float(x[0]) for x in _inner_lp(a0_set.known, *np.array([[w1], [w2]], float)))
    return v, (c1, p1, p2)


def discriminatory_ipe(a0_set: ActionSet, grid: float = 1e-2) -> DiscriminatoryResult:
    """Max-min value of agent-specific success wages w1 >= w2.

    The inner adversary chooses one costly unknown action (c1, p1) for agent
    one and one free action p2 for agent two to minimize
    p1*(1-w1) + p2*(1-w2) subject to each action being a best response,
    up to IC_TOL, against the known actions and the other unknown action.
    Zero cost for the second action is without loss here because cost only
    tightens its incentive constraint without helping the objective.  For
    fixed wages this is a linear program, solved by ``_inner_lp``.
    The wages run over the axis of N = round(1/grid) intervals, every pair
    w2 <= w1 in blocks (``_triangle_best``) of about ``_BLOCK_CELLS``
    vertices or known-action payoffs, one pair at least; ties go to the
    smallest (w1, w2).  A step whose (N+1)(N+2)/2 wage pairs exceed
    ``MAX_WAGE_PAIRS``, or whose pairs times known actions exceed
    ``MAX_GRID_WORK``, raises ValueError.
    """
    check_known_assumptions(a0_set)
    k = len(a0_set.known)
    n = _grid_intervals(grid, lambda n: (n + 1) * (n + 2) / 2, MAX_WAGE_PAIRS,
                        "wage pairs (w2 <= w1)")
    _grid_intervals(grid, lambda n: (n + 1) * (n + 2) / 2 * k, MAX_GRID_WORK,
                    "known-action payoffs (wage pairs x known actions)")
    axis = np.linspace(0.0, 1.0, n + 1)
    w1, w2, _ = _triangle_best(axis, axis, lambda w1, w2: _inner_lp(a0_set.known, w1, w2)[0],
                               max(1, _BLOCK_CELLS // max(len(_LINE_PAIRS[0]), k)))
    val, witness = discriminatory_inner(a0_set, w1, w2)
    return DiscriminatoryResult(w1, w2, witness, val)
