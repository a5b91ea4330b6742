"""Randomized property suites and independent numerical oracles.

Everything here is driven by an explicit seed so runs are reproducible.
The quadrature routine integrates the undercut dynamics in p with an
error-controlled Dormand-Prince 5(4) pair, and exists purely to cross-check
the closed forms; production code never integrates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import game as gm
from . import model as md
from . import optimize as opt
from . import worstcase as wc
from .extensions import pessimistic_value


# ---------------------------------------------------------------------------
# Quadrature oracles
# ---------------------------------------------------------------------------

ODE_RTOL, ODE_ATOL = 1e-12, 1e-13
ODE_MAX_ROUNDS = 1000

# Dormand-Prince 5(4): the stage rows, the last giving the fifth-order point, and
# the fifth- less fourth-order weights, which estimate the error of a step.
_DP_ROWS = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
            (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
            (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
            (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def undercut_ode(w11, w10, p0, budget):
    """Integrate dp/dt = -1/s(p), s(p) = w10 + (w11 - w10)*p, over ``budget``.

    All arguments broadcast, so a batch of instances integrates in one pass,
    each with its own step size: a Dormand-Prince 5(4) pair accepts a step
    when its error estimate is within ODE_ATOL + ODE_RTOL*|p|.  Returns
    (p_end, d_min, rounds, err): d_min is the smallest wage denominator s at
    the accepted points of the path, rounds the number of steps, accepted or
    not, the batch took, and err each path's largest accepted error estimate.

    A stage with s <= 0 has crossed the singularity, and a path that has not
    spent its budget within ODE_MAX_ROUNDS rounds counts as crossed too.  A
    crossed path gets d_min = -inf, so no path kept at d_min >= d > 0 had a
    stage at or past the singularity.

    Raises ValueError unless every input is finite, w11 > w10 and budget >= 0.
    """
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w10, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w10, p0, budget))
    if not all(np.isfinite(x).all() for x in (w11, w10, p0, budget)):
        raise ValueError("undercut_ode needs finite inputs")
    if not (w11 > w10).all() or not (budget >= 0.0).all():
        raise ValueError("undercut_ode needs w11 > w10 and budget >= 0")

    gap = w11 - w10
    p, t, err, d_min = p0.copy(), np.zeros_like(p0), np.zeros_like(p0), w10 + gap * p0
    crossed = np.zeros_like(p0, dtype=bool)
    # a first step that moves s by about ODE_RTOL**0.2 of itself
    h = np.minimum(budget, ODE_RTOL ** 0.2 * d_min * d_min / gap)
    with np.errstate(all="ignore"):
        for rounds in range(ODE_MAX_ROUNDS + 1):
            live = ~crossed & (t < budget)
            if rounds == ODE_MAX_ROUNDS or not live.any():
                break
            h = np.where(live, np.minimum(h, budget - t), 0.0)
            ks = []
            for row in _DP_ROWS:
                x = p + h * sum(a * k for a, k in zip(row, ks) if a)
                s = w10 + gap * x
                crossed |= s <= 0.0
                ks.append(-1.0 / s)
            est = np.abs(h * sum(e * k for e, k in zip(_DP_ERR, ks) if e))
            ratio = est / (ODE_ATOL + ODE_RTOL * np.maximum(np.abs(p), np.abs(x)))
            ok = (ratio <= 1.0) & ~crossed
            p, t = np.where(ok, x, p), np.where(ok, t + h, t)
            d_min = np.where(ok, np.minimum(d_min, s), d_min)
            err = np.where(ok, np.maximum(err, est), err)
            h = h * np.clip(0.9 * ratio ** -0.2, 0.2, 5.0)
    return p, np.where(crossed | live, -np.inf, d_min), rounds, err


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------

def draw_known_set(rng: np.random.Generator, max_known: int = 3) -> md.ActionSet:
    """1..max_known costly known actions, the first surplus-positive."""
    k = int(rng.integers(1, max_known + 1))
    p0 = rng.uniform(0.3, 1.0)
    c0 = p0 * rng.uniform(0.05, 0.9)
    pairs = [(c0, p0)]
    for _ in range(k - 1):
        pairs.append((rng.uniform(0.02, 1.0), rng.uniform(0.05, 1.0)))
    return md.ActionSet.from_pairs(pairs)


def draw_superset(rng: np.random.Generator, a0_set: md.ActionSet) -> md.ActionSet:
    """``a0_set`` plus 0..3 unknown actions."""
    extra = [
        md.ActionSpec(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        for _ in range(int(rng.integers(0, 4)))
    ]
    return a0_set.extend(extra)


def draw_jpe(rng: np.random.Generator) -> md.Contract:
    # Pooled schemes (w10 = 0) get extra mass: they sit on the boundary
    # where the chain error bound degenerates.
    w10 = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.6)
    w11 = rng.uniform(w10 + 0.02, 1.1)
    return md.Contract(w11, w10, 0.0, 0.0)


def draw_rpe(rng: np.random.Generator) -> md.Contract:
    w10 = rng.uniform(0.05, 1.0)
    w11 = rng.uniform(0.0, w10 * 0.95)
    return md.Contract(w11, w10, 0.0, 0.0)


def draw_random_contract(rng: np.random.Generator) -> md.Contract:
    return md.Contract(*rng.uniform(0.0, 1.0, size=4))


def draw_action_set(rng: np.random.Generator) -> md.ActionSet:
    """2..5 actions, all known."""
    k = int(rng.integers(2, 6))
    pairs = [(rng.uniform(0.0, 0.8), rng.uniform(0.0, 1.0)) for _ in range(k)]
    return md.ActionSet.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _result(name, failures, total, extra=""):
    detail = f"{total - len(failures)}/{total} ok"
    if extra:
        detail += f"; {extra}"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return SuiteResult(name, not failures, detail)


def suite_classification(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_random_contract(rng)
        w11, w10, w01, w00 = w.as_tuple()
        is_ipe = (w11 == w10) and (w01 == w00)
        is_jpe = w11 >= w10 and w01 >= w00 and (w11 > w10 or w01 > w00)
        is_rpe = w11 <= w10 and w01 <= w00 and (w10 > w11 or w00 > w01)
        expected = (
            md.IPE if is_ipe else md.JPE if is_jpe else md.RPE if is_rpe else md.OTHER
        )
        if sum((is_ipe, is_jpe, is_rpe)) > 1:
            failures.append(f"trial {t}: overlapping classes for {w.as_tuple()}")
            continue
        if md.classify(w).tag != expected:
            failures.append(f"trial {t}: classify gave {md.classify(w).tag}, "
                            f"expected {expected}")
        r = md.reduce_failure_wages(w)
        if md.reduce_failure_wages(r) != r:
            failures.append(f"trial {t}: reduction not idempotent")
        if any(b > a for a, b in zip(w.as_tuple(), r.as_tuple())):
            failures.append(f"trial {t}: reduction raised a wage")
        w_star = rng.uniform(0.1, 1.0)
        eps = w_star * rng.uniform(0.05, 0.9)
        a0 = md.ActionSpec(0.0, rng.uniform(0.05, 1.0))
        cal = md.calibrate_jpe(w_star, a0, eps)
        ident = a0.prob * cal.w11 + (1.0 - a0.prob) * cal.w10
        cls = md.classify(cal)
        if abs(ident - w_star) > 1e-12 or cls.tag != md.JPE or cls.affine:
            failures.append(f"trial {t}: calibration identity/class failed")
    return _result("contract classification and reductions", failures, trials)


def suite_reduction_equilibria(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_random_contract(rng)
        acts = draw_action_set(rng)
        g1 = gm.induce_game(w, acts)
        g2 = gm.induce_game(md.reduce_failure_wages(w), acts)
        e1 = {p.indices for p in gm.enumerate_equilibria(g1)}
        e2 = {p.indices for p in gm.enumerate_equilibria(g2)}
        if e1 != e2:
            failures.append(f"trial {t}: {sorted(e1)} != {sorted(e2)}")
    return _result("failure-wage reduction preserves equilibria", failures, trials)


def suite_supermodular_dynamics(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_jpe(rng)
        acts = draw_superset(rng, draw_known_set(rng))
        g = gm.induce_game(w, acts)
        if gm.check_modularity(g) not in (gm.SUPERMODULAR, gm.BOTH):
            failures.append(f"trial {t}: joint evaluation not supermodular")
            continue
        hi, _ = gm.extremal_br_path(g, "MAX")
        lo, _ = gm.extremal_br_path(g, "MIN")
        if not gm.verify_profile(g, gm.Profile.pure(hi, hi)):
            failures.append(f"trial {t}: max-BR limit not an equilibrium")
        if not gm.verify_profile(g, gm.Profile.pure(lo, lo)):
            failures.append(f"trial {t}: min-BR limit not an equilibrium")
        rank = {idx: r for r, idx in enumerate(acts.ranking())}
        for prof in gm.enumerate_equilibria(g):
            i, j = prof.indices
            for a in (i, j):
                if not rank[hi] <= rank[a] <= rank[lo]:
                    failures.append(f"trial {t}: equilibrium outside bracket")
                    break
    return _result("supermodular extremal dynamics bracket equilibria", failures, trials)


def suite_submodular_paired_map(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_rpe(rng)
        acts = draw_superset(rng, draw_known_set(rng))
        g = gm.induce_game(w, acts)
        if gm.check_modularity(g) not in (gm.SUBMODULAR, gm.BOTH):
            failures.append(f"trial {t}: relative evaluation not submodular")
            continue
        a, b = gm.paired_br_limit(g)
        if not (gm.verify_profile(g, gm.Profile.pure(a, b))
                and gm.verify_profile(g, gm.Profile.pure(b, a))):
            failures.append(f"trial {t}: paired-map limit not an equilibrium")
    return _result("submodular paired best responses reach equilibria", failures, trials)


def suite_rpe_dominance(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_rpe(rng)
        a0 = draw_known_set(rng)
        lhs = wc.worst_case_value(w, a0).per_agent
        rhs = wc.ipe_optimal(a0).per_agent
        if lhs > rhs + 1e-9:
            failures.append(f"trial {t}: relative {lhs} > independent {rhs}")
    return _result("relative evaluation never beats best independent", failures, trials)


def _chain_max_eq(w, best, n) -> float:
    """The maximal-equilibrium probability of the n-step chain extending ``best``."""
    chain = wc.euler_adversary(best, n).actions
    return float(chain.probs[gm.extremal_br_path(gm.induce_game(w, chain), "MAX")[0]])


def suite_lower_bound_tightness(rng, trials, chain_n) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_jpe(rng)
        a0 = draw_known_set(rng)
        best = wc.best_known_solution(w.w10, w.w11, a0)
        pbar = best.p_end

        acts = draw_superset(rng, a0)
        g = gm.induce_game(w, acts)
        hi, _ = gm.extremal_br_path(g, "MAX")
        if acts.probs[hi] < pbar - 1e-6:
            failures.append(
                f"trial {t}: maximal equilibrium prob {float(acts.probs[hi])} "
                f"below floor {pbar}"
            )
            continue

        end = _chain_max_eq(w, best, chain_n)
        err = abs(end - pbar)
        bound = wc.euler_error_bound(best, chain_n)
        if np.isfinite(bound):
            if err > max(bound, 5e-3):
                failures.append(
                    f"trial {t}: chain endpoint {end} misses floor "
                    f"{pbar} by {err} > {max(bound, 5e-3)}"
                )
        else:
            # No finite bound at the collapse point; check convergence
            # empirically against a four-times-coarser chain.
            err_coarse = abs(_chain_max_eq(w, best, max(2, chain_n // 4)) - pbar)
            if not (err <= 5e-3 or err < err_coarse):
                failures.append(
                    f"trial {t}: no empirical convergence ({err_coarse} -> {err})"
                )
    return _result("worst-case floor is tight for undercut chains", failures, trials)


def suite_quadrature(rng, trials) -> SuiteResult:
    n_cand = trials * 3
    w10 = rng.uniform(0.0, 0.7, n_cand)
    gap = rng.uniform(0.05, 1.0, n_cand)
    w11 = w10 + gap
    p0 = rng.uniform(0.3, 1.0, n_cand)
    t_zero = w10 * p0 + gap * p0 * p0 / 2.0
    c0 = t_zero * rng.uniform(0.1, 0.85, n_cand)
    p_num, d_min, _, err = undercut_ode(w11, w10, p0, c0)
    keep = np.flatnonzero(d_min >= 0.02)[:trials]
    failures = [f"trial {k}: no regular instance left" for k in range(len(keep), trials)]
    for t in keep:
        closed = wc.best_known_solution(w10[t], w11[t], md.ActionSet([c0[t]], [p0[t]])).p_end
        if abs(closed - p_num[t]) > 1e-6 or err[t] > 1e-9:
            failures.append(f"instance {t}: closed {closed} vs quadrature {p_num[t]}"
                            f" (error estimate {err[t]:.1e})")
    extra = f"{len(keep)} regular instances of {n_cand} sampled"
    return _result("closed form matches quadrature oracle", failures, trials, extra)


def suite_calibration_limits(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        p0 = rng.uniform(0.3, 1.0)
        c0 = p0 * rng.uniform(0.05, 0.8)
        a0 = md.ActionSpec(c0, p0)
        a0_set = md.ActionSet([c0], [p0])
        w_star = float(np.sqrt(c0 / p0))

        def pbar_eps(eps):
            cal = md.calibrate_jpe(w_star, a0, eps)
            return wc.best_known_solution(cal.w10, cal.w11, a0_set).p_end

        limit = p0 * (1.0 - w_star)
        if abs(pbar_eps(1e-4) - limit) > 1e-3:
            failures.append(f"trial {t}: level limit off")
        slope = (pbar_eps(1e-3) - pbar_eps(1e-4)) / (1e-3 - 1e-4)
        if abs(slope - (-0.5 * p0 * w_star)) > 5e-3:
            failures.append(f"trial {t}: slope limit off ({slope})")
        base = wc.ipe_optimal(a0_set).per_agent

        def profit(eps):
            cal = md.calibrate_jpe(w_star, a0, eps)
            return wc.worst_case_value(cal, a0_set).per_agent

        d_profit = (profit(1e-4) - base) / 1e-4
        target = 0.5 * p0 * w_star * (1.0 - w_star)
        if abs(d_profit - target) > 1e-2:
            failures.append(f"trial {t}: profit derivative {d_profit} vs {target}")
    return _result("calibration limit identities", failures, trials)


def suite_calibration_improvement(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        p0 = rng.uniform(0.3, 1.0)
        c0 = p0 * rng.uniform(0.05, 0.9)
        a0_set = md.ActionSet.from_pairs([(c0, p0)])
        base = wc.ipe_optimal(a0_set).per_agent
        try:
            eps, _, val = opt.calibration_witness(a0_set)
        except Exception as exc:  # noqa: BLE001 - recorded as failure detail
            failures.append(f"trial {t}: {exc}")
            continue
        if not val >= base + 1e-6:
            failures.append(f"trial {t}: gain {val - base} below threshold")
    return _result("calibrated team bonus beats best independent", failures, trials)


def suite_w00_monotonicity(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w11 = rng.uniform(0.2, 1.0)
        acts = draw_superset(rng, draw_known_set(rng))
        last_rank = None
        ranking = None
        for w00 in (0.0, 0.05, 0.15, 0.3):
            g = gm.induce_game(md.Contract(w11, 0.0, 0.0, w00), acts)
            hi, _ = gm.extremal_br_path(g, "MAX")
            ranking = ranking or {idx: r for r, idx in enumerate(acts.ranking())}
            r = ranking[hi]
            if last_rank is not None and r < last_rank:
                failures.append(f"trial {t}: maximal equilibrium rose with w00")
                break
            last_rank = r
    return _result("maximal equilibrium falls as joint-failure pay rises",
                   failures, trials)


def suite_pessimistic_selection(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        w = draw_jpe(rng)
        acts = draw_superset(rng, draw_known_set(rng))
        g = gm.induce_game(w, acts)
        eqs = gm.enumerate_equilibria(g, mixed=True)
        best = gm.select_and_value(g, eqs, gm.PRINCIPAL_BEST).principal_total
        hi, _ = gm.extremal_br_path(g, "MAX")
        maximal = gm.principal_value(g, gm.Profile.pure(hi, hi))
        pess = pessimistic_value(w, acts)
        if abs(pess - maximal) > 1e-12:
            failures.append(f"trial {t}: pessimistic {pess} != maximal eq {maximal}")
        if pess > best + 1e-12:
            failures.append(f"trial {t}: pessimistic {pess} above preferred {best}")
    return _result("pessimistic selection picks the maximal equilibrium",
                   failures, trials)


def suite_optimizer(rng, trials) -> SuiteResult:
    failures = []
    for t in range(trials):
        a0 = draw_known_set(rng)
        res = opt.optimize_jpe(a0, coarse=1e-2, refine_rounds=2)
        ipe = wc.ipe_optimal(a0).per_agent
        if res.per_agent < ipe - 1e-12:
            failures.append(f"trial {t}: optimum {res.per_agent} below independent {ipe}")
        cls = md.classify(md.Contract(res.w11, res.w10, 0.0, 0.0))
        if cls.tag != md.JPE or cls.affine:
            failures.append(f"trial {t}: optimum not a nonaffine joint evaluation")
        coarse_only = opt.optimize_jpe(a0, coarse=1e-2, refine_rounds=0)
        fine = opt.optimize_jpe(a0, coarse=1e-3, refine_rounds=0)
        if abs(coarse_only.per_agent - fine.per_agent) > 2e-2:
            failures.append(f"trial {t}: grid steps disagree beyond 2e-2")
        if res.per_agent < coarse_only.per_agent - 1e-15:
            failures.append(f"trial {t}: refinement decreased the incumbent")
    return _result("optimizer dominates independent benchmark", failures, trials)


def run_all(seed: int = 0, quick: bool = False) -> list[SuiteResult]:
    """Run every suite with deterministic per-suite RNG streams."""
    scale = 0.3 if quick else 1.0

    def n(full):
        return max(3, int(full * scale))

    chain = 500 if quick else 2000
    specs = [
        (suite_classification, dict(trials=n(500))),
        (suite_reduction_equilibria, dict(trials=n(100))),
        (suite_supermodular_dynamics, dict(trials=n(200))),
        (suite_submodular_paired_map, dict(trials=n(200))),
        (suite_rpe_dominance, dict(trials=n(500))),
        (suite_lower_bound_tightness, dict(trials=n(200), chain_n=chain)),
        (suite_quadrature, dict(trials=n(100))),
        (suite_calibration_limits, dict(trials=n(50))),
        (suite_calibration_improvement, dict(trials=n(20))),
        (suite_w00_monotonicity, dict(trials=n(60))),
        (suite_pessimistic_selection, dict(trials=n(200))),
        (suite_optimizer, dict(trials=n(12))),
    ]
    results = []
    for k, (fn, kwargs) in enumerate(specs):
        rng = np.random.default_rng([seed, k])
        results.append(fn(rng, **kwargs))
    return results
