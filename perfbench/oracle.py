"""Output oracle: recompute each benchmark call's result from its input.

Every formula here is written out again from the paper's closed forms
rather than imported from the package, so a wrong answer from the program
cannot also be the reference.  Tolerances follow the acceptance suite:
closed forms to 1e-9, chain endpoints to max(error bound, 5e-3) with an
empirical convergence check where no finite bound exists, and the
discriminatory incentive constraints to the 1e-6 the solver promises.

``check(spec, text, dump_text)`` returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9            # closed-form agreement
EXACT = 1e-12         # identities the program computes with the same operations
ENDPOINT_TOL = 5e-3   # chain endpoint floor used by the acceptance suite
IC_TOL = 1e-6         # incentive-constraint slack of the discriminatory program
FULL_SUCCESS = "FULL_SUCCESS"
SHIRK_EQ = "SHIRK_EQ"


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def endpoint(w11: float, w10: float, cost: float, prob: float) -> tuple[float, float]:
    """(p_end, t_hat) of the undercut dynamics started at (cost, prob).

    The implicit integral G(p) = w10*p + (w11-w10)*p^2/2 falls by the cost
    budget spent, so p_end solves G(p) = G(prob) - cost while G(prob) > cost.
    """
    if w11 == w10:
        if w11 <= 0.0:
            return (prob if cost == 0.0 else 0.0), 0.0
        return max(0.0, prob - cost / w11), min(cost, w11 * prob)
    gap = w11 - w10
    g0 = w10 * prob + gap * prob * prob / 2.0
    if cost >= g0:
        return 0.0, g0
    rest = g0 - cost
    root = (math.sqrt(max(w10 * w10 + 2.0 * gap * rest, 0.0)) - w10) / gap
    return max(0.0, root), cost


def best_target(w11: float, w10: float, known: list) -> int:
    """Index of the known action whose dynamics end highest (first on ties)."""
    ends = [endpoint(w11, w10, c, p)[0] for c, p in known]
    return ends.index(max(ends))


def shirk(pbar: float, w11: float, w10: float) -> float:
    return pbar * (pbar * (1.0 - w11) + (1.0 - pbar) * (1.0 - w10))


def jpe_worst(w11: float, w10: float, known: list) -> tuple[float, float, str]:
    """(pbar, per-agent value, binding branch) of a zero-failure-wage contract."""
    pbar = max(endpoint(w11, w10, c, p)[0] for c, p in known)
    full, sh = 1.0 - w11, shirk(pbar, w11, w10)
    return pbar, min(full, sh), (FULL_SUCCESS if full < sh else SHIRK_EQ)


def ipe_best(known: list) -> float:
    """Best independent evaluation: max over known (c < p) of (sqrt p - sqrt c)^2."""
    return max([(math.sqrt(p) - math.sqrt(c)) ** 2 for c, p in known if c < p] + [0.0])


def value_grid(w11: np.ndarray, w10: np.ndarray, known: list) -> np.ndarray:
    """Vectorised per-agent worst case, used to scan the coarse grid."""
    gap = w11 - w10
    pbar = np.zeros(np.broadcast(w11, w10).shape)
    for c, p in known:
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = w10 * p + gap * p * p / 2.0 - c
            root = (np.sqrt(np.clip(w10 * w10 + 2.0 * gap * rest, 0.0, None)) - w10) / np.where(
                gap > 0.0, gap, 1.0)
            joint = np.where(rest > 0.0, np.clip(root, 0.0, None), 0.0)
            indep = np.where(w10 > 0.0, np.clip(p - c / np.where(w10 > 0.0, w10, 1.0), 0.0, None),
                             0.0)
        pbar = np.maximum(pbar, np.where(gap > 0.0, joint, indep))
    return np.minimum(1.0 - w11, pbar * (pbar * (1.0 - w11) + (1.0 - pbar) * (1.0 - w10)))


def coarse_best(known: list, step: float = 1e-2) -> float:
    """Best value on the optimizer's coarse grid over the triangle w10 <= w11."""
    axis = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    w11, w10 = np.meshgrid(axis, axis, indexing="ij")
    vals = value_grid(w11, w10, known)
    return float(vals[w10 <= w11].max())


def error_bound(w11: float, w10: float, cost: float, prob: float, n: int) -> float:
    """Global error bound of the n-step chain endpoint (inf when degenerate)."""
    p_end, t_hat = endpoint(w11, w10, cost, prob)
    if t_hat <= 0.0:
        return 0.0
    gap = w11 - w10
    d_min = w10 + p_end * gap
    if d_min <= 1e-12:
        return math.inf
    k1, k2 = gap / d_min ** 2, gap / d_min ** 3
    if t_hat * k1 > 700.0:
        return math.inf
    lead = math.expm1(t_hat * k1) / k1 if k1 > 0.0 else t_hat
    return lead * (t_hat / n * k2 / 2.0 + 1.0 / (n * (w11 + 1.0)))


def chain_end(w11: float, w10: float, prob: float, t_hat: float, n: int) -> float:
    """Endpoint of the forward-step chain with the default rounding margin."""
    eps, rho = t_hat / n, t_hat / (n * n * (w11 + 1.0))
    q = prob
    for _ in range(n):
        q = 0.0 if q <= 0.0 else min(1.0, max(0.0, q - eps / (q * w11 + (1.0 - q) * w10) + rho))
    return q


def reduce_wages(w: tuple) -> tuple:
    w11, w10, w01, w00 = w
    s1, s0 = min(w11, w01), min(w10, w00)
    return (w11 - s1, w10 - s0, w01 - s1, w00 - s0)


def classify(w: tuple) -> str:
    w11, w10, w01, w00 = w
    if w11 == w10 and w01 == w00:
        return "IPE"
    if w11 >= w10 and w01 >= w00:
        return "JPE"
    if w11 <= w10 and w01 <= w00:
        return "RPE"
    return "OTHER"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _close(a, b, tol=TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _pairs(actions: dict) -> list:
    return [(a["cost"], a["prob"]) for a in actions["actions"][: actions["known"]]]


def _result(text: str, problems: list):
    doc = json.loads(text)
    if doc.get("meta", {}).get("tool") != "teamcontracts" or "config" not in doc["meta"]:
        problems.append("missing metadata block")
    return doc["result"]


def _csv_rows(text: str, header: str, problems: list) -> list:
    lines = text.splitlines()
    if not lines[0].startswith("# tool=teamcontracts") or lines[2] != header:
        problems.append("bad CSV preamble")
    return [line.split(",") for line in lines[3:]]


def _check_chain(problems, where, w11, w10, target, chain, n, eps_used):
    """Structure, per-step recursion and endpoint of an undercut chain.

    ``chain`` lists (cost, prob) from the targeted action down; each step
    is recomputed from the program's own previous probability, so rounding
    does not accumulate along the check.
    """
    cost0, prob0 = target
    _, t_hat = endpoint(w11, w10, cost0, prob0)
    if len(chain) != n + 1 or tuple(chain[0]) != (cost0, prob0):
        problems.append(f"{where}: chain has {len(chain)} actions or wrong head")
        return
    eps, rho = t_hat / n, t_hat / (n * n * (w11 + 1.0))
    if eps_used is not None and not _close(eps_used, eps, EXACT):
        problems.append(f"{where}: step {eps_used} != {eps}")
    for k in range(1, n + 1):
        cost, prob = chain[k]
        if not _close(cost, (n - k) * t_hat / n, EXACT) or cost >= chain[k - 1][0]:
            problems.append(f"{where}: cost at step {k} is {cost}")
            return
        if not 0.0 <= prob <= 1.0:
            problems.append(f"{where}: probability {prob} at step {k} outside [0, 1]")
            return
        q = chain[k - 1][1]
        want = 0.0 if q <= 0.0 else min(1.0, max(0.0, q - eps / (q * w11 + (1.0 - q) * w10) + rho))
        if abs(prob - want) > TOL:
            problems.append(f"{where}: step {k} gives {prob}, recursion gives {want}")
            return
    pbar = endpoint(w11, w10, cost0, prob0)[0]
    err = abs(chain[-1][1] - pbar)
    bound = error_bound(w11, w10, cost0, prob0, n)
    if math.isfinite(bound):
        ok = err <= max(bound, ENDPOINT_TOL)
    else:
        coarse = chain_end(w11, w10, prob0, t_hat, max(2, n // 4))
        ok = err <= ENDPOINT_TOL or err < abs(coarse - pbar)
    if not ok:
        problems.append(f"{where}: endpoint {chain[-1][1]} misses pbar {pbar} (bound {bound})")


# ---------------------------------------------------------------------------
# Per-verb checks
# ---------------------------------------------------------------------------

def _check_opt_result(problems, where, known, w11, w10, per_agent, regime, step):
    if not (0.0 <= w10 <= w11 + 1e-15 and w11 <= 1.0):
        problems.append(f"{where}: wages ({w11}, {w10}) outside the triangle")
        return
    value = jpe_worst(w11, w10, known)[1]
    if not _close(per_agent, value):
        problems.append(f"{where}: value {per_agent} != recomputed {value}")
    if per_agent < ipe_best(known) - EXACT:
        problems.append(f"{where}: value {per_agent} below the best independent evaluation")
    best = coarse_best(known)
    if per_agent < best - TOL:
        problems.append(f"{where}: value {per_agent} below the coarse-grid maximum {best}")
    if regime != ("POOLED" if w10 <= step else "MIXED"):
        problems.append(f"{where}: regime {regime} with w10={w10}")


def check_optimize(spec, text, _dump):
    problems = []
    res = _result(text, problems)
    step = spec["grid_step"]
    for _ in range(spec["refine"]):
        step /= 10.0
    known = _pairs(spec["actions"])
    _check_opt_result(problems, "optimize", known, res["w11"], res["w10"],
                      res["per_agent"], res["regime"], step)
    if not _close(res["grid_step"], step, EXACT) or res["refined"] != (spec["refine"] > 0):
        problems.append("optimize: grid record wrong")
    if not _close(res["total"], 2.0 * res["per_agent"], EXACT):
        problems.append("optimize: total is not twice the per-agent value")
    return problems


def check_sweep(spec, text, _dump):
    problems = []
    step = 1e-2  # the CLI defaults: coarse step 1e-2, three refinement rounds
    for _ in range(3):
        step /= 10.0
    rows = _csv_rows(text, "p0,c0,w11,w10,per_agent,regime", problems)
    cells = [(p, c) for p in spec["p_grid"] for c in spec["c_grid"]]
    if len(rows) != len(cells):
        return problems + [f"sweep: {len(rows)} rows for {len(cells)} cells"]
    for (p0, c0), row in zip(cells, rows):
        if (float(row[0]), float(row[1])) != (p0, c0):
            problems.append(f"sweep: row {row[:2]} out of order")
        elif not 0.0 < c0 < p0:
            if row[2:] != ["", "", "", "INFEASIBLE"]:
                problems.append(f"sweep: cell ({p0}, {c0}) should be INFEASIBLE")
        else:
            _check_opt_result(problems, f"sweep ({p0}, {c0})", [(c0, p0)], float(row[2]),
                              float(row[3]), float(row[4]), row[5], step)
    return problems


def check_discriminate(spec, text, _dump):
    problems = []
    res = _result(text, problems)
    known = _pairs(spec["actions"])
    w1, w2 = res["w1"], res["w2"]
    wit = res["inner_witness"]
    c1, p1, p2 = wit["c1"], wit["p1"], wit["p2"]
    if not (0.0 <= w2 <= w1 + 1e-15 <= 1.0 + 1e-15):
        problems.append(f"discriminate: wages ({w1}, {w2}) not ordered in [0, 1]")
    if not all(0.0 <= x <= 1.0 for x in (c1, p1, p2)):
        problems.append("discriminate: witness outside [0, 1]")
    m1 = max(p * w1 - c for c, p in known)
    m2 = max(p * w2 - c for c, p in known)
    if p1 * w1 - c1 < max(m1, p2 * w1) - IC_TOL - EXACT:
        problems.append("discriminate: agent one's unknown action is not a best response")
    if p2 * w2 < max(m2, p1 * w2 - c1) - IC_TOL - EXACT:
        problems.append("discriminate: agent two's free action is not a best response")
    objective = p1 * (1.0 - w1) + p2 * (1.0 - w2)
    if not _close(res["value_total"], objective, EXACT):
        problems.append(f"discriminate: value {res['value_total']} != objective {objective}")
    if not _close(res["value_per_agent"], res["value_total"] / 2.0, EXACT):
        problems.append("discriminate: per-agent value is not half the total")
    return problems


def _bayes_values(mu, p0, c0, ps, w0):
    w_star = c0 / p0
    b = (w_star - w0) / p0
    return {
        "zero": (1.0 - mu) * ps,
        "ipe_mixed": (mu * p0 + (1.0 - mu) * ps) * (1.0 - w_star),
        "ipe_always_a0": p0 * (1.0 - c0 / (p0 - ps)),
        "b": b,
        "jpe": mu * p0 * (1.0 - w_star) + (1.0 - mu) * ps * (1.0 - (w0 + ps * b)),
    }


def _threshold_gap(kind, mu, p0, c0, ps):
    """Sign function whose first root in (0, 1) is the threshold (mu is an array)."""
    v = _bayes_values(mu, p0, c0, ps, 0.0)
    if kind == "ipe":
        return v["ipe_mixed"] - np.maximum(v["zero"], v["ipe_always_a0"])
    w_grid = np.linspace(0.0, c0 / p0, 42)[1:-1]
    team = np.max([_bayes_values(mu, p0, c0, ps, w)["jpe"] for w in w_grid], axis=0)
    return team - np.maximum(np.maximum(v["zero"], v["ipe_mixed"]), v["ipe_always_a0"])


def _check_threshold(problems, kind, got, p0, c0, ps):
    grid = np.linspace(1e-9, 1.0 - 1e-9, 1001)
    pos = _threshold_gap(kind, grid, p0, c0, ps) > 0.0
    flips = np.flatnonzero(pos[:-1] != pos[1:])
    if got is None or not flips.size:
        if (got is None) != (not flips.size):
            problems.append(f"bayes: threshold {kind} is {got}, scan finds {flips.size} flips")
        return
    k = flips[0]
    if not grid[k] - EXACT <= got <= grid[k + 1] + EXACT:
        problems.append(f"bayes: threshold {kind} {got} outside the first flip interval")
    around = _threshold_gap(kind, np.array([got - 1e-7, got, got + 1e-7]), p0, c0, ps)
    if (around[0] > 0.0) == (around[2] > 0.0) and abs(around[1]) > EXACT:
        problems.append(f"bayes: no sign change of the {kind} gap at {got}")


def check_bayes(spec, text, _dump):
    problems = []
    res = _result(text, problems)
    mu, p0, c0, ps = spec["mu"], spec["p0"], spec["c0"], spec["p_star"]
    w0 = spec.get("w0", c0 / p0 / 2.0)
    want = _bayes_values(mu, p0, c0, ps, w0)
    for key in ("zero", "ipe_mixed", "ipe_always_a0"):
        if not _close(res[key], want[key]):
            problems.append(f"bayes: {key} {res[key]} != {want[key]}")
    jpe = res["jpe"]
    if not (_close(jpe["w0"], w0, EXACT) and _close(jpe["b"], want["b"])
            and _close(jpe["value"], want["jpe"])):
        problems.append(f"bayes: team scheme {jpe} != {want['jpe']}")
    _check_threshold(problems, "ipe", res["mu_threshold_ipe"], p0, c0, ps)
    _check_threshold(problems, "jpe", res["mu_threshold_jpe"], p0, c0, ps)
    return problems


def check_multi(spec, text, _dump):
    problems = []
    res = _result(text, problems)
    per_agent = jpe_worst(spec["w0"] + spec["b"], spec["w0"], _pairs(spec["actions"]))[1]
    if res["n"] != spec["n"] or not _close(res["per_agent"], per_agent):
        problems.append(f"multi: per-agent {res['per_agent']} != {per_agent}")
    if not _close(res["total"], spec["n"] * res["per_agent"], EXACT):
        problems.append("multi: total is not n times the per-agent value")
    return problems


def _check_witness(problems, pattern, w, known, pbar, binding, witness, eps):
    w11, w10 = w[0], w[1]
    acts = [(a["cost"], a["prob"]) for a in witness["actions"]]
    k = len(known)
    if acts[:k] != known or witness["known"] != k:
        problems.append("evaluate: witness does not keep the known actions")
        return
    extra = acts[k:]
    if binding == FULL_SUCCESS:
        if extra != [(0.0, 1.0)] or witness["eps"] != 0.0:
            problems.append("evaluate: full-success witness is not the free sure action")
        return
    if witness["eps"] != eps:
        problems.append(f"evaluate: witness eps {witness['eps']} != {eps}")
    if pattern == "JPE":
        target = known[best_target(w11, w10, known)]
        t_hat = endpoint(w11, w10, *target)[1]
        n = int(min(max(2, math.ceil(t_hat / eps)), 100_000))
        _check_chain(problems, "evaluate witness", w11, w10, target, [target] + extra, n, None)
    elif pattern == "RPE":
        if extra != [(0.0, min(1.0, pbar + eps)), (0.0, 0.0)]:
            problems.append("evaluate: relative witness is not the undercut plus null action")
    elif pattern == "IPE":
        target = min(1.0, max(0.0, max(p - c / w11 for c, p in known) + eps))
        if extra != [(0.0, target)]:
            problems.append(f"evaluate: independent witness {extra} != free action at {target}")


def check_evaluate(spec, text, dump_text):
    problems = []
    res = _result(text, problems)
    raw = tuple(spec["contract"][k] for k in ("w11", "w10", "w01", "w00"))
    w = reduce_wages(raw)
    w11, w10, w01, w00 = w
    known = _pairs(spec["actions"])
    pattern = spec["pattern"]
    if pattern == "JPE":
        pbar, per_agent, binding = jpe_worst(w11, w10, known)
    elif pattern == "IPE":
        pbar = max(max(0.0, p - c / w11) for c, p in known)
        full, sh = 1.0 - w11, pbar * (1.0 - w11)
        per_agent, binding = min(full, sh), (FULL_SUCCESS if full < sh else SHIRK_EQ)
    elif pattern == "RPE":
        pbar, binding = res["pbar"], SHIRK_EQ
        per_agent = shirk(pbar, w11, w10)

        def fixed_point_gap(x):
            denom = x * w11 + (1.0 - x) * w10
            return min(max([0.0] + [p - c / denom for c, p in known]), 1.0) - x

        if 0.0 < pbar < 1.0 and abs(fixed_point_gap(pbar)) > IC_TOL:
            problems.append(f"evaluate: relative fixed point residual {fixed_point_gap(pbar)}")
        if per_agent > ipe_best(known) + TOL:
            problems.append("evaluate: relative evaluation beats the best independent one")
    else:  # joint-failure pay: w11 on joint success, w00 on joint failure
        p_sing = w00 / (w11 + w00)

        def g2(p):
            return (w11 + w00) * p * p / 2.0 - w00 * p

        pbar = 0.0
        for c, p in known:
            if p > p_sing and c < g2(p) - g2(p_sing):
                disc = w00 * w00 + 2.0 * (w11 + w00) * (g2(p) - c)
                pbar = max(pbar, (w00 + math.sqrt(max(disc, 0.0))) / (w11 + w00))
        full, sh = 1.0 - w11, pbar * pbar * (1.0 - w11) - (1.0 - pbar) ** 2 * w00
        per_agent, binding = min(full, sh), (FULL_SUCCESS if full < sh else SHIRK_EQ)
    if not (_close(res["pbar"], pbar) and _close(res["per_agent"], per_agent)):
        problems.append(f"evaluate: ({res['pbar']}, {res['per_agent']}) != ({pbar}, {per_agent})")
    if res["binding"] != binding or not _close(res["total"], 2.0 * res["per_agent"], EXACT):
        problems.append(f"evaluate: binding {res['binding']} != {binding} or bad total")
    if res["classification"] != classify(w) or res["reduction_applied"] != (w != raw):
        problems.append("evaluate: classification or reduction record wrong")
    if tuple(res["contract_evaluated"][k] for k in ("w11", "w10", "w01", "w00")) != w:
        problems.append("evaluate: evaluated contract is not the reduced one")
    if pattern == "W00":
        if res["witness"] is not None:
            problems.append("evaluate: joint-failure pattern should carry no witness")
    elif res["witness"] is None:
        problems.append("evaluate: witness missing")
    else:
        _check_witness(problems, pattern, w, known, pbar, binding, res["witness"],
                       spec.get("eps", 1e-4))
    if dump_text is not None and res["witness"] is not None:
        _check_dump(problems, w, res["witness"], dump_text)
    return problems


def _check_dump(problems, w, witness, dump_text):
    game = json.loads(dump_text)
    if game["actions"] != witness["actions"] or game["known"] != witness["known"]:
        problems.append("dump: actions differ from the witness")
        return
    p = np.array([a["prob"] for a in game["actions"]])
    c = np.array([a["cost"] for a in game["actions"]])
    w11, w10, w01, w00 = w
    succ = p * w11 + (1.0 - p) * w10
    fail = p * w01 + (1.0 - p) * w00
    want = p[:, None] * succ[None, :] + (1.0 - p[:, None]) * fail[None, :] - c[:, None]
    got = np.array(game["payoff"], dtype=float)
    if got.shape != want.shape or float(np.abs(got - want).max()) > EXACT:
        problems.append("dump: payoff matrix differs from the bilinear expectation")


def check_adversary(spec, text, _dump):
    problems = []
    c = spec["contract"]
    w11, w10 = c["w11"], c["w10"]
    known = _pairs(spec["actions"])
    target = known[best_target(w11, w10, known)]
    if spec["format"] == "csv":
        rows = _csv_rows(text, "step,cost,prob", problems)
        if [int(r[0]) for r in rows] != list(range(len(rows))):
            problems.append("adversary: CSV steps out of order")
        chain = [(float(r[1]), float(r[2])) for r in rows]
        eps = None
    else:
        res = _result(text, problems)
        chain = [(a["cost"], a["prob"]) for a in res["chain"]]
        eps = res["eps"]
        t_hat = endpoint(w11, w10, *target)[1]
        n = spec["n"]
        if not (_close(res["t_hat"], t_hat, EXACT)
                and _close(res["rho"], t_hat / (n * n * (w11 + 1.0)), EXACT)):
            problems.append("adversary: t_hat or rho record wrong")
        if res["max_eq_prob"] != chain[-1][1]:
            problems.append("adversary: maximal equilibrium is not the chain's last action")
    _check_chain(problems, "adversary", w11, w10, target, chain, spec["n"], eps)
    return problems


def check_selftest(spec, text, _dump):
    lines = text.splitlines()
    suites = lines[:-1]
    tail = f"selftest: all suites passed (seed={spec['seed']}, quick=True)"
    if len(suites) != 12 or not all(s.startswith("[PASS]") for s in suites) or lines[-1] != tail:
        return [f"selftest: {lines[-1] if lines else 'no output'}"]
    return []


CHECKS = {
    "optimize": check_optimize,
    "sweep": check_sweep,
    "discriminate": check_discriminate,
    "bayes": check_bayes,
    "multi": check_multi,
    "evaluate": check_evaluate,
    "adversary": check_adversary,
    "selftest": check_selftest,
}


def check(spec: dict, text: str, dump_text: str | None = None) -> list:
    """Problems found in one call's output (empty when it is correct)."""
    try:
        return CHECKS[spec["kind"]](spec, text, dump_text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{spec['kind']}: unreadable output ({type(exc).__name__}: {exc})"]
