"""Seeded call lists for the benchmark workloads.

A workload is a fixed list of CLI calls.  The seed only draws the numbers
in the input files, which are written to a work directory; the program
sees nothing but those files and its arguments.

Where a call's cost depends strongly on its input (the best-response
verification of an undercut chain runs a path of data-dependent length),
inputs are drawn from fixed strata with a seeded jitter of a few percent,
so every seed does comparable work while the strata cover the cases that
matter: pooled and unpooled contracts, chains that collapse to zero and
chains that stop inside (0, 1).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

WORKLOADS = ("design", "witness")


@dataclass
class Call:
    """One CLI call of a workload and what its result must satisfy."""

    label: str              # the verb, or "reject:<class>" for malformed input
    argv: list              # arguments after the program name
    expect: int             # exit code a correct program returns
    spec: dict | None       # what the oracle needs; None for rejection calls
    output: str | None      # file the result goes to; None means stdout
    dump: str | None = None  # the --dump-game file, if any


class _Builder:
    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.calls: list[Call] = []

    def _path(self, stem: str) -> str:
        return str(self.work / f"{len(self.calls):03d}-{stem}")

    def add(self, verb, payload, spec=None, flags=(), fmt="json", expect=0, label=None,
            dump=False):
        """Write the input file and queue a call of ``verb`` on it."""
        inp = self._path("in.json")
        text = payload if isinstance(payload, str) else json.dumps(payload)
        Path(inp).write_text(text, encoding="utf-8")
        out = self._path(f"out.{fmt}")
        argv = [verb, "--input", inp, *flags, "--output", out]
        if fmt != "json":
            argv += ["--format", fmt]
        dump_path = None
        if dump:
            dump_path = self._path("game.json")
            argv += ["--dump-game", dump_path]
        if spec is not None:
            spec = {"kind": verb, **spec}
        self.calls.append(Call(label or verb, argv, expect, spec, out, dump_path))

    def jitter(self, x: float, rel: float = 0.03) -> float:
        return x * (1.0 + self.rng.uniform(-rel, rel))

    def known_set(self, k: int) -> dict:
        """k costly known actions, the first one surplus-positive."""
        r = self.rng
        p0 = r.uniform(0.3, 1.0)
        pairs = [(p0 * r.uniform(0.05, 0.9), p0)]
        pairs += [(r.uniform(0.02, 1.0), r.uniform(0.05, 1.0)) for _ in range(k - 1)]
        return _actions(pairs)

    def weaker_known_set(self, target, k: int, w11=None, w10=None) -> dict:
        """``target`` first, then k-1 less productive known actions.

        Given joint wages w11 >= w10, the extra actions' dynamics also end
        no higher than the target's, so any chain targets ``target``.
        """
        best = None if w11 is None else oracle.endpoint(w11, w10, *target)[0]
        pairs = [target]
        while len(pairs) < k:
            c, p = self.rng.uniform(0.05, 0.9), self.rng.uniform(0.05, 0.9) * target[1]
            end = None if best is None else oracle.endpoint(w11, w10, c, p)[0]
            if best is None or end < best or end == best == 0.0:
                pairs.append((c, p))
        return _actions(pairs)


def _actions(pairs) -> dict:
    return {"actions": [{"cost": c, "prob": p} for c, p in pairs], "known": len(pairs)}


def _contract(w11, w10, w01=0.0, w00=0.0) -> dict:
    return {"w11": w11, "w10": w10, "w01": w01, "w00": w00}


# ---------------------------------------------------------------------------
# design: the wage-design session
# ---------------------------------------------------------------------------

def _design(b: _Builder) -> None:
    r = b.rng
    sizes = [1, 2, 3] * 4
    r.shuffle(sizes)
    for k in sizes:
        acts = b.known_set(k)
        b.add("optimize", acts, {"actions": acts, "grid_step": 1e-2, "refine": 3})
    for k in (1, 3):
        acts = b.known_set(k)
        b.add("optimize", acts, {"actions": acts, "grid_step": 1e-3, "refine": 3},
              flags=["--grid-step", "1e-3"])

    # Six feasible technology costs and two above every probability, so each
    # grid has 48 cells to optimise and 16 to flag, whatever the seed.
    p_grid = sorted(r.uniform(0.55, 1.0) for _ in range(8))
    c_grid = [r.uniform(0.02, 0.5) for _ in range(6)] + [r.uniform(1.0, 1.2) for _ in range(2)]
    r.shuffle(c_grid)
    grid = {"p_grid": p_grid, "c_grid": c_grid}
    b.add("sweep", grid, grid, fmt="csv")

    for _ in range(2):
        acts = b.known_set(r.randint(1, 3))
        b.add("discriminate", acts, {"actions": acts})

    for j in range(4):
        p0 = r.uniform(0.5, 1.0)
        env = {"p0": p0, "c0": p0 * r.uniform(0.1, 0.6), "p_star": p0 * r.uniform(0.2, 0.8)}
        mu = r.uniform(0.05, 0.95)
        spec = dict(env, mu=mu)
        if j % 2:
            env["w0"] = spec["w0"] = env["c0"] / p0 * r.uniform(0.1, 0.9)
        if j < 2:
            b.add("bayes", dict(env, mu=mu), spec)
        else:
            b.add("bayes", env, spec, flags=["--mu", repr(mu)])

    for _ in range(3):
        acts = b.known_set(r.randint(1, 3))
        team = {"n": r.randint(2, 6), "w0": r.uniform(0.0, 0.4), "b": r.uniform(0.05, 0.6),
                "actions": acts}
        b.add("multi", team, team)

    _rejections(b)


def _rejections(b: _Builder) -> None:
    """One call from each class of malformed input; all must exit 2.

    At the seed commit two classes are mishandled and are kept here on
    purpose: an infinite cost is silently ignored (exit 0), and a wage of
    1e308 overflows into a traceback (exit 1).
    """
    r = b.rng
    acts = b.known_set(2)
    bad = {"contract": _contract(r.uniform(0.3, 0.9), 0.0), "actions": acts,
           "note": r.choice(["draft", "v2", "check"])}
    b.add("evaluate", bad, expect=2, label="reject:unknown_field")

    env = {"mu": r.uniform(0.1, 0.9), "p0": r.uniform(0.5, 1.0), "p_star": 0.2}
    b.add("bayes", env, expect=2, label="reject:missing_field")

    text = json.dumps(b.known_set(2))
    b.add("optimize", text[: len(text) - r.randint(1, 4)], expect=2, label="reject:bad_json")

    acts = b.known_set(2)
    acts["actions"][1]["cost"] = math.inf  # beside a valid first action
    b.add("optimize", acts, expect=2, label="reject:non_finite")

    bad = {"contract": _contract(1e308, r.uniform(0.0, 0.5)), "actions": b.known_set(1)}
    b.add("evaluate", bad, expect=2, label="reject:overflow")

    p = r.uniform(0.2, 0.9)
    acts = _actions([(p * r.uniform(1.0, 1.5), p), (r.uniform(0.5, 1.0), r.uniform(0.0, 0.5))])
    b.add("optimize", acts, expect=2, label="reject:infeasible")


# ---------------------------------------------------------------------------
# witness: building and checking adversaries
# ---------------------------------------------------------------------------

# (w11, w10, prob, cost, n, format) of the undercut-chain strata; two of the
# six contracts are pooled (w10 = 0).  Chains marked "collapse" run the
# success probability down to zero, the others stop inside (0, 1).
ADVERSARY_STRATA = (
    (0.60, 0.00, 1.00, 0.25, 20000, "json"),  # pooled, interior, full-length path
    (1.10, 0.43, 0.96, 0.49, 20000, "csv"),   # interior, long path
    (0.93, 0.05, 0.82, 0.50, 10000, "json"),  # collapse
    (1.05, 0.00, 0.96, 0.09, 10000, "csv"),   # pooled, interior, short path
    (0.84, 0.53, 0.69, 0.17, 5000, "json"),   # interior, short path
    (0.50, 0.27, 0.33, 0.02, 5000, "csv"),    # interior, short path
)

# (pattern, raw wages before the failure-wage reduction, target (cost, prob))
EVALUATE_STRATA = (
    ("JPE", (0.60, 0.00, 0.00, 0.00), (0.25, 1.00)),
    ("JPE", (0.95, 0.45, 0.10, 0.05), (0.30, 0.80)),
    ("RPE", (0.20, 0.60, 0.00, 0.00), (0.20, 0.70)),
    ("RPE", (0.15, 0.55, 0.05, 0.05), (0.30, 0.90)),
    ("IPE", (0.50, 0.50, 0.00, 0.00), (0.15, 0.80)),
    ("IPE", (0.80, 0.80, 0.10, 0.10), (0.20, 0.60)),
    ("W00", (0.60, 0.00, 0.00, 0.10), (0.20, 0.90)),
    ("W00", (0.80, 0.00, 0.00, 0.30), (0.15, 0.70)),
)

DUMP_EPS = 2.5e-4  # with a unit-probability target of cost 1/4: a 1001-action game


def _witness(b: _Builder) -> None:
    r = b.rng
    for w11, w10, prob, cost, n, fmt in ADVERSARY_STRATA:
        w11, w10 = b.jitter(w11), b.jitter(w10)
        target = (b.jitter(cost), min(1.0, b.jitter(prob)))
        acts = b.weaker_known_set(target, r.randint(1, 3), w11, w10)
        payload = {"contract": _contract(w11, w10), "actions": acts}
        b.add("adversary", payload, dict(payload, n=n, format=fmt), flags=["--n", str(n)],
              fmt=fmt)

    for pattern, raw, target in EVALUATE_STRATA:
        while True:
            wages = [b.jitter(w) for w in raw]
            if pattern == "IPE":
                wages[1], wages[3] = wages[0], wages[2]
            t = (b.jitter(target[0]), min(1.0, b.jitter(target[1])))
            red = oracle.reduce_wages(tuple(wages))
            # a joint evaluation whose free sure action binds carries no chain
            if pattern != "JPE" or oracle.jpe_worst(red[0], red[1], [t])[2] == oracle.SHIRK_EQ:
                break
        joint = pattern in ("JPE", "IPE")
        acts = b.weaker_known_set(t, r.randint(1, 3), *(red[:2] if joint else ()))
        payload = {"contract": _contract(*wages), "actions": acts}
        b.add("evaluate", payload, dict(payload, pattern=pattern))

    while True:
        w11, w10 = r.uniform(0.55, 0.65), r.choice([0.0, r.uniform(0.0, 0.05)])
        if oracle.jpe_worst(w11, w10, [(0.25, 1.0)])[2] == oracle.SHIRK_EQ:
            break
    payload = {"contract": _contract(w11, w10), "actions": _actions([(0.25, 1.0)])}
    b.add("evaluate", payload, dict(payload, pattern="JPE", eps=DUMP_EPS),
          flags=["--eps", repr(DUMP_EPS)], dump=True)

    # The shipped property suites check what the witnesses rest on, with
    # thousands of tiny games, short chains and the RK4 quadrature oracle.
    seed = r.randrange(1 << 31)
    argv = ["selftest", "--quick", "--seed", str(seed)]
    b.calls.append(Call("selftest", argv, 0, {"kind": "selftest", "seed": seed}, None))


def build(workload: str, seed: int, work: Path) -> list[Call]:
    """Write the inputs of ``workload`` for ``seed`` into ``work``; return its calls."""
    b = _Builder(seed, work)
    {"design": _design, "witness": _witness}[workload](b)
    return b.calls
