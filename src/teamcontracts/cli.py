"""Command-line surface: parse configs, dispatch to the solvers, and emit
machine-readable JSON/CSV results.

Exit codes: 0 success, 2 validation error (malformed input, non-finite or
overflowing numbers, infeasible model, unknown fields), 3 numerical
non-convergence.  Outputs are written atomically (temp file + rename),
embed a metadata block echoing the exact configuration, and are
byte-identical across runs given the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import __version__
from . import extensions as ext
from . import model as md
from . import optimize as opt
from . import selftest as st
from . import worstcase as wc
from .errors import AssumptionError, ConvergenceError
from .game import induce_game

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise CliError(EXIT_VALIDATION, f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_VALIDATION, f"malformed JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise CliError(EXIT_VALIDATION, f"top-level JSON object expected in {path}")
    return obj


def _require_keys(obj: dict, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise CliError(EXIT_VALIDATION, f"JSON object with fields {sorted(required)} expected")
    unknown = set(obj) - required - optional
    if unknown:
        raise CliError(EXIT_VALIDATION, f"unknown fields: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise CliError(EXIT_VALIDATION, f"missing fields: {sorted(missing)}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-teamcontracts-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dumps(obj) -> str:
    """JSON text of ``obj``; NaN and infinities are not JSON, so they raise."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(args, result: dict, csv_rows=None, csv_header=None) -> None:
    """Write (or print) the result with a config-echo metadata block."""
    # The output path is where the file lives, not part of what it records.
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output") and v is not None
    }
    if args.format == "csv":
        if csv_rows is None:
            raise CliError(EXIT_VALIDATION, "this verb has no CSV representation")
        lines = [f"# tool=teamcontracts version={__version__}"]
        lines.append("# " + " ".join(f"{k}={v}" for k, v in config.items()))
        lines.append(",".join(csv_header))
        lines.extend(",".join(row) for row in csv_rows)
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "meta": {"tool": "teamcontracts", "version": __version__, "config": config},
            "result": result,
        }
        text = _dumps(doc)
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _field(obj: dict, key: str, convert=float):
    """``convert(obj[key])``, or a validation error naming the field."""
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad field {key!r}: {exc}")


def _parse_contract(obj) -> md.Contract:
    try:
        return md.Contract.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad contract: {exc}")


def _parse_actions(obj) -> md.ActionSet:
    try:
        return md.ActionSet.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad action set: {exc}")


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    payload = _load_json(args.input)
    _require_keys(payload, {"contract", "actions"})
    contract = _parse_contract(payload["contract"])
    a0 = _parse_actions(payload["actions"])
    eps = args.eps if args.eps is not None else wc.DEFAULT_WITNESS_EPS

    reduced = md.reduce_failure_wages(contract)
    was_reduced = reduced != contract
    cls = md.classify(reduced)
    w11, w10, w01, w00 = reduced.as_tuple()

    if w01 == 0.0 and w00 == 0.0:
        if w11 > w10:
            res = wc.jpe_value(reduced, a0, with_witness=True, witness_eps=eps)
        elif w11 < w10:
            res = wc.rpe_value(reduced, a0, with_witness=True, witness_eps=eps)
        else:
            res = wc.ipe_value(w11, a0, with_witness=True, witness_eps=eps)
    elif w10 == 0.0 and w01 == 0.0 and w11 > 0.0:
        res = wc.jpe_value_w00(reduced, a0)
    else:
        raise CliError(
            EXIT_VALIDATION,
            "worst-case evaluation is not defined for this wage pattern "
            f"even after reduction (class {cls.tag}); "
            "supported: zero failure wages, or w11/w00 with w10=w01=0",
        )

    out = res.to_json()
    out["classification"] = cls.tag
    out["contract_evaluated"] = reduced.to_json()
    out["reduction_applied"] = was_reduced
    dump = None
    if args.dump_game:
        base = res.witness.actions if res.witness is not None else a0
        dump = _dumps(induce_game(reduced, base).to_json())
    _emit(args, out)
    if dump is not None:
        _atomic_write(args.dump_game, dump)
    return EXIT_OK


def cmd_optimize(args) -> int:
    a0 = _parse_actions(_load_json(args.input))
    res = opt.optimize_jpe(a0, coarse=args.grid_step, refine_rounds=args.refine)
    _emit(args, res.to_json())
    return EXIT_OK


def cmd_adversary(args) -> int:
    payload = _load_json(args.input)
    _require_keys(payload, {"contract", "actions"})
    contract = _parse_contract(payload["contract"])
    a0 = _parse_actions(payload["actions"])
    best = wc.best_known_solution(contract.w11, contract.w10, a0)
    adv = wc.euler_adversary(contract, best.a0, args.n, rho=args.rho)
    if adv.verified is False:
        raise CliError(
            EXIT_NONCONVERGENCE,
            f"chain construction failed verification at step {adv.failure_step}",
        )
    rows = [
        (str(k), repr(a.cost), repr(a.prob))
        for k, a in enumerate(adv.actions.actions)
    ]
    result = {
        "chain": [{"cost": a.cost, "prob": a.prob} for a in adv.actions.actions],
        "eps": adv.step,
        "rho": adv.rho,
        "t_hat": adv.t_hat,
        "clamped": adv.clamped,
        "max_eq_prob": adv.max_eq_prob,
    }
    _emit(args, result, csv_rows=rows, csv_header=("step", "cost", "prob"))
    return EXIT_OK


def cmd_sweep(args) -> int:
    payload = _load_json(args.input)
    _require_keys(payload, {"p_grid", "c_grid"})
    try:
        p_grid = [float(x) for x in payload["p_grid"]]
        c_grid = [float(x) for x in payload["c_grid"]]
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_VALIDATION, f"bad grid: {exc}")
    cells = opt.sweep_regimes(p_grid, c_grid, coarse=args.grid_step,
                              refine_rounds=args.refine)
    rows = [c.to_row() for c in cells]
    result = [
        {"p0": c.p0, "c0": c.c0, "w11": c.w11, "w10": c.w10,
         "per_agent": c.per_agent, "regime": c.regime}
        for c in cells
    ]
    _emit(args, {"cells": result}, csv_rows=rows,
          csv_header=("p0", "c0", "w11", "w10", "per_agent", "regime"))
    return EXIT_OK


def cmd_discriminate(args) -> int:
    a0 = _parse_actions(_load_json(args.input))
    res = opt.discriminatory_ipe(a0, grid=args.grid_step)
    _emit(args, res.to_json())
    return EXIT_OK


def cmd_bayes(args) -> int:
    payload = _load_json(args.input)
    _require_keys(payload, {"p0", "c0", "p_star"}, optional={"mu", "w0"})
    if args.mu is None and "mu" not in payload:
        raise CliError(EXIT_VALIDATION, "mu required (field or --mu)")
    mu = args.mu if args.mu is not None else _field(payload, "mu")
    env = ext.BayesianEnv(mu, *(_field(payload, k) for k in ("p0", "c0", "p_star")))
    w0 = _field(payload, "w0") if "w0" in payload else env.c0 / env.p0 / 2.0
    jpe_val = ext.bayesian_eval(env, ext.JPE_SCHEME, w0)
    result = {
        "zero": ext.bayesian_eval(env, ext.ZERO),
        "ipe_mixed": ext.bayesian_eval(env, ext.IPE_MIXED),
        "ipe_always_a0": ext.bayesian_eval(env, ext.IPE_ALWAYS_A0),
        "jpe": {"w0": w0, "b": ext.jpe_team_bonus(env, w0), "value": jpe_val},
    }
    try:
        result["mu_threshold_ipe"] = ext.mu_threshold_ipe(env.p0, env.c0, env.p_star)
    except ValueError:
        result["mu_threshold_ipe"] = None
    try:
        result["mu_threshold_jpe"] = ext.mu_threshold_jpe(env.p0, env.c0, env.p_star)
    except ValueError:
        result["mu_threshold_jpe"] = None
    _emit(args, result)
    return EXIT_OK


def cmd_multi(args) -> int:
    payload = _load_json(args.input)
    _require_keys(payload, {"n", "w0", "b", "actions"})
    a0 = _parse_actions(payload["actions"])
    mac = ext.MultiAgentContract(_field(payload, "n", int), _field(payload, "w0"),
                                 _field(payload, "b"))
    per_agent, total = ext.multi_agent_value(mac, a0)
    _emit(args, {"n": mac.n, "per_agent": per_agent, "total": total})
    return EXIT_OK


def cmd_asym(args) -> int:
    payload = _load_json(args.input)
    _require_keys(payload, {"contract", "a0"})
    contract = _parse_contract(payload["contract"])
    a0_obj = payload["a0"]
    _require_keys(a0_obj, {"cost", "prob"})
    a0 = md.ActionSpec(_field(a0_obj, "cost"), _field(a0_obj, "prob"))
    p1, p2, total = ext.asym_unknown_value(contract, a0)
    _emit(args, {"p1": p1, "p2": p2, "total": total})
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = st.run_all(seed=args.seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
        ok = ok and r.passed
    print(f"selftest: {'all suites passed' if ok else 'FAILURES detected'} "
          f"(seed={args.seed}, quick={args.quick})")
    return EXIT_OK if ok else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, rule: str):
    """Argument type: ``convert`` the text, then refuse values failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


_positive = _checked(float, lambda x: math.isfinite(x) and x > 0.0, "finite and > 0")
_non_negative = _checked(float, lambda x: math.isfinite(x) and x >= 0.0, "finite and >= 0")
_count = _checked(int, lambda n: n >= 0, ">= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamcontracts",
        description="Worst-case payoffs and optimal team incentive contracts "
        "for independent, identical agents with unknown action sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--output", help="write result here (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")

    p = sub.add_parser("evaluate", help="worst-case value of a contract on a known set")
    p.add_argument("--input", required=True, help='JSON {"contract":..., "actions":...}')
    p.add_argument("--eps", type=_positive, help="witness approximation scale")
    p.add_argument("--dump-game", help="also dump the witness game as JSON")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("optimize", help="worst-case optimal team contract")
    p.add_argument("--input", required=True, help="JSON action set")
    p.add_argument("--grid-step", type=_positive, default=1e-2)
    p.add_argument("--refine", type=_count, default=3)
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("adversary", help="undercut chain realizing the worst case")
    p.add_argument("--input", required=True, help='JSON {"contract":..., "actions":...}')
    p.add_argument("--n", type=int, required=True, help="chain length")
    p.add_argument("--rho", type=_non_negative, help="override the rounding margin")
    common(p)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("sweep", help="optimal wages over a (p0, c0) grid")
    p.add_argument("--input", required=True, help='JSON {"p_grid":..., "c_grid":...}')
    p.add_argument("--grid-step", type=_positive, default=1e-2)
    p.add_argument("--refine", type=_count, default=3)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("discriminate", help="agent-specific success wages max-min")
    p.add_argument("--input", required=True, help="JSON action set")
    p.add_argument("--grid-step", type=_positive, default=1e-2)
    common(p)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("bayes", help="scheme comparison under technology uncertainty")
    p.add_argument("--input", required=True, help='JSON {"mu","p0","c0","p_star"[,"w0"]}')
    p.add_argument("--mu", type=float, help="override mu from the input file")
    common(p)
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("multi", help="n-agent calibrated team scheme value")
    p.add_argument("--input", required=True, help='JSON {"n","w0","b","actions"}')
    common(p)
    p.set_defaults(func=cmd_multi)

    p = sub.add_parser("asym", help="worst case with agent-specific unknown actions")
    p.add_argument("--input", required=True, help='JSON {"contract","a0"}')
    common(p)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except AssumptionError as exc:
        print(f"error: infeasible model: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:
        print(f"error: arithmetic overflow, input magnitudes too large: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: request needs more memory than is available: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
