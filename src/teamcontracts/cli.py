"""Command-line surface: parse configs, dispatch to the solvers, and emit
machine-readable JSON/CSV results.

Exit codes: 0 success, 2 validation error (unreadable input, a field
refused by its reader, infeasible model, overflow), 3 numerical
non-convergence.  Outputs are written atomically (temp file + rename),
embed a metadata block echoing the exact configuration, and are
byte-identical across runs given the same config.

Each verb names its input's fields once, in a table of readers for
``model.json_object``, through ``_read``, which labels a refusal by field.
Then it imports the solver modules it calls, so a process loads only those:
where no bytecode is cached, every module a process imports is compiled
from source.  numpy loads with the first action set or solver module, so
``--version``, ``bayes``, ``asym`` and input refused before either run
without it: about 0.09 s a call instead of 0.18 s on a 2-core x86_64 host.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
import tempfile
from dataclasses import fields

from . import __version__
from . import model as md
from .errors import AssumptionError, ConvergenceError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

# Cap on the payoff cells of a --dump-game file, checked before anything is
# written: at the cap a dump takes about 50 s and writes about 1.1 GB.
MAX_DUMP_CELLS = 4 * 10**7


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # every number a double, so no integer meets int()'s digit limit or float()'s range
            obj = json.load(fh, parse_int=float)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply to read")
    if not isinstance(obj, dict):
        raise ValueError(f"top-level JSON object expected in {path}")
    return obj


def _mode_for(path: str) -> int:
    """Permission bits for a file written at ``path``: those of the file it
    replaces, else 0o666 less the umask, as ``open`` would create it."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _same_file(a: str, b: str) -> bool:
    """Whether the paths name one file: the same file where both exist,
    else the same resolved path."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _write(targets) -> None:
    """Write each ``(path, chunks)`` pair, to stdout where the path is None.

    Files are written to temp files beside them, all created, with the mode
    of ``_mode_for``, before anything is written, and stdout is written after
    them; the files are renamed into place only once all are complete.  So a
    failure leaves none of them and prints nothing.  The ``OSError`` of a
    write is a validation error naming where it went.

    A symlink is written through: the temp file goes beside the file it
    resolves to, and replaces that file, not the link.  An existing target
    that is not a regular file, such as a FIFO or a device, is written in
    place, with no temp file or rename, so it stays what it is; a later
    failure cannot take back what it was sent.
    """
    targets = sorted(targets, key=lambda target: target[0] is None)
    temps = {}  # path -> (temp file, resolved path)
    try:
        for where, _ in targets:
            if where is None:
                continue
            real = os.path.realpath(where)
            try:
                mode = os.stat(real).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and stat.S_ISDIR(mode):  # os.replace would refuse it at the end
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if mode is not None and not stat.S_ISREG(mode):
                continue
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".tmp-teamcontracts-")
            temps[where] = tmp, real
            os.close(fd)
            os.chmod(tmp, _mode_for(real))
        for path, chunks in targets:
            where = path or "<stdout>"
            if path is None:
                try:
                    sys.stdout.writelines(chunks)
                    sys.stdout.flush()
                except OSError:
                    # Bytes stdout still holds would fail again when the
                    # interpreter flushes it at exit, with a traceback.
                    null = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(null, sys.stdout.fileno())
                    os.close(null)
                    raise
            else:
                dest = temps[path][0] if path in temps else os.path.realpath(path)
                with open(dest, "w", encoding="utf-8", newline="\n") as fh:
                    fh.writelines(chunks)
        for tmp, real in temps.values():
            os.replace(tmp, real)
    except OSError as exc:
        raise ValueError(f"cannot write {where}: {exc.strerror or exc}")
    finally:
        for tmp, _ in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)


def _dumps(obj, default=None) -> str:
    """JSON text of ``obj``; NaN and infinities are not JSON, so they raise."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=default) + "\n"


# Rows per chunk of a streamed list: a few hundred kB of text.
_BLOCK = 4096
# Holds the place of a streamed list in json's text; no string the CLI
# writes holds a NUL.
_MARK = "\0rows\0"


class _Rows:
    """A long list that the writer formats from float arrays, not through json.

    ``blocks()`` yields the rows in order, as 2-D float arrays of ``width``
    columns; it is called once to check them and once to write them.  In
    JSON, a row is the record of ``keys``, given in sorted order as json
    writes them, or the list of its floats where there are no keys.
    """

    def __init__(self, blocks, width: int, keys=None):
        self.blocks, self.width, self.keys = blocks, width, keys

    @classmethod
    def of(cls, *columns, keys=None) -> "_Rows":
        """The 1-D arrays ``columns`` side by side."""
        import numpy as np

        table = np.column_stack(columns)
        return cls(lambda: (table[i:i + _BLOCK] for i in range(0, len(table), _BLOCK)),
                   len(columns), keys)

    def check(self) -> None:
        """Raise json's error for the first non-finite value, in row-major order."""
        import numpy as np

        for block in self.blocks():
            finite = np.isfinite(block)
            if not finite.all():
                _dumps(float(block.flat[np.argmin(finite)]))

    def text(self, template: str, sep: str = ""):
        """Chunks of the rows, each through ``template % tuple(row)``, joined by
        ``sep``.  ``%r`` is ``float.__repr__``, which json writes floats with."""
        for k, block in enumerate(self.blocks()):
            yield (sep if k else "") + (sep.join([template] * len(block))
                                        % tuple(block.ravel().tolist()))

    def json_text(self, pad: int):
        """Chunks of the JSON list, opened on a line indented by ``pad``."""
        inner, field = "\n" + " " * (pad + 2), "\n" + " " * (pad + 4)
        if self.keys is None:
            template = "[" + ",".join([field + "%r"] * self.width) + inner + "]"
        else:
            fields = (f"{field}{json.dumps(k)}: %r" for k in self.keys)
            template = "{" + ",".join(fields) + inner + "}"
        yield "[" + inner
        yield from self.text(template, "," + inner)
        yield "\n" + " " * pad + "]"


def _chunks(doc):
    """``_dumps(doc)`` as text chunks, where ``doc`` may hold ``_Rows``.

    json writes the document with a mark in place of each ``_Rows``, which
    is then formatted where its mark stands, at the indentation json gives
    that line.  Whatever would make ``_dumps`` raise raises here, before
    the first chunk.
    """
    rows = []

    def mark(obj):
        rows.append(obj)
        return _MARK

    parts = _dumps(doc, default=mark).split(json.dumps(_MARK))
    for r in rows:
        r.check()
    return _spliced(parts, rows)


def _spliced(parts, rows):
    yield parts[0]
    for before, r, after in zip(parts, rows, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from r.json_text(len(line) - len(line.lstrip(" ")))
        yield after


def _actions_doc(actions: md.ActionSet) -> dict:
    """The JSON document of an action set, with the action list streamed."""
    return {"actions": _Rows.of(actions.costs, actions.probs, keys=("cost", "prob")),
            "known": actions.known_count}


def _game_doc(actions: md.ActionSet, payoff_row) -> dict:
    """The --dump-game document: the actions and the matrix whose row i is
    ``payoff_row(i)``, streamed a row at a time, so memory is one row."""
    n = len(actions)
    return {**_actions_doc(actions),
            "payoff": _Rows(lambda: (payoff_row(i)[None] for i in range(n)), n)}


# A config-echo value that could end its line or its field is written
# JSON-quoted; so is one that starts with a quote, which a reader would
# take for a quoted value.
_QUOTE = re.compile(r'^"|[\s\x00-\x1f\x7f-\x9f]')


def _echo(value) -> str:
    """A config value as the CSV echo writes it."""
    text = str(value)
    return json.dumps(text) if _QUOTE.search(text) else text


def _emit(args, result, csv_text=None, csv_header=None, files=()) -> None:
    """Write (or print) the result with a config-echo metadata block, together
    with the ``(path, document)`` pairs ``files``.

    For CSV, ``csv_text`` gives the rows' text in chunks, a line per row;
    only the verbs that pass it offer ``--format csv``.
    """
    # The output path is where the file lives, not part of what it records.
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output") and v is not None
    }
    if args.format == "csv":
        head = (f"# tool=teamcontracts version={__version__}\n"
                + "# " + " ".join(f"{k}={_echo(v)}" for k, v in config.items()) + "\n"
                + ",".join(csv_header) + "\n")
        chunks = itertools.chain((head,), csv_text)
    else:
        chunks = _chunks({
            "meta": {"tool": "teamcontracts", "version": __version__, "config": config},
            "result": result,
        })
    _write([(args.output or None, chunks), *((path, _chunks(doc)) for path, doc in files)])


def _fields(result) -> dict:
    """A dataclass result's fields by name, the values themselves, not the
    copies ``dataclasses.asdict`` would make of a witness's arrays."""
    return {f.name: getattr(result, f.name) for f in fields(result)}


def _grid(value, low=-math.inf, high=math.inf) -> list:
    """The numbers of a JSON list, each finite, then each in [low, high]."""
    grid = [md.number(x, "entry") for x in md.json_list(value)]
    for x in grid:
        if not math.isfinite(x):
            raise ValueError(f"entry is not finite: {x!r}")
    for x in grid:
        if not low <= x <= high:
            raise ValueError(f"entry is not in [{low:g}, {high:g}]: {x!r}")
    return grid


_probabilities = functools.partial(_grid, low=0.0, high=1.0)
_LABELS = {"contract": "bad contract: ", "actions": "bad action set: ",
           "p_grid": "bad grid: p_grid ", "c_grid": "bad grid: c_grid "}


def _read(read, value, name):
    """``read(value)`` of the input's field ``name`` (``actions`` for a whole
    input that is an action set).  A refusal exits 2 labelled by ``_LABELS``
    under ``name``, else ``bad field 'name':``."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(_LABELS.get(name, f"bad field {name!r}: ") + str(exc))


def _payload(args, *tables) -> list:
    """The input's fields, read by ``model.json_object`` with these tables."""
    return md.json_object(_load_json(args.input), *({name: functools.partial(_read, read)
                                                     for name, read in table.items()}
                                                    for table in tables))


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    if args.output and args.dump_game and _same_file(args.output, args.dump_game):
        raise ValueError(f"--output and --dump-game name the same file: {args.dump_game}")
    contract, a0 = _payload(args, {"contract": md.Contract.from_json,
                                   "actions": md.ActionSet.from_json})
    from . import worstcase as wc

    eps = args.eps if args.eps is not None else wc.DEFAULT_WITNESS_EPS

    reduced = md.reduce_failure_wages(contract)
    res = wc.worst_case(reduced, a0, eps)
    out = {**_fields(res), "classification": md.classify(reduced).tag,
           "contract_evaluated": reduced.to_json(), "reduction_applied": reduced != contract}
    if res.witness is not None:
        out["witness"] = {**_actions_doc(res.witness.actions), "eps": res.witness.eps}
    files = []
    if args.dump_game:
        base = res.witness.actions if res.witness is not None else a0
        if len(base) ** 2 > MAX_DUMP_CELLS:
            raise ValueError(f"--dump-game of {len(base)} actions asks for about "
                             f"{len(base) ** 2:.3g} payoff cells, above the cap of "
                             f"{MAX_DUMP_CELLS:.3g}; use a larger --eps")
        from .game import induce_game

        files.append((args.dump_game, _game_doc(base, induce_game(reduced, base).payoff_row)))
    _emit(args, out, files=files)
    return EXIT_OK


def cmd_optimize(args) -> int:
    a0 = _read(md.ActionSet.from_json, _load_json(args.input), "actions")
    from . import optimize as opt

    res = opt.optimize_jpe(a0, coarse=args.grid_step, refine_rounds=args.refine)
    _emit(args, {**_fields(res), "total": 2.0 * res.per_agent})
    return EXIT_OK


def cmd_adversary(args) -> int:
    contract, a0 = _payload(args, {"contract": md.Contract.from_json,
                                   "actions": md.ActionSet.from_json})
    from . import worstcase as wc

    s0, s1 = wc.marginal_wage(contract, wc.JOINT)
    adv = wc.euler_adversary(wc.best_known_solution(s0, s1, a0), args.n, rho=args.rho)
    wc.check_witness(contract, adv.actions)
    if args.format == "csv":
        import numpy as np

        actions = adv.actions
        steps = _Rows.of(np.arange(len(actions)), actions.costs, actions.probs)
        _emit(args, None, csv_text=steps.text("%d,%r,%r\n"), csv_header=("step", "cost", "prob"))
        return EXIT_OK
    _emit(args, {
        "chain": _actions_doc(adv.actions)["actions"],
        "eps": adv.step,
        "rho": adv.rho,
        "t_hat": adv.t_hat,
        "clamped": adv.clamped,
        "max_eq_prob": float(adv.actions.probs[-1]),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    p_grid, c_grid = _payload(args, {"p_grid": _probabilities, "c_grid": _grid})
    from . import optimize as opt

    cells = [_fields(c) for c in opt.sweep_regimes(p_grid, c_grid, coarse=args.grid_step,
                                                   refine_rounds=args.refine)]
    # str of a float is its repr; a missing wage or value is an empty field
    rows = (",".join("" if v is None else str(v) for v in c.values()) + "\n" for c in cells)
    _emit(args, {"cells": cells}, csv_text=rows,
          csv_header=[f.name for f in fields(opt.SweepCell)])
    return EXIT_OK


def cmd_discriminate(args) -> int:
    a0 = _read(md.ActionSet.from_json, _load_json(args.input), "actions")
    from . import optimize as opt

    res = opt.discriminatory_ipe(a0, grid=args.grid_step)
    c1, p1, p2 = res.inner_witness
    _emit(args, {**_fields(res), "inner_witness": {"c1": c1, "p1": p1, "p2": p2},
                 "value_per_agent": res.value_total / 2.0})
    return EXIT_OK


def cmd_bayes(args) -> int:
    p0, c0, p_star, mu, w0 = _payload(args, dict.fromkeys(("p0", "c0", "p_star"), md.number),
                                      dict.fromkeys(("mu", "w0"), md.number))
    if args.mu is None and mu is None:
        raise ValueError("mu required (field or --mu)")
    from . import extensions as ext

    env = ext.BayesianEnv(mu if args.mu is None else args.mu, p0, c0, p_star)
    w0 = env.c0 / env.p0 / 2.0 if w0 is None else w0
    jpe_val = ext.bayesian_eval(env, ext.JPE_SCHEME, w0)
    result = {
        "zero": ext.bayesian_eval(env, ext.ZERO),
        "ipe_mixed": ext.bayesian_eval(env, ext.IPE_MIXED),
        "ipe_always_a0": ext.bayesian_eval(env, ext.IPE_ALWAYS_A0),
        "jpe": {"w0": w0, "b": ext.jpe_team_bonus(env, w0), "value": jpe_val},
    }
    for key, threshold in (("mu_threshold_ipe", ext.mu_threshold_ipe),
                           ("mu_threshold_jpe", ext.mu_threshold_jpe)):
        try:
            result[key] = threshold(env.p0, env.c0, env.p_star)
        except ValueError:
            result[key] = None
    _emit(args, result)
    return EXIT_OK


def cmd_multi(args) -> int:
    a0, n, w0, b = _payload(args, {"actions": md.ActionSet.from_json, "n": md.integral,
                                   "w0": md.number, "b": md.number})
    from . import extensions as ext

    per_agent, total = ext.multi_agent_value(ext.MultiAgentContract(n, w0, b), a0)
    _emit(args, {"n": n, "per_agent": per_agent, "total": total})
    return EXIT_OK


def cmd_asym(args) -> int:
    contract, a0 = _payload(args, {"contract": md.Contract.from_json, "a0": md.json_action})
    from . import extensions as ext

    p1, p2, total = ext.asym_unknown_value(contract, md.ActionSpec(*a0))
    _emit(args, {"p1": p1, "p2": p2, "total": total})
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest as st

    results = st.run_all(seed=args.seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    ok = all(r.passed for r in results)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name:<{width}}  {r.detail}\n"
             for r in results]
    lines.append(f"selftest: {'all suites passed' if ok else 'FAILURES detected'} "
                 f"(seed={args.seed}, quick={args.quick})\n")
    _write([(None, lines)])
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

    def common(p, formats=("json",)):
        p.add_argument("--output", help="write result here (default: stdout)")
        p.add_argument("--format", choices=formats, default="json")

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
    p.add_argument("--n", required=True, help="chain length", type=_checked(
        int, lambda n: 1 <= n <= md.MAX_WITNESS_CHAIN, f"in [1, {md.MAX_WITNESS_CHAIN}]"))
    p.add_argument("--rho", type=_non_negative, help="override the rounding margin")
    common(p, ("json", "csv"))
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("sweep", help="optimal wages over a (p0, c0) grid")
    p.add_argument("--input", required=True, help='JSON {"p_grid":..., "c_grid":...}')
    p.add_argument("--grid-step", type=_positive, default=1e-2)
    p.add_argument("--refine", type=_count, default=3)
    common(p, ("json", "csv"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("discriminate", help="agent-specific success wages max-min")
    p.add_argument("--input", required=True, help="JSON action set")
    p.add_argument("--grid-step", type=_positive, default=1e-2)
    common(p)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("bayes", help="scheme comparison under technology uncertainty")
    p.add_argument("--input", required=True, help='JSON {"p0","c0","p_star"[,"mu","w0"]}')
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
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
