"""Benchmark of the teamcontracts CLI.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all``) as a closed loop with one client: each CLI
call is a fresh ``python -m teamcontracts`` process started only after the
previous one exited.  The call list is run in passes, at least two and as
many as fit in ``--seconds``; every output is checked by the oracle and
must be byte-identical in every pass.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
the same calls run in this process through ``teamcontracts.cli.main``,
alternately untraced and traced, and the per-layer metrics are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

MIN_PASSES = 3      # passes after the first also check determinism
SETUP_RUNS = 9      # `--version` launches per run; setup_s is their median
TAIL_BEYOND = 10    # calls that must lie beyond the reported tail percentile
CALL_TIMEOUT = 60.0


@dataclass
class Pass:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    out_bytes: int = 0
    failures: list = field(default_factory=list)   # (call label, problem)

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Judge:
    """Checks each call's outcome; later passes must repeat the first's bytes."""

    def __init__(self):
        self.first: dict[int, tuple[str, list]] = {}

    def __call__(self, i, call, code, stdout: bytes, stderr: bytes) -> tuple[list, int]:
        out = Path(call.output).read_bytes() if call.output and Path(call.output).exists() else b""
        dump = Path(call.dump).read_bytes() if call.dump and Path(call.dump).exists() else b""
        digest = hashlib.sha256(
            b"\0".join([str(code).encode(), stdout, stderr, out, dump])).hexdigest()
        if i in self.first:
            first_digest, problems = self.first[i]
            if digest != first_digest:
                problems = problems + ["output bytes differ from the first pass"]
            return problems, len(stdout) + len(out) + len(dump)
        problems = []
        if code != call.expect:
            problems.append(f"exit {code}, expected {call.expect}")
        if b"Traceback" in stderr:
            problems.append("printed a traceback")
        if not problems and call.spec is not None:
            text = out.decode() if call.output else stdout.decode()
            problems = oracle.check(call.spec, text, dump.decode() if call.dump else None)
        self.first[i] = (digest, problems)
        return problems, len(stdout) + len(out) + len(dump)


def _clean(call) -> None:
    for path in (call.output, call.dump):
        if path:
            Path(path).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# End to end: one subprocess per call
# ---------------------------------------------------------------------------

def _launch(argv, env, work: Path):
    """Run the CLI once; returns (exit code, wall s, cpu s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "teamcontracts", *argv],
                                stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(CALL_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            out_path.read_bytes(), err_path.read_bytes())


def _subprocess_pass(calls, env, work, judge) -> Pass:
    p = Pass()
    for i, call in enumerate(calls):
        _clean(call)
        code, wall, cpu, rss, stdout, stderr = _launch(call.argv, env, work)
        problems, nbytes = judge(i, call, code, stdout, stderr)
        if code < 0:
            problems = [f"killed after {CALL_TIMEOUT:.0f} s"] + problems
        p.walls.append(wall)
        p.cpus.append(cpu)
        p.peak_rss_mb = max(p.peak_rss_mb, rss)
        p.out_bytes += nbytes
        p.failures += [(call.label, msg) for msg in problems[:1]]
        _clean(call)
    return p


def tail(values: list, reference_count: int) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    TAIL_BEYOND of ``reference_count`` calls beyond it, applied to ``values``.

    The percentile is fixed by the workload's call count over MIN_PASSES
    passes, so it is the same whatever number of passes fit in a run.  With
    too few calls for any such percentile the maximum is reported.
    """
    q = max(0.0, (reference_count - TAIL_BEYOND) / reference_count)
    if q == 0.0:
        return 100.0, max(values)
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return 100.0 * q, ordered[k]


def run_end_to_end(name: str, seed: int, seconds: float, work: Path) -> dict:
    calls = workloads.build(name, seed, work)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    _launch(["--version"], env, work)  # byte-compiles the package on a fresh checkout
    setup = [_launch(["--version"], env, work)[1] for _ in range(SETUP_RUNS)]

    judge = Judge()
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(_subprocess_pass(calls, env, work, judge))

    walls = [w for p in passes for w in p.walls]
    attempted = len(walls)
    failures = [f for p in passes for f in p.failures]
    pct, tail_s = tail(walls, len(calls) * MIN_PASSES)

    def per_call_median_sum(series):
        # one pass of the call list, each call at its median over the passes
        return sum(statistics.median(x) for x in zip(*series))

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": per_call_median_sum(p.walls for p in passes),
        "cpu_s": per_call_median_sum(p.cpus for p in passes),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "ok_frac": 1.0 - len(failures) / attempted,
    }
    return {
        "workload": name, "calls": len(calls), "passes": len(passes), "attempted": attempted,
        "failures": failures, "metrics": metrics, "setup_walls": setup,
        "call_walls": [[[c.label, w] for c, w in zip(calls, p.walls)] for p in passes],
        "notes": {"op_tail_s": f"p{pct:.1f} of {attempted} calls",
                  "wall_s": f"throughput {len(calls) / metrics['wall_s']:.3f} calls/s",
                  "ok_frac": f"fail_frac {len(failures) / attempted:.4f}"},
    }


# ---------------------------------------------------------------------------
# Traced: the same calls in this process
# ---------------------------------------------------------------------------

def _inprocess_pass(calls, cli, judge, tracer=None) -> Pass:
    p = Pass()
    for i, call in enumerate(calls):
        _clean(call)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = i
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - an escaping error is a result to check
                traceback.print_exc()
                code = 1
        p.walls.append(perf_counter() - start)
        problems, nbytes = judge(i, call, code, out.getvalue().encode(), err.getvalue().encode())
        p.out_bytes += nbytes
        p.failures += [(call.label, msg) for msg in problems[:1]]
        _clean(call)
    return p


def _layer_metrics(t: Tracer, p: Pass) -> dict:
    st, c, own = t.stats, t.counters, t.module_self()

    def calls(name):
        return st[name][0] if name in st else 0

    def incl(name):
        return st[name][1] if name in st else 0.0

    def own_time(name):
        return st[name][2] if name in st else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.self_s": own["cli"],
        "cli.out_bytes": p.out_bytes,
        "model.self_s": own["model"],
        "model.actions_built": calls("model.ActionSpec.__init__"),
        "model.ranking_calls": calls("model.ActionSet.ranking"),
        "model.ranking_items": c["model.ranking_items"],
        "game.self_s": own["game"],
        "game.br_calls": calls("game.max_best_response") + calls("game.min_best_response"),
        "game.br_cells": c["game.br_cells"],
        "game.payoff_cells": c["game.payoff_cells"],
        "game.extremal_br_path.s": incl("game.extremal_br_path"),
        "game.paired_br_limit.s": incl("game.paired_br_limit"),
        "game.enumerate_equilibria.calls": calls("game.enumerate_equilibria"),
        "game.enumerate_equilibria.s": incl("game.enumerate_equilibria"),
        "game.check_modularity.s": incl("game.check_modularity"),
        "worstcase.self_s": own["worstcase"],
        "worstcase.pbar_closed_form.calls": calls("worstcase.pbar_closed_form"),
        "worstcase.jpe_value.calls": calls("worstcase.jpe_value"),
        "worstcase.rpe_value.calls": calls("worstcase.rpe_value"),
        "worstcase.value_grid.calls": calls("worstcase.value_grid"),
        "worstcase.value_grid.cells": c["worstcase.value_grid.cells"],
        "worstcase.value_grid.s": incl("worstcase.value_grid"),
        "worstcase.euler_adversary.s": own_time("worstcase.euler_adversary"),
        "worstcase.chain_steps": c["worstcase.chain_steps"],
        "optimize.self_s": own["optimize"],
        "optimize.optimize_jpe.calls": calls("optimize.optimize_jpe"),
        "optimize.grid_useful_frac": ratio(c["optimize.grid_feasible_cells"],
                                           c["worstcase.value_grid.cells"]),
        "optimize.sweep_regimes.s": incl("optimize.sweep_regimes"),
        "optimize.discriminatory_ipe.s": incl("optimize.discriminatory_ipe"),
        "optimize.inner_cells": c["optimize.inner_cells"],
        "extensions.self_s": own["extensions"],
        "extensions.bayesian_eval.calls": calls("extensions.bayesian_eval"),
        "extensions.mu_threshold_jpe.s": incl("extensions.mu_threshold_jpe"),
        "selftest.self_s": own["selftest"],
        "selftest.ode_quadrature.s": incl("selftest.ode_quadrature"),
        "selftest.rk4_instance_steps": c["selftest.rk4_instance_steps"],
        "selftest.quadrature_useful_frac": ratio(c["selftest.quadrature_kept"],
                                                 c["selftest.quadrature_integrated"]),
        "trace.spans": len(t.spans),
    }


def run_traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import teamcontracts
    from teamcontracts import cli

    calls = workloads.build(name, seed, work)
    judge, tracer = Judge(), Tracer()
    start = perf_counter()
    # The warm-up pass fills allocator and file caches and sets the reference
    # outputs; only the untraced and traced passes after it are compared.
    plain, traced, layers = [_inprocess_pass(calls, cli, judge)], [], []
    while True:
        plain.append(_inprocess_pass(calls, cli, judge))
        tracer.install(teamcontracts)
        tracer.reset()
        try:
            traced.append(_inprocess_pass(calls, cli, judge, tracer))
        finally:
            tracer.uninstall()
        layers.append(_layer_metrics(tracer, traced[-1]))
        if perf_counter() - start + plain[-1].wall + traced[-1].wall > seconds:
            break

    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    plain_s = statistics.median(p.wall for p in plain[1:])
    metrics["trace.overhead_frac"] = statistics.median(p.wall for p in traced) / plain_s - 1.0
    runs = plain + traced
    return {
        "workload": name, "calls": len(calls), "passes": len(runs),
        "attempted": len(calls) * len(runs), "failures": [f for p in runs for f in p.failures],
        "metrics": metrics, "trace": tracer.dump(), "notes": {},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def machine_record(seed: int) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or f"library default (up to nproc = {os.cpu_count()})",
        "seed": seed, "commit": commit,
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "teamcontracts" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'teamcontracts'} is missing",
              file=sys.stderr)
        return 2
    units = _units()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = machine_record(args.seed)
    print("record " + json.dumps(record, sort_keys=True))

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        work = WORK / f"work-{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            run = (run_traced if args.trace else run_end_to_end)(name, args.seed,
                                                                 args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        if "trace" in run:
            (results_dir / f"{stem}-spans.json").write_text(json.dumps(run.pop("trace")))
        (results_dir / f"{stem}.json").write_text(
            json.dumps(dict(run, record=record), indent=1, sort_keys=True))

        failing = sorted({f"{label}: {msg}" for label, msg in run["failures"]})
        print(f"workload {name}: {run['calls']} calls per pass, {run['passes']} passes, "
              f"closed loop, 1 client, {'traced in-process' if args.trace else 'subprocess'}")
        for key, value in run["metrics"].items():
            if key not in units:
                raise KeyError(f"metric {key} is not declared in BENCHMARK.json")
            note = run["notes"].get(key, "")
            print(f"  {key:<36} {value:>14.6g} {units[key]:<6} {note}")
        print(f"  failed {len(run['failures'])} of {run['attempted']} calls"
              + "".join(f"\n    {line}" for line in failing))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in run["metrics"].items()})
        attempted += run["attempted"]
        failed += len(run["failures"])
        # a valid call giving a wrong result; rejection calls only count as failed
        correct &= not any(not label.startswith("reject:") for label, _ in run["failures"])

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
