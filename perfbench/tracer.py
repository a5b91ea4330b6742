"""Tracing the package from outside, by wrapping its public functions.

``Tracer.install`` replaces every public function of the package modules,
and every method of the classes they define, with a timing wrapper, and
rebinds each name a module imported with ``from .x import y`` so calls
between modules are traced too.  ``uninstall`` restores the originals.

Most functions record a span ``[op_id, name, start, end, parent]``.  Hot
scalar functions, called thousands of times per operation, are only
aggregated: a call count and total time per parent span.  Every call,
span or not, adds to its function's call count, inclusive time and self
time (inclusive time minus the time of traced callees).  Hooks derive
work counters from arguments and results, such as the cells of a grid.
"""

from __future__ import annotations

import functools
import inspect
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "model", "game", "worstcase", "optimize", "extensions", "selftest")

# Aggregated, not recorded as spans: called per action, per cell or per mu.
HOT = {
    "model.classify", "model.reduce_failure_wages", "model.calibrate_jpe",
    "model.check_known_assumptions", "model.linear_contract",
    "game.induce_game", "game.expected_wage", "game.max_best_response",
    "game.min_best_response", "game.verify_profile", "game.agent_payoffs",
    "game.principal_value",
    "worstcase.pbar_closed_form", "worstcase.shirk_branch",
    "extensions.bayesian_eval", "extensions.best_jpe_value", "extensions.best_ipe_value",
    "extensions.jpe_team_bonus",
}
HOT_PREFIXES = ("selftest.draw_",)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _ranking(c, fn, args, kwargs, result):
    c["model.ranking_items"] += len(args[0].actions)


def _best_response(c, fn, args, kwargs, result):
    c["game.br_cells"] += len(args[0])


def _payoff(c, fn, args, kwargs, result):
    c["game.payoff_cells"] += len(args[0]) ** 2


def _value_grid(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    w11, w10 = np.asarray(a["w11"]), np.asarray(a["w10"])
    c["worstcase.value_grid.cells"] += np.broadcast(w11, w10).size
    # the optimizer's feasible triangle, with the tolerance it masks by
    c["optimize.grid_feasible_cells"] += int(np.count_nonzero(w10 <= w11 + 1e-15))


def _euler(c, fn, args, kwargs, result):
    c["worstcase.chain_steps"] += _bound(fn, args, kwargs)["n"]


def _discriminatory(c, fn, args, kwargs, result):
    n = max(1, round(1.0 / _bound(fn, args, kwargs)["grid"]))
    # every (w1 >= w2) pair of the axis, each scanning the (c1, p2) grid
    c["optimize.inner_cells"] += (n + 1) * (n + 2) // 2 * (n + 1) ** 2


def _quadrature(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    size = np.size(a["w11"])
    c["selftest.rk4_instance_steps"] += size * a["steps"]
    c["selftest.quadrature_integrated"] += size


def _suite_quadrature(c, fn, args, kwargs, result):
    # the suite reports "<ok>/<kept> ok; ..." over the instances it kept
    c["selftest.quadrature_kept"] += int(result.detail.split("/")[1].split()[0])


HOOKS = {
    "model.ActionSet.ranking": _ranking,
    "game.max_best_response": _best_response,
    "game.min_best_response": _best_response,
    "game.InducedGame.payoff": _payoff,
    "worstcase.value_grid": _value_grid,
    "worstcase.euler_adversary": _euler,
    "optimize.discriminatory_ipe": _discriminatory,
    "selftest.ode_quadrature": _quadrature,
    "selftest.suite_quadrature": _suite_quadrature,
}


class Tracer:
    def __init__(self):
        self.op_id = None
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop everything recorded; keeps the wrappers installed."""
        self.spans: list[list] = []
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counters: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # traced-callee time of each open call
        self._span = None                 # innermost open span

    def _wrap(self, name: str, fn, hot: bool = False):
        hot = hot or name in HOT or name.startswith(HOT_PREFIXES)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._span
            if not hot:
                sid = len(tracer.spans)
                span = [tracer.op_id, name, 0.0, 0.0, parent]
                tracer.spans.append(span)
                tracer._span = sid
            children = tracer._children
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                inner = children.pop()
                if children:
                    children[-1] += dur
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - inner
                if hot:
                    agg = tracer.aggregates[(parent, name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    span[2], span[3] = start, end
                    tracer._span = parent
            if hook is not None:
                hook(tracer.counters, fn, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(f"{short}.{attr}", obj)
        # own definitions and every `from .x import y` binding alike
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _install_class(self, prefix: str, cls) -> None:
        """Wrap the constructor and public methods; all are aggregated."""
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, obj, hot=True))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, obj.__func__, hot=True)))
            elif isinstance(obj, functools.cached_property):
                prop = functools.cached_property(self._wrap(name, obj.func, hot=True))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def module_self(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def dump(self) -> dict:
        """Spans and per-parent aggregates, for writing out after the run."""
        return {
            "spans": [dict(zip(("op_id", "name", "start", "end", "parent"), s))
                      for s in self.spans],
            "aggregates": [{"parent": p, "name": n, "calls": c, "total_s": t}
                           for (p, n), (c, t) in self.aggregates.items()],
        }
