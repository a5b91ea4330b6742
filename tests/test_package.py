"""The package namespace resolves its names lazily, a command-line
process runs BLAS on one thread while a library import sets nothing, and
each verb loads only the solver modules it calls, and numpy only where it
computes on arrays."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teamcontracts

SRC = Path(__file__).resolve().parents[1] / "src"

# Every public name of the package when its __init__ imported all submodules,
# with worst_case, added since, and without the one-target endpoint function,
# folded into best_known_solution since.
EAGER_NAMES = """
ActionSet ActionSpec AdversarySet AssumptionError BayesianEnv BestResponseCycleError Contract
ContractClass ContractPatternError ConvergenceError DiscriminatoryResult EquilibriumReport
EulerAdversary GameSizeError InducedGame IpeOptimum MultiAgentContract OdeSolution
OptimizationResult Profile SweepCell Witness WorstCaseResult asym_unknown_value bayesian_eval
best_ipe_value best_jpe_value best_known_solution calibrate_jpe calibration_witness
check_known_assumptions check_modularity classify discriminatory_inner discriminatory_ipe
enumerate_equilibria errors euler_adversary euler_error_bound extensions extremal_br_path game
induce_game ipe_adversary ipe_optimal ipe_value jpe_team_bonus jpe_value jpe_value_w00
linear_contract model mu_threshold_ipe mu_threshold_jpe multi_agent_value optimize optimize_jpe
paired_br_limit pessimistic_value principal_value reduce_failure_wages rpe_value
select_and_value sweep_regimes verify_profile worst_case worstcase
""".split()
SUBMODULES = {"errors", "extensions", "game", "model", "optimize", "worstcase"}


def run_python(code: str, **env: str) -> str:
    """stdout of ``python -c code`` with OPENBLAS_NUM_THREADS unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.strip()


def test_import_loads_no_numpy_and_sets_nothing():
    out = run_python("import os, sys, teamcontracts; "
                     "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), "
                     "sorted(m for m in sys.modules if m.startswith('teamcontracts')))")
    assert out == "False None ['teamcontracts']"


@pytest.mark.parametrize("env, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_entry_point_sets_one_blas_thread_unless_set(env, want):
    code = "import os, teamcontracts.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, **env) == want


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_entry_point_process_has_one_thread_after_numpy():
    code = "import os, teamcontracts.__main__, numpy; print(len(os.listdir('/proc/self/task')))"
    assert run_python(code) == "1"


def test_model_and_extensions_load_no_numpy():
    assert run_python("import sys, teamcontracts.model, teamcontracts.extensions; "
                      "print('numpy' in sys.modules)") == "False"


def test_eager_names_resolve_to_their_submodule_objects():
    assert sorted(teamcontracts.__all__) == sorted(EAGER_NAMES)
    listed = dir(teamcontracts)
    for name in EAGER_NAMES:
        obj = getattr(teamcontracts, name)
        assert name in listed
        if name in SUBMODULES:
            assert obj is sys.modules[f"teamcontracts.{name}"]
        else:
            assert obj is getattr(sys.modules[obj.__module__], name)
            assert obj.__module__.startswith("teamcontracts.")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        teamcontracts.no_such_name
    with pytest.raises(ImportError):
        from teamcontracts import no_such_name  # noqa: F401


def test_unlisted_submodules_resolve_in_a_fresh_process():
    code = ("import json, sys, teamcontracts; "
            "print(json.dumps([[getattr(teamcontracts, m) is sys.modules['teamcontracts.' + m]"
            " for m in ('selftest', 'cli')], teamcontracts.__all__]))")
    resolved, listed = json.loads(run_python(code))
    assert resolved == [True, True]
    assert sorted(listed) == sorted(EAGER_NAMES)


# Runs the entry point's main in a fresh process, then prints its exit code,
# whether numpy is loaded, the package's loaded submodules and main's stderr.
LOADED = """
import contextlib, io, json, sys
from teamcontracts.__main__ import main
with contextlib.redirect_stderr(io.StringIO()) as err:
    try:
        code = main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, "numpy" in sys.modules,
                  [m.split(".", 1)[1] for m in sys.modules if m.startswith("teamcontracts.")],
                  err.getvalue()]))
"""
A0_JSON = {"actions": [{"cost": 0.25, "prob": 1.0}], "known": 1}
JPE_JSON = {"contract": {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0}, "actions": A0_JSON}
ENV_JSON = {"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5}
SOLVERS = {"worstcase", "game", "optimize", "extensions", "selftest"}


def run_main(tmp_path, verb, text=None, flags=()):
    """``main([verb, ...])`` on input ``text`` in a fresh process: its exit
    code, whether numpy loaded, the loaded submodules and its stderr."""
    argv = [verb]
    if text is not None:
        inp = tmp_path / "in.json"
        inp.write_text(text)
        argv += ["--input", str(inp), *flags, "--output", str(tmp_path / "out.json")]
    out = run_python(LOADED.format(argv=argv), PYTHONDONTWRITEBYTECODE="1")
    return json.loads(out.splitlines()[-1])


VERB_CASES = [  # verb, input, flags, whether numpy loads, modules that do not
    ("--version", None, [], False, SOLVERS),
    ("optimize", A0_JSON, [], True, {"game", "extensions", "selftest"}),
    ("sweep", {"p_grid": [1.0], "c_grid": [0.25]}, [], True, {"game", "extensions", "selftest"}),
    ("discriminate", A0_JSON, [], True, {"game", "extensions", "selftest"}),
    ("bayes", ENV_JSON, [], False, {"worstcase", "game", "optimize", "selftest"}),
    ("asym", {"contract": JPE_JSON["contract"], "a0": {"cost": 0.25, "prob": 1.0}}, [], False,
     {"worstcase", "game", "optimize", "selftest"}),
    ("multi", {"n": 3, "w0": 0.4, "b": 0.1, "actions": A0_JSON}, [], True,
     {"game", "optimize", "selftest"}),
    ("evaluate", JPE_JSON, [], True, {"optimize", "extensions", "selftest"}),
    ("adversary", JPE_JSON, ["--n", "100"], True, {"optimize", "extensions", "selftest"}),
]


@pytest.mark.parametrize("verb, payload, flags, numpy_wanted, not_loaded", VERB_CASES,
                         ids=[case[0].lstrip("-") for case in VERB_CASES])
def test_verb_loads_only_its_modules(tmp_path, verb, payload, flags, numpy_wanted, not_loaded):
    text = None if payload is None else json.dumps(payload)
    code, numpy_loaded, loaded, err = run_main(tmp_path, verb, text, flags)
    assert (code, err) == (0, "")
    assert numpy_loaded == numpy_wanted
    assert not_loaded.isdisjoint(loaded), sorted(not_loaded & set(loaded))


REJECTIONS = [  # verb, input text, stderr: {input} is the input path, {json_error} json's error
    ("evaluate", json.dumps({**JPE_JSON, "note": "draft"}), "error: unknown fields: ['note']\n"),
    ("optimize", json.dumps(A0_JSON)[:-3], "error: malformed JSON in {input}: {json_error}\n"),
    ("bayes", json.dumps({k: v for k, v in ENV_JSON.items() if k != "c0"}),
     "error: missing fields: ['c0']\n"),
    ("evaluate", json.dumps({**JPE_JSON, "contract": {**JPE_JSON["contract"], "w2": 0.1}}),
     "error: bad contract: unknown contract fields: ['w2']\n"),
    ("optimize", json.dumps({"actions": [{"cost": 0.25}], "known": 1}),
     "error: bad action set: missing action 0 fields: ['prob']\n"),
    ("sweep", json.dumps({"p_grid": [0.5, 1.5], "c_grid": [0.25]}),
     "error: bad grid: p_grid entry is not in [0, 1]: 1.5\n"),
]


@pytest.mark.parametrize("verb, text, stderr", REJECTIONS,
                         ids=["unknown_field", "bad_json", "missing_field",
                              "unknown_contract_field", "action_missing_prob", "p_grid_above_1"])
def test_early_rejection_loads_no_numpy(tmp_path, verb, text, stderr):
    json_error = None
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        json_error = exc
    code, numpy_loaded, loaded, err = run_main(tmp_path, verb, text)
    assert (code, numpy_loaded) == (2, False)
    assert err == stderr.format(input=tmp_path / "in.json", json_error=json_error)
    assert SOLVERS.isdisjoint(loaded), sorted(SOLVERS & set(loaded))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_cli_process_has_one_thread_after_a_numpy_verb(tmp_path):
    inp = tmp_path / "a0.json"
    inp.write_text(json.dumps(A0_JSON))
    argv = ["optimize", "--input", str(inp), "--output", str(tmp_path / "out.json")]
    code = ("import os, sys; from teamcontracts.__main__ import main; "
            f"code = main({argv!r}); "
            "print(code, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
    assert run_python(code) == "0 True 1"


def test_readme_quick_start_prints_what_its_comments_state():
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    printed = []
    exec(block.split("```", 1)[0], {"print": lambda *args: printed.append(args)})
    (ipe,), (opt,), (pbar, per_agent, binding), (probs,) = printed
    assert (ipe.w_star, ipe.per_agent) == (0.5, 0.25)
    assert (opt.w11, opt.w10, opt.per_agent) == pytest.approx((2 / 3, 0.0, 1 / 3), abs=1e-3)
    assert opt.regime == "POOLED"
    assert (pbar, per_agent) == pytest.approx((0.5, 1 / 3), abs=1e-12)
    assert binding == "SHIRK_EQ"
    assert probs.tolist() == pytest.approx([1.0, 0.75, 5 / 12], abs=1e-6)
