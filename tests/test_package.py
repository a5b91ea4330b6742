"""The package namespace resolves its names lazily, and a command-line
process runs BLAS on one thread while a library import sets nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import teamcontracts

SRC = Path(__file__).resolve().parents[1] / "src"

# Every public name of the package when its __init__ imported all submodules.
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
paired_br_limit pbar_closed_form pessimistic_value principal_value reduce_failure_wages rpe_value
select_and_value sweep_regimes verify_profile worstcase
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
