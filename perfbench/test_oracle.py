"""The benchmark's output oracle accepts the CLI's results and rejects
deliberately corrupted copies of them.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json

import pytest

import oracle
from teamcontracts.cli import main

KNOWN = {"actions": [{"cost": 0.25, "prob": 1.0}, {"cost": 0.3, "prob": 0.5}], "known": 2}
JPE = {"w11": 0.6, "w10": 0.05, "w01": 0.0, "w00": 0.0}


def _bump(key_path, delta):
    """Corruption adding ``delta`` to the number at ``key_path`` in the result."""
    def corrupt(text):
        doc = json.loads(text)
        node = doc["result"]
        for key in key_path[:-1]:
            node = node[key]
        node[key_path[-1]] += delta
        return json.dumps(doc)
    return corrupt


def _csv_cell(row, col, delta):
    def corrupt(text):
        lines = text.splitlines()
        cells = lines[3 + row].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[3 + row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return corrupt


# (verb, input, extra flags, oracle spec, corruption)
CASES = {
    "optimize": ("optimize", KNOWN, [], {"actions": KNOWN, "grid_step": 1e-2, "refine": 3},
                 _bump(["per_agent"], 1e-3)),
    "sweep": ("sweep", {"p_grid": [0.8, 1.0], "c_grid": [0.2, 0.9]}, ["--format", "csv"],
              {"p_grid": [0.8, 1.0], "c_grid": [0.2, 0.9]}, _csv_cell(0, 4, 1e-3)),
    "discriminate": ("discriminate", KNOWN, ["--grid-step", "0.05"], {"actions": KNOWN},
                     _bump(["inner_witness", "p2"], 0.05)),
    "bayes": ("bayes", {"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5, "w0": 0.2}, [],
              {"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5, "w0": 0.2},
              _bump(["jpe", "value"], 1e-6)),
    "multi": ("multi", {"n": 3, "w0": 0.2, "b": 0.3, "actions": KNOWN}, [],
              {"n": 3, "w0": 0.2, "b": 0.3, "actions": KNOWN}, _bump(["total"], 1e-6)),
    "evaluate": ("evaluate", {"contract": JPE, "actions": KNOWN}, ["--eps", "5e-3"],
                 {"contract": JPE, "actions": KNOWN, "pattern": "JPE", "eps": 5e-3},
                 _bump(["witness", "actions", 20, "prob"], 1e-6)),
    "adversary": ("adversary", {"contract": JPE, "actions": KNOWN}, ["--n", "200", "--format",
                                                                     "csv"],
                  {"contract": JPE, "actions": KNOWN, "n": 200, "format": "csv"},
                  _csv_cell(150, 2, -1e-4)),
}


def _run(tmp_path, verb, payload, flags):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([verb, "--input", str(inp), *flags, "--output", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_accepts_output_and_rejects_corruption(tmp_path, case):
    verb, payload, flags, spec, corrupt = CASES[case]
    spec = {"kind": verb, **spec}
    text = _run(tmp_path, verb, payload, flags)
    assert oracle.check(spec, text) == []
    assert oracle.check(spec, corrupt(text)) != []


def test_oracle_checks_the_game_dump(tmp_path):
    payload = {"contract": JPE, "actions": KNOWN}
    inp, out, dump = tmp_path / "in.json", tmp_path / "out.json", tmp_path / "game.json"
    inp.write_text(json.dumps(payload))
    assert main(["evaluate", "--input", str(inp), "--eps", "1e-2", "--output", str(out),
                 "--dump-game", str(dump)]) == 0
    spec = {"kind": "evaluate", "pattern": "JPE", "eps": 1e-2, **payload}
    game = json.loads(dump.read_text())
    assert oracle.check(spec, out.read_text(), dump.read_text()) == []
    game["payoff"][3][7] += 1e-9
    assert oracle.check(spec, out.read_text(), json.dumps(game)) != []


def test_oracle_reads_selftest_report():
    lines = [f"[PASS] suite {k}  ok" for k in range(12)]
    text = "\n".join(lines + ["selftest: all suites passed (seed=7, quick=True)"]) + "\n"
    spec = {"kind": "selftest", "seed": 7}
    assert oracle.check(spec, text) == []
    assert oracle.check(spec, text.replace("[PASS] suite 4", "[FAIL] suite 4")) != []
