import errno
import functools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamcontracts import __version__, cli
from teamcontracts import game as gm
from teamcontracts import optimize as opt
from teamcontracts import worstcase as wc
from teamcontracts.cli import main
from teamcontracts.game import induce_game
from teamcontracts.model import MAX_WITNESS_CHAIN, ActionSet, Contract

from dense_game import dense_payoff
from test_model import tuple_to_json

A0_JSON = {"actions": [{"cost": 0.25, "prob": 1.0}], "known": 1}
JPE_JSON = {"contract": {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_result(path):
    doc = json.loads(path.read_text())
    assert doc["meta"]["tool"] == "teamcontracts"
    assert "config" in doc["meta"]
    return doc["result"]


class TestEvaluate:
    def test_jpe_contract(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 2 / 3, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON,
        })
        out = tmp_path / "out.json"
        assert main(["evaluate", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert res["pbar"] == pytest.approx(0.5, abs=1e-12)
        assert res["per_agent"] == pytest.approx(1 / 3, abs=1e-12)
        assert res["total"] == pytest.approx(2 / 3, abs=1e-12)
        assert res["binding"] == "SHIRK_EQ"
        assert res["witness"]["eps"] == 1e-4
        assert res["classification"] == "JPE"
        assert res["reduction_applied"] is False

    def test_zero_contract(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0, "w10": 0, "w01": 0, "w00": 0},
            "actions": A0_JSON,
        })
        out = tmp_path / "out.json"
        assert main(["evaluate", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert res["per_agent"] == 0.0
        assert res["binding"] == "SHIRK_EQ"

    def test_reduction_path_and_game_dump(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.7, "w10": 0.1, "w01": 0.1, "w00": 0.1},
            "actions": A0_JSON,
        })
        out = tmp_path / "out.json"
        dump = tmp_path / "game.json"
        code = main(["evaluate", "--input", inp, "--output", str(out),
                     "--dump-game", str(dump)])
        assert code == 0
        res = read_result(out)
        assert res["reduction_applied"] is True
        assert res["contract_evaluated"]["w01"] == 0.0
        game = json.loads(dump.read_text())
        witness = res["witness"]
        assert game["actions"] == witness["actions"] and game["known"] == witness["known"]
        want = induce_game(Contract.from_json(res["contract_evaluated"]),
                           ActionSet.from_json({k: game[k] for k in ("actions", "known")}))
        # repr round-trips floats, so the parsed matrix is the computed one exactly
        assert np.array_equal(np.array(game["payoff"]), dense_payoff(want))

    def test_unsupported_pattern_exits_2(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.0, "w10": 0.5, "w01": 0.4, "w00": 0.0},
            "actions": A0_JSON,
        })
        out = tmp_path / "out.json"
        assert main(["evaluate", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: worst-case evaluation is not defined for this wage pattern even after "
            "reduction (class OTHER); supported: zero failure wages, or w11/w00 with w10=w01=0\n")
        assert not out.exists()

    def test_no_known_prefix_exits_2(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": {"actions": [{"cost": 0.1, "prob": 0.5}], "known": 0},
        })
        assert main(["evaluate", "--input", inp]) == 2

    def test_fractional_known_count_exits_2(self, tmp_path, capsys):
        contract = {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0}
        actions = [{"cost": 0.25, "prob": 1.0}, {"cost": 0.1, "prob": 0.5}]
        inp = write(tmp_path, "in.json", {
            "contract": contract, "actions": {"actions": actions, "known": 1.5}})
        out = tmp_path / "out.json"
        assert main(["evaluate", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad action set: not an integer: 1.5\n"
        assert not out.exists()
        inp = write(tmp_path, "in.json", {
            "contract": contract, "actions": {"actions": actions, "known": 2.0}})
        assert main(["evaluate", "--input", inp, "--output", str(out)]) == 0
        assert read_result(out)["witness"]["known"] == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", "--input", str(bad)]) == 2

    def test_overflowing_wage_exits_2(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 1e308, "w10": 0.2, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON,
        })
        for verb, *flags in (["evaluate"], ["adversary", "--n", "10"]):
            assert main([verb, "--input", inp, *flags]) == 2
            assert capsys.readouterr().err.startswith("error: arithmetic overflow")
        # w11 + w00 overflows, also where every target has p = 0
        for prob in (1.0, 0.0):
            inp = write(tmp_path, "in.json", {
                "contract": {"w11": 1e308, "w10": 0.0, "w01": 0.0, "w00": 1e308},
                "actions": {"actions": [{"cost": 0.25, "prob": prob}], "known": 1},
            })
            assert main(["evaluate", "--input", inp]) == 2
            assert capsys.readouterr().err.startswith("error: arithmetic overflow")

    def test_non_finite_wage_exits_2(self, tmp_path):
        inp = tmp_path / "in.json"
        inp.write_text('{"contract": {"w11": NaN, "w10": 0, "w01": 0, "w00": 0}, '
                       '"actions": {"actions": [{"cost": 0.25, "prob": 1.0}]}}')
        assert main(["evaluate", "--input", str(inp)]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.5, "w10": 0, "w01": 0, "w00": 0},
            "actions": A0_JSON,
            "extra": 1,
        })
        assert main(["evaluate", "--input", inp]) == 2


def actions_json(actions):
    """An action set's JSON document, as the tuple encoder writes it."""
    return tuple_to_json(zip(actions.costs, actions.probs), actions.known_count)


def dump_oracle(actions, payoff):
    """The game dump as first written: the whole dict through ``json.dumps``."""
    return json.dumps({**actions_json(actions), "payoff": payoff.tolist()},
                      indent=2, sort_keys=True, allow_nan=False) + "\n"


# zeros of both signs, subnormals, the smallest normal, and magnitudes on both
# sides of repr's switches to an exponent (below 1e-4, from 1e16 on)
SPECIAL = (0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
           2.2250738585072014e-308, 1e-5, 9.99e-5, 1e-4, -3.5e-7, 0.1, 1 / 3,
           1e16, -1e16, 9999999999999998.0, 1.5e17, 1.7976931348623157e308)
PAYOFF = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
COST = st.one_of(st.sampled_from((0.0, 5e-324, 1e-5, 0.25, 1e16)), st.floats(0.0, 1e20))
PROB = st.one_of(st.sampled_from((0.0, 1e-7, 1.0)), st.floats(0.0, 1.0))


@st.composite
def dumped_games(draw):
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(COST, PROB), min_size=n, max_size=n))
    actions = ActionSet.from_pairs(pairs, known_count=draw(st.integers(0, n)))
    if draw(st.booleans()):
        wages = draw(st.tuples(*[st.floats(0.0, 1e3)] * 4))
        payoff = dense_payoff(induce_game(Contract(*wages), actions))
    else:
        payoff = np.array(draw(st.lists(PAYOFF, min_size=n * n, max_size=n * n))).reshape(n, n)
    # tiny products round to signed zeros and subnormals
    return actions, payoff * draw(st.sampled_from((1.0, -1.0, 1e-300)))


class TestGameDump:
    """The streamed dump gives the bytes of ``json.dumps`` of the whole game."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dumped_games())
    def test_small_games_match_json_dumps(self, game):
        actions, payoff = game
        chunks = cli._chunks(cli._game_doc(actions, payoff.__getitem__))
        assert "".join(chunks) == dump_oracle(actions, payoff)

    @staticmethod
    def seeded_witness_game():
        rng = np.random.default_rng(611)
        # the shirking branch binds, so the witness is an undercut chain of 1000 steps
        contract = Contract(float(rng.uniform(0.5, 0.65)), float(rng.uniform(0.0, 0.05)), 0.0, 0.0)
        res = wc.worst_case(contract, ActionSet.from_json(A0_JSON), eps=2.5e-4)
        assert len(res.witness.actions) == 1001
        return induce_game(contract, res.witness.actions)

    def test_seeded_witness_game_matches_json_dumps(self):
        game = self.seeded_witness_game()
        assert ("".join(cli._chunks(cli._game_doc(game.actions, game.payoff_row)))
                == dump_oracle(game.actions, dense_payoff(game)))

    def test_streamed_dump_holds_no_n_by_n_array(self):
        game = self.seeded_witness_game()
        game.payoff_row(0)  # the cached pay vectors are the game's, not the dump's
        tracemalloc.start()
        try:
            size = sum(map(len, cli._chunks(cli._game_doc(game.actions, game.payoff_row))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2.5e7  # the whole text is about 27 MB
        assert peak < 1001 ** 2 * 8, peak

    def test_dump_over_the_cap_is_refused_writing_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DUMP_CELLS", 20 ** 2)
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 2 / 3, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON,
        })
        out, dump = tmp_path / "out.json", tmp_path / "game.json"
        # t_hat = 0.25: eps 0.0125 makes a 20-step chain, 21 actions with the target
        code = main(["evaluate", "--input", inp, "--eps", "0.0125", "--output", str(out),
                     "--dump-game", str(dump)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --dump-game of 21 actions asks for about 441 payoff cells, above the "
            "cap of 400; use a larger --eps\n")
        assert not out.exists() and not dump.exists()
        assert not list(tmp_path.glob(".tmp-teamcontracts-*"))
        assert main(["evaluate", "--input", inp, "--eps", "0.0132", "--output", str(out),
                     "--dump-game", str(dump)]) == 0
        assert len(json.loads(dump.read_text())["payoff"]) == 20

    def test_largest_witness_dump_is_refused_at_the_default_cap(self, tmp_path, capsys,
                                                                monkeypatch):
        def reached(*args):
            raise AssertionError("a 10^10-cell dump was started")

        monkeypatch.setattr(cli, "_game_doc", reached)
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 2 / 3, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON,
        })
        dump = tmp_path / "game.json"
        assert main(["evaluate", "--input", inp, "--eps", "1e-9", "--dump-game", str(dump)]) == 2
        assert capsys.readouterr() == ("", (
            "error: --dump-game of 100001 actions asks for about 1e+10 payoff cells, above "
            "the cap of 4e+07; use a larger --eps\n"))
        assert not dump.exists()

    def test_non_finite_payoff_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch):
        seen = {}

        def poisoned(game, i):
            payoff = dense_payoff(game)
            # the first in row-major order is named, not the first by column
            payoff[1, 2], payoff[2, 1] = -math.inf, math.nan
            seen.update(actions=game.actions, payoff=payoff)
            return payoff[i]

        monkeypatch.setattr(gm.InducedGame, "payoff_row", poisoned)
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 2 / 3, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON,
        })
        out, dump = tmp_path / "out.json", tmp_path / "game.json"
        code = main(["evaluate", "--input", inp, "--eps", "0.05", "--output", str(out),
                     "--dump-game", str(dump)])
        with pytest.raises(ValueError) as want:
            dump_oracle(seen["actions"], seen["payoff"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert str(want.value).endswith(": -inf")
        assert not out.exists() and not dump.exists()
        assert not list(tmp_path.glob(".tmp-teamcontracts-*"))


@st.composite
def long_lists(draw):
    """A list as the writer streams it, and as json is given it: action
    records or rows of floats, cut into blocks of any size."""
    n, step = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    keys = draw(st.sampled_from((("cost", "prob"), None)))
    width = 2 if keys else draw(st.integers(1, 4))
    table = np.array(draw(st.lists(PAYOFF, min_size=n * width, max_size=n * width)))
    table = table.reshape(n, width) * draw(st.sampled_from((1.0, -1.0, 1e-300)))
    rows = cli._Rows(lambda: (table[i:i + step] for i in range(0, n, step)), width, keys)
    plain = table.tolist()
    return rows, plain if keys is None else [dict(zip(keys, row)) for row in plain]


SMALL = st.one_of(PAYOFF, st.integers(), st.booleans(), st.none(), st.text(max_size=3),
                  st.lists(PAYOFF, max_size=2))


@st.composite
def streamed_docs(draw):
    """A document with a long list inside one, two or three objects: the
    depths of a dump's lists, an adversary chain and an evaluate witness.
    Siblings sort before and after it, and some are long lists too."""
    doc, want = draw(long_lists())
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(("actions", "chain", "payoff", "result", "witness")))
        small = draw(st.dictionaries(st.sampled_from(("a", "eps", "known", "meta", "zeta")),
                                     SMALL, max_size=3))
        doc, want = {**small, key: doc}, {**small, key: want}
        if draw(st.booleans()):
            doc["rows"], want["rows"] = draw(long_lists())
    return doc, want


class TestWriter:
    """The streamed text is the bytes of ``json.dumps`` of the plain document."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(streamed_docs())
    def test_documents_match_json_dumps(self, docs):
        doc, want = docs
        assert "".join(cli._chunks(doc)) == (
            json.dumps(want, indent=2, sort_keys=True, allow_nan=False) + "\n")

    def test_non_finite_value_raises_json_error_before_any_chunk(self):
        chain = cli._Rows.of(np.array([0.25, 0.5]), np.array([1.0, math.inf]),
                             keys=("cost", "prob"))
        with pytest.raises(ValueError) as want:
            cli._dumps({"chain": [{"cost": 0.25, "prob": 1.0}, {"cost": 0.5, "prob": math.inf}]})
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            cli._chunks({"chain": chain})

    def test_chain_at_the_cap_streams_in_little_memory(self):
        contract, a0 = Contract(0.6, 0.0, 0.0, 0.0), ActionSet.from_json(A0_JSON)
        adv = wc.euler_adversary(wc.best_known_solution(contract.w10, contract.w11, a0), 10**5)
        tracemalloc.start()
        try:
            chain = cli._Rows.of(adv.actions.costs, adv.actions.probs, keys=("cost", "prob"))
            size = sum(map(len, cli._chunks({"meta": {}, "result": {"chain": chain}})))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 7e6  # 100 001 records of two floats
        assert peak < 20e6, peak  # json's indent encoder peaks at about 83 MB here


class TestOptimize:
    def test_running_example(self, tmp_path):
        inp = write(tmp_path, "a0.json", A0_JSON)
        out = tmp_path / "out.json"
        assert main(["optimize", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert res["w11"] == pytest.approx(2 / 3, abs=1e-3)
        assert res["w10"] == pytest.approx(0.0, abs=1e-3)
        assert res["per_agent"] == pytest.approx(1 / 3, abs=1e-3)
        assert res["regime"] == "POOLED"

    def test_infinite_cost_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "a0.json"
        inp.write_text('{"actions": [{"cost": 0.25, "prob": 1.0}, '
                       '{"cost": Infinity, "prob": 0.5}]}')
        assert main(["optimize", "--input", str(inp)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_infeasible_exits_2(self, tmp_path):
        inp = write(tmp_path, "a0.json",
                    {"actions": [{"cost": 0.5, "prob": 0.5}], "known": 1})
        assert main(["optimize", "--input", inp]) == 2


class TestAdversary:
    def test_chain_csv(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.5, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON,
        })
        out = tmp_path / "chain.csv"
        code = main(["adversary", "--input", inp, "--n", "2", "--rho", "1e-9",
                     "--output", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tool=teamcontracts")
        assert lines[2] == "step,cost,prob"
        probs = [float(line.split(",")[2]) for line in lines[3:]]
        assert probs[0] == 1.0
        assert probs[1] == pytest.approx(0.75, abs=1e-6)
        assert probs[2] == pytest.approx(5 / 12, abs=1e-6)


    # a chain of 5 000 steps, so the writer's blocks of 4 096 rows do not divide it
    N = 5000

    @staticmethod
    def config(argv):
        """The config echo of the call, as ``_emit`` writes it."""
        args = cli.build_parser().parse_args(argv)
        return {k: v for k, v in sorted(vars(args).items())
                if k not in ("func", "output") and v is not None}

    def former_json(self, argv, result):
        """The output as written when the result was a dict of dicts."""
        return cli._dumps({"meta": {"tool": "teamcontracts", "version": __version__,
                                    "config": self.config(argv)}, "result": result})

    def chain(self):
        contract, a0 = Contract.from_json(JPE_JSON["contract"]), ActionSet.from_json(A0_JSON)
        best = wc.best_known_solution(contract.w10, contract.w11, a0)
        return wc.euler_adversary(best, self.N)

    def run(self, tmp_path, capsys, argv, to_file):
        out = tmp_path / "out"
        assert main(argv + (["--output", str(out)] if to_file else [])) == 0
        printed = capsys.readouterr().out
        return out.read_text() if to_file else printed

    @pytest.mark.parametrize("wages", [(0.2, 0.6), (0.5, 0.5)], ids=["relative", "independent"])
    def test_refuses_other_than_joint_before_any_endpoint(self, tmp_path, capsys, monkeypatch,
                                                           wages):
        monkeypatch.setattr(wc, "_endpoint", None)  # a kernel call would raise TypeError
        contract = dict(zip(("w11", "w10", "w01", "w00"), (*wages, 0.0, 0.0)))
        inp = write(tmp_path, "in.json", {"contract": contract, "actions": A0_JSON})
        assert main(["adversary", "--input", inp, "--n", "10"]) == 2
        assert capsys.readouterr() == (
            "", f"error: joint evaluation requires w11 > w10, got {wages}\n")

    @pytest.mark.parametrize("to_file", [True, False])
    def test_chain_json_is_the_former_dict_document(self, tmp_path, capsys, to_file):
        argv = ["adversary", "--input", write(tmp_path, "in.json", JPE_JSON), "--n", str(self.N)]
        adv = self.chain()
        want = self.former_json(argv, {
            "chain": actions_json(adv.actions)["actions"], "eps": adv.step, "rho": adv.rho,
            "t_hat": adv.t_hat, "clamped": adv.clamped,
            "max_eq_prob": float(adv.actions.probs[gm.extremal_br_path(
                induce_game(Contract.from_json(JPE_JSON["contract"]), adv.actions), "MAX")[0]])})
        assert self.run(tmp_path, capsys, argv, to_file) == want

    @pytest.mark.parametrize("to_file", [True, False])
    def test_chain_csv_is_the_former_rows(self, tmp_path, capsys, to_file):
        argv = ["adversary", "--input", write(tmp_path, "in.json", JPE_JSON), "--n", str(self.N),
                "--format", "csv"]
        actions = self.chain().actions
        rows = (",".join((str(k), repr(c), repr(p)))
                for k, (c, p) in enumerate(zip(actions.costs.tolist(), actions.probs.tolist())))
        want = "\n".join([f"# tool=teamcontracts version={__version__}",
                          "# " + " ".join(f"{k}={v}" for k, v in self.config(argv).items()),
                          "step,cost,prob", *rows]) + "\n"
        assert self.run(tmp_path, capsys, argv, to_file) == want

    @pytest.mark.parametrize("to_file", [True, False])
    def test_evaluate_witness_is_the_former_dict_document(self, tmp_path, capsys, to_file):
        argv = ["evaluate", "--input", write(tmp_path, "in.json", JPE_JSON), "--eps", "5e-5"]
        contract = Contract.from_json(JPE_JSON["contract"])
        res = wc.worst_case(contract, ActionSet.from_json(A0_JSON), eps=5e-5)
        assert len(res.witness.actions) == self.N + 1
        result = {"pbar": res.pbar, "per_agent": res.per_agent, "total": res.total,
                  "binding": res.binding,
                  "witness": {**actions_json(res.witness.actions), "eps": res.witness.eps},
                  "classification": "JPE", "contract_evaluated": contract.to_json(),
                  "reduction_applied": False}
        assert self.run(tmp_path, capsys, argv, to_file) == self.former_json(argv, result)


# A known set whose best target (the second) is not the top-ranked action:
# the one-chain witness keeps its maximal equilibrium at known action 0.
UNCHECKED_JSON = {"contract": {"w11": 0.7, "w10": 0.05, "w01": 0.0, "w00": 0.0},
                  "actions": {"actions": [{"cost": 0.3, "prob": 0.94},
                                          {"cost": 0.12, "prob": 0.64}], "known": 2}}


class TestWitnessCheck:
    """A chain or witness that fails ``worstcase.check_witness`` exits 3 with
    one line naming where the maximal best-response path stops, and writes
    nothing."""

    @pytest.mark.parametrize("doc, flags, last", [
        ({"contract": {"w11": 0.5, "w10": 0.0, "w01": 0.0, "w00": 0.0}, "actions": A0_JSON},
         ["adversary", "--n", "2", "--rho", "0"], 2),
        (UNCHECKED_JSON, ["evaluate", "--eps", "1e-3", "--dump-game", "game.json"], 121),
    ], ids=["adversary", "evaluate"])
    def test_exits_3_writing_nothing(self, tmp_path, capsys, monkeypatch, doc, flags, last):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.json"
        argv = [flags[0], "--input", write(tmp_path, "in.json", doc), *flags[1:],
                "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", (
            "error: witness failed verification: the maximal best-response path stops at "
            f"action 0, not at the last action {last}\n"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


class TestDocuments:
    """The optimize, discriminate and evaluate documents of the running
    example, byte for byte as the result dataclasses' former ``to_json``
    methods wrote them (files under ``tests/documents``)."""

    CONTRACTS = {"JPE": (0.6, 0.0, 0.0, 0.0), "RPE": (0.2, 0.6, 0.0, 0.0),
                 "IPE": (0.5, 0.5, 0.0, 0.0), "W00": (0.6, 0.0, 0.0, 0.1)}

    @pytest.mark.parametrize("name, argv", [
        ("optimize", ["optimize", "--input", "a0.json"]),
        ("discriminate", ["discriminate", "--input", "a0.json"]),
        *((f"evaluate-{p}", ["evaluate", "--input", f"{p}.json", "--eps", "0.05"])
          for p in CONTRACTS),
    ])
    def test_document_is_unchanged(self, tmp_path, monkeypatch, capsys, name, argv):
        want = (Path(__file__).parent / "documents" / f"{name}.json").read_text()
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "a0.json", A0_JSON)
        for pattern, wages in self.CONTRACTS.items():
            write(tmp_path, f"{pattern}.json", {
                "contract": dict(zip(("w11", "w10", "w01", "w00"), wages)),
                "actions": A0_JSON})
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestFormatChoices:
    """Only adversary and sweep write CSV; the other verbs refuse --format csv
    when the arguments are parsed, before the input is read."""

    @pytest.mark.parametrize("verb, solver", [
        ("evaluate", "worstcase.worst_case"),
        ("optimize", "optimize.optimize_jpe"),
        ("discriminate", "optimize.discriminatory_ipe"),
        ("bayes", "extensions.bayesian_eval"),
        ("multi", "extensions.multi_agent_value"),
        ("asym", "extensions.asym_unknown_value"),
    ])
    def test_json_only_verb_refuses_csv_before_solving(self, tmp_path, capsys, monkeypatch,
                                                      verb, solver):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{solver} called")

        monkeypatch.setattr(f"teamcontracts.{solver}", refuse)
        inp = write(tmp_path, "in.json", {
            "evaluate": JPE_JSON, "optimize": A0_JSON, "discriminate": A0_JSON,
            "bayes": {"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5},
            "multi": {"n": 3, "w0": 0.4, "b": 0.1, "actions": A0_JSON},
            "asym": {"contract": JPE_JSON["contract"], "a0": {"cost": 0.25, "prob": 1.0}},
        }[verb])
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", inp, "--format", "csv", "--output", str(out)])
        assert exc.value.code == 2
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
        assert not out.exists()


class TestSweepDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        inp = write(tmp_path, "grid.json", {"p_grid": [0.8, 1.0], "c_grid": [0.2, 0.72]})
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            code = main(["sweep", "--input", inp, "--refine", "2",
                         "--output", str(out), "--format", "csv"])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[2]
        assert header == "p0,c0,w11,w10,per_agent,regime"

    def test_json_cells_and_csv_rows_agree(self, tmp_path):
        # three feasible cells and one INFEASIBLE (c0 >= p0)
        inp = write(tmp_path, "grid.json", {"p_grid": [0.8, 1.0], "c_grid": [0.2, 0.9]})
        js, cs = tmp_path / "s.json", tmp_path / "s.csv"
        assert main(["sweep", "--input", inp, "--refine", "1", "--output", str(js)]) == 0
        assert main(["sweep", "--input", inp, "--refine", "1", "--output", str(cs),
                     "--format", "csv"]) == 0
        cells = read_result(js)["cells"]
        lines = cs.read_text().splitlines()
        assert lines[2] == "p0,c0,w11,w10,per_agent,regime"
        assert [c["regime"] for c in cells].count("INFEASIBLE") == 1
        assert [list(c) for c in cells] == [sorted(lines[2].split(","))] * 4
        for cell, line in zip(cells, lines[3:], strict=True):
            row = dict(zip(lines[2].split(","), line.split(","), strict=True))
            assert row.pop("regime") == cell.pop("regime")
            assert {k: float(v) if v else None for k, v in row.items()} == cell

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("text, message", [
        ('{"p_grid": [NaN, 0.9], "c_grid": [0.25]}', "p_grid entry is not finite: nan"),
        ('{"p_grid": [0.9], "c_grid": [-Infinity]}', "c_grid entry is not finite: -inf"),
        # longer than int() reads from text, but read as a float
        ('{"p_grid": [' + "9" * 5000 + '], "c_grid": [0.25]}', "p_grid entry is not finite: inf"),
    ], ids=["nan", "-inf", "5000-digit"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, fmt, text, message):
        inp, out = tmp_path / "grid.json", tmp_path / "out"
        inp.write_text(text)
        assert main(["sweep", "--input", str(inp), "--output", str(out),
                     "--format", fmt]) == 2
        assert capsys.readouterr().err == f"error: bad grid: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("name", ["g\nrid.json", "g rid.json", "g\trid.json", '"g".json'],
                             ids=["newline", "space", "tab", "quote"])
    def test_config_echo_quotes_values_that_could_split_it(self, tmp_path, monkeypatch, name):
        # a value with whitespace or a control character, or one starting
        # with a quote, is written JSON-quoted; others keep their bytes
        monkeypatch.chdir(tmp_path)
        write(tmp_path, name, {"p_grid": [1.0], "c_grid": [0.25]})
        assert main(["sweep", "--input", name, "--output", "s.csv", "--format", "csv"]) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert len(lines) == 4 and lines[2] == "p0,c0,w11,w10,per_agent,regime"
        assert lines[1] == ("# format=csv grid_step=0.01 input=" + json.dumps(name)
                            + " refine=3 verb=sweep")


class TestOutputMode:
    """Output files are created as ``open`` would create them, under the
    umask, and a replaced file keeps its mode."""

    @pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
    def test_new_and_replaced_files(self, tmp_path, umask):
        inp = write(tmp_path, "in.json", JPE_JSON)
        new, dump, old = tmp_path / "new.json", tmp_path / "dump.json", tmp_path / "old.json"
        old.write_text("{}")
        old.chmod(0o604)
        before = os.umask(umask)
        try:
            for out in (new, old):
                assert main(["evaluate", "--input", inp, "--eps", "0.05", "--output", str(out),
                             "--dump-game", str(dump)]) == 0
        finally:
            os.umask(before)
        assert [stat.S_IMODE(p.stat().st_mode) for p in (new, dump, old)] == [
            0o666 & ~umask, 0o666 & ~umask, 0o604]


class TestDiscriminate:
    def test_runs_small_grid(self, tmp_path):
        inp = write(tmp_path, "a0.json", A0_JSON)
        out = tmp_path / "d.json"
        assert main(["discriminate", "--input", inp, "--grid-step", "0.05",
                     "--output", str(out)]) == 0
        res = read_result(out)
        assert res["w1"] >= res["w2"]
        assert "inner_witness" in res


class TestBayesMultiAsym:
    def test_bayes(self, tmp_path):
        inp = write(tmp_path, "env.json",
                    {"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5, "w0": 0.2})
        out = tmp_path / "b.json"
        assert main(["bayes", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert res["ipe_mixed"] == pytest.approx(0.7125, abs=1e-9)
        assert res["jpe"]["value"] == pytest.approx(0.71375, abs=1e-9)
        assert 0 < res["mu_threshold_jpe"] < 1

    def test_bayes_mu_flag_overrides(self, tmp_path):
        inp = write(tmp_path, "env.json",
                    {"p0": 1.0, "c0": 0.25, "p_star": 0.5})
        out = tmp_path / "b.json"
        assert main(["bayes", "--input", inp, "--mu", "0.9",
                     "--output", str(out)]) == 0
        assert read_result(out)["zero"] == pytest.approx(0.05, abs=1e-12)

    def test_bayes_mu_flag_does_not_excuse_a_malformed_field(self, tmp_path, capsys):
        inp = write(tmp_path, "env.json", {"mu": "0.9", "p0": 1.0, "c0": 0.25, "p_star": 0.5})
        assert main(["bayes", "--input", inp, "--mu", "0.9"]) == 2
        assert capsys.readouterr() == ("", "error: bad field 'mu': value is not a number: '0.9'\n")

    def test_multi(self, tmp_path):
        inp = write(tmp_path, "m.json",
                    {"n": 3, "w0": 0.4, "b": 0.1, "actions": A0_JSON})
        out = tmp_path / "m-out.json"
        assert main(["multi", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert res["total"] == pytest.approx(3 * res["per_agent"])

    @pytest.mark.parametrize("n", [3, 3.0])
    def test_multi_accepts_integral_count(self, tmp_path, n):
        inp = write(tmp_path, "m.json", {"n": n, "w0": 0.4, "b": 0.1, "actions": A0_JSON})
        out = tmp_path / "m-out.json"
        assert main(["multi", "--input", inp, "--output", str(out)]) == 0
        assert read_result(out)["n"] == 3

    @pytest.mark.parametrize("w0, b, message", [
        (math.nan, 0.1, "w0 must be finite and >= 0, got nan"),
        (0.4, math.inf, "b must be finite and > 0, got inf"),
        (1e308, 1e308, "w0 + b must be finite, got inf"),
    ], ids=["nan-w0", "inf-b", "overflowing-sum"])
    def test_multi_names_the_refused_field(self, tmp_path, capsys, w0, b, message):
        inp = write(tmp_path, "m.json", {"n": 3, "w0": w0, "b": b, "actions": A0_JSON})
        assert main(["multi", "--input", inp]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_multi_refuses_fractional_count(self, tmp_path, capsys):
        inp = write(tmp_path, "m.json", {"n": 2.9, "w0": 0.4, "b": 0.1, "actions": A0_JSON})
        out = tmp_path / "m-out.json"
        assert main(["multi", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad field 'n': not an integer")
        assert not out.exists()

    def test_asym(self, tmp_path):
        inp = write(tmp_path, "a.json", {
            "contract": {"w11": 0.5, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "a0": {"cost": 0.25, "prob": 1.0},
        })
        out = tmp_path / "a-out.json"
        assert main(["asym", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert (res["p1"], res["p2"], res["total"]) == (0.5, 0.0, 0.5)


class TestBadInputNoTraceback:
    @pytest.mark.parametrize("verb, payload, field", [
        ("multi", {"n": None, "w0": 0.4, "b": 0.1, "actions": A0_JSON}, "n"),
        ("bayes", {"mu": 0.9, "p0": None, "c0": 0.25, "p_star": 0.5}, "p0"),
        ("asym", {"contract": {"w11": 0.5, "w10": 0.0, "w01": 0.0, "w00": 0.0},
                  "a0": {"cost": None, "prob": 1.0}}, "a0"),
    ])
    def test_null_field_exits_2_naming_it(self, tmp_path, capsys, verb, payload, field):
        inp = write(tmp_path, "in.json", payload)
        assert main([verb, "--input", inp]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad field '{field}'")

    @pytest.mark.parametrize("actions, message", [
        ({"actions": [{"prob": 1.0}], "known": 1}, "missing action 0 fields: ['cost']"),
        ({"actions": [{"cost": 0.25, "prob": 1.0}, {"cost": 0.1}]},
         "missing action 1 fields: ['prob']"),
        ({"actions": {"cost": 0.25}}, "actions must be a list, got dict"),
        ({"actions": [{"cost": 0.25, "prob": 1.0}, 0.5]},
         "expected action 1 fields in a JSON object, got float"),
        ([{"cost": 0.25, "prob": 1.0}], "expected action-set fields in a JSON object, got list"),
    ])
    def test_malformed_action_set_exits_2_naming_it(self, tmp_path, capsys, actions, message):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0}, "actions": actions})
        assert main(["evaluate", "--input", inp]) == 2
        assert capsys.readouterr().err == f"error: bad action set: {message}\n"

    @pytest.mark.parametrize("verb", ["evaluate", "optimize"])
    def test_a_wrapped_reader_keeps_its_label(self, tmp_path, capsys, monkeypatch, verb):
        read = ActionSet.from_json.__func__
        monkeypatch.setattr(ActionSet, "from_json",
                            classmethod(functools.wraps(read)(lambda cls, doc: read(cls, doc))))
        actions = {"actions": {"cost": 0.25}}
        payload = actions if verb == "optimize" else {**JPE_JSON, "actions": actions}
        assert main([verb, "--input", write(tmp_path, "in.json", payload)]) == 2
        want = "error: bad action set: actions must be a list, got dict\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("verb, payload, message", [
        ("evaluate", {"contract": {"w11": True, "w10": False, "w01": 0.0, "w00": 0.0},
                      "actions": A0_JSON}, "bad contract: w11 is not a number: True"),
        ("evaluate", {"contract": {"w11": 0.6, "w10": "0.1", "w01": 0.0, "w00": 0.0},
                      "actions": A0_JSON}, "bad contract: w10 is not a number: '0.1'"),
        ("optimize", {"actions": [{"cost": "0.25", "prob": 1.0}]},
         "bad action set: action 0 cost is not a number: '0.25'"),
        ("optimize", {"actions": [{"cost": 0.25, "prob": True}]},
         "bad action set: action 0 prob is not a number: True"),
        ("optimize", {"actions": [{"cost": 0.25, "prob": 1.0}], "known": True},
         "bad action set: known is not a number: True"),
        ("multi", {"n": "3", "w0": 0.4, "b": 0.1, "actions": A0_JSON},
         "bad field 'n': value is not a number: '3'"),
        ("bayes", {"mu": 0.9, "p0": 0.5, "c0": 0.25, "p_star": True},
         "bad field 'p_star': value is not a number: True"),
        ("sweep", {"p_grid": [0.9], "c_grid": ["0.2"]},
         "bad grid: c_grid entry is not a number: '0.2'"),
    ])
    def test_number_field_takes_only_json_numbers(self, tmp_path, capsys, verb, payload,
                                                  message):
        inp = write(tmp_path, "in.json", payload)
        out = tmp_path / "out.json"
        assert main([verb, "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_grid_too_fine_for_memory_exits_2(self, tmp_path, capsys):
        # refused on its work estimate, before its 80 MB axis is allocated
        inp = write(tmp_path, "a0.json", A0_JSON)
        assert main(["optimize", "--input", inp, "--grid-step", "1e-7"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: grid step 1e-07 asks for about 5e+13 value evaluations")


CONTRACT = JPE_JSON["contract"]
ENV = {"mu": 0.9, "p0": 1.0, "c0": 0.25, "p_star": 0.5}
TEAM = {"n": 3, "w0": 0.4, "b": 0.1, "actions": A0_JSON}
PAIR = {"contract": CONTRACT, "a0": {"cost": 0.25, "prob": 1.0}}


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def with_action(entry):
    """The running example's action set with ``entry`` as its one action."""
    return {"actions": [entry], "known": 1}


NESTED_DEFECTS = [  # verb, input, the stderr line after "error: "
    # top level: every verb's payload
    ("evaluate", {**JPE_JSON, "note": 1}, "unknown fields: ['note']"),
    ("adversary", without(JPE_JSON, "contract"), "missing fields: ['contract']"),
    ("sweep", {"p_grid": [1.0]}, "missing fields: ['c_grid']"),
    ("bayes", {**ENV, "w1": 0.1}, "unknown fields: ['w1']"),
    ("bayes", without(ENV, "c0"), "missing fields: ['c0']"),
    ("bayes", {**ENV, "w0": "0.1"}, "bad field 'w0': value is not a number: '0.1'"),
    ("multi", {**TEAM, "m": 2}, "unknown fields: ['m']"),
    ("multi", without(TEAM, "b"), "missing fields: ['b']"),
    ("multi", {**TEAM, "b": None}, "bad field 'b': value is not a number: None"),
    ("asym", without(PAIR, "a0"), "missing fields: ['a0']"),
    ("optimize", [A0_JSON], "top-level JSON object expected in {input}"),
    # the contract of evaluate, adversary and asym
    ("evaluate", {**JPE_JSON, "contract": [0.6, 0, 0, 0]},
     "bad contract: expected contract fields in a JSON object, got list"),
    ("adversary", {**JPE_JSON, "contract": {**CONTRACT, "w2": 0}},
     "bad contract: unknown contract fields: ['w2']"),
    ("asym", {**PAIR, "contract": without(CONTRACT, "w00")},
     "bad contract: missing contract fields: ['w00']"),
    ("asym", {**PAIR, "contract": {**CONTRACT, "w01": "0"}},
     "bad contract: w01 is not a number: '0'"),
    # the action set of optimize, discriminate, evaluate, adversary and multi
    ("discriminate", None, "top-level JSON object expected in {input}"),
    ("evaluate", {**JPE_JSON, "actions": None},
     "bad action set: expected action-set fields in a JSON object, got NoneType"),
    ("optimize", {**A0_JSON, "note": 1}, "bad action set: unknown action-set fields: ['note']"),
    ("discriminate", {"known": 1}, "bad action set: missing action-set fields: ['actions']"),
    ("adversary", {**JPE_JSON, "actions": {"actions": {}}},
     "bad action set: actions must be a list, got dict"),
    ("multi", {**TEAM, "actions": {**A0_JSON, "known": "1"}},
     "bad action set: known is not a number: '1'"),
    # each action of a set
    ("optimize", {"actions": [{"cost": 0.25, "prob": 1.0}, [0.1, 0.5]]},
     "bad action set: expected action 1 fields in a JSON object, got list"),
    ("discriminate", with_action({"cost": 0.25, "prob": 1.0, "p": 1.0}),
     "bad action set: unknown action 0 fields: ['p']"),
    ("multi", {**TEAM, "actions": with_action({"cost": 0.25})},
     "bad action set: missing action 0 fields: ['prob']"),
    ("evaluate", {**JPE_JSON, "actions": with_action({"cost": 0.25, "prob": "1"})},
     "bad action set: action 0 prob is not a number: '1'"),
    ("optimize", with_action({"cost": math.inf, "prob": 1.0}),
     "bad action set: action cost must be finite and >= 0, got inf"),
    # asym's a0, read as an action
    ("asym", {**PAIR, "a0": [0.25, 1.0]},
     "bad field 'a0': expected fields in a JSON object, got list"),
    ("asym", {**PAIR, "a0": {"cost": 0.25, "prob": 1.0, "known": 1}},
     "bad field 'a0': unknown fields: ['known']"),
    ("asym", {**PAIR, "a0": {"prob": 1.0}}, "bad field 'a0': missing fields: ['cost']"),
    ("asym", {**PAIR, "a0": {"cost": 0.25, "prob": False}},
     "bad field 'a0': prob is not a number: False"),
    ("asym", {**PAIR, "a0": {"cost": 0.25, "prob": 1.5}},
     "success probability must be in [0, 1], got 1.5"),
    # sweep's grids, which must be lists
    ("sweep", {"p_grid": {}, "c_grid": [0.25]}, "bad grid: p_grid must be a list, got dict"),
    ("sweep", {"p_grid": [1.0], "c_grid": "0.25"}, "bad grid: c_grid must be a list, got str"),
    ("sweep", {"p_grid": 1, "c_grid": [0.25]}, "bad grid: p_grid must be a list, got float"),
    # a JSON integer past the float range reads as infinity, refused by its field
    ("multi", {**TEAM, "n": 10**400}, "bad field 'n': not an integer: inf"),
    ("optimize", {**A0_JSON, "known": 10**400}, "bad action set: not an integer: inf"),
    ("evaluate", {**JPE_JSON, "contract": {**CONTRACT, "w11": 10**400}},
     "bad contract: w11 must be finite and >= 0 (limited liability), got inf"),
    # success probabilities, refused before a cell is solved
    ("sweep", {"p_grid": [0.5, 1.5], "c_grid": [0.25]},
     "bad grid: p_grid entry is not in [0, 1]: 1.5"),
    ("sweep", {"p_grid": [-0.5, 0.5], "c_grid": [0.25]},
     "bad grid: p_grid entry is not in [0, 1]: -0.5"),
]


class TestNestedObjects:
    """One field rule for every JSON object of every verb: a value that is
    not an object, an unknown or a missing field, or a field that is not a
    number exits 2 with one line naming the object."""

    @pytest.mark.parametrize("verb, payload, message", NESTED_DEFECTS)
    def test_defect_exits_2_naming_the_object(self, tmp_path, capsys, verb, payload, message):
        inp = write(tmp_path, "in.json", payload)
        out = tmp_path / "out.json"
        flags = ["--n", "10"] if verb == "adversary" else []
        assert main([verb, "--input", inp, "--output", str(out), *flags]) == 2
        assert capsys.readouterr() == ("", "error: " + message.format(input=inp) + "\n")
        assert not out.exists()


class TestLongEchoes:
    """A refusal echoes at most 60 characters of the value it names, then ``...``."""

    @pytest.mark.parametrize("verb, payload, message", [
        ("sweep", {"p_grid": [0.5], "c_grid": ["x" * 10**6]},
         "bad grid: c_grid entry is not a number: '" + "x" * 59 + "..."),
        ("evaluate", {**JPE_JSON, "k" * 10**5: 1}, "unknown fields: ['" + "k" * 58 + "..."),
        ("multi", {**TEAM, "n": [[[[0.5]]]] * 30}, "bad field 'n': value is not a number: "
         + repr([[[[0.5]]]] * 30)[:60] + "..."),
    ], ids=["string", "key", "nested"])
    def test_value_is_cut_short(self, tmp_path, capsys, verb, payload, message):
        inp = write(tmp_path, "in.json", payload)
        assert main([verb, "--input", inp]) == 2
        assert capsys.readouterr() == ("", "error: " + message + "\n")


class TestUnreadableInput:
    """Input that cannot be read exits 2 with one line naming the file."""

    def test_directory(self, tmp_path, capsys):
        assert main(["optimize", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {tmp_path}: Is a directory\n")

    def test_permission_denied_on_open(self, tmp_path, capsys, monkeypatch):
        # run as root, a mode-0 file would still open, so open is made to refuse
        def refused(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(cli, "open", refused, raising=False)
        inp = write(tmp_path, "in.json", A0_JSON)
        assert main(["optimize", "--input", inp]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {inp}: Permission denied\n")

    def test_error_on_read(self, tmp_path, capsys, monkeypatch):
        class Failing:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self, *args):
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Failing(), raising=False)
        inp = write(tmp_path, "in.json", A0_JSON)
        assert main(["discriminate", "--input", inp]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {inp}: Input/output error\n")

    def test_invalid_utf8(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        inp.write_bytes(b'{"p_grid": [1.0], "c_grid": [\xff]}')
        assert main(["sweep", "--input", str(inp)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: malformed JSON in {inp}: 'utf-8' codec can't decode byte 0xff in "
            "position 29: invalid start byte\n"))

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000])
    def test_nesting_past_the_parser_limit(self, tmp_path, capsys, text):
        inp = tmp_path / "in.json"
        inp.write_text(text)
        assert main(["bayes", "--input", str(inp)]) == 2
        assert capsys.readouterr() == (
            "", f"error: JSON in {inp} is nested too deeply to read\n")


class TestGridCaps:
    """One call on each side of each grid cap."""

    def test_optimize_step_1e_4_with_one_known_action_runs(self, tmp_path):
        inp = write(tmp_path, "a0.json", A0_JSON)
        out = tmp_path / "o.json"
        assert main(["optimize", "--input", inp, "--grid-step", "1e-4", "--refine", "0",
                     "--output", str(out)]) == 0
        assert read_result(out)["w11"] == pytest.approx(2 / 3, abs=1e-4)

    def test_optimize_step_1e_4_with_two_known_actions_is_refused(self, tmp_path, capsys,
                                                                   monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a refused grid was scanned")

        monkeypatch.setattr(opt, "_triangle_best", scan)
        inp = write(tmp_path, "a0.json", {"actions": [{"cost": 0.25, "prob": 1.0},
                                                       {"cost": 0.1, "prob": 0.5}], "known": 2})
        assert main(["optimize", "--input", inp, "--grid-step", "1e-4"]) == 2
        assert capsys.readouterr().err == (
            "error: grid step 0.0001 asks for about 1e+08 value evaluations (triangle cells"
            " x known actions), above the cap of 1e+08; use a coarser step\n")

    def test_discriminate_grid_1e_2_runs(self, tmp_path):
        inp = write(tmp_path, "a0.json", A0_JSON)
        out = tmp_path / "d.json"
        assert main(["discriminate", "--input", inp, "--grid-step", "1e-2",
                     "--output", str(out)]) == 0
        assert read_result(out)["w1"] == 0.55

    def test_discriminate_grid_1e_3_runs(self, tmp_path):
        # 5.0e5 wage pairs, a few seconds
        inp = write(tmp_path, "a0.json", A0_JSON)
        out = tmp_path / "d.json"
        assert main(["discriminate", "--input", inp, "--grid-step", "1e-3",
                     "--output", str(out)]) == 0
        res = read_result(out)
        assert (res["w1"], res["w2"]) == (0.547, 0.327)
        assert res["value_total"] == pytest.approx(0.61137, abs=1e-5)

    def test_discriminate_grid_5e_4_is_refused_before_the_pair_loop(self, tmp_path, capsys,
                                                                    monkeypatch):
        def inner(*args, **kwargs):
            raise AssertionError("a wage pair of a refused grid was scanned")

        monkeypatch.setattr(opt, "_inner_lp", inner)
        inp = write(tmp_path, "a0.json", A0_JSON)
        assert main(["discriminate", "--input", inp, "--grid-step", "5e-4"]) == 2
        assert capsys.readouterr().err == (
            "error: grid step 0.0005 asks for about 2e+06 wage pairs (w2 <= w1), above the"
            " cap of 1e+06; use a coarser step\n")

    def test_sweep_over_the_total_cap_is_refused_before_any_cell(self, tmp_path, capsys,
                                                                 monkeypatch):
        # 10^6 feasible cells of 5 151 triangle cells each; each cell alone fits
        def solve(*args, **kwargs):
            raise AssertionError("a cell of a refused sweep was solved")

        monkeypatch.setattr(opt, "optimize_jpe", solve)
        grid = {"p_grid": [0.5 + k / 2000 for k in range(1000)],
                "c_grid": [0.01 + k / 4000 for k in range(1000)]}
        inp = write(tmp_path, "grid.json", grid)
        for fmt in ("json", "csv"):
            assert main(["sweep", "--input", inp, "--format", fmt]) == 2
            assert capsys.readouterr() == ("", (
                "error: grid step 0.01 asks for about 5.15e+09 value evaluations (1000000 sweep"
                " cells x triangle cells), above the cap of 1e+08; use a coarser step\n"))

    def test_discriminate_over_the_known_action_cap_is_refused_before_the_lp(
            self, tmp_path, capsys, monkeypatch):
        # 5 151 wage pairs times 20 000 known actions; a coarser step runs
        # (TestDiscriminatory::test_max_min_memory_with_many_known_actions)
        def inner(*args, **kwargs):
            raise AssertionError("a wage pair of a refused grid was scanned")

        monkeypatch.setattr(opt, "_inner_lp", inner)
        k = 20000
        acts = [{"cost": 0.25 + 0.5 * i / k, "prob": 1.0 - 0.5 * i / k} for i in range(k)]
        inp = write(tmp_path, "a0.json", {"actions": acts, "known": k})
        assert main(["discriminate", "--input", inp]) == 2
        assert capsys.readouterr() == ("", (
            "error: grid step 0.01 asks for about 1.03e+08 known-action payoffs (wage pairs x"
            " known actions), above the cap of 1e+08; use a coarser step\n"))

    @pytest.mark.parametrize("verb, payload, refine, step", [
        ("optimize", A0_JSON, "15", "1e-17"),
        ("sweep", {"p_grid": [1.0], "c_grid": [0.25]}, "400", "0"),
    ])
    def test_refinement_below_1e_12_is_refused(self, tmp_path, capsys, verb, payload,
                                               refine, step):
        inp = write(tmp_path, "in.json", payload)
        assert main([verb, "--input", inp, "--refine", refine]) == 2
        assert capsys.readouterr().err == (
            f"error: {refine} refinement rounds from grid step 0.01 reach step {step},"
            " below 1e-12; use fewer rounds\n")


class TestSelftestVerb:
    def test_quick_suite_passes(self, capsys):
        assert main(["selftest", "--quick", "--seed", "0"]) == 0
        want = (Path(__file__).parent / "documents" / "selftest-quick.txt").read_text()
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("d_shift, err, fragments", [
        (-math.inf, 0.0, ["  0/30 ok; 0 regular instances of 90 sampled;"
                          " first failure: trial 0: no regular instance left\n"]),
        (0.0, 2e-9, ["  0/30 ok; 30 regular instances of 90 sampled; first failure: instance 0: ",
                     " (error estimate 2.0e-09)\n"]),
    ], ids=["none-kept", "error-estimate"])
    def test_quadrature_suite_fails_short_or_inexact(self, capsys, monkeypatch, d_shift, err,
                                                     fragments):
        from teamcontracts import selftest
        exact = selftest.undercut_ode

        def integrator(*args):
            p_end, d_min, rounds, _ = exact(*args)
            return p_end, d_min + d_shift, rounds, np.full_like(p_end, err)

        monkeypatch.setattr(selftest, "undercut_ode", integrator)
        assert main(["selftest", "--quick", "--seed", "0"]) == 3
        out = capsys.readouterr().out
        assert "[FAIL] closed form matches quadrature oracle  " in out
        assert all(f in out for f in fragments)
        assert out.endswith("selftest: FAILURES detected (seed=0, quick=True)\n")

    def test_negative_seed_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--quick", "--seed", "-1"])
        assert exc.value.code == 2
        assert "error: argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_seed_is_a_selftest_flag_only(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", A0_JSON)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--input", inp, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestSpecialTargets:
    """A symlink named by --output or --dump-game is written through and
    stays a link; a FIFO is written in place and stays a FIFO."""

    @pytest.mark.parametrize("exists", [True, False], ids=["file", "dangling"])
    @pytest.mark.parametrize("flag", ["--output", "--dump-game"])
    def test_symlink_is_written_through(self, tmp_path, capsys, flag, exists):
        inp = write(tmp_path, "in.json", JPE_JSON)
        args = ["evaluate", "--input", inp, "--eps", "0.05"]
        plain = tmp_path / "plain.json"
        assert main([*args, flag, str(plain)]) == 0
        want = plain.read_text()
        (tmp_path / "real").mkdir()
        real, link = tmp_path / "real" / "target.json", tmp_path / "link.json"
        if exists:
            real.write_text("{}")
            real.chmod(0o640)
        link.symlink_to(real)
        assert main([*args, flag, str(link)]) == 0
        assert real.read_text() == want
        assert link.is_symlink() and link.resolve() == real
        assert not exists or stat.S_IMODE(real.stat().st_mode) == 0o640
        assert [p.name for p in real.parent.iterdir()] == ["target.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in.json", "link.json", "plain.json", "real"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("flag", ["--output", "--dump-game"])
    def test_fifo_is_written_in_place(self, tmp_path, capsys, flag):
        inp = write(tmp_path, "in.json", JPE_JSON)
        args = ["evaluate", "--input", inp, "--eps", "0.05"]
        plain = tmp_path / "plain.json"
        assert main([*args, flag, str(plain)]) == 0
        want = plain.read_text()
        capsys.readouterr()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main([*args, flag, str(fifo)]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive() and got == [want]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "pipe", "plain.json"]


class TestNumericFlags:
    @pytest.mark.parametrize("verb, payload, flags", [
        ("evaluate", JPE_JSON, ["--eps", "0"]),
        ("evaluate", JPE_JSON, ["--eps=-1e-3"]),
        ("evaluate", JPE_JSON, ["--eps", "inf"]),
        ("adversary", JPE_JSON, ["--rho", "inf", "--n", "4"]),
        ("optimize", A0_JSON, ["--grid-step", "inf"]),
        ("sweep", {"p_grid": [1.0], "c_grid": [0.25]}, ["--refine", "-1"]),
    ])
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, verb, payload, flags):
        inp = write(tmp_path, "in.json", payload)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([verb, "--input", inp, *flags, "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument " + flags[0].split("=")[0] in err
        assert not out.exists()

    def test_eps_whose_step_count_overflows_gives_the_capped_witness(self, tmp_path):
        # t_hat/eps = 0.25/1e-310 is inf: the chain is capped as at 1e-300
        inp = write(tmp_path, "in.json", JPE_JSON)
        chains = []
        for eps in ("1e-300", "1e-310"):
            out = tmp_path / f"{eps}.json"
            assert main(["evaluate", "--input", inp, "--eps", eps, "--output", str(out)]) == 0
            chains.append(read_result(out)["witness"]["actions"])
        assert len(chains[1]) == MAX_WITNESS_CHAIN + 1 and chains[1] == chains[0]

    def test_chain_length_refused_before_building(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("an out-of-range chain was built")

        monkeypatch.setattr(wc, "euler_adversary", build)
        inp = write(tmp_path, "in.json", JPE_JSON)
        with pytest.raises(SystemExit) as exc:
            main(["adversary", "--input", inp, "--n", "100001"])
        assert exc.value.code == 2
        assert "error: argument --n: must be in [1, 100000], got 100001" in capsys.readouterr().err

    def test_non_finite_result_exits_2_writing_nothing(self, tmp_path, capsys):
        inp = write(tmp_path, "a.json", {
            "contract": {"w11": 1e308, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "a0": {"cost": 0.25, "prob": 1.0},
        })
        out = tmp_path / "a-out.json"
        assert main(["asym", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: Out of range float")
        assert not out.exists()


class TestUnwritableOutput:
    """An output that cannot be written exits 2 naming it, with no traceback,
    and no file appears."""

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        inp = write(tmp_path, "in.json", JPE_JSON)
        out = tmp_path / "missing" / "x.json"
        assert main(["evaluate", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out}: No such file or directory\n")

    @pytest.mark.parametrize("failing", ["dump", "output", "dump-dir"])
    def test_output_and_dump_appear_together_or_not_at_all(self, tmp_path, capsys, failing):
        inp = write(tmp_path, "in.json", JPE_JSON)
        ok, bad = tmp_path / "ok.json", tmp_path / "missing" / "x.json"
        why = "No such file or directory"
        if failing == "dump-dir":  # a directory is found only when renaming onto it
            bad, why = tmp_path / "missing", "Is a directory"
            bad.mkdir()
        out, dump = (bad, ok) if failing == "output" else (ok, bad)
        code = main(["evaluate", "--input", inp, "--eps", "0.05", "--output", str(out),
                     "--dump-game", str(dump)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {bad}: {why}\n"
        assert not ok.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(  # no temp file left
            ["in.json"] + (["missing"] if failing == "dump-dir" else []))

    @pytest.mark.parametrize("link", [None, os.symlink, os.link],
                             ids=["new", "symlink", "hardlink"])
    def test_output_and_dump_naming_one_file_exit_2_first(self, tmp_path, capsys, monkeypatch,
                                                          link):
        # each file is renamed into place, so the dump would replace the result;
        # the refusal comes before the (here missing) input is read
        monkeypatch.chdir(tmp_path)
        out, dump = "F.json", "./F.json"
        if link is not None:
            Path(out).write_text("{}")
            dump = "L.json"
            link(out, dump)
        before = sorted(tmp_path.iterdir())
        assert main(["evaluate", "--input", "missing.json", "--output", out,
                     "--dump-game", dump]) == 2
        assert capsys.readouterr() == (
            "", f"error: --output and --dump-game name the same file: {dump}\n")
        assert sorted(tmp_path.iterdir()) == before
        assert link is None or Path(out).read_text() == "{}"

    def test_dump_failing_after_its_temp_file_prints_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        def disk_full(path, mode="r", **kwargs):  # the dump's temp file is made, not written
            if "w" in mode:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return open(path, mode, **kwargs)

        monkeypatch.setattr(cli, "open", disk_full, raising=False)
        inp = write(tmp_path, "in.json", JPE_JSON)
        dump = tmp_path / "g.json"
        code = main(["evaluate", "--input", inp, "--eps", "0.05", "--dump-game", str(dump)])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {dump}: No space left on device\n")
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("output", [True, False], ids=["output", "stdout"])
    def test_failed_rename_names_its_file(self, tmp_path, capsys, monkeypatch, output):
        # rename(2) refuses to replace another user's file in a sticky directory;
        # the output is renamed first, and stdout is printed before any rename
        inp = write(tmp_path, "in.json", JPE_JSON)
        out, dump = tmp_path / "out.json", tmp_path / "g.json"
        bad = out if output else dump
        replace = os.replace

        def refuse(src, dst):
            if dst == os.path.realpath(bad):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        code = main(["evaluate", "--input", inp, "--eps", "0.05", "--dump-game", str(dump),
                     *(["--output", str(out)] if output else [])])
        assert code == 2
        printed, err = capsys.readouterr()
        assert err == f"error: cannot write {bad}: Permission denied\n"
        assert (printed == "") == output
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("verb", ["optimize", "adversary", "selftest"])
    def test_full_stdout_exits_2(self, tmp_path, verb, unbuffered):
        # buffered stdout keeps what it failed to write, and the interpreter
        # flushes it again at exit; the adversary chain overflows the buffer
        if verb == "optimize":
            argv = ["optimize", "--input", write(tmp_path, "in.json", A0_JSON)]
        elif verb == "adversary":
            argv = ["adversary", "--input", write(tmp_path, "in.json", JPE_JSON), "--n", "5000"]
        else:
            argv = ["selftest", "--quick"]
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
               "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "teamcontracts", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (
            2, "error: cannot write <stdout>: No space left on device\n")
