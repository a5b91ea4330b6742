import json

import pytest

from teamcontracts.cli import main

A0_JSON = {"actions": [{"cost": 0.25, "prob": 1.0}], "known": 1}


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
        assert "payoff" in game and "actions" in game
        assert len(game["payoff"]) == len(game["actions"])

    def test_unsupported_pattern_exits_2(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.0, "w10": 0.5, "w01": 0.4, "w00": 0.0},
            "actions": A0_JSON,
        })
        assert main(["evaluate", "--input", inp]) == 2

    def test_no_known_prefix_exits_2(self, tmp_path):
        inp = write(tmp_path, "in.json", {
            "contract": {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": {"actions": [{"cost": 0.1, "prob": 0.5}], "known": 0},
        })
        assert main(["evaluate", "--input", inp]) == 2

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

    def test_multi(self, tmp_path):
        inp = write(tmp_path, "m.json",
                    {"n": 3, "w0": 0.4, "b": 0.1, "actions": A0_JSON})
        out = tmp_path / "m-out.json"
        assert main(["multi", "--input", inp, "--output", str(out)]) == 0
        res = read_result(out)
        assert res["total"] == pytest.approx(3 * res["per_agent"])

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
                  "a0": {"cost": None, "prob": 1.0}}, "cost"),
    ])
    def test_null_field_exits_2_naming_it(self, tmp_path, capsys, verb, payload, field):
        inp = write(tmp_path, "in.json", payload)
        assert main([verb, "--input", inp]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad field '{field}'")

    def test_grid_too_fine_for_memory_exits_2(self, tmp_path, capsys):
        # numpy refuses the 1e14-cell grid after allocating only its 80 MB axis
        inp = write(tmp_path, "a0.json", A0_JSON)
        assert main(["optimize", "--input", inp, "--grid-step", "1e-7"]) == 2
        assert capsys.readouterr().err.startswith("error: request needs more memory")


class TestSelftestVerb:
    def test_quick_suite_passes(self, capsys):
        assert main(["selftest", "--quick", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


JPE_JSON = {"contract": {"w11": 0.6, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "actions": A0_JSON}


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

    def test_non_finite_result_exits_2_writing_nothing(self, tmp_path, capsys):
        inp = write(tmp_path, "a.json", {
            "contract": {"w11": 1e308, "w10": 0.0, "w01": 0.0, "w00": 0.0},
            "a0": {"cost": 0.25, "prob": 1.0},
        })
        out = tmp_path / "a-out.json"
        assert main(["asym", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: Out of range float")
        assert not out.exists()
