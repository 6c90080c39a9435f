import json
import os

import numpy as np
import pytest

from hankelid import Dataset, cli
from hankelid.cli import main
from hankelid.model import read_dataset_csv

from conftest import write_dataset_csv


@pytest.fixture
def tiny_csv(tmp_path, rng):
    from hankelid.benchmark import gen_scenario_run, scenario_spec

    d = gen_scenario_run(scenario_spec("S1", N=120, T=8, band_range=None), 3).data
    path = tmp_path / "data.csv"
    write_dataset_csv(path, d)
    return str(path)


class TestIdentifyCommand:
    def test_writes_three_artifacts(self, tiny_csv, tmp_path):
        out = str(tmp_path / "out")
        code = main(["identify", "--data", tiny_csv, "--T", "8", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "impulse_response.csv"))
        assert os.path.exists(os.path.join(out, "identify_trace.json"))
        assert os.path.exists(os.path.join(out, "summary.txt"))
        trace = json.load(open(os.path.join(out, "identify_trace.json")))
        assert trace["T"] == 8
        assert trace["iterations"][0]["stage"] == "initial"

    def test_reports_stop_reason(self, tiny_csv, tmp_path):
        from hankelid import IdentConfig, identify

        out = tmp_path / "out"
        assert main(["identify", "--data", tiny_csv, "--T", "8", "--out", str(out)]) == 0
        reason = identify(read_dataset_csv(tiny_csv), IdentConfig(T=8)).stop_reason
        assert reason in ("no_gain", "basis_exhausted")
        assert json.load(open(out / "identify_trace.json"))["stop_reason"] == reason
        assert f"stopped: {reason}\n" in (out / "summary.txt").read_text()

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["identify", "--data", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_misordered_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "swapped.csv"
        path.write_text("t,y1,u1\n" + "".join(f"{t},0.{t},0.{t + 1}\n" for t in range(1, 9)))
        code = main(["identify", "--data", str(path), "--T", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "header must be t,u1..um,y1..yp" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_bad_cell_exits_2_naming_its_place(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = [f"{t},0.{t},0.{t + 1}" for t in range(1, 9)]
        rows[4] = "5,abc,0.6"
        path.write_text("t,u1,y1\n" + "".join(f"{row}\n" for row in rows))
        code = main(["identify", "--data", str(path), "--T", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{path}:6: column u1 is 'abc', not a finite number" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_T_too_large_guard(self, tiny_csv, tmp_path):
        code = main(["identify", "--data", tiny_csv, "--T", "200", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--T", "0"], ["--epsilon", "0"], ["--epsilon", "-1"],
                                       ["--epsilon", "inf"]],
                             ids=["T=0", "epsilon=0", "epsilon=-1", "epsilon=inf"])
    def test_invalid_config_exits_2(self, tiny_csv, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = main(["identify", "--data", tiny_csv, "--out", str(out)] + flags)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_zero_output_under_empirical_weights_exits_2(self, tmp_path, rng, capsys):
        path = tmp_path / "zero.csv"
        write_dataset_csv(path, Dataset(rng.standard_normal((60, 1)), np.zeros((60, 1))))
        code = main(["identify", "--data", str(path), "--T", "5", "--weights", "empirical",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "every output window is zero" in capsys.readouterr().err

    def test_numerical_failure_exits_1_with_partial_trace(self, tiny_csv, tmp_path, monkeypatch, capsys):
        from hankelid import cli
        from hankelid.identify import IterationRecord
        from hankelid.linalg import NotPositiveDefiniteError

        def failing_identify(d, cfg):
            exc = NotPositiveDefiniteError("prior precision is not PD")
            exc.trace = (IterationRecord(0, 0, "initial", np.array([1.0, 0.5, 0.5]), 3.0, np.nan, True),)
            raise exc

        monkeypatch.setattr(cli, "identify", failing_identify)
        out = tmp_path / "out"
        code = main(["identify", "--data", tiny_csv, "--T", "8", "--out", str(out)])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err
        trace = json.load(open(out / "identify_trace.json"))
        assert trace["error"] == "NotPositiveDefiniteError: prior precision is not PD"
        assert trace["iterations"] == [
            {"k": 0, "n": 0, "stage": "initial", "lambda": [1.0, 0.5, 0.5], "f": 3.0, "f_base": None,
             "accepted": True}
        ]


class TestSimulateCommand:
    def test_round_trip(self, tmp_path):
        out = str(tmp_path / "sim")
        code = main(
            ["simulate", "--scenario", "S1", "--N", "50", "--seed", "4", "--out", out]
        )
        assert code == 0
        d = read_dataset_csv(os.path.join(out, "S1_seed4.csv"))
        assert d.N == 50 and d.m == 1 and d.p == 3
        meta = json.load(open(os.path.join(out, "simulate_meta.json")))
        assert meta["true_order"] == 4


class TestBenchCommand:
    def test_small_bench_writes_reports(self, tmp_path):
        out = str(tmp_path / "bench")
        args = [
            "bench", "--scenario", "S1", "--runs", "2", "--N", "120", "--T", "8",
            "--estimators", "SH,SS", "--seed", "1", "--out", out,
        ]
        code = main(args)
        assert code == 0
        csv_path = os.path.join(out, "bench_aggregate.csv")
        lines = open(csv_path).read().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["estimator", "metric", "median", "p5", "p95", "n"]
        estimators = {line.split(",")[0] for line in lines[1:]}
        assert estimators == {"SH", "SS"}
        # rerun must be byte-identical (full determinism)
        out2 = str(tmp_path / "bench2")
        args2 = args[:-1] + [out2]
        assert main(args2) == 0
        assert open(csv_path).read() == open(os.path.join(out2, "bench_aggregate.csv")).read()

    def test_unknown_estimator_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--estimators", "FOO", "--runs", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "SH" in err and "SS" in err  # lists the valid tags

    @pytest.mark.parametrize("tags", [",", ""], ids=["comma", "empty"])
    def test_no_estimator_exits_2(self, tmp_path, capsys, tags):
        out = tmp_path / "bench"
        code = main(["bench", "--estimators", tags, "--runs", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no estimator tags given") and "SH" in err
        assert not out.exists()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_no_runs_exits_2(self, tmp_path, capsys, runs):
        out = tmp_path / "bench"
        code = main(["bench", "--runs", runs, "--estimators", "SS", "--out", str(out)])
        assert code == 2
        assert "argument --runs: must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "identify", "bench"])
def test_unwritable_out_exits_2(tiny_csv, tmp_path, capsys, command):
    # a path below a regular file: creating the output directory fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    flags = {
        "simulate": ["--N", "60"],
        "identify": ["--data", tiny_csv, "--T", "8"],
        "bench": ["--runs", "1", "--N", "60", "--T", "4", "--estimators", "SS"],
    }[command]
    code = main([command, *flags, "--out", str(blocker / "sub")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "bench", "gradcheck"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    flags = ["--out", str(out)] if command != "gradcheck" else ["--instances", "1"]
    assert main([command, "--seed", "-1", *flags]) == 2
    captured = capsys.readouterr()
    assert "argument --seed: must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["identify", "bench"])
def test_unwritable_out_fails_before_the_fits(tiny_csv, tmp_path, monkeypatch, capsys, command):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit started before --out was checked")

    monkeypatch.setattr(cli, "identify", no_fit)
    monkeypatch.setattr(cli, "run_monte_carlo", no_fit)
    blocker = tmp_path / "file"
    blocker.write_text("")
    flags = {
        "identify": ["--data", tiny_csv, "--T", "8"],
        "bench": ["--runs", "1", "--N", "60", "--T", "4", "--estimators", "SS"],
    }[command]
    assert main([command, *flags, "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestGradcheckCommand:
    def test_default_passes(self, capsys, monkeypatch):
        # instances alternate identity and empirical weighting, so both pass
        weightings = []
        build_weights = cli.build_weights

        def recorded(d, T, mode):
            weightings.append(mode)
            return build_weights(d, T, mode)

        monkeypatch.setattr(cli, "build_weights", recorded)
        code = main(["gradcheck", "--instances", "8", "--seed", "0"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert weightings == ["identity", "empirical"] * 4

    def test_deterministic_report(self, capsys):
        main(["gradcheck", "--instances", "3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["gradcheck", "--instances", "3", "--seed", "5"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_no_instances_exits_2(self, capsys, instances):
        code = main(["gradcheck", "--instances", instances])
        assert code == 2
        captured = capsys.readouterr()
        assert "argument --instances: must be >= 1" in captured.err
        assert "PASS" not in captured.out

    def test_corrupted_gradient_fails(self, capsys, monkeypatch):
        exact = cli.marglik_value_and_gradient

        def corrupted(pb, lam):
            f, B, V = exact(pb, lam)
            return f, B * 1.01 + 1e-3, V

        monkeypatch.setattr(cli, "marglik_value_and_gradient", corrupted)
        code = main(["gradcheck", "--instances", "3", "--seed", "0"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["identify", "gradcheck"])
def test_flags_the_command_does_not_read_are_rejected(tiny_csv, tmp_path, capsys, command):
    # identify draws no random numbers, gradcheck writes no files
    argv = {
        "identify": ["identify", "--data", tiny_csv, "--T", "8", "--out", str(tmp_path / "out"),
                     "--seed", "1"],
        "gradcheck": ["gradcheck", "--instances", "1", "--out", str(tmp_path / "x")],
    }[command]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_win_over_config(self, tiny_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T=4\nepsilon=0.5\n")
        out = str(tmp_path / "out")
        code = main(
            ["identify", "--data", tiny_csv, "--T", "8",
             "--config", str(cfg), "--out", out]
        )
        assert code == 0
        trace = json.load(open(os.path.join(out, "identify_trace.json")))
        assert trace["T"] == 8  # flag beats config
        assert trace["epsilon"] == 0.5  # config fills the unset flag

    def test_flag_equal_to_builtin_default_beats_config(self, tiny_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.5\n")
        out = str(tmp_path / "out")
        code = main(
            ["identify", "--data", tiny_csv, "--T", "8", "--epsilon", "0.001",
             "--config", str(cfg), "--out", out]
        )
        assert code == 0
        trace = json.load(open(os.path.join(out, "identify_trace.json")))
        assert trace["epsilon"] == 0.001

    def test_bad_config_line(self, tiny_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a key value line\n")
        code = main(["identify", "--data", tiny_csv, "--config", str(cfg)])
        assert code == 2

    def test_keys_naming_no_flag_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out=x\ninstances=1\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert "over 1 instances" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["identify"]) == 2  # --data is required

    def test_config_coerces_untyped_defaults(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("N=100\nT=8\n")
        out = str(tmp_path / "out")
        code = main(
            ["bench", "--scenario", "S1", "--runs", "1", "--estimators", "SS",
             "--config", str(cfg), "--out", out]
        )
        assert code == 0
        runs = json.load(open(os.path.join(out, "bench_runs.json")))
        assert runs["records"][0]["fit"] is not None
