"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relurec
from relurec.cli import cli_dispatch
from relurec.harness import parse_config, run_sweep


def run(argv):
    return cli_dispatch([str(a) for a in argv])


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run(["gen", "--bogus", "1"]) == 1

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("gen", "learn-rep", "recover", "sweep", "diag"):
            assert name in out

    def test_runtime_failure_exits_two(self, tmp_path):
        code = run(
            ["learn-rep", "--input", tmp_path / "missing", "--out", tmp_path / "o"]
        )
        assert code == 2


class TestModuleEntryPoint:
    """``python -m relurec.cli`` behaves like the ``relurec`` entry point."""

    def _run(self, *args):
        src = str(Path(relurec.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "relurec.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_help_exits_clean(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: relurec")

    def test_no_arguments_is_usage_error(self):
        proc = self._run()
        assert proc.returncode == 1
        assert "usage: relurec" in proc.stderr


class TestGen:
    def test_rep_instance_files(self, tmp_path):
        target = tmp_path / "inst"
        code = run(
            ["gen", "--task", "rep", "--d", 12, "--n", 20, "--k", 2,
             "--gamma", 1.0, "--seed", 0, "--out", target]
        )
        assert code == 0
        for name in ("a.csv", "c.csv", "b.csv", "m.csv", "y.csv", "instance.json"):
            assert (target / name).exists()
        manifest = json.loads((target / "instance.json").read_text())
        assert manifest["d"] == 12
        assert manifest["bias"].startswith("exp:")

    def test_recovery_instance_files(self, tmp_path):
        target = tmp_path / "inst"
        code = run(
            ["gen", "--task", "recover", "--d", 60, "--k", 3, "--s", 4,
             "--delta", 0.01, "--seed", 7, "--out", target]
        )
        assert code == 0
        for name in ("a.csv", "c_star.csv", "e_star.csv", "w.csv", "v.csv"):
            assert (target / name).exists()
        manifest = json.loads((target / "instance.json").read_text())
        assert manifest["bias"] == "const:value=0.0"

    def test_refuses_overwrite(self, tmp_path):
        target = tmp_path / "inst"
        args = ["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2,
                "--seed", 0, "--out", target]
        assert run(args) == 0
        assert run(args) == 2
        assert run(args + ["--force"]) == 0


class TestLearnRep:
    def test_round_trip(self, tmp_path):
        inst = tmp_path / "inst"
        out = tmp_path / "fit"
        assert run(
            ["gen", "--task", "rep", "--d", 15, "--n", 30, "--k", 2,
             "--gamma", 1.0, "--seed", 5, "--out", inst]
        ) == 0
        assert run(["learn-rep", "--input", inst, "--out", out]) == 0
        for name in ("m_hat.csv", "beta_hat.csv", "u_hat.csv", "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "frob_err_sq", "bound", "sin_theta", "procrustes_err", "total_loglik",
        }
        assert report["frob_err_sq"] >= 0.0
        assert 0.0 <= report["sin_theta"] <= np.sqrt(2.0) + 1e-9
        m_hat = np.loadtxt(out / "m_hat.csv", delimiter=",")
        assert m_hat.shape == (15, 30)
        u_hat = np.loadtxt(out / "u_hat.csv", delimiter=",")
        assert u_hat.shape == (15, 2)

    def test_report_equals_the_sweep_cell(self, tmp_path):
        # learn-rep and a rep_learning sweep cell share one code path
        inst, out = tmp_path / "inst", tmp_path / "fit"
        assert run(
            ["gen", "--task", "rep", "--d", 15, "--n", 30, "--k", 2,
             "--gamma", 1.0, "--seed", 5, "--out", inst]
        ) == 0
        assert run(["learn-rep", "--input", inst, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        config = parse_config(
            "task = rep_learning\nd = 15\nn = 2d\nk = 2\nseeds = 5\n"
            "bias = exp:rate=1.0,shift=-2.0\n"
        )
        [record] = run_sweep(config)
        assert record.error is None, record.error
        assert report["frob_err_sq"] == record.frob_err_sq
        assert report["bound"] == record.rep_bound
        assert report["sin_theta"] == record.sin_theta
        assert report["procrustes_err"] == record.procrustes_err

    def test_fill_flag_changes_unsupported_entries(self, tmp_path):
        inst = tmp_path / "inst"
        assert run(
            ["gen", "--task", "rep", "--d", 15, "--n", 30, "--k", 2,
             "--gamma", 1.0, "--seed", 5, "--out", inst]
        ) == 0
        results = {}
        for fill in ("upper", "lower", "mid"):
            out = tmp_path / fill
            assert run(
                ["learn-rep", "--input", inst, "--out", out, "--fill", fill]
            ) == 0
            results[fill] = np.loadtxt(out / "m_hat.csv", delimiter=",")
        y = np.loadtxt(inst / "y.csv", delimiter=",")
        off = y <= 0.0
        assert off.any()
        assert np.all(results["lower"][off] == -1.0)
        assert np.all(results["upper"][off] >= results["mid"][off] - 1e-12)
        assert np.all(results["mid"][off] >= results["lower"][off] - 1e-12)


class TestRecover:
    def make_instance(self, tmp_path, **overrides):
        inst = tmp_path / "inst"
        args = {"d": 80, "k": 2, "s": 3, "delta": 0.005, "seed": 2}
        args.update(overrides)
        argv = ["gen", "--task", "recover", "--out", inst]
        for key, value in args.items():
            argv += [f"--{key}", value]
        assert run(argv) == 0
        return inst

    def test_oracle_lambda(self, tmp_path):
        inst = self.make_instance(tmp_path)
        out = tmp_path / "fit"
        assert run(["recover", "--input", inst, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "error", "bound", "mu", "sigma", "eta",
            "lambda_used", "iterations", "converged",
        }
        assert report["converged"] is True
        assert report["mu"] == pytest.approx(0.5, abs=1e-6)
        c_hat = np.loadtxt(out / "c_hat.csv", delimiter=",")
        assert c_hat.shape == (2,)
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,objective"
        assert len(trace) == report["iterations"] + 1

    def test_numeric_lambda(self, tmp_path):
        inst = self.make_instance(tmp_path)
        out = tmp_path / "fit"
        code = run(
            ["recover", "--input", inst, "--out", out, "--lambda", 0.05]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda_used"] == pytest.approx(0.05)

    def test_agnostic_lambda(self, tmp_path):
        inst = self.make_instance(tmp_path)
        out = tmp_path / "fit"
        code = run(
            ["recover", "--input", inst, "--out", out, "--lambda", "agnostic"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda_used"] > 0.0

    def test_wrong_instance_type_fails(self, tmp_path):
        inst = tmp_path / "inst"
        assert run(
            ["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2,
             "--seed", 0, "--out", inst]
        ) == 0
        assert run(["recover", "--input", inst, "--out", tmp_path / "o"]) == 2


class TestSweepAndDiag:
    def test_sweep_from_config_file(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "task = diagnostics\nd = 120\nk = 4\ns = 6\n"
            "bias = const:value=0.0\nseeds = 0, 1\ndiag_samples = 10\n"
        )
        out = tmp_path / "results"
        assert run(["sweep", "--config", config, "--out", out]) == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()

    def test_diag_prints_json(self, tmp_path, capsys):
        code = run(
            ["diag", "--d", 100, "--k", 3, "--s", 5, "--seed", 1,
             "--samples", 10]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_violations"] == 0
        assert payload["num_checked"] == 10

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("task = diagnostics\ncolor = blue\n")
        assert run(["sweep", "--config", config, "--out", tmp_path / "o"]) == 1
        assert "color" in capsys.readouterr().err

    def test_diag_writes_file(self, tmp_path):
        target = tmp_path / "diag.json"
        code = run(
            ["diag", "--d", 100, "--k", 3, "--s", 5, "--seed", 1,
             "--samples", 10, "--out", target]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["min_ratio"] >= 1.0
