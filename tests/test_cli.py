"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relurec
from relurec import cli
from relurec.cli import cli_dispatch
from relurec.bias import BiasModel
from relurec.generate import (
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
    load_instance,
    save_instance,
)
from relurec.harness import (
    RESULT_COLUMNS,
    RecoveryOutcome,
    RepOutcome,
    parse_config,
    run_sweep,
)


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
        for name in ("gen", "learn-rep", "recover", "sweep"):
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
        assert [p.name for p in target.iterdir()] == ["instance.npz"]
        instance = load_instance(target)
        assert isinstance(instance, GenerativeInstance)
        assert instance.Y.shape == (12, 20) and instance.A.shape == (12, 2)
        assert instance.bias.startswith("exp:")

    def test_recovery_instance_files(self, tmp_path):
        target = tmp_path / "inst"
        code = run(
            ["gen", "--task", "recover", "--d", 60, "--k", 3, "--s", 4,
             "--delta", 0.01, "--seed", 7, "--out", target]
        )
        assert code == 0
        assert [p.name for p in target.iterdir()] == ["instance.npz"]
        instance = load_instance(target)
        assert isinstance(instance, RecoveryInstance)
        assert instance.v.shape == (60,) and instance.A.shape == (60, 3)
        assert instance.s == 4 and instance.delta == 0.01
        assert instance.bias == "const:value=0.0"

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
            "gamma", "nu", "fill_strategy", "frob_err_sq", "rep_bound", "sin_theta",
            "procrustes_err", "total_loglik",
        }
        assert report["frob_err_sq"] >= 0.0
        assert 0.0 <= report["sin_theta"] <= np.sqrt(2.0) + 1e-9
        m_hat = np.loadtxt(out / "m_hat.csv", delimiter=",")
        assert m_hat.shape == (15, 30)
        u_hat = np.loadtxt(out / "u_hat.csv", delimiter=",")
        assert u_hat.shape == (15, 2)

    def test_saved_failing_law_is_a_runtime_error(self, tmp_path, capsys):
        # the instance's own law fails, and no flag set a value: exit 2, naming no flag;
        # gen refuses such a law, so the instance is saved through the library
        inst = tmp_path / "inst"
        law = BiasModel.shifted_exponential(rate=1.0, shift=-1.0)
        save_instance(generate_representation_instance(8, 12, 2, 1.0, law, seed=0), inst)
        assert run(["learn-rep", "--input", inst, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: ValueError: CDF vanishes at -1.0; the hazard-type ratio p/P(B<=x) "
            "is unbounded\n"
        )
        assert not (tmp_path / "o").exists()

    def test_vacuous_bound_is_null(self, tmp_path):
        # the centred Gaussian's flatness vanishes on [-1, 1], so the bound says nothing
        inst, out = tmp_path / "inst", tmp_path / "fit"
        assert run(
            ["gen", "--task", "rep", "--d", 15, "--n", 30, "--k", 2, "--gamma", 1.0,
             "--bias", "gauss:mean=0,std=1", "--seed", 5, "--out", inst]
        ) == 0
        assert run(["learn-rep", "--input", inst, "--out", out]) == 0
        assert json.loads((out / "report.json").read_text())["rep_bound"] is None

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
        y = load_instance(inst).Y
        off = y <= 0.0
        assert off.any()
        assert np.all(results["lower"][off] == -1.0)
        assert np.all(results["upper"][off] >= results["mid"][off] - 1e-12)
        assert np.all(results["mid"][off] >= results["lower"][off] - 1e-12)


def make_vector_instance(tmp_path, **overrides):
    """``gen --task recover`` into ``tmp_path/inst``, with these flags unless overridden."""
    inst = tmp_path / "inst"
    args = {"d": 80, "k": 2, "s": 3, "delta": 0.005, "seed": 2}
    args.update(overrides)
    argv = ["gen", "--task", "recover", "--out", inst]
    for key, value in args.items():
        argv += [f"--{key}", value]
    assert run(argv) == 0
    return inst


class TestRecover:
    def test_instance_of_a_law_of_numpy_scalars_is_read_back(self, tmp_path):
        # the bias was once saved as gauss:mean=np.float64(0.1),std=1.0, which recover rejected
        law = BiasModel("gaussian", (np.float64(0.1), 1.0))
        save_instance(generate_recovery_instance(80, 2, 3, 0.005, 5.0, law, seed=2), tmp_path)
        assert load_instance(tmp_path).bias == "gauss:mean=0.1,std=1.0"
        assert run(["recover", "--input", tmp_path, "--out", tmp_path / "fit"]) == 0

    def test_oracle_lambda(self, tmp_path):
        inst = make_vector_instance(tmp_path)
        out = tmp_path / "fit"
        assert run(["recover", "--input", inst, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "recovery_error", "recovery_bound", "mu", "sigma", "eta",
            "lambda_used", "iterations", "converged", "stop_reason", "grad_norm",
            "flagged",
        }
        assert report["converged"] is True
        assert report["stop_reason"] == "tol"
        assert 0.0 <= report["grad_norm"] < 1e-6
        assert report["mu"] == pytest.approx(0.5, abs=1e-6)
        c_hat = np.loadtxt(out / "c_hat.csv", delimiter=",")
        assert c_hat.shape == (2,)
        # the flagged count is the number of observations the fit calls outliers
        e_hat = np.loadtxt(out / "e_hat.csv", delimiter=",")
        assert type(report["flagged"]) is int
        assert report["flagged"] == np.count_nonzero(e_hat) > 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,objective"
        assert len(trace) == report["iterations"] + 1

    def test_numeric_lambda(self, tmp_path):
        inst = make_vector_instance(tmp_path)
        out = tmp_path / "fit"
        code = run(
            ["recover", "--input", inst, "--out", out, "--lambda", 0.05]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda_used"] == pytest.approx(0.05)

    def test_agnostic_lambda(self, tmp_path):
        inst = make_vector_instance(tmp_path)
        out = tmp_path / "fit"
        code = run(
            ["recover", "--input", inst, "--out", out, "--lambda", "agnostic"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda_used"] > 0.0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lambda", "inf", "argument --lambda: must be positive and finite, got inf"),
            ("--lambda", "foo", "argument --lambda: could not convert string to float: 'foo'"),
            ("--max-iter", "0", "argument --max-iter: must be an integer of at least 1, got 0"),
        ],
        ids=["lambda-inf", "lambda-foo", "max-iter-0"],
    )
    def test_bad_solver_setting_is_usage_error(self, tmp_path, capsys, flag, value, message):
        inst = make_vector_instance(tmp_path)
        out = tmp_path / "fit"
        assert run(["recover", "--input", inst, "--out", out, flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}\nusage: relurec")
        assert not out.exists()

    def test_tolerance_flag_is_gone(self, tmp_path, capsys):
        # the solver stops once it is stationary; --max-iter is its only knob
        inst = make_vector_instance(tmp_path)
        out = tmp_path / "fit"
        assert run(["recover", "--input", inst, "--out", out, "--tol", "1e-9"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: unrecognized arguments: --tol 1e-9\nusage: relurec"
        )
        assert not out.exists()

    def test_zero_agnostic_penalty_is_usage_error(self, tmp_path, capsys):
        # sigma is 0 under this bias: the oracle rule solves the instance, and
        # --lambda agnostic chose the rule that fails, so the flag is at fault, also
        # with the cone check, which once ran on its own and exited 2 here
        inst = make_vector_instance(tmp_path, d=50, k=3, s=0, delta=0, bias="const:value=-40")
        assert run(["recover", "--input", inst, "--out", tmp_path / "oracle"]) == 0
        capsys.readouterr()
        out = tmp_path / "fit"
        for check in ([], ["--cone-check"]):
            argv = ["recover", "--input", inst, "--out", out, "--lambda", "agnostic", *check]
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(
                "error: argument --lambda: the agnostic penalty at d=50 is 0 in floating point, "
                "from the rectifier's noise moment sigma=0.0 and the noise level delta=0.0\n"
            )
            assert captured.out == ""
            assert not out.exists()

    def test_wrong_instance_type_fails(self, tmp_path):
        inst = tmp_path / "inst"
        assert run(
            ["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2,
             "--seed", 0, "--out", inst]
        ) == 0
        assert run(["recover", "--input", inst, "--out", tmp_path / "o"]) == 2


# for each command that scores a saved instance: the gen call that saves it, the
# command, the file it writes its report to, the sweep config of the same cell and
# the outcome whose metrics both report
REPORT_CELLS = {
    "learn-rep": (
        ["gen", "--task", "rep", "--d", 15, "--n", 30, "--k", 2, "--gamma", 1.0, "--seed", 5],
        ["learn-rep", "--input", "inst", "--out", "fit"], "fit/report.json",
        "task = rep_learning\nd = 15\nn = 2d\nk = 2\nseeds = 5\nbias = exp:rate=1.0,shift=-2.0\n",
        RepOutcome,
    ),
    "recover": (
        ["gen", "--task", "recover", "--d", 80, "--k", 2, "--s", 3, "--delta", 0.005, "--seed", 2],
        ["recover", "--input", "inst", "--out", "fit"], "fit/report.json",
        "task = robust_recovery\nd = 80\nk = 2\ns = 3\nseeds = 2\ndelta = 0.005\n"
        "bias = const:value=0.0\nlambda_mode = oracle\n",
        RecoveryOutcome,
    ),
    "diag": (
        ["gen", "--task", "recover", "--d", 80, "--k", 2, "--s", 3, "--delta", 0.005, "--seed", 2],
        ["recover", "--input", "inst", "--lambda", "agnostic", "--cone-check", "--out", "fit"],
        "fit/report.json",
        "task = robust_recovery\nd = 80\nk = 2\ns = 3\nseeds = 2\ndelta = 0.005\n"
        "bias = const:value=0.0\nlambda_mode = agnostic\ncone_check = true\n",
        RecoveryOutcome,
    ),
}


@pytest.mark.parametrize("command", REPORT_CELLS)
def test_report_equals_the_sweep_cell(command, tmp_path, monkeypatch):
    # the command and the sweep cell share one code path, and each value one name
    gen, argv, report_path, text, outcome = REPORT_CELLS[command]
    monkeypatch.chdir(tmp_path)
    assert run([*gen, "--out", "inst"]) == 0
    assert run(argv) == 0
    report = json.loads(Path(report_path).read_text())
    config = parse_config(text)
    [row] = run_sweep(config)
    assert row["error"] is None, row["error"]
    shared = set(report) & set(RESULT_COLUMNS[config.task])
    assert {key: report[key] for key in shared} == {key: row[key] for key in shared}
    # the report holds each metric the cell computed, and none that it left empty
    empty = {name for name in outcome.metric_names() if row[name] is None}
    assert set(outcome.metric_names()) - empty <= shared and not empty & set(report)


class TestBadFlagValue:
    """A bad flag value exits 1, with the message on stderr and no output written."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["learn-rep", "--input", "{inst}", "--bias", "const:value=0.0"],
             "argument --bias: must be a bias law, got 0.0"),
            (["learn-rep", "--input", "{inst}", "--gamma", "nan"],
             "argument --gamma: must be positive and finite, got nan"),
            (["gen", "--task", "recover", "--d", 60, "--k", 3, "--delta", "nan"],
             "argument --delta: must be nonnegative and finite, got nan"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--bias", "const:value=0.0"],
             "argument --bias: must be a bias law, got 0.0"),
            (["gen", "--task", "rep", "--d", 8, "--k", 2], "--n is required for --task rep"),
            (["gen", "--task", "recover", "--d", 100, "--k", 3, "--bias", "nope"],
             "argument --bias: bias config 'nope' is missing the ':' separator"),
            (["recover", "--input", "{inst}", "--cone-check", "--samples", 10],
             "unrecognized arguments: --samples 10"),
            (["diag", "--input", "{inst}"],
             "argument command: invalid choice: 'diag' "
             "(choose from 'gen', 'learn-rep', 'recover', 'sweep')"),
            (["learn-rep", "--input", "{inst}", "--nu", 0],
             "argument --nu: window length nu must satisfy 0 < nu <= 2*gamma, "
             "got nu=0.0, gamma=1.0"),
            (["learn-rep", "--input", "{inst}", "--nu", 5],
             "argument --nu: window length nu must satisfy 0 < nu <= 2*gamma, "
             "got nu=5.0, gamma=1.0"),
            (["learn-rep", "--input", "{inst}", "--bias", "exp:rate=1.0,shift=-1.0"],
             "argument --bias: CDF vanishes at -1.0; the hazard-type ratio p/P(B<=x) "
             "is unbounded"),
            (["gen", "--task", "recover", "--d", 10, "--k", 1, "--s", 20],
             "s must be at most d = 10, got 20"),
            (["gen", "--task", "recover", "--d", 100, "--k", 3, "--s", -1],
             "argument --s: must be an integer of at least 0, got -1"),
            (["gen", "--task", "recover", "--d", 100, "--k", 3, "--s", 5, "--delta", -1],
             "argument --delta: must be nonnegative and finite, got -1.0"),
            (["learn-rep", "--input", "{inst}", "--gamma", 0.1, "--nu", 0.05],
             "argument --gamma/--nu: row 2: empty feasible interval "
             "[0.11174730013446474, 0.07973209912665659] "
             "(spread 0.182015 vs bound 0.1, separation 0.05)"),
            (["learn-rep", "--input", "{inst}", "--gamma", 0.095],
             "argument --gamma: row 2: empty feasible interval "
             "[0.11674730013446474, 0.068626558863551] "
             "(spread 0.182015 vs bound 0.095, separation 0.05610554026310559)"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--seed", -1],
             "argument --seed: must be an integer of at least 0, got -1"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--min-margin", "nan"],
             "argument --min-margin: must be nonnegative and finite, got nan"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--min-margin", "inf"],
             "argument --min-margin: must be nonnegative and finite, got inf"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--min-margin", -1],
             "argument --min-margin: must be nonnegative and finite, got -1.0"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 20],
             "k must be at most min(d, n) = 8, got 20"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--delta", 0.5],
             "flag --delta is not used by task rep"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--magnitude", -4],
             "flag --magnitude is not used by task rep"),
            (["gen", "--task", "recover", "--d", 60, "--k", 3, "--n", 5],
             "flag --n is not used by task recover"),
            (["gen", "--task", "recover", "--d", 60, "--k", 3, "--min-margin", 0.3],
             "flag --min-margin is not used by task recover"),
            (["gen", "--task", "recover", "--d", 60, "--k", 3, "--gamma", 7],
             "flag --gamma is not used by task recover"),
            (["learn-rep", "--input", "{inst}", "--nu", 5, "--bias", "exp:rate=1.0,shift=-2.0"],
             "argument --nu/--bias: window length nu must satisfy 0 < nu <= 2*gamma, "
             "got nu=5.0, gamma=1.0"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--gamma", 1.0,
              "--bias", "exp:rate=1.0,shift=-1.0"],
             "argument --bias/--gamma: CDF vanishes at -1.0; the hazard-type ratio "
             "p/P(B<=x) is unbounded"),
            (["gen", "--task", "recover", "--d", 10, "--k", 10],
             "argument --k: k must be at most d - 1 = 9, got 10"),
            (["gen", "--task", "recover", "--d", 0, "--k", 1],
             "argument --d: must be an integer of at least 1, got 0"),
            (["gen", "--task", "recover", "--d", 50, "--k", 3, "--bias",
              "logistic:loc=1e17,scale=1"],
             "argument --bias: the quadrature masses of bias law logistic:loc=1e+17,scale=1.0 "
             "sum to 3.954713149884052, not 1"),
            (["gen", "--task", "rep", "--d", 8, "--n", 0, "--k", 2],
             "argument --n: must be an integer of at least 1, got 0"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 0],
             "argument --k: must be an integer of at least 1, got 0"),
            (["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--gamma", "nan"],
             "argument --gamma: must be positive and finite, got nan"),
            (["gen", "--task", "recover", "--d", 60, "--k", 3, "--magnitude", "inf"],
             "argument --magnitude: must be finite, got inf"),
        ],
        ids=[
            "learn-rep-const-bias", "learn-rep-gamma-nan", "gen-recover-delta-nan",
            "gen-rep-const-bias", "gen-rep-without-n", "gen-recover-bad-bias",
            "diag-samples-flag-is-gone", "diag-command-is-gone", "learn-rep-nu-0", "learn-rep-nu-5",
            "learn-rep-law-starts-at-gamma", "gen-recover-s-above-d", "gen-recover-negative-s",
            "gen-recover-negative-delta",
            "learn-rep-gamma-nu-infeasible", "learn-rep-gamma-infeasible", "gen-negative-seed",
            "gen-min-margin-nan", "gen-min-margin-inf",
            "gen-negative-min-margin", "gen-rank-above-min-d-n", "gen-rep-delta",
            "gen-rep-magnitude", "gen-recover-n", "gen-recover-min-margin", "gen-recover-gamma",
            "learn-rep-nu-and-bias", "gen-rep-law-starts-at-gamma",
            "gen-recover-rank-not-below-d", "gen-recover-d-0", "gen-recover-law-lost-in-rounding",
            "gen-rep-n-0", "gen-rep-k-0", "gen-rep-gamma-nan", "gen-recover-magnitude-inf",
        ],
    )
    def test_exits_one(self, tmp_path, capsys, argv, message):
        inst, out = tmp_path / "inst", tmp_path / "out"
        assert run(
            ["gen", "--task", "rep", "--d", 8, "--n", 12, "--k", 2, "--seed", 0, "--out", inst]
        ) == 0
        capsys.readouterr()
        assert run([str(a).format(inst=inst) for a in argv] + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0] == f"error: {message}"
        assert captured.out == ""
        assert not out.exists()


class TestSweepAndDiag:
    def test_sweep_from_config_file(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "task = robust_recovery\nd = 120\nk = 4\ns = 6\ncone_check = true\n"
            "bias = const:value=0.0\nseeds = 0, 1\n"
        )
        out = tmp_path / "results"
        assert run(["sweep", "--config", config, "--out", out]) == 0
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()

    def test_diag_prints_json(self, tmp_path, capsys):
        inst = make_vector_instance(tmp_path, d=100, k=3, s=5, seed=1)
        capsys.readouterr()
        out = tmp_path / "fit"
        assert run(
            ["recover", "--input", inst, "--lambda", "agnostic", "--cone-check", "--out", out]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads((out / "report.json").read_text())
        assert payload["diag_violations"] == 0
        assert payload["num_checked"] == 93  # 31 pairs along each of 3 directions

    @pytest.mark.parametrize(
        "task, flags, message",
        [
            ("recover", {"d": 40, "k": 4, "s": 30}, "k + |S| must be at most d/4 = 10.0, got 34"),
            ("rep", {"d": 8, "n": 12, "k": 2}, "{inst} does not contain a vector instance"),
        ],
        ids=["regime", "matrix-instance"],
    )
    def test_diag_rejected_instance_exits_two(self, tmp_path, capsys, task, flags, message):
        # no flag chose what fails: the saved instance is at fault
        inst = tmp_path / "inst"
        argv = ["gen", "--task", task, "--out", inst]
        for key, value in flags.items():
            argv += [f"--{key}", value]
        assert run(argv) == 0
        capsys.readouterr()
        out = tmp_path / "fit"
        assert run(["recover", "--input", inst, "--cone-check", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ValueError: {message.format(inst=inst)}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("task = robust_recovery\ncolor = blue\n")
        assert run(["sweep", "--config", config, "--out", tmp_path / "o"]) == 1
        assert "color" in capsys.readouterr().err

    @pytest.mark.parametrize("name, dimensions", [
        ("robust_recovery", "d = 150\nk = 3\ns = 3\n"),
        ("diagnostics", "d = 200\nk = 5\ns = 10\n"),
    ])
    def test_failing_moments_are_usage_error(self, name, dimensions, tmp_path, capsys):
        # the law parses, but its moments fail: the sweep stops before its first cell
        config = tmp_path / "sweep.cfg"
        check = "cone_check = true\n" if name == "diagnostics" else ""  # the former task
        config.write_text(
            f"task = robust_recovery\n{check}{dimensions}"
            "bias = logistic:loc=1e17,scale=1\nseeds = 0, 1\n"
        )
        out = tmp_path / "results"
        assert run(["sweep", "--config", config, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config key 'bias': the quadrature masses")
        assert captured.out == ""
        assert not out.exists()

    def test_zero_agnostic_penalty_is_usage_error(self, tmp_path, capsys):
        # each cell once recorded a ZeroDivisionError, and the sweep exited 0
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "task = robust_recovery\nd = 200\nk = 5\ns = 10\nbias = const:value=-40\nseeds = 0\n"
            "lambda_mode = agnostic\ncone_check = true\n"
        )
        out = tmp_path / "results"
        assert run(["sweep", "--config", config, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config key 'bias': the agnostic penalty at d=200")
        assert not out.exists()

    def test_diag_writes_file(self, tmp_path):
        inst = make_vector_instance(tmp_path, d=100, k=3, s=5, seed=1)
        target = tmp_path / "fit"
        assert run(
            ["recover", "--input", inst, "--lambda", "agnostic", "--cone-check", "--out", target]
        ) == 0
        payload = json.loads((target / "report.json").read_text())
        assert payload["diag_min_ratio"] >= 1.0


class TestParserReuse:
    """One process builds the parser once; each later call parses as a fresh process would."""

    CALLS = [
        ["gen", "--bogus", "1"],  # usage error
        ["--help"],
        ["recover", "--input", "missing", "--out", "rec"],  # runtime failure
        ["sweep", "--config", "sweep.cfg", "--out", "out"],
    ]
    CONFIG = "task = robust_recovery\nd = 60\nk = 2\ns = 1\nbias = const:value=0.0\nseeds = 1, 2\n"

    @staticmethod
    def _outputs(root: Path) -> dict:
        return {
            name: (root / "out" / name).read_bytes() if (root / "out" / name).exists() else None
            for name in ("results.csv", "summary.json")
        } | {"rec": (root / "rec").exists()}

    def test_calls_in_one_process_match_calls_alone(self, tmp_path, capsys, monkeypatch):
        src = str(Path(relurec.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="80")  # help text wraps to the terminal width
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        alone = []
        for i, argv in enumerate(self.CALLS):
            root = tmp_path / f"alone{i}"
            root.mkdir()
            (root / "sweep.cfg").write_text(self.CONFIG)
            proc = subprocess.run(
                [sys.executable, "-m", "relurec.cli", *argv],
                capture_output=True, text=True, env=env, cwd=root, timeout=120,
            )
            alone.append((proc.returncode, proc.stdout, proc.stderr, self._outputs(root)))
        assert [code for code, *_ in alone] == [1, 0, 2, 0]

        shared = tmp_path / "shared"
        shared.mkdir()
        (shared / "sweep.cfg").write_text(self.CONFIG)
        monkeypatch.chdir(shared)
        monkeypatch.setenv("COLUMNS", "80")
        for argv, expected in zip(self.CALLS, alone):
            code = cli_dispatch(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err, self._outputs(shared)) == expected, argv
        assert cli._build_parser() is cli._build_parser()
