"""Tests for config parsing, sweeps, and result emission."""

import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest

from relurec import harness
from relurec.bias import BiasModel, parse_bias_spec
from relurec.generate import generate_recovery_instance, generate_representation_instance
from relurec.harness import (
    RESULT_COLUMNS,
    DimensionRule,
    ExperimentConfig,
    emit_results,
    parse_config,
    reconstruct_and_evaluate,
    recover_and_evaluate,
    TASK_KEYS,
    restricted_cone_check,
    run_sweep,
)
from relurec.lasso import make_nonlinearity_stats
from relurec.subspace import procrustes_align, sin_theta_distance, truncated_svd

REP_CONFIG = """
# small representation-learning sweep
task = rep_learning
d = 20, 30
n = 2d
k = 2
gamma = 1.0
bias = exp:rate=1,shift=-2
seeds = 1, 2
fill_strategy = midpoint
output_dir = out
"""

RECOVERY_CONFIG = """
task = robust_recovery
d = 150
k = 3
s = 0.02d      # tracks d
delta = 0.01
bias = const:value=0.0
lambda_mode = oracle
seeds = 4, 5
"""

DIAG_CONFIG = """
task = diagnostics
d = 200
k = 5
s = 10
bias = const:value=0.0
seeds = 0
diag_samples = 20
"""


class TestDimensionRule:
    def test_explicit_list(self):
        rule = DimensionRule.parse("10, 20", "n")
        assert rule.resolve(5) == (10, 20)

    def test_multiplier_rounds_up(self):
        rule = DimensionRule.parse("0.02d", "s")
        assert rule.resolve(150) == (3,)
        assert rule.resolve(151) == (4,)

    def test_integer_multiplier(self):
        assert DimensionRule.parse("2d", "n").resolve(25) == (50,)

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="'n'"):
            DimensionRule.parse("abc", "n")


# values parse_config rejects, naming the key; each range case would fail every cell of a
# sweep or, like a negative s, run it on a setting that means nothing
BAD_VALUES = [
    (REP_CONFIG, "bias", "const:value=0.0"),
    (REP_CONFIG, "gamma", "nan"),
    (REP_CONFIG, "gamma", "inf"),
    (REP_CONFIG, "gamma", "0"),
    (REP_CONFIG, "gamma", "-1"),
    (REP_CONFIG, "nu", "nan"),
    (REP_CONFIG, "nu", "-0.5"),
    (RECOVERY_CONFIG, "delta", "nan"),
    (RECOVERY_CONFIG, "delta", "-0.1"),
    (RECOVERY_CONFIG, "outlier_magnitude", "inf"),
    (RECOVERY_CONFIG, "outlier_magnitude", "nan"),
    (DIAG_CONFIG, "diag_samples", "0"),
    (DIAG_CONFIG, "diag_samples", "-1"),
    (REP_CONFIG, "d", "20, x"),
    (REP_CONFIG, "k", "2.5"),
    (REP_CONFIG, "seeds", "a"),
    (REP_CONFIG, "nu", "0"),
    (REP_CONFIG, "nu", "5"),
    (REP_CONFIG, "bias", "exp:rate=1.0,shift=-1.0"),
    (REP_CONFIG, "d", "-4"),
    (REP_CONFIG, "k", "0"),
    (REP_CONFIG, "seeds", "-1"),
    (REP_CONFIG, "n", "0"),
    (REP_CONFIG, "n", "-1d"),
    (REP_CONFIG, "n", "0d"),
    (REP_CONFIG, "n", "nand"),
    (REP_CONFIG, "n", "infd"),
    (DIAG_CONFIG, "s", "-1"),
    (RECOVERY_CONFIG, "s", "-0.5d"),
    (RECOVERY_CONFIG, "s", "infd"),
    (REP_CONFIG, "task", "rep"),
    (REP_CONFIG, "fill_strategy", "middle"),
    (RECOVERY_CONFIG, "lambda_mode", "auto"),
]


def _without(config: str, key: str) -> str:
    """``config`` with no line that sets ``key``."""
    lines = [line for line in config.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(lines) + "\n"


def _with(config: str, key: str, value: str) -> str:
    """``config`` with ``key`` set to ``value``."""
    return _without(config, key) + f"{key} = {value}\n"


TASK_CONFIGS = {
    "rep_learning": REP_CONFIG, "robust_recovery": RECOVERY_CONFIG, "diagnostics": DIAG_CONFIG,
}

# a value each task-specific key accepts
VALID_VALUES = {
    "n": "2d", "s": "1", "gamma": "0.5", "nu": "0.5", "fill_strategy": "upper_boundary",
    "delta": "0.01", "outlier_magnitude": "3", "lambda_mode": "agnostic", "diag_samples": "5",
}

# every (task, key) pair of a key that only other tasks read
OTHER_TASK_KEYS = [
    (task, key) for task in TASK_KEYS for key in VALID_VALUES if key not in TASK_KEYS[task]
]


# grid points on which every cell fails: the config, its d, k and s, the error
# each cell records, and the message of parse_config
FAILING_GRID_POINTS = [
    (
        RECOVERY_CONFIG, 100, 3, "2d",
        "ValueError: outlier count s=200 must lie in [0, d=100]",
        "config key 's': outlier count s=200 must lie in [0, d=100]",
    ),
    (
        DIAG_CONFIG, 40, 2, "41",
        "ValueError: outlier count s=41 must lie in [0, d=40]",
        "config key 's': outlier count s=41 must lie in [0, d=40]",
    ),
    (
        RECOVERY_CONFIG, 8, 10, "0",
        "RankDeficiencyError: need more rows than columns, got 8 x 10",
        "config key 'k': k=10 must be less than d=8",
    ),
    (
        DIAG_CONFIG, 40, 8, "4",
        "ValueError: regime violated: k + |S| = 12 exceeds d/4 = 10.0",
        "config keys 'k' and 's': k + s = 12 exceeds d/4 = 10.0",
    ),
]


class TestParseConfig:
    def test_rep_config(self):
        config = parse_config(REP_CONFIG)
        assert config.task == "rep_learning"
        assert config.d == (20, 30)
        assert config.n.multiplier == 2.0
        assert config.seeds == (1, 2)
        assert config.gamma == 1.0
        assert config.nu is None

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config(RECOVERY_CONFIG)
        assert config.s.multiplier == 0.02
        assert config.lambda_mode == "oracle"

    def test_missing_required_key_is_named(self):
        with pytest.raises(ValueError, match="task"):
            parse_config("d = 10\nk = 1\nseeds = 0\nbias = const:value=0.0")

    def test_unknown_key_is_named(self):
        bad = REP_CONFIG + "\ncolor = blue\n"
        with pytest.raises(ValueError, match="color"):
            parse_config(bad)

    def test_duplicate_key_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("task = diagnostics\ntask = diagnostics")

    def test_task_needs_matching_dimension_rule(self):
        with pytest.raises(ValueError, match="'n'"):
            parse_config(
                "task = rep_learning\nd = 10\nk = 1\nseeds = 0\nbias = gauss:mean=0,std=1"
            )

    @pytest.mark.parametrize(
        "config, key",
        [(REP_CONFIG, "s = 1, 2, 3"), (RECOVERY_CONFIG, "n = 100, 300"), (DIAG_CONFIG, "n = 2d")]
        + [
            pytest.param(TASK_CONFIGS[task], f"{key} = {VALID_VALUES[key]}", id=f"{task}-{key}")
            for task, key in OTHER_TASK_KEYS if key not in ("n", "s")
        ],
    )
    def test_key_the_task_does_not_use_is_named(self, config, key):
        # run_sweep loops over n and s for every task, so such a key once
        # wrote one identical row per value; the other keys were once
        # accepted and ignored, such as gamma by robust_recovery
        task = parse_config(config).task
        name = key.split("=")[0].strip()
        with pytest.raises(ValueError, match=f"^config key '{name}' is not used by task {task}$"):
            parse_config(config + key + "\n")

    @pytest.mark.parametrize("task", TASK_KEYS)
    def test_keys_of_the_task_are_accepted(self, task):
        for key in TASK_KEYS[task]:
            config = parse_config(_with(TASK_CONFIGS[task], key, VALID_VALUES[key]))
            assert config.task == task

    @pytest.mark.parametrize("task", TASK_KEYS)
    def test_grid_dimension_is_required(self, task):
        dimension = TASK_KEYS[task][0]
        with pytest.raises(
            ValueError, match=f"^config key '{dimension}' is required for task {task}$"
        ):
            parse_config(_without(TASK_CONFIGS[task], dimension))

    @pytest.mark.parametrize(
        "config, key, value", BAD_VALUES, ids=[f"{key}={value}" for _, key, value in BAD_VALUES]
    )
    def test_value_every_cell_would_reject_is_named(self, config, key, value):
        with pytest.raises(ValueError, match=f"^config key '{key}': "):
            parse_config(_with(config, key, value))

    def test_rank_above_min_d_n_is_named(self):
        # every cell would fail in generate_representation_instance
        config = _with(_with(_with(REP_CONFIG, "d", "8"), "n", "12"), "k", "2, 20")
        with pytest.raises(
            ValueError, match=r"^config key 'k': rank k=20 must be at most min\(d, n\) = 8 for d=8$"
        ):
            parse_config(config)

    @pytest.mark.parametrize(
        "base, d, k, s, cell_error, message", FAILING_GRID_POINTS,
        ids=["s-above-d", "diag-s-above-d", "k-at-least-d", "k-plus-s-above-quarter-d"],
    )
    def test_grid_point_every_cell_fails_is_named(self, base, d, k, s, cell_error, message):
        text = _with(_with(_with(base, "d", str(d)), "k", str(k)), "s", s)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(text)
        # run_sweep records the failure in every cell of such a config
        config = dataclasses.replace(
            parse_config(base), d=(d,), k=(k,), s=DimensionRule.parse(s, "s")
        )
        records = run_sweep(config)
        assert records and all(r.error == cell_error for r in records)

    def test_bad_bias_fails_fast(self):
        with pytest.raises(ValueError):
            parse_config(
                "task = diagnostics\nd = 10\nk = 1\ns = 2\nseeds = 0\nbias = nope:a=1"
            )


class TestRunSweep:
    def test_rep_sweep_produces_full_grid(self):
        records = run_sweep(parse_config(REP_CONFIG))
        assert len(records) == 4  # 2 dims x 2 seeds
        for record in records:
            assert record.error is None, record.error
            assert record.n == 2 * record.d
            assert record.frob_err_sq > 0.0
            assert record.rep_bound > 0.0
            assert record.sin_theta <= record.procrustes_err + 1e-10
            assert record.wall_time_ms > 0.0

    def test_recovery_sweep(self):
        records = run_sweep(parse_config(RECOVERY_CONFIG))
        assert len(records) == 2
        for record in records:
            assert record.error is None, record.error
            assert record.s == 3
            assert record.converged
            assert record.mu == pytest.approx(0.5, abs=1e-6)
            assert record.recovery_error < 1.0

    def test_diag_sweep(self):
        records = run_sweep(parse_config(DIAG_CONFIG))
        assert len(records) == 1
        assert records[0].diag_violations == 0
        assert records[0].diag_min_ratio >= 1.0

    @pytest.mark.parametrize("config", [REP_CONFIG, RECOVERY_CONFIG], ids=["rep", "recovery"])
    def test_cell_runner_is_called_through_its_module_attribute(self, config, monkeypatch):
        # the benchmark times its setup up to the first cell by rebinding these
        # attributes, and puts the originals back within that cell
        name = "_run_rep_cell" if "rep_learning" in config else "_run_recovery_cell"
        original = getattr(harness, name)
        calls = {"counting": 0, "restoring": 0}

        def counting(*args):
            calls["counting"] += 1
            return original(*args)

        def restoring(*args):
            calls["restoring"] += 1
            monkeypatch.setattr(harness, name, original)
            return original(*args)

        monkeypatch.setattr(harness, name, counting)
        records = run_sweep(parse_config(config))
        assert calls["counting"] == len(records) and all(r.error is None for r in records)
        monkeypatch.setattr(harness, name, restoring)
        assert run_sweep(parse_config(config)) == [
            dataclasses.replace(r, wall_time_ms=mock.ANY) for r in records
        ]
        assert calls["restoring"] == 1

    @pytest.mark.parametrize("mode", ["oracle", "agnostic"])
    def test_overflowing_observations_are_recorded(self, mode):
        # the moments of this offset are finite, but squaring the observations overflows
        config = _with(_with(RECOVERY_CONFIG, "bias", "const:value=1e200"), "lambda_mode", mode)
        records = run_sweep(parse_config(config))
        assert [r.seed for r in records] == [4, 5]
        for record in records:
            assert record.error.startswith(
                "ValueError: v is too large: its sum of squares overflows"
            ), record.error
            assert record.recovery_error is None

    def test_failing_cell_is_recorded_not_raised(self):
        config = ExperimentConfig(
            task="rep_learning",
            d=(10,),
            k=(2,),
            seeds=(0,),
            bias="const:value=0.0",  # invalid for this task
            n=DimensionRule(multiplier=2.0),
        )
        records = run_sweep(config)
        assert len(records) == 1
        assert "distributional" in records[0].error


class TestSweepMoments:
    """A recovery or diagnostics sweep computes its bias law's moments once for all its cells."""

    # the keys in another order and the numbers in another form than the
    # instances store them, so each cell's spec takes a nontrivial round trip
    CONFIG = RECOVERY_CONFIG.replace("const:value=0.0", "gauss:std=.5,mean=1e-1").replace(
        "seeds = 4, 5", "seeds = 4, 5, 6, 7"
    )

    @staticmethod
    def _counted(monkeypatch) -> list:
        calls = []
        original = harness.make_nonlinearity_stats

        def counting(bias):
            calls.append(bias)
            return original(bias)

        monkeypatch.setattr(harness, "make_nonlinearity_stats", counting)
        return calls

    def test_four_cells_compute_the_moments_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        records = run_sweep(parse_config(self.CONFIG))
        assert len(records) == 4 and all(r.error is None for r in records)
        assert calls == [BiasModel.gaussian(0.1, 0.5)]

    def test_four_diagnostics_cells_compute_the_moments_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        config = _with(_with(DIAG_CONFIG, "seeds", "0, 1, 2, 3"), "bias", "gauss:mean=0,std=1")
        records = run_sweep(parse_config(config))
        assert len(records) == 4 and all(r.error is None for r in records)
        assert calls == [BiasModel.gaussian()]
        assert {r.mu for r in records} == {make_nonlinearity_stats(BiasModel.gaussian()).mu}

    def test_rows_match_cells_scored_on_their_own_instances(self, tmp_path):
        config = parse_config(self.CONFIG)
        records = run_sweep(config)
        alone = []
        for record in records:
            instance = generate_recovery_instance(
                record.d, record.k, record.s, config.delta, config.outlier_magnitude,
                parse_bias_spec(config.bias), record.seed,
            )
            assert instance.bias == "gauss:mean=0.1,std=0.5"
            stats = make_nonlinearity_stats(parse_bias_spec(instance.bias))
            outcome = recover_and_evaluate(instance, stats, config.lambda_mode)
            alone.append(dataclasses.replace(
                record, recovery_error=outcome.error, recovery_bound=outcome.bound,
                mu=stats.mu, lambda_used=outcome.lam,
                iterations=outcome.solution.iterations, converged=outcome.solution.converged,
            ))
        emit_results(records, tmp_path / "sweep")
        emit_results(alone, tmp_path / "alone")
        for name in ("results.csv", "summary.json"):
            assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    @pytest.mark.parametrize("base", [RECOVERY_CONFIG, DIAG_CONFIG], ids=["recovery", "diagnostics"])
    def test_failing_moments_raise_before_any_cell(self, base, monkeypatch):
        # parse_config accepts the law, but its spread is lost in rounding at its mean
        config = parse_config(_with(base, "bias", "gauss:mean=1e17,std=1"))
        calls = self._counted(monkeypatch)
        runners = []
        for name in ("_run_recovery_cell", "_run_diag_cell"):
            monkeypatch.setattr(harness, name, lambda *args, name=name: runners.append(name))
        with pytest.raises(ValueError) as caught:
            run_sweep(config)
        assert str(caught.value) == (
            "config key 'bias': the quadrature masses of bias law gauss:mean=1e+17,std=1.0 "
            "sum to 0.0, not 1"
        )
        assert len(calls) == 1 and runners == []


class TestReconstructAndEvaluate:
    def test_basis_of_a_scores_like_the_svd_of_m(self):
        # colspace(M) = colspace(A); the scores depend only on the spans
        model = BiasModel.gaussian()
        inst = generate_representation_instance(40, 80, 3, 1.0, model, seed=7)
        outcome = reconstruct_and_evaluate(inst, model, 1.0, inst.realized_nu, "midpoint")
        U, _, _ = truncated_svd(inst.M, 3)
        assert outcome.sin_theta == pytest.approx(sin_theta_distance(U, outcome.u_hat), rel=1e-10)
        _, procrustes_err = procrustes_align(U, outcome.u_hat)
        assert outcome.procrustes_err == pytest.approx(procrustes_err, rel=1e-10)
        m_hat = outcome.estimate.m_hat
        assert outcome.frob_err_sq == float(np.linalg.norm(inst.M - m_hat) ** 2)
        np.testing.assert_allclose(outcome.u_hat, truncated_svd(m_hat, 3)[0])

    @pytest.mark.parametrize("d", [100, 400])
    @pytest.mark.parametrize("bias", ["exp:rate=1.0,shift=-2.0", "gauss:mean=0.0,std=1.0"])
    def test_scores_match_a_full_svd_oracle(self, bias, d):
        # the many constant -gamma rows of m_hat are merged inside truncated_svd
        model = BiasModel.from_config(bias)
        inst = generate_representation_instance(d, 2 * d, 5, 1.0, model, seed=d + 1)
        outcome = reconstruct_and_evaluate(inst, model, 1.0, inst.realized_nu, "midpoint")
        U = np.linalg.qr(inst.A)[0]
        U_hat = np.linalg.svd(outcome.estimate.m_hat, full_matrices=False)[0][:, :5]
        _, procrustes_err = procrustes_align(U, U_hat)
        assert outcome.sin_theta == pytest.approx(sin_theta_distance(U, U_hat), rel=1e-12)
        assert outcome.procrustes_err == pytest.approx(procrustes_err, rel=1e-12)


@pytest.mark.parametrize(
    "s, delta, message",
    [
        (-1, 0.0, r"outlier count s=-1 must lie in \[0, d=40\]"),
        (41, 0.0, r"outlier count s=41 must lie in \[0, d=40\]"),
        (2, -1.0, "noise level delta must be nonnegative and finite, got -1.0"),
        (2, float("nan"), "noise level delta must be nonnegative and finite, got nan"),
    ],
    ids=["s-negative", "s-above-d", "delta-negative", "delta-nan"],
)
def test_restricted_cone_check_rejects_bad_setting(s, delta, message):
    # a negative s once ran with an empty support, and a NaN delta made every budget test false
    with pytest.raises(ValueError, match=message):
        restricted_cone_check(40, 2, s, delta, make_nonlinearity_stats(0.0), 10, seed=0)


class TestEmitResults:
    def test_csv_layout_and_summary(self, tmp_path):
        records = run_sweep(parse_config(REP_CONFIG))
        target = emit_results(records, tmp_path / "out")
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 5
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        key = "d=20,n=40,k=2,s=None"
        assert key in summary
        assert summary[key]["frob_err_sq"]["count"] == 2
        assert "frob_err_sq_over_bound" in summary[key]
        timings = (tmp_path / "out" / "timings.csv").read_text().splitlines()
        assert len(timings) == 5

    def test_refuses_overwrite_without_force(self, tmp_path):
        records = run_sweep(parse_config(DIAG_CONFIG))
        emit_results(records, tmp_path / "out")
        with pytest.raises(FileExistsError):
            emit_results(records, tmp_path / "out")
        emit_results(records, tmp_path / "out", force=True)

    def test_identical_sweeps_are_byte_identical(self, tmp_path):
        config = parse_config(RECOVERY_CONFIG)
        emit_results(run_sweep(config), tmp_path / "a")
        emit_results(run_sweep(config), tmp_path / "b")
        for name in ("results.csv", "summary.json"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"

    def test_wall_time_stays_out_of_results(self):
        assert "wall_time_ms" not in RESULT_COLUMNS
