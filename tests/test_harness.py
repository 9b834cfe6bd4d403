"""Tests for config parsing, sweeps, and result emission."""

import json

import numpy as np
import pytest

from relurec.bias import BiasModel
from relurec.generate import generate_representation_instance
from relurec.harness import (
    RESULT_COLUMNS,
    DimensionRule,
    ExperimentConfig,
    emit_results,
    parse_config,
    reconstruct_and_evaluate,
    run_sweep,
)
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
