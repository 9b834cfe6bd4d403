"""Tests for config parsing, sweeps, and result emission."""

import csv
import dataclasses
import itertools
import json
import math
import re
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from relurec import harness
from relurec import bias as bias_module
from relurec.cli import cli_dispatch
from relurec.bias import (
    BiasModel,
    compute_bias_constants,
    flatness_beta,
    lipschitz_L,
    parse_bias_spec,
)
from relurec.generate import generate_recovery_instance, generate_representation_instance
from relurec.harness import (
    RESULT_COLUMNS,
    ExperimentConfig,
    emit_results,
    parse_config,
    reconstruct_and_evaluate,
    recover_and_evaluate,
    TASK_KEYS,
    run_sweep,
)
from relurec.lasso import (
    LassoConfig,
    agnostic_lambda,
    check_restricted_lower_bound,
    make_nonlinearity_stats,
    solve_robust_lasso,
)
from relurec.replearn import theoretical_rep_bound
from relurec.subspace import truncated_svd

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

# the restricted-cone check that the diagnostics task once ran: a recovery with the cone
# check, under the agnostic penalty that task used
DIAG_CONFIG = """
task = robust_recovery
d = 200
k = 5
s = 10
bias = const:value=0.0
lambda_mode = agnostic
cone_check = true
seeds = 0
"""


class TestKeyDeclarations:
    """Each config key is declared once, as a field of ``ExperimentConfig``."""

    def test_every_field_has_a_parser(self):
        for f in dataclasses.fields(ExperimentConfig):
            assert callable(f.metadata.get("parse")), f.name

    def test_every_default_passes_its_parser(self):
        # each default written as results.csv writes a value
        for f in dataclasses.fields(ExperimentConfig):
            if f.default not in (dataclasses.MISSING, None):
                assert f.metadata["parse"](harness._format_cell(f.default)) == f.default, f.name

    def test_required_keys_are_the_fields_without_default(self):
        assert harness._REQUIRED_KEYS == ("task", "d", "k", "seeds", "bias")

    def test_every_task_key_is_a_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for task, keys in TASK_KEYS.items():
            assert set(keys) <= names, task


class TestDimensionRule:
    """Dimension rules as ``parse_config`` reads them."""

    def test_explicit_list(self):
        rule = parse_config(_with(REP_CONFIG, "n", "10, 20")).n
        assert rule.resolve(5) == (10, 20)

    def test_multiplier_rounds_up(self):
        rule = parse_config(_with(RECOVERY_CONFIG, "s", "0.02d")).s
        assert rule.resolve(150) == (3,)
        assert rule.resolve(151) == (4,)

    def test_integer_multiplier(self):
        assert parse_config(_with(REP_CONFIG, "n", "2d")).n.resolve(25) == (50,)

    @pytest.mark.parametrize(
        "key, rule, d, value",
        [
            ("s", "0.07d", 100, 7), ("s", "0.14d", 100, 14), ("n", "1.1d", 100, 110),
            ("n", "2.2d", 100, 220), ("s", "0.07d", 101, 8), ("n", "1.1d", 101, 112),
            ("s", "1e-2d", 100, 1), ("s", "0.001d", 999, 1), ("s", "0d", 50, 0),
            ("n", "1e2d", 3, 300), ("n", "1.5e1d", 2, 30), ("s", "2e-05d", 100001, 3),
            ("n", "1e16d", 3, 3 * 10**16),
        ],
    )
    def test_a_decimal_multiple_is_exact(self, key, rule, d, value):
        # the product of floats rounds 0.07 * 100 up to 8 and 1.1 * 100 up to 111
        config = REP_CONFIG if key == "n" else RECOVERY_CONFIG
        assert getattr(parse_config(_with(config, key, rule)), key).resolve(d) == (value,)

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="'n'"):
            parse_config(_with(REP_CONFIG, "n", "abc"))


# values a sweep rejects before its first cell, naming the key; each range case would fail
# every cell of the sweep or, like a negative s, run it on a setting that means nothing
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
    (RECOVERY_CONFIG, "cone_check", "yes"),
    (RECOVERY_CONFIG, "cone_check", "True"),
]


def _without(config: str, key: str) -> str:
    """``config`` with no line that sets ``key``."""
    lines = [line for line in config.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(lines) + "\n"


def _with(config: str, key: str, value: str) -> str:
    """``config`` with ``key`` set to ``value``."""
    return _without(config, key) + f"{key} = {value}\n"


# a config of each task, and the recovery with the cone check that replaced the diagnostics task
CONFIGS = {
    "rep_learning": REP_CONFIG, "robust_recovery": RECOVERY_CONFIG, "diagnostics": DIAG_CONFIG,
}
TASK_OF = {name: parse_config(text).task for name, text in CONFIGS.items()}

# a value each task-specific key accepts
VALID_VALUES = {
    "n": "2d", "s": "1", "gamma": "0.5", "nu": "0.5", "fill_strategy": "upper_boundary",
    "delta": "0.01", "outlier_magnitude": "3", "lambda_mode": "agnostic", "cone_check": "true",
}

# every (config, key) pair of a key that only other tasks read
OTHER_TASK_KEYS = [
    (name, key) for name, task in TASK_OF.items() for key in VALID_VALUES
    if key not in TASK_KEYS[task]
]


# grid points on which every cell fails: the config, its d, k and s, the error
# each cell records, and the message of the sweep's check before its first cell
FAILING_GRID_POINTS = [
    (
        RECOVERY_CONFIG, 100, 3, "2d",
        "ValueError: s must be at most d = 100, got 200",
        "config key 's': s must be at most d = 100, got 200",
    ),
    (
        DIAG_CONFIG, 40, 2, "41",
        "ValueError: s must be at most d = 40, got 41",
        "config key 's': s must be at most d = 40, got 41",
    ),
    (
        RECOVERY_CONFIG, 8, 10, "0",
        "RankDeficiencyError: k must be at most d - 1 = 7, got 10",
        "config key 'k': k must be at most d - 1 = 7, got 10",
    ),
    (
        DIAG_CONFIG, 40, 8, "4",
        "ValueError: k + |S| must be at most d/4 = 10.0, got 12",
        "config key 'cone_check': k + |S| must be at most d/4 = 10.0, got 12",
    ),
]

# the configs a sweep rejects before its first cell, with the key its message names
REJECTED_CONFIGS = [
    *((_with(config, key, value), key) for config, key, value in BAD_VALUES),
    (_with(_with(_with(REP_CONFIG, "d", "8"), "n", "12"), "k", "2, 20"), "k"),
    *(
        (_with(_with(_with(base, "d", str(d)), "k", str(k)), "s", s), message.split("'")[1])
        for base, d, k, s, _, message in FAILING_GRID_POINTS
    ),
]


def _refuse(*args):
    raise RuntimeError("the cell ran")


def _sweep_to_first_cell(text: str) -> list[dict]:
    """``run_sweep(parse_config(text))`` with cell runners that refuse to run."""
    with mock.patch.multiple(harness, _run_rep_cell=_refuse, _run_recovery_cell=_refuse):
        return run_sweep(parse_config(text))


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

    @pytest.mark.parametrize("name", CONFIGS)
    def test_a_sample_count_is_an_unknown_key(self, name):
        # the cone check searches for its worst pair, so it takes no sample count
        with pytest.raises(ValueError, match=r"^unknown config keys \['diag_samples'\]$"):
            parse_config(CONFIGS[name] + "diag_samples = 20\n")

    def test_duplicate_key_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("task = robust_recovery\ntask = robust_recovery")

    def test_task_needs_matching_dimension_rule(self):
        with pytest.raises(ValueError, match="'n'"):
            parse_config(
                "task = rep_learning\nd = 10\nk = 1\nseeds = 0\nbias = gauss:mean=0,std=1"
            )

    @pytest.mark.parametrize(
        "config, key",
        [(REP_CONFIG, "s = 1, 2, 3"), (RECOVERY_CONFIG, "n = 100, 300"),
         pytest.param(DIAG_CONFIG, "n = 2d", id="cone_check-n")]
        + [
            pytest.param(CONFIGS[name], f"{key} = {VALID_VALUES[key]}", id=f"{name}-{key}")
            for name, key in OTHER_TASK_KEYS if key not in ("n", "s")
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

    @pytest.mark.parametrize(
        "task, key, value",
        [("robust_recovery", "seeds", "4, 4"), ("robust_recovery", "d", "150, 160, 150"),
         ("robust_recovery", "k", "3, 03"), ("rep_learning", "n", "60, 60"),
         ("robust_recovery", "s", "2, 2")],
        ids=["seeds", "d", "k", "n", "s"],
    )
    def test_repeated_value_is_named(self, task, key, value):
        # a repeat would run the same cells again, and summary.json would count each row
        repeated = int(value.split(",")[0])
        with pytest.raises(
            ValueError, match=f"^config key '{key}': (bad list .*: )?value {repeated} is repeated$"
        ):
            parse_config(_with(CONFIGS[task], key, value))

    @pytest.mark.parametrize("name", CONFIGS)
    def test_keys_of_the_task_are_accepted(self, name):
        task = TASK_OF[name]
        for key in TASK_KEYS[task]:
            config = parse_config(_with(CONFIGS[name], key, VALID_VALUES[key]))
            assert config.task == task

    @pytest.mark.parametrize("name", CONFIGS)
    def test_grid_dimension_is_required(self, name):
        task = TASK_OF[name]
        dimension = TASK_KEYS[task][0]
        with pytest.raises(
            ValueError, match=f"^config key '{dimension}' is required for task {task}$"
        ):
            parse_config(_without(CONFIGS[name], dimension))

    @pytest.mark.parametrize(
        "config, key, value", BAD_VALUES, ids=[f"{key}={value}" for _, key, value in BAD_VALUES]
    )
    def test_value_every_cell_would_reject_is_named(self, config, key, value):
        with pytest.raises(ValueError, match=f"^config key '{key}': "):
            _sweep_to_first_cell(_with(config, key, value))

    def test_rank_above_min_d_n_is_named(self):
        # every cell with k = 20 would fail in generate_representation_instance
        config = _with(_with(_with(REP_CONFIG, "d", "8"), "n", "12"), "k", "2, 20")
        with pytest.raises(
            ValueError, match=r"^config key 'k': k must be at most min\(d, n\) = 8, got 20$"
        ):
            _sweep_to_first_cell(config)

    @pytest.mark.parametrize(
        "base, d, k, s, cell_error, message", FAILING_GRID_POINTS,
        ids=["s-above-d", "diag-s-above-d", "k-at-least-d", "k-plus-s-above-quarter-d"],
    )
    def test_grid_point_every_cell_fails_is_named(self, base, d, k, s, cell_error, message):
        text = _with(_with(_with(base, "d", str(d)), "k", str(k)), "s", s)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _sweep_to_first_cell(text)
        # the cell records the same message, under the type of its error
        config = parse_config(text)
        stats = make_nonlinearity_stats(parse_bias_spec(config.bias))
        for seed in config.seeds:
            with pytest.raises(ValueError) as caught:
                harness._run_recovery_cell(
                    config, parse_bias_spec(config.bias), stats, d, k, config.s.resolve(d)[0], seed
                )
            assert f"{type(caught.value).__name__}: {caught.value}" == cell_error
            assert message.endswith(f": {caught.value}")

    @pytest.mark.parametrize(
        "text, key", REJECTED_CONFIGS,
        ids=[f"{key}-{i}" for i, (_, key) in enumerate(REJECTED_CONFIGS)],
    )
    def test_a_sweep_command_exits_one_before_any_cell(self, text, key, tmp_path, capsys):
        config, out = tmp_path / "sweep.cfg", tmp_path / "out"
        config.write_text(text)
        with mock.patch.multiple(harness, _run_rep_cell=_refuse, _run_recovery_cell=_refuse):
            assert cli_dispatch(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
        assert not out.exists()

    def test_bad_bias_fails_fast(self):
        with pytest.raises(ValueError):
            parse_config(
                "task = robust_recovery\nd = 10\nk = 1\ns = 2\nseeds = 0\nbias = nope:a=1"
            )


# the config key a sweep names for each rule between grid dimensions, by the count it bounds
RULE_KEYS = {"k": "k", "s": "s", "k + |S|": "cone_check"}
RULE = re.compile(r"^(k|s|k \+ \|S\|) must be at most ")


def _first_broken_rule(config: ExperimentConfig) -> str | None:
    """The message of the first rule between grid dimensions that a library call of a cell
    breaks, in the order of the cells, after the config key it names; None if none breaks."""
    model = parse_bias_spec(config.bias)
    rep = config.task == "rep_learning"
    for d in config.d:
        n_values, s_values = (config.n.resolve(d), (0,)) if rep else ((0,), config.s.resolve(d))
        for n, k, s in itertools.product(n_values, config.k, s_values):
            try:
                if rep:
                    generate_representation_instance(d, n, k, config.gamma, model, 0)
                    continue
                instance = generate_recovery_instance(
                    d, k, s, config.delta, config.outlier_magnitude, model, 0
                )
                if config.cone_check:
                    check_restricted_lower_bound(
                        instance.A, lam=1.0, sigma=1.0, eta=1.0,
                        support=np.flatnonzero(instance.e_star),
                    )
                solve_robust_lasso(instance.v, instance.A, LassoConfig(lam=1.0, max_iter=1))
            except Exception as exc:  # noqa: BLE001 - a cell records any error
                rule = RULE.match(str(exc))
                if rule:
                    return f"config key '{RULE_KEYS[rule[1]]}': {exc}"
    return None


def _values(values: st.SearchStrategy, rules: list[str]) -> st.SearchStrategy:
    """A dimension key: a list of distinct ``values`` or one of the multiples of d ``rules``."""
    lists = st.lists(values, min_size=1, max_size=3, unique=True)
    return st.one_of(lists.map(lambda xs: ", ".join(map(str, xs))), st.sampled_from(rules))


class TestSweepPreflight:
    """A sweep checks its grid points with the rules of its cells' library calls."""

    @given(
        data=st.data(),
        rep=st.booleans(),
        d=_values(st.integers(1, 60), ["60"]),
        k=_values(st.integers(1, 60), ["1"]),
    )
    def test_a_sweep_stops_before_its_cells_exactly_where_one_would_break_a_rule(
        self, data, rep, d, k
    ):
        text = _with(_with(REP_CONFIG if rep else RECOVERY_CONFIG, "d", d), "k", k)
        if rep:
            n = data.draw(_values(st.integers(1, 120), ["0.5d", "1.1d", "2d"]), label="n")
            text = _with(text, "n", n)
        else:
            s = data.draw(_values(st.integers(0, 60), ["0.07d", "0.3d", "1.1d"]), label="s")
            text = _with(text, "s", s)
            for key, values in (("cone_check", ["false", "true"]), ("outlier_magnitude", ["5", "0"])):
                text = _with(text, key, data.draw(st.sampled_from(values), label=key))
        expected = _first_broken_rule(parse_config(text))
        if expected is None:  # each cell reaches its runner, which refuses
            records = _sweep_to_first_cell(text)
            assert records and all(r["error"] == "RuntimeError: the cell ran" for r in records)
        else:
            with pytest.raises(ValueError) as caught:
                _sweep_to_first_cell(text)
            assert str(caught.value) == expected


def _sweep_recording_instances(config: ExperimentConfig) -> tuple[list[dict], list]:
    """The rows of ``run_sweep(config)`` and the recovery instance each cell generated."""
    made = []

    def recording(*args):
        made.append(generate_recovery_instance(*args))
        return made[-1]

    with mock.patch.object(harness, "generate_recovery_instance", recording):
        return run_sweep(config), made


def _cone_check(instance, lam: float, law: str) -> tuple[int, int, float]:
    """The cone check of ``instance`` at ``lam``: its outlier support and ``||A^T w||_inf``."""
    stats = make_nonlinearity_stats(parse_bias_spec(law))
    return check_restricted_lower_bound(
        instance.A, lam=lam, sigma=stats.sigma, eta=stats.eta,
        support=np.flatnonzero(instance.e_star),
        delta_norm=float(np.abs(instance.A.T @ instance.w).max()),
    )


class TestRunSweep:
    def test_rep_sweep_produces_full_grid(self):
        records = run_sweep(parse_config(REP_CONFIG))
        assert len(records) == 4  # 2 dims x 2 seeds
        for record in records:
            assert record["error"] is None, record["error"]
            assert record["n"] == 2 * record["d"]
            assert record["frob_err_sq"] > 0.0
            assert record["rep_bound"] > 0.0
            assert record["sin_theta"] <= record["procrustes_err"] + 1e-10
            assert record["wall_time_ms"] > 0.0

    def test_recovery_sweep(self):
        records = run_sweep(parse_config(RECOVERY_CONFIG))
        assert len(records) == 2
        for record in records:
            assert record["error"] is None, record["error"]
            assert record["s"] == 3
            assert record["converged"]
            assert record["mu"] == pytest.approx(0.5, abs=1e-6)
            assert record["recovery_error"] < 1.0

    def test_diag_sweep(self, tmp_path):
        records = run_sweep(parse_config(_with(DIAG_CONFIG, "seeds", "0, 1, 2")))
        assert len(records) == 3 and all(r["error"] is None for r in records)
        assert [r["diag_violations"] for r in records] == [0, 0, 0]
        assert min(r["diag_min_ratio"] for r in records) >= 1.0
        emit_results(records, tmp_path)
        [entry] = json.loads((tmp_path / "summary.json").read_text()).values()
        assert entry["diag_violations"] == {"median": 0.0, "iqr": 0.0, "count": 3}
        assert entry["diag_min_ratio"] == harness._quartiles([r["diag_min_ratio"] for r in records])

    def test_diag_cell_checks_the_design_of_the_recovery_cell(self):
        # the cone check scores the A, w and outlier support that its cell solves, under
        # the agnostic penalty in an agnostic sweep, as the diagnostics task once did
        law = "gauss:mean=0.0,std=1.0"
        config = parse_config(_with(_with(DIAG_CONFIG, "bias", law), "delta", "0.01"))
        [record], [cell] = _sweep_recording_instances(config)
        lam = agnostic_lambda(200, make_nonlinearity_stats(parse_bias_spec(law)).sigma, 0.01)
        _, violations, min_ratio = _cone_check(cell, lam, law)
        assert record["error"] is None, record["error"]
        assert (record["lambda_used"], record["diag_violations"], record["diag_min_ratio"]) == (
            lam, violations, min_ratio
        )
        assert (record["s"], np.count_nonzero(cell.e_star)) == (10, 10)

    @given(
        d=st.integers(40, 400),
        data=st.data(),
        seed=st.integers(0, 10**6),
        lambda_mode=st.sampled_from(["oracle", "agnostic"]),
        law=st.sampled_from(["const:value=0.0", "gauss:mean=0.0,std=1.0"]),
        delta=st.sampled_from([0.0, 0.01]),
    )
    def test_the_cone_check_adds_its_columns_and_moves_no_other(
        self, d, data, seed, lambda_mode, law, delta
    ):
        k = data.draw(st.integers(1, d // 8), label="k")
        s = data.draw(st.integers(0, d // 4 - k), label="s")
        text = (
            f"task = robust_recovery\nd = {d}\nk = {k}\ns = {s}\nseeds = {seed}\n"
            f"bias = {law}\ndelta = {delta}\nlambda_mode = {lambda_mode}\n"
        )
        [plain] = run_sweep(parse_config(text))
        [checked], [cell] = _sweep_recording_instances(parse_config(text + "cone_check = true\n"))
        assert checked["error"] is None, checked["error"]
        diag = ("diag_violations", "diag_min_ratio")
        for name in RESULT_COLUMNS["robust_recovery"]:
            if name not in diag:  # bit for bit: repr round-trips a float
                assert repr(checked[name]) == repr(plain[name]), name
        assert (plain["diag_violations"], plain["diag_min_ratio"]) == (None, None)
        _, violations, min_ratio = _cone_check(cell, checked["lambda_used"], law)
        assert (checked["diag_violations"], repr(checked["diag_min_ratio"])) == (
            violations, repr(min_ratio)
        )

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
        assert calls["counting"] == len(records) and all(r["error"] is None for r in records)
        monkeypatch.setattr(harness, name, restoring)
        assert run_sweep(parse_config(config)) == [r | {"wall_time_ms": mock.ANY} for r in records]
        assert calls["restoring"] == 1

    @pytest.mark.parametrize("mode", ["oracle", "agnostic"])
    def test_overflowing_observations_are_recorded(self, mode):
        # the moments of this offset are finite, but squaring the observations overflows
        config = _with(_with(RECOVERY_CONFIG, "bias", "const:value=1e200"), "lambda_mode", mode)
        records = run_sweep(parse_config(config))
        assert [r["seed"] for r in records] == [4, 5]
        for record in records:
            assert record["error"].startswith(
                "ValueError: v is too large: its sum of squares overflows"
            ), record["error"]
            assert record["recovery_error"] is None

    def test_failing_cell_is_recorded_not_raised(self):
        # a window of 1.9 leaves some row of each instance without a feasible shift
        records = run_sweep(parse_config(_with(REP_CONFIG, "nu", "1.9")))
        assert len(records) == 4
        assert all(r["error"].startswith("InfeasibleRowError: row ") for r in records)
        assert all(r["frob_err_sq"] is None for r in records)


class TestSweepMoments:
    """A recovery sweep, with or without the cone check, computes its bias law's moments once."""

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
        assert len(records) == 4 and all(r["error"] is None for r in records)
        assert calls == [BiasModel.gaussian(0.1, 0.5)]

    def test_four_diagnostics_cells_compute_the_moments_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        config = _with(_with(DIAG_CONFIG, "seeds", "0, 1, 2, 3"), "bias", "gauss:mean=0,std=1")
        records = run_sweep(parse_config(config))
        assert len(records) == 4 and all(r["error"] is None for r in records)
        assert calls == [BiasModel.gaussian()]
        assert {r["mu"] for r in records} == {make_nonlinearity_stats(BiasModel.gaussian()).mu}

    def test_rows_match_cells_scored_on_their_own_instances(self, tmp_path):
        config = parse_config(self.CONFIG)
        records = run_sweep(config)
        alone = []
        for record in records:
            instance = generate_recovery_instance(
                record["d"], record["k"], record["s"], config.delta, config.outlier_magnitude,
                parse_bias_spec(config.bias), record["seed"],
            )
            assert instance.bias == "gauss:mean=0.1,std=0.5"
            stats = make_nonlinearity_stats(parse_bias_spec(instance.bias))
            outcome = recover_and_evaluate(instance, stats, config.lambda_mode)
            alone.append(record | outcome.metrics())
        emit_results(records, tmp_path / "sweep")
        emit_results(alone, tmp_path / "alone")
        for name in ("results.csv", "summary.json"):
            assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    @pytest.mark.parametrize("base", [RECOVERY_CONFIG, DIAG_CONFIG], ids=["recovery", "diagnostics"])
    def test_failing_moments_raise_before_any_cell(self, base, monkeypatch):
        # parse_config accepts the law, but its spread is lost in rounding at its mean
        config = parse_config(_with(base, "bias", "logistic:loc=1e17,scale=1"))
        calls = self._counted(monkeypatch)
        runners = []
        monkeypatch.setattr(harness, "_run_recovery_cell", lambda *args: runners.append(args))
        with pytest.raises(ValueError) as caught:
            run_sweep(config)
        assert str(caught.value) == (
            "config key 'bias': the quadrature masses of bias law logistic:loc=1e+17,scale=1.0 "
            "sum to 3.954713149884052, not 1"
        )
        assert len(calls) == 1 and runners == []

    # the rectifier's output, and so sigma, is 0 in floating point under each law
    ZERO_SIGMA_CONFIGS = [
        _with(DIAG_CONFIG, "bias", "const:value=-40"),
        _with(_with(_with(RECOVERY_CONFIG, "bias", "gauss:mean=-1000,std=1"), "delta", "0"),
              "lambda_mode", "agnostic"),
    ]

    @pytest.mark.parametrize("text", ZERO_SIGMA_CONFIGS, ids=["diagnostics", "agnostic-recovery"])
    def test_zero_agnostic_penalty_raises_before_any_cell(self, text, monkeypatch):
        # each cell once recorded a ZeroDivisionError or a rejected lam of 0.0
        runners = []
        monkeypatch.setattr(harness, "_run_recovery_cell", lambda *args: runners.append(args))
        config = parse_config(text)
        with pytest.raises(ValueError) as caught:
            run_sweep(config)
        assert str(caught.value) == (
            f"config key 'bias': the agnostic penalty at d={config.d[0]} is 0 in floating point, "
            "from the rectifier's noise moment sigma=0.0 and the noise level delta=0.0"
        )
        assert runners == []

    def test_oracle_sweep_runs_where_the_agnostic_penalty_is_zero(self):
        text = _with(self.ZERO_SIGMA_CONFIGS[1], "lambda_mode", "oracle")
        records = run_sweep(parse_config(text))
        assert records and all(r["error"] is None for r in records)


class TestRepSweepConstants:
    """A rep sweep evaluates its law's flatness and steepness once; each cell, its window mass."""

    # a law of each family; the Gaussian's mode lies inside [-1, 1], so its flatness is 0
    LAWS = ["exp:rate=1,shift=-2", "logistic:loc=-1.5,scale=0.5", "gauss:mean=0.2,std=1.5"]

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("nu", [None, "0.05"], ids=["realized-nu", "fixed-nu"])
    def test_rep_bound_is_that_of_the_cells_constants(self, law, nu, tmp_path):
        text = _with(REP_CONFIG, "bias", law)
        config = parse_config(text if nu is None else f"{text}nu = {nu}\n")
        records = run_sweep(config)
        assert len(records) == 4 and all(r["error"] is None for r in records)
        model = parse_bias_spec(law)
        for record in records:
            constants = compute_bias_constants(model, config.gamma, record["nu"])
            bound = theoretical_rep_bound(constants, record["d"])
            assert record["rep_bound"] == (bound if math.isfinite(bound) else None)
            assert constants.vacuous == law.startswith("gauss")
        if law.startswith("gauss"):
            emit_results(records, tmp_path)
            with (tmp_path / "results.csv").open(newline="") as fh:
                assert {row["rep_bound"] for row in csv.DictReader(fh)} == {""}

    @staticmethod
    def _count_constants(monkeypatch) -> dict[str, int]:
        """Count the calls of each rep constant, through ``relurec.bias`` and the harness."""
        calls = {"flatness_beta": 0, "lipschitz_L": 0, "omega_min_mass": 0}

        def counted(name, original):
            def counting(*args):
                calls[name] += 1
                return original(*args)
            return counting

        for name in calls:
            wrapper = counted(name, getattr(bias_module, name))
            monkeypatch.setattr(bias_module, name, wrapper)
            monkeypatch.setattr(harness, name, wrapper, raising=False)
        return calls

    def test_flatness_and_steepness_do_not_grow_with_the_seeds(self, monkeypatch):
        calls = self._count_constants(monkeypatch)
        counts = []
        for seeds in ("1", "1, 2, 3"):
            calls.update(dict.fromkeys(calls, 0))
            records = run_sweep(parse_config(_with(REP_CONFIG, "seeds", seeds)))
            assert all(r["error"] is None for r in records)
            counts.append((calls["flatness_beta"], calls["lipschitz_L"], calls["omega_min_mass"]))
        # two d values: 2 and 6 cells, each evaluating the window mass of its realized nu
        assert counts == [(1, 1, 2), (1, 1, 6)]

    def test_a_sweep_command_evaluates_the_steepness_once(self, monkeypatch, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(REP_CONFIG)
        calls = self._count_constants(monkeypatch)
        argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli_dispatch(argv) == 0
        assert calls["lipschitz_L"] == 1

    def test_a_replaced_config_evaluates_its_own_steepness(self):
        # a config copied with another gamma sweeps as one parsed with it
        replaced = dataclasses.replace(parse_config(REP_CONFIG), gamma=0.5)
        parsed = parse_config(_with(REP_CONFIG, "gamma", "0.5"))
        drop_time = [{**row, "wall_time_ms": None} for row in run_sweep(replaced)]
        assert drop_time == [{**row, "wall_time_ms": None} for row in run_sweep(parsed)]
        assert all(row["error"] is None for row in drop_time)

    @pytest.mark.parametrize(
        "law, message",
        [
            ("const:value=0.0", "model must be a bias law, got 0.0"),
            ("exp:rate=1,shift=2", "density vanishes on all of [-1.0, 1.0]; flatness is undefined"),
            ("exp:rate=1,shift=-1",
             "CDF vanishes at -1.0; the hazard-type ratio p/P(B<=x) is unbounded"),
        ],
        ids=["constant", "no-mass", "no-cdf"],
    )
    def test_failing_constants_raise_before_any_cell(self, law, message, monkeypatch):
        # parse_config rejects the constant, so the config is built around each law; a law
        # that fails both constants is named by its flatness, which the sweep evaluates first
        config = dataclasses.replace(parse_config(REP_CONFIG), bias=law)
        runners = []
        monkeypatch.setattr(harness, "_run_rep_cell", lambda *args: runners.append(args))
        with pytest.raises(ValueError) as caught:
            run_sweep(config)
        assert str(caught.value) == f"config key 'bias': {message}"
        assert runners == []


def _distances_from_angles(U, W):
    """Sin-theta and Procrustes distances from the principal angles, ``2 sin(theta/2)`` each."""
    angles = subspace_angles(U, W)
    return np.linalg.norm(np.sin(angles)), np.linalg.norm(2.0 * np.sin(angles / 2.0))


def _evaluate(instance, model):
    """``reconstruct_and_evaluate`` at gamma 1, the realized separation and the midpoint fill."""
    return reconstruct_and_evaluate(
        instance, model, 1.0, instance.realized_nu, "midpoint",
        flatness_beta(model, 1.0), lipschitz_L(model, 1.0),
    )


class TestReconstructAndEvaluate:
    def test_basis_of_a_scores_like_the_svd_of_m(self):
        # colspace(M) = colspace(A); the scores depend only on the spans
        model = BiasModel.gaussian()
        inst = generate_representation_instance(40, 80, 3, 1.0, model, seed=7)
        outcome = _evaluate(inst, model)
        U, _, _ = truncated_svd(inst.M, 3)
        sin_theta, procrustes_err = _distances_from_angles(U, outcome.u_hat)
        assert outcome.sin_theta == pytest.approx(sin_theta, rel=1e-10)
        assert outcome.procrustes_err == pytest.approx(procrustes_err, rel=1e-10)
        m_hat = outcome.estimate.m_hat
        assert outcome.frob_err_sq == float(np.linalg.norm(inst.M - m_hat) ** 2)
        np.testing.assert_allclose(outcome.u_hat, truncated_svd(m_hat, 3)[0])

    @pytest.mark.parametrize("d", [100, 400])
    @pytest.mark.parametrize("bias", ["exp:rate=1.0,shift=-2.0", "gauss:mean=0.0,std=1.0"])
    def test_scores_match_a_full_svd_oracle(self, bias, d):
        # the many constant -gamma rows of m_hat are merged inside truncated_svd
        model = parse_bias_spec(bias)
        inst = generate_representation_instance(d, 2 * d, 5, 1.0, model, seed=d + 1)
        outcome = _evaluate(inst, model)
        U = np.linalg.qr(inst.A)[0]
        U_hat = np.linalg.svd(outcome.estimate.m_hat, full_matrices=False)[0][:, :5]
        sin_theta, procrustes_err = _distances_from_angles(U, U_hat)
        assert outcome.sin_theta == pytest.approx(sin_theta, rel=1e-12)
        assert outcome.procrustes_err == pytest.approx(procrustes_err, rel=1e-12)


def _percentile_quartiles(values):
    """The summary entry of ``values`` with the quartiles of ``np.percentile``: the reference."""
    with np.errstate(all="ignore"):  # inf - inf inside numpy's interpolation
        q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25.0, 50.0, 75.0])
        return {"median": float(q2), "iqr": float(q3 - q1), "count": len(values)}


def _same_float(a: float, b: float) -> bool:
    """``a`` and ``b`` are the same double bit for bit, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


# Signed zeros are left out: numpy's partition orders -0.0 and 0.0 arbitrarily, so the sign
# of a zero quartile is arbitrary there, and every metric the summary takes is at least 0.
SUMMARY_VALUES = st.lists(
    st.one_of(
        st.sampled_from([
            0.0, 5e-324, 1e-310, 1.0, math.inf, -math.inf, math.nan,
            sys.float_info.max, -sys.float_info.max,
        ]),
        st.floats(allow_subnormal=True).filter(lambda x: math.copysign(1.0, x) > 0.0 or x != 0.0),
    ),
    min_size=1, max_size=60,
)


class TestQuartiles:
    """``summary.json`` takes its quartiles by numpy's default rule, on Python floats."""

    @settings(max_examples=1000)
    @given(SUMMARY_VALUES)
    def test_matches_np_percentile_bit_for_bit(self, values):
        # wherever numpy's value is a number; numpy meets inf - inf where an interpolation
        # weighs an infinity, and there the summary takes the limit instead
        entry, reference = harness._quartiles(values), _percentile_quartiles(values)
        for name in ("median", "iqr"):
            assert math.isnan(reference[name]) or _same_float(entry[name], reference[name])
            if math.isnan(entry[name]):  # only a NaN value or opposite infinities give NaN
                assert any(map(math.isnan, values)) or {-math.inf, math.inf} <= set(values)
        assert entry["count"] == reference["count"] == len(values)

    @settings(max_examples=1000)
    @given(
        st.lists(st.floats(-1e6, 1e6).filter(lambda x: math.copysign(1.0, x) > 0.0 or x != 0.0)),
        st.integers(1, 30),
        st.sampled_from([math.inf, -math.inf]),
    )
    def test_an_infinity_is_the_limit_of_a_growing_value(self, finite, count, infinity):
        # numpy's quartiles with each infinity replaced by +-1e300: a weight on it, at least
        # 1/4, leaves at least 2.5e299 in magnitude, the limit of which is that infinity
        values = finite + [infinity] * count
        grown = _percentile_quartiles([math.copysign(1e300, x) if math.isinf(x) else x
                                       for x in values])
        entry = harness._quartiles(values)
        for name in ("median", "iqr"):
            near = grown[name]
            limit = math.copysign(math.inf, near) if abs(near) >= 1e299 else near
            assert _same_float(entry[name], limit), name

    @pytest.mark.parametrize(
        "values, median, iqr",
        [([3.0], 3.0, 0.0), ([4.0, 1.0], 2.5, 1.5), ([1.0, 2.0, 3.0, 10.0], 2.5, 3.0),
         ([1.0, math.nan, 2.0], math.nan, math.nan), ([1.0, 1.0, 1.0, math.inf], 1.0, math.inf),
         ([1.0, math.inf], math.inf, math.inf),  # numpy's median there is inf - inf * 0.5
         ([1.0, 2.0, math.inf], 2.0, math.inf),  # numpy's median there is 2 + inf * 0
         ([math.inf, math.inf], math.inf, 0.0), ([-math.inf, 1.0], -math.inf, math.inf),
         ([-math.inf, math.inf], math.nan, math.nan)],
    )
    def test_worked_cases(self, values, median, iqr):
        entry = harness._quartiles(values)
        assert _same_float(entry["median"], median) and _same_float(entry["iqr"], iqr)

    @pytest.mark.parametrize(
        "text",
        [
            REP_CONFIG,
            _with(RECOVERY_CONFIG, "seeds", "4, 5, 6"),
            _with(DIAG_CONFIG, "seeds", "0, 1, 2"),
        ],
        ids=["rep_learning", "robust_recovery", "diagnostics"],
    )
    def test_summary_is_byte_identical_to_the_percentile_reference(
        self, text, tmp_path, monkeypatch
    ):
        records = run_sweep(parse_config(text))
        emit_results(records, tmp_path / "new")
        monkeypatch.setattr(harness, "_quartiles", _percentile_quartiles)
        emit_results(records, tmp_path / "reference")
        summary = (tmp_path / "new" / "summary.json").read_bytes()
        assert summary == (tmp_path / "reference" / "summary.json").read_bytes()
        assert b'"median"' in summary


class TestEmitResults:
    def test_csv_layout_and_summary(self, tmp_path):
        records = run_sweep(parse_config(REP_CONFIG))
        target = emit_results(records, tmp_path / "out")
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS["rep_learning"])
        assert len(lines) == 5
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        key = "d=20,n=40,k=2"
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
        for columns in RESULT_COLUMNS.values():
            assert "wall_time_ms" not in columns

    @pytest.mark.parametrize("name", CONFIGS)
    def test_each_task_writes_and_fills_only_its_own_columns(self, name, tmp_path):
        # each row once held the columns of all three tasks, most of them empty; a recovery
        # leaves the columns of the cone check empty unless it runs the check
        config = parse_config(CONFIGS[name])
        task = config.task
        records = run_sweep(config)
        assert {tuple(row) for row in records} == {(*RESULT_COLUMNS[task], "wall_time_ms")}
        target = emit_results(records, tmp_path / "out")
        with target.open(newline="") as fh:
            reader = csv.reader(fh)
            assert tuple(next(reader)) == RESULT_COLUMNS[task]
            rows = list(reader)
        assert rows
        unchecked = task == "robust_recovery" and not config.cone_check
        for row in rows:
            cells = dict(zip(RESULT_COLUMNS[task], row, strict=True))
            assert cells.pop("error") == ""
            empty = [column for column, value in cells.items() if not value]
            assert empty == (["diag_violations", "diag_min_ratio"] if unchecked else []), cells
