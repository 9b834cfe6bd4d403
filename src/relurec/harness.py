"""Config-driven experiment sweeps with stable CSV/JSON outputs.

A sweep config is a flat ``key = value`` text file (``#`` starts a
comment) describing one of three tasks:

``rep_learning``
    generate matrix instances, reconstruct them, and record error,
    bound, and subspace diagnostics;
``robust_recovery``
    generate vector instances, solve the robust recovery program, and
    record error, bound, and solver diagnostics;
``diagnostics``
    sample the restricted cone and record violation counts.

Dimension keys take either explicit comma-separated lists or rules of
the form ``<multiplier>d`` (evaluated as ``ceil(multiplier * d)``), so
``n = 2d`` and ``s = 0.02d`` track the row count.  Results go to
``results.csv`` (fixed column order, RFC-4180 quoting, shortest
round-trip decimals) plus ``summary.json`` with per-configuration
medians and interquartile ranges.  Rerunning an identical config
produces byte-identical ``results.csv`` and ``summary.json``; wall-clock
times go to a separate ``timings.csv`` so they cannot break that
guarantee.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import numpy.ma  # np.percentile loads it on its first call, which would fall in the first sweep

from .bias import BiasModel, compute_bias_constants, lipschitz_L, omega_min_mass, parse_bias_spec
from .generate import (
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
)
from .lasso import (
    LassoConfig,
    LassoSolution,
    NonlinearityStats,
    RestrictedSetReport,
    agnostic_lambda,
    check_restricted_lower_bound,
    make_nonlinearity_stats,
    oracle_lambda,
    recovery_error_and_bound,
    solve_robust_lasso,
)
from .replearn import (
    FILL_STRATEGIES,
    EstimatedMatrix,
    reconstruct_matrix,
    theoretical_rep_bound,
)
from .subspace import procrustes_align, sin_theta_distance, truncated_svd

__all__ = [
    "DimensionRule",
    "ExperimentConfig",
    "RecoveryOutcome",
    "RepOutcome",
    "ResultRecord",
    "TASK_KEYS",
    "emit_results",
    "parse_config",
    "penalty_level",
    "reconstruct_and_evaluate",
    "recover_and_evaluate",
    "restricted_cone_check",
    "run_sweep",
]

# the keys a task reads besides task, d, k, seeds, bias and output_dir, its grid dimension first
TASK_KEYS = {
    "rep_learning": ("n", "gamma", "nu", "fill_strategy"),
    "robust_recovery": ("s", "delta", "outlier_magnitude", "lambda_mode"),
    "diagnostics": ("s", "delta", "diag_samples"),
}


def _rule(parse, test, rule: str):
    """``parse`` that also rejects a value failing ``test``, saying it must be ``rule``."""
    def checked(text: str):
        value = parse(text)
        if not test(value):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value
    return checked


# range rules of the config keys, shared with the CLI flags that set the same values
positive_float = _rule(float, lambda x: 0.0 < x < math.inf, "positive and finite")
nonnegative_float = _rule(float, lambda x: 0.0 <= x < math.inf, "nonnegative and finite")
positive_int = _rule(int, lambda x: x >= 1, "at least 1")
nonnegative_int = _rule(int, lambda x: x >= 0, "at least 0")
bias_law = _rule(parse_bias_spec, lambda spec: isinstance(spec, BiasModel), "a bias law")


def _choice(options: tuple[str, ...]):
    """A parser that accepts only one of ``options``."""
    return _rule(str, options.__contains__, f"one of {options}")


def _int_list(item):
    """A parser of comma-separated integers, each checked by the rule ``item``."""
    return lambda text: tuple(item(part) for part in text.split(","))


@dataclass(frozen=True)
class DimensionRule:
    """A dimension given either as an explicit list or as a multiple of d."""

    values: tuple[int, ...] | None = None
    multiplier: float | None = None

    @staticmethod
    def parse(text: str, key: str) -> "DimensionRule":
        """``n`` takes values of at least 1 or a positive multiplier, ``s`` nonnegative ones."""
        return _parsed(key, text)

    def resolve(self, d: int) -> tuple[int, ...]:
        if self.multiplier is not None:
            return (int(math.ceil(self.multiplier * d)),)
        assert self.values is not None
        return self.values


def _dimension(count, scale):
    """A parser of a list checked by the rule ``count`` or a multiple of d checked by ``scale``."""
    def parse(text: str) -> DimensionRule:
        rule = text.endswith("d") and text != "d"
        try:
            if rule:
                return DimensionRule(multiplier=scale(text[:-1]))
            return DimensionRule(values=_int_list(count)(text))
        except ValueError as exc:
            raise ValueError(f"bad {'rule' if rule else 'list'} {text!r}: {exc}") from exc
    return parse


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep description."""

    task: str
    d: tuple[int, ...]
    k: tuple[int, ...]
    seeds: tuple[int, ...]
    bias: str
    n: DimensionRule | None = None
    s: DimensionRule | None = None
    gamma: float = 1.0
    nu: float | None = None  # None: use each instance's realized separation
    delta: float = 0.0
    outlier_magnitude: float = 5.0
    lambda_mode: str = "oracle"
    fill_strategy: str = "midpoint"
    diag_samples: int = 100
    output_dir: str = "results"


_REQUIRED_KEYS = ("task", "d", "k", "seeds", "bias")

# the parser of each key but bias, whose law depends on the task
_VALUE_PARSERS = {
    "task": _choice(tuple(TASK_KEYS)),
    "d": _int_list(positive_int),
    "k": _int_list(positive_int),
    "seeds": _int_list(nonnegative_int),  # default_rng rejects a negative seed
    "n": _dimension(positive_int, positive_float),
    "s": _dimension(nonnegative_int, nonnegative_float),
    "gamma": positive_float,
    "nu": nonnegative_float,
    "delta": nonnegative_float,
    "outlier_magnitude": _rule(float, math.isfinite, "finite"),
    "lambda_mode": _choice(("oracle", "agnostic")),
    "fill_strategy": _choice(FILL_STRATEGIES),
    "diag_samples": positive_int,
    "output_dir": str,
}


def _parsed(key: str, text: str):
    """The value of config key ``key`` written as ``text``; ``ValueError`` names the key."""
    try:
        return _VALUE_PARSERS[key](text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def rep_settings_fault(
    model: BiasModel, gamma: float, nu: float | None
) -> tuple[str, ValueError] | None:
    """The setting every rep cell would fail on, ``"bias"`` or ``"nu"``, with its error.

    These are the checks ``compute_bias_constants`` makes in each cell:
    the law's steepness on ``[-gamma, gamma]`` and, for a given ``nu``, a
    window of length ``nu`` inside that interval.  ``None`` if both pass.
    """
    try:
        lipschitz_L(model, gamma)
    except ValueError as exc:
        return "bias", exc
    if nu is not None:
        try:
            omega_min_mass(model, gamma, nu)
        except ValueError as exc:
            return "nu", exc
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format.

    Raises ``ValueError`` naming the offending or missing key, also for a
    value out of its range, on which every cell would fail.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    unknown = sorted(set(raw) - set(_VALUE_PARSERS) - {"bias"})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ValueError(f"config is missing required keys {missing}")

    task = _parsed("task", raw["task"])
    reads = TASK_KEYS[task]
    for key in raw:  # run_sweep would ignore the key, or repeat each cell once per n or s
        if key not in (*_REQUIRED_KEYS, "output_dir", *reads):
            raise ValueError(f"config key {key!r} is not used by task {task}")
    if reads[0] not in raw:
        raise ValueError(f"config key {reads[0]!r} is required for task {task}")
    try:
        model = (bias_law if task == "rep_learning" else parse_bias_spec)(raw["bias"])
    except ValueError as exc:
        raise ValueError(f"config key 'bias': {exc}") from exc
    values = {key: _parsed(key, text) for key, text in raw.items() if key not in ("task", "bias")}
    config = ExperimentConfig(task=task, bias=raw["bias"], **values)

    # grid points on which every cell would fail
    rank = max(config.k)
    for d in config.d:
        if task == "rep_learning":
            short = min(d, *config.n.resolve(d))
            if rank > short:  # generate_representation_instance rejects it
                raise ValueError(
                    f"config key 'k': rank k={rank} must be at most min(d, n) = {short} for d={d}"
                )
            continue
        s = max(config.s.resolve(d))
        if s > d:  # generate_recovery_instance and restricted_cone_check reject it
            raise ValueError(f"config key 's': outlier count s={s} must lie in [0, d={d}]")
        if task == "robust_recovery" and rank >= d:  # solve_robust_lasso rejects it
            raise ValueError(f"config key 'k': k={rank} must be less than d={d}")
        if task == "diagnostics" and rank + s > d / 4:  # check_restricted_lower_bound rejects it
            raise ValueError(f"config keys 'k' and 's': k + s = {rank + s} exceeds d/4 = {d / 4}")
    if task == "rep_learning":
        fault = rep_settings_fault(model, config.gamma, config.nu)
        if fault is not None:
            key, exc = fault
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return config


@dataclass
class ResultRecord:
    """One sweep cell; unused fields stay None and serialise as empty."""

    task: str
    d: int
    seed: int
    bias: str
    n: int | None = None
    k: int | None = None
    s: int | None = None
    gamma: float | None = None
    nu: float | None = None
    delta: float | None = None
    lambda_mode: str | None = None
    fill_strategy: str | None = None
    frob_err_sq: float | None = None
    rep_bound: float | None = None
    sin_theta: float | None = None
    procrustes_err: float | None = None
    recovery_error: float | None = None
    recovery_bound: float | None = None
    mu: float | None = None
    lambda_used: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    diag_violations: int | None = None
    diag_min_ratio: float | None = None
    error: str | None = None
    wall_time_ms: float | None = None  # excluded from results.csv; see timings.csv


# column order is part of the output contract; wall time is kept separate
RESULT_COLUMNS = tuple(
    f.name for f in fields(ResultRecord) if f.name != "wall_time_ms"
)


@dataclass(frozen=True)
class RepOutcome:
    """A reconstruction of one matrix instance and how far it lies from the truth."""

    estimate: EstimatedMatrix
    u_hat: np.ndarray  # top-k left singular vectors of the estimate
    frob_err_sq: float
    rep_bound: float | None  # None where the bound is vacuous or overflows
    sin_theta: float
    procrustes_err: float


def reconstruct_and_evaluate(
    instance: GenerativeInstance, model: BiasModel, gamma: float, nu: float, fill: str
) -> RepOutcome:
    """Reconstruct ``instance.M`` from ``instance.Y`` and score the estimate.

    The true column space is that of ``A``, since ``M = A C`` with ``C`` of
    full row rank; both subspace scores depend only on spans, so the Q
    factor of ``A`` serves as the truth's basis.
    """
    estimate = reconstruct_matrix(instance.Y, model, gamma, nu, fill=fill)
    frob_err_sq = float(np.linalg.norm(instance.M - estimate.m_hat) ** 2)
    bound = theoretical_rep_bound(compute_bias_constants(model, gamma, nu), instance.Y.shape[0])
    U = np.linalg.qr(instance.A)[0]
    U_hat, _, _ = truncated_svd(estimate.m_hat, instance.A.shape[1])
    _, procrustes_err = procrustes_align(U, U_hat)
    return RepOutcome(
        estimate, U_hat, frob_err_sq, bound if math.isfinite(bound) else None,
        sin_theta_distance(U, U_hat), procrustes_err,
    )


def _run_rep_cell(
    config: ExperimentConfig, model: BiasModel, d: int, n: int, k: int, seed: int
) -> dict:
    """The result fields of one rep cell under the sweep's bias law ``model``."""
    instance = generate_representation_instance(d, n, k, config.gamma, model, seed)
    nu = config.nu if config.nu is not None else instance.realized_nu
    outcome = reconstruct_and_evaluate(instance, model, config.gamma, nu, config.fill_strategy)
    return dict(
        gamma=config.gamma, nu=nu, fill_strategy=config.fill_strategy,
        frob_err_sq=outcome.frob_err_sq, rep_bound=outcome.rep_bound,
        sin_theta=outcome.sin_theta, procrustes_err=outcome.procrustes_err,
    )


def penalty_level(mode: str | float, instance: RecoveryInstance, stats: NonlinearityStats) -> float:
    """The lasso penalty for ``mode``: ``"oracle"``, ``"agnostic"`` or a number."""
    if mode == "oracle":
        return oracle_lambda(instance, stats)
    if mode == "agnostic":
        return agnostic_lambda(instance.A.shape[0], stats.sigma, instance.delta)
    return float(mode)


@dataclass(frozen=True)
class RecoveryOutcome:
    """A robust recovery of one vector instance and how far it lies from the truth."""

    lam: float
    solution: LassoSolution
    error: float
    bound: float


def recover_and_evaluate(
    instance: RecoveryInstance, stats: NonlinearityStats, lambda_mode: str | float,
    tol: float = LassoConfig.tol, max_iter: int = LassoConfig.max_iter,
) -> RecoveryOutcome:
    """Solve the robust lasso on ``instance`` and score the solution.

    The caller supplies ``stats``, the moments of the instance's bias law,
    ``make_nonlinearity_stats(parse_bias_spec(instance.bias))``, so that a
    sweep computes them once for all its cells.  The penalty comes from
    ``lambda_mode`` (see :func:`penalty_level`).
    """
    lam = penalty_level(lambda_mode, instance, stats)
    solution = solve_robust_lasso(
        instance.v, instance.A, LassoConfig(lam=lam, tol=tol, max_iter=max_iter)
    )
    error, bound = recovery_error_and_bound(solution, instance, stats)
    return RecoveryOutcome(lam, solution, error, bound)


def _run_recovery_cell(
    config: ExperimentConfig, model: BiasModel | float, stats: NonlinearityStats,
    d: int, k: int, s: int, seed: int,
) -> dict:
    """The result fields of one recovery cell; ``stats`` holds the moments of ``model``."""
    instance = generate_recovery_instance(
        d, k, s, config.delta, config.outlier_magnitude, model, seed
    )
    outcome = recover_and_evaluate(instance, stats, config.lambda_mode)
    return dict(
        delta=config.delta, lambda_mode=config.lambda_mode, recovery_error=outcome.error,
        recovery_bound=outcome.bound, mu=stats.mu, lambda_used=outcome.lam,
        iterations=outcome.solution.iterations, converged=outcome.solution.converged,
    )


def restricted_cone_check(
    d: int, k: int, s: int, delta: float, stats: NonlinearityStats, samples: int, seed: int
) -> tuple[float, RestrictedSetReport]:
    """The agnostic penalty and a sampled restricted-cone check under the moments ``stats``.

    ``ValueError`` for an outlier count ``s`` outside ``[0, d]`` or a noise
    level ``delta`` that is not nonnegative and finite.
    """
    if not 0 <= s <= d:
        raise ValueError(f"outlier count s={s} must lie in [0, d={d}]")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"noise level delta must be nonnegative and finite, got {delta}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k))
    w = rng.uniform(-delta, delta, size=d) if delta > 0 else np.zeros(d)
    support = rng.choice(d, size=s, replace=False) if s > 0 else np.empty(0, dtype=int)
    lam = agnostic_lambda(d, stats.sigma, delta)
    report = check_restricted_lower_bound(
        A, samples, lam=lam, sigma=stats.sigma, eta=stats.eta, support=support,
        delta_norm=float(np.abs(A.T @ w).max()) if d else 0.0, seed=seed,
    )
    return lam, report


def _run_diag_cell(
    config: ExperimentConfig, stats: NonlinearityStats, d: int, k: int, s: int, seed: int
) -> dict:
    """The result fields of one diagnostics cell under the sweep's moments ``stats``."""
    lam, report = restricted_cone_check(d, k, s, config.delta, stats, config.diag_samples, seed)
    return dict(
        delta=config.delta, mu=stats.mu, lambda_used=lam,
        diag_violations=report.num_violations, diag_min_ratio=report.min_ratio,
    )


def run_sweep(config: ExperimentConfig) -> list[ResultRecord]:
    """Run every cell of the Cartesian product of dimensions and seeds.

    A failing cell records its error message instead of aborting the
    sweep; cell order is deterministic.  The sweep parses its bias law
    once, and a recovery or diagnostics sweep computes the law's moments
    once, before its first cell; a law whose moments fail is a
    ``ValueError`` naming the config key ``bias``, raised before any cell
    runs.  Each cell looks its runner up on the module, which a caller may
    rebind.
    """
    model = parse_bias_spec(config.bias)
    stats = None
    if config.task != "rep_learning":
        try:
            stats = make_nonlinearity_stats(model)
        except ValueError as exc:
            raise ValueError(f"config key 'bias': {exc}") from exc
    records: list[ResultRecord] = []
    for d in config.d:
        n_values = config.n.resolve(d) if config.n is not None else (None,)
        s_values = config.s.resolve(d) if config.s is not None else (None,)
        for n, k, s, seed in itertools.product(n_values, config.k, s_values, config.seeds):
            start = time.perf_counter()
            try:
                if config.task == "rep_learning":
                    computed = _run_rep_cell(config, model, d, n, k, seed)
                elif config.task == "robust_recovery":
                    computed = _run_recovery_cell(config, model, stats, d, k, s, seed)
                else:
                    computed = _run_diag_cell(config, stats, d, k, s, seed)
            except Exception as exc:  # noqa: BLE001 - cell isolation
                computed = {"error": f"{type(exc).__name__}: {exc}"}
            records.append(ResultRecord(
                task=config.task, d=d, n=n, k=k, s=s, seed=seed, bias=config.bias, **computed,
                wall_time_ms=(time.perf_counter() - start) * 1e3,
            ))
    return records


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _quartiles(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    q1, q2, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return {"median": float(q2), "iqr": float(q3 - q1), "count": int(arr.size)}


def _summarise(records: list[ResultRecord]) -> dict:
    groups: dict[str, dict] = {}
    for record in records:
        key = f"d={record.d},n={record.n},k={record.k},s={record.s}"
        bucket = groups.setdefault(key, {})
        if record.error is not None:
            bucket.setdefault("errors", 0)
            bucket["errors"] += 1
            continue
        for name, bound_name in (
            ("frob_err_sq", "rep_bound"),
            ("recovery_error", "recovery_bound"),
            ("diag_min_ratio", None),
        ):
            value = getattr(record, name)
            if value is None:
                continue
            bucket.setdefault(name, []).append(value)
            bound = getattr(record, bound_name) if bound_name else None
            if bound:
                bucket.setdefault(f"{name}_over_bound", []).append(value / bound)
    summary = {}
    for key, bucket in sorted(groups.items()):
        entry = {}
        for name, values in bucket.items():
            entry[name] = values if name == "errors" else _quartiles(values)
        summary[key] = entry
    return summary


def emit_results(records: list[ResultRecord], output_dir, force: bool = False) -> Path:
    """Write ``results.csv``, ``summary.json``, and ``timings.csv``.

    Refuses to overwrite an existing ``results.csv`` unless ``force`` is
    set.
    """
    out = Path(output_dir)
    target = out / "results.csv"
    if target.exists() and not force:
        raise FileExistsError(
            f"{target} already exists; pass force=True (or --force) to overwrite"
        )
    out.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for record in records:
            writer.writerow([_format_cell(getattr(record, col)) for col in RESULT_COLUMNS])
    with (out / "timings.csv").open("w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "wall_time_ms"])
        for i, record in enumerate(records):
            writer.writerow([i, _format_cell(record.wall_time_ms)])
    with (out / "summary.json").open("w", encoding="ascii") as fh:
        json.dump(_summarise(records), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target
