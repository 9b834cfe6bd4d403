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
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bias import BiasModel, compute_bias_constants, parse_bias_spec
from .generate import (
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
)
from .lasso import (
    LassoConfig,
    NonlinearityStats,
    RestrictedSetParams,
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
    VacuousBoundError,
    reconstruct_matrix,
    theoretical_rep_bound,
)
from .subspace import procrustes_align, sin_theta_distance, truncated_svd

__all__ = [
    "DimensionRule",
    "ExperimentConfig",
    "RepOutcome",
    "ResultRecord",
    "emit_results",
    "parse_config",
    "penalty_level",
    "reconstruct_and_evaluate",
    "restricted_cone_check",
    "run_sweep",
]

TASKS = ("rep_learning", "robust_recovery", "diagnostics")


@dataclass(frozen=True)
class DimensionRule:
    """A dimension given either as an explicit list or as a multiple of d."""

    values: tuple[int, ...] | None = None
    multiplier: float | None = None

    @classmethod
    def parse(cls, text: str, key: str) -> "DimensionRule":
        text = text.strip()
        if text.endswith("d") and text != "d":
            try:
                return cls(multiplier=float(text[:-1]))
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: bad rule {text!r}") from exc
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: bad list {text!r}") from exc
        return cls(values=values)

    def resolve(self, d: int) -> tuple[int, ...]:
        if self.multiplier is not None:
            return (int(math.ceil(self.multiplier * d)),)
        assert self.values is not None
        return self.values


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

_OPTIONAL_PARSERS = {
    "gamma": float,
    "nu": float,
    "delta": float,
    "outlier_magnitude": float,
    "lambda_mode": str,
    "fill_strategy": str,
    "diag_samples": int,
    "output_dir": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format.

    Raises ``ValueError`` naming the offending or missing key.
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

    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_PARSERS) | {"n", "s"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ValueError(f"config is missing required keys {missing}")

    task = raw["task"]
    if task not in TASKS:
        raise ValueError(f"config key 'task': {task!r} is not one of {TASKS}")
    try:
        d = tuple(int(part) for part in raw["d"].split(","))
        k = tuple(int(part) for part in raw["k"].split(","))
        seeds = tuple(int(part) for part in raw["seeds"].split(","))
    except ValueError as exc:
        raise ValueError(f"bad integer list in config: {exc}") from exc

    kwargs: dict = {"task": task, "d": d, "k": k, "seeds": seeds, "bias": raw["bias"]}
    if "n" in raw:
        kwargs["n"] = DimensionRule.parse(raw["n"], "n")
    if "s" in raw:
        kwargs["s"] = DimensionRule.parse(raw["s"], "s")
    for key, cast in _OPTIONAL_PARSERS.items():
        if key in raw:
            try:
                kwargs[key] = cast(raw[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
    parse_bias_spec(raw["bias"])  # fail fast on malformed bias specs
    config = ExperimentConfig(**kwargs)
    if config.fill_strategy not in FILL_STRATEGIES:
        raise ValueError(
            f"config key 'fill_strategy': {config.fill_strategy!r} is not one of "
            f"{FILL_STRATEGIES}"
        )
    if config.lambda_mode not in ("oracle", "agnostic"):
        raise ValueError(
            f"config key 'lambda_mode': {config.lambda_mode!r} is not one of "
            "('oracle', 'agnostic')"
        )
    if config.task == "rep_learning" and config.n is None:
        raise ValueError("config key 'n' is required for task rep_learning")
    if config.task in ("robust_recovery", "diagnostics") and config.s is None:
        raise ValueError(f"config key 's' is required for task {config.task}")
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
    rep_bound: float | None  # None where the bound is vacuous
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
    constants = compute_bias_constants(model, gamma, nu)
    try:
        bound = theoretical_rep_bound(constants, instance.Y.shape[0])
    except VacuousBoundError:
        bound = None
    U = np.linalg.qr(instance.A)[0]
    U_hat, _, _ = truncated_svd(estimate.m_hat, instance.A.shape[1])
    _, procrustes_err = procrustes_align(U, U_hat)
    return RepOutcome(
        estimate, U_hat, frob_err_sq, bound, sin_theta_distance(U, U_hat), procrustes_err
    )


def _run_rep_cell(config: ExperimentConfig, d: int, n: int, k: int, seed: int) -> ResultRecord:
    model = parse_bias_spec(config.bias)
    if not isinstance(model, BiasModel):
        raise ValueError("rep_learning requires a distributional bias, not a constant")
    instance = generate_representation_instance(d, n, k, config.gamma, model, seed)
    nu = config.nu if config.nu is not None else instance.realized_nu
    outcome = reconstruct_and_evaluate(instance, model, config.gamma, nu, config.fill_strategy)
    return ResultRecord(
        task=config.task, d=d, n=n, k=k, seed=seed, bias=config.bias, gamma=config.gamma,
        nu=nu, fill_strategy=config.fill_strategy, frob_err_sq=outcome.frob_err_sq,
        rep_bound=outcome.rep_bound, sin_theta=outcome.sin_theta,
        procrustes_err=outcome.procrustes_err,
    )


def penalty_level(mode: str, instance: RecoveryInstance, stats: NonlinearityStats) -> float:
    """The lasso penalty for ``mode``: ``"oracle"``, ``"agnostic"`` or a number."""
    if mode == "oracle":
        return oracle_lambda(instance, stats)
    if mode == "agnostic":
        return agnostic_lambda(instance.A.shape[0], stats.sigma, instance.delta)
    return float(mode)


def _run_recovery_cell(config: ExperimentConfig, d: int, k: int, s: int, seed: int) -> ResultRecord:
    record = ResultRecord(
        task=config.task, d=d, k=k, s=s, seed=seed, bias=config.bias,
        delta=config.delta, lambda_mode=config.lambda_mode,
    )
    bias = parse_bias_spec(config.bias)
    instance = generate_recovery_instance(
        d, k, s, config.delta, config.outlier_magnitude, bias, seed
    )
    stats = make_nonlinearity_stats(bias)
    record.mu = stats.mu
    lam = penalty_level(config.lambda_mode, instance, stats)
    record.lambda_used = lam
    solution = solve_robust_lasso(instance.v, instance.A, LassoConfig(lam=lam))
    record.iterations = solution.iterations
    record.converged = solution.converged
    error, bound = recovery_error_and_bound(solution, instance, stats)
    record.recovery_error = error
    record.recovery_bound = bound
    return record


def restricted_cone_check(
    d: int, k: int, s: int, delta: float, bias: str, samples: int, seed: int
) -> tuple[NonlinearityStats, float, RestrictedSetReport]:
    """The bias law's moments, the agnostic penalty and a sampled restricted-cone check."""
    stats = make_nonlinearity_stats(parse_bias_spec(bias))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, k))
    w = rng.uniform(-delta, delta, size=d) if delta > 0 else np.zeros(d)
    support = rng.choice(d, size=s, replace=False) if s > 0 else np.empty(0, dtype=int)
    params = RestrictedSetParams(
        lam=agnostic_lambda(d, stats.sigma, delta),
        sigma=stats.sigma,
        eta=stats.eta,
        support=support,
        delta_norm=float(np.abs(A.T @ w).max()) if d else 0.0,
    )
    return stats, params.lam, check_restricted_lower_bound(A, samples, params, seed=seed)


def _run_diag_cell(config: ExperimentConfig, d: int, k: int, s: int, seed: int) -> ResultRecord:
    stats, lam, report = restricted_cone_check(
        d, k, s, config.delta, config.bias, config.diag_samples, seed
    )
    return ResultRecord(
        task=config.task, d=d, k=k, s=s, seed=seed, bias=config.bias, delta=config.delta,
        mu=stats.mu, lambda_used=lam, diag_violations=report.num_violations,
        diag_min_ratio=report.min_ratio,
    )


def run_sweep(config: ExperimentConfig) -> list[ResultRecord]:
    """Run every cell of the Cartesian product of dimensions and seeds.

    A failing cell records its error message instead of aborting the
    sweep; cell order is deterministic.
    """
    records: list[ResultRecord] = []
    for d in config.d:
        n_values = config.n.resolve(d) if config.n is not None else (None,)
        s_values = config.s.resolve(d) if config.s is not None else (None,)
        for n in n_values:
            for k in config.k:
                for s in s_values:
                    for seed in config.seeds:
                        start = time.perf_counter()
                        try:
                            if config.task == "rep_learning":
                                record = _run_rep_cell(config, d, n, k, seed)
                            elif config.task == "robust_recovery":
                                record = _run_recovery_cell(config, d, k, s, seed)
                            else:
                                record = _run_diag_cell(config, d, k, s, seed)
                        except Exception as exc:  # noqa: BLE001 - cell isolation
                            record = ResultRecord(
                                task=config.task, d=d, n=n, k=k, s=s, seed=seed,
                                bias=config.bias, error=f"{type(exc).__name__}: {exc}",
                            )
                        record.wall_time_ms = (time.perf_counter() - start) * 1e3
                        records.append(record)
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
