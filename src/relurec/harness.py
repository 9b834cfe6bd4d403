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
    search the restricted cone of each vector instance for violations.

Dimension keys take either explicit comma-separated lists or rules of
the form ``<multiplier>d`` (evaluated as ``ceil(multiplier * d)``), so
``n = 2d`` and ``s = 0.02d`` track the row count.  Results go to
``results.csv`` (a column order per task, RFC-4180 quoting, shortest
round-trip decimals) plus ``summary.json`` with per-configuration
medians and interquartile ranges.  A quartile interpolates linearly
between the order statistics next to ``q (count - 1)``, numpy's default
rule (definition 7 of Hyndman and Fan, 1996), and is NaN if a value is.
Rerunning an identical config produces byte-identical ``results.csv``
and ``summary.json``; wall-clock times go to a separate ``timings.csv``
so they cannot break that guarantee.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
# Nothing here calls numpy.ma, yet rounds run faster with it imported.  A fresh-process
# round of the rep_small benchmark (seed 5, 2 shared vCPUs) took about 190 minor page faults
# after importing relurec with it and 5 160 without it, and 1-5% fewer cells/s in an earlier
# count: without it the allocator hands the freed arrays of a cell back to the kernel, and
# the next cell faults them in again.
import numpy.ma

from .bias import (
    BiasConstants,
    BiasModel,
    flatness_beta,
    lipschitz_L,
    omega_min_mass,
    parse_bias_spec,
)
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
from .subspace import subspace_distances, truncated_svd

__all__ = [
    "DiagOutcome",
    "DimensionRule",
    "ExperimentConfig",
    "RESULT_COLUMNS",
    "RecoveryOutcome",
    "RepOutcome",
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
    "diagnostics": ("s", "delta"),
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
    """A parser of comma-separated distinct integers, each checked by the rule ``item``."""
    def parse(text: str) -> tuple[int, ...]:
        values = tuple(item(part) for part in text.split(","))
        for i, value in enumerate(values):
            if value in values[:i]:  # it would run the same cells twice
                raise ValueError(f"value {value} is repeated")
        return values
    return parse


@dataclass(frozen=True)
class DimensionRule:
    """A dimension given either as an explicit list or as a multiple of d."""

    values: tuple[int, ...] | None = None
    multiplier: float | None = None

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


def _key(parse, default=MISSING):
    """A config key read by ``parse``; a key without a ``default`` is required."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep description: each field is a config key, declared with its parser."""

    task: str = _key(_choice(tuple(TASK_KEYS)))
    d: tuple[int, ...] = _key(_int_list(positive_int))
    k: tuple[int, ...] = _key(_int_list(positive_int))
    seeds: tuple[int, ...] = _key(_int_list(nonnegative_int))  # default_rng rejects a negative seed
    bias: str = _key(parse_bias_spec)  # kept as written; rep_learning takes only a law
    n: DimensionRule | None = _key(_dimension(positive_int, positive_float), None)
    s: DimensionRule | None = _key(_dimension(nonnegative_int, nonnegative_float), None)
    gamma: float = _key(positive_float, 1.0)
    nu: float | None = _key(nonnegative_float, None)  # None: each instance's realized separation
    delta: float = _key(nonnegative_float, 0.0)
    outlier_magnitude: float = _key(_rule(float, math.isfinite, "finite"), 5.0)
    lambda_mode: str = _key(_choice(("oracle", "agnostic")), "oracle")
    fill_strategy: str = _key(_choice(FILL_STRATEGIES), "midpoint")
    output_dir: str = _key(str, "results")


_KEYS = {f.name: f for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = tuple(name for name, f in _KEYS.items() if f.default is MISSING)


def _named(key: str, compute, *args):
    """``compute(*args)``, its ``ValueError`` reported as one of config key ``key``."""
    try:
        return compute(*args)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


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

    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ValueError(f"config is missing required keys {missing}")

    task = _named("task", _KEYS["task"].metadata["parse"], raw["task"])
    reads = TASK_KEYS[task]
    for key in raw:  # run_sweep would ignore the key, or repeat each cell once per n or s
        if key not in (*_REQUIRED_KEYS, "output_dir", *reads):
            raise ValueError(f"config key {key!r} is not used by task {task}")
    if reads[0] not in raw:
        raise ValueError(f"config key {reads[0]!r} is required for task {task}")
    model = _named("bias", bias_law if task == "rep_learning" else parse_bias_spec, raw["bias"])
    values = {
        key: _named(key, _KEYS[key].metadata["parse"], text)
        for key, text in raw.items() if key not in ("task", "bias")
    }
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
        if s > d:  # generate_recovery_instance rejects it
            raise ValueError(f"config key 's': outlier count s={s} must lie in [0, d={d}]")
        if task == "robust_recovery" and rank >= d:  # solve_robust_lasso rejects it
            raise ValueError(f"config key 'k': k={rank} must be less than d={d}")
        if task == "diagnostics" and rank + s > d / 4:  # check_restricted_lower_bound rejects it
            raise ValueError(f"config keys 'k' and 's': k + s = {rank + s} exceeds d/4 = {d / 4}")
    if task == "rep_learning":  # checks run_sweep and every cell make; run_sweep reuses the value
        object.__setattr__(config, "_lipschitz", _named("bias", lipschitz_L, model, config.gamma))
        if config.nu is not None:
            _named("nu", omega_min_mass, model, config.gamma, config.nu)
    return config


def _column():
    """Declare a field of an outcome as a metric: a ``results.csv`` column of its task."""
    return field(metadata={"column": True})


class _Scored:
    """An outcome whose fields declared with ``_column`` are its metrics."""

    @classmethod
    def metric_names(cls) -> tuple[str, ...]:
        """The names of the metrics, in column order."""
        return tuple(f.name for f in fields(cls) if f.metadata.get("column"))

    def metrics(self) -> dict:
        """The metrics under their ``results.csv`` names, in column order."""
        return {name: getattr(self, name) for name in self.metric_names()}


@dataclass(frozen=True)
class RepOutcome(_Scored):
    """A reconstruction of one matrix instance and how far it lies from the truth."""

    estimate: EstimatedMatrix
    u_hat: np.ndarray  # top-k left singular vectors of the estimate
    frob_err_sq: float = _column()
    rep_bound: float | None = _column()  # None where the bound is vacuous or overflows
    sin_theta: float = _column()
    procrustes_err: float = _column()


def reconstruct_and_evaluate(
    instance: GenerativeInstance, model: BiasModel, gamma: float, nu: float, fill: str,
    beta: float, lipschitz: float,
) -> RepOutcome:
    """Reconstruct ``instance.M`` from ``instance.Y`` and score the estimate.

    The caller supplies the constants of ``model`` that do not depend on
    ``nu``, ``beta = flatness_beta(model, gamma)`` and ``lipschitz =
    lipschitz_L(model, gamma)``, so that a sweep evaluates them once for all
    its cells; the cell evaluates only the window mass of ``nu`` and the bound.
    The true column space is that of ``A``, since ``M = A C`` with ``C`` of
    full row rank; both subspace scores depend only on spans, so the Q
    factor of ``A`` serves as the truth's basis.
    """
    omega = omega_min_mass(model, gamma, nu)  # rejects a bad nu before the work
    constants = BiasConstants(beta, lipschitz, omega, float(gamma), float(nu))
    estimate = reconstruct_matrix(instance.Y, model, gamma, nu, fill=fill)
    frob_err_sq = float(np.linalg.norm(instance.M - estimate.m_hat) ** 2)
    bound = theoretical_rep_bound(constants, instance.Y.shape[0])
    U = np.linalg.qr(instance.A)[0]
    U_hat, _, _ = truncated_svd(estimate.m_hat, instance.A.shape[1])
    return RepOutcome(
        estimate, U_hat, frob_err_sq, bound if math.isfinite(bound) else None,
        *subspace_distances(U, U_hat),
    )


def _run_rep_cell(
    config: ExperimentConfig, model: BiasModel, beta: float, lipschitz: float,
    d: int, n: int, k: int, seed: int,
) -> dict:
    """The result fields of one rep cell; ``beta`` and ``lipschitz`` are constants of ``model``."""
    instance = generate_representation_instance(d, n, k, config.gamma, model, seed)
    nu = config.nu if config.nu is not None else instance.realized_nu
    outcome = reconstruct_and_evaluate(
        instance, model, config.gamma, nu, config.fill_strategy, beta, lipschitz
    )
    return dict(gamma=config.gamma, nu=nu, fill_strategy=config.fill_strategy, **outcome.metrics())


def penalty_level(mode: str | float, instance: RecoveryInstance, stats: NonlinearityStats) -> float:
    """The lasso penalty for ``mode``: ``"oracle"``, ``"agnostic"`` or a number."""
    if mode == "oracle":
        return oracle_lambda(instance, stats)
    if mode == "agnostic":
        return agnostic_lambda(instance.A.shape[0], stats.sigma, instance.delta)
    return float(mode)


@dataclass(frozen=True)
class RecoveryOutcome(_Scored):
    """A robust recovery of one vector instance and how far it lies from the truth."""

    solution: LassoSolution
    recovery_error: float = _column()
    recovery_bound: float = _column()
    mu: float = _column()
    lambda_used: float = _column()
    iterations: int = _column()
    converged: bool = _column()


def recover_and_evaluate(
    instance: RecoveryInstance, stats: NonlinearityStats, lambda_mode: str | float,
    max_iter: int = LassoConfig.max_iter,
) -> RecoveryOutcome:
    """Solve the robust lasso on ``instance`` and score the solution.

    The caller supplies ``stats``, the moments of the instance's bias law,
    ``make_nonlinearity_stats(parse_bias_spec(instance.bias))``, so that a
    sweep computes them once for all its cells.  The penalty comes from
    ``lambda_mode`` (see :func:`penalty_level`), and ``max_iter`` bounds the
    solver's steps.
    """
    lam = penalty_level(lambda_mode, instance, stats)
    solution = solve_robust_lasso(instance.v, instance.A, LassoConfig(lam=lam, max_iter=max_iter))
    error, bound = recovery_error_and_bound(solution, instance, stats)
    return RecoveryOutcome(
        solution, error, bound, stats.mu, lam, solution.iterations, solution.converged
    )


def _run_recovery_cell(
    config: ExperimentConfig, model: BiasModel | float, stats: NonlinearityStats,
    d: int, k: int, s: int, seed: int,
) -> dict:
    """The result fields of one recovery cell; ``stats`` holds the moments of ``model``."""
    instance = generate_recovery_instance(
        d, k, s, config.delta, config.outlier_magnitude, model, seed
    )
    outcome = recover_and_evaluate(instance, stats, config.lambda_mode)
    return dict(delta=config.delta, lambda_mode=config.lambda_mode, **outcome.metrics())


@dataclass(frozen=True)
class DiagOutcome(_Scored):
    """A restricted-cone check of one vector instance under the agnostic penalty."""

    report: RestrictedSetReport
    mu: float = _column()
    lambda_used: float = _column()
    diag_violations: int = _column()
    diag_min_ratio: float = _column()


def restricted_cone_check(instance: RecoveryInstance, stats: NonlinearityStats) -> DiagOutcome:
    """A restricted-cone check of ``instance`` under its moments ``stats`` and the agnostic penalty.

    The cone's support is that of ``e_star``, and its noise bound ``||A^T w||_inf``.
    """
    lam = penalty_level("agnostic", instance, stats)
    report = check_restricted_lower_bound(
        instance.A, lam=lam, sigma=stats.sigma, eta=stats.eta,
        support=np.flatnonzero(instance.e_star),
        delta_norm=float(np.abs(instance.A.T @ instance.w).max()),
    )
    return DiagOutcome(report, stats.mu, lam, report.num_violations, report.min_ratio)


def _run_diag_cell(
    config: ExperimentConfig, model: BiasModel | float, stats: NonlinearityStats,
    d: int, k: int, s: int, seed: int,
) -> dict:
    """The result fields of one diagnostics cell; ``stats`` holds the moments of ``model``."""
    instance = generate_recovery_instance(
        d, k, s, config.delta, config.outlier_magnitude, model, seed
    )
    outcome = restricted_cone_check(instance, stats)
    return dict(delta=config.delta, **outcome.metrics())


# the columns of each task's results.csv, in order
RESULT_COLUMNS = {
    "rep_learning": (
        "task", "d", "seed", "bias", "n", "k", "gamma", "nu", "fill_strategy",
        *RepOutcome.metric_names(), "error",
    ),
    "robust_recovery": (
        "task", "d", "seed", "bias", "k", "s", "delta", "lambda_mode",
        *RecoveryOutcome.metric_names(), "error",
    ),
    "diagnostics": (
        "task", "d", "seed", "bias", "k", "s", "delta", *DiagOutcome.metric_names(), "error",
    ),
}


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Run every cell of the Cartesian product of dimensions and seeds.

    Each row maps the task's ``RESULT_COLUMNS``, in order, to the cell's
    values, and then ``wall_time_ms`` to its wall time.  A failing cell
    records its error message instead of aborting the sweep, and its
    metrics stay None; cell order is deterministic.  The sweep parses its bias law
    once, before its first cell.  A rep sweep then evaluates the law's
    flatness and steepness at ``gamma`` once (the steepness in
    :func:`parse_config`, if that made ``config``), and each cell only the
    window mass of its ``nu``; a recovery or diagnostics sweep computes the
    law's moments once.  A law whose constants or moments fail, or whose
    agnostic penalty is 0 in a sweep that uses it, is a ``ValueError``
    naming the config key ``bias``, raised before any cell runs.  Each
    cell looks its runner up on the module, which a caller may rebind.
    """
    model = parse_bias_spec(config.bias)
    if config.task == "rep_learning":
        beta = _named("bias", flatness_beta, model, config.gamma)
        lipschitz = vars(config).get("_lipschitz")  # a copy made by dataclasses.replace has none
        if lipschitz is None:
            lipschitz = _named("bias", lipschitz_L, model, config.gamma)
    else:
        stats = _named("bias", make_nonlinearity_stats, model)
        if config.task == "diagnostics" or config.lambda_mode == "agnostic":
            for d in config.d:
                _named("bias", agnostic_lambda, d, stats.sigma, config.delta)
    columns = RESULT_COLUMNS[config.task]
    records: list[dict] = []
    for d in config.d:
        n_values = config.n.resolve(d) if config.n is not None else (None,)
        s_values = config.s.resolve(d) if config.s is not None else (None,)
        for n, k, s, seed in itertools.product(n_values, config.k, s_values, config.seeds):
            start = time.perf_counter()
            try:
                if config.task == "rep_learning":
                    computed = _run_rep_cell(config, model, beta, lipschitz, d, n, k, seed)
                elif config.task == "robust_recovery":
                    computed = _run_recovery_cell(config, model, stats, d, k, s, seed)
                else:
                    computed = _run_diag_cell(config, model, stats, d, k, s, seed)
            except Exception as exc:  # noqa: BLE001 - cell isolation
                computed = {"error": f"{type(exc).__name__}: {exc}"}
            cell = dict(task=config.task, d=d, seed=seed, bias=config.bias, n=n, k=k, s=s)
            row = {name: cell.get(name) for name in columns} | computed
            row["wall_time_ms"] = (time.perf_counter() - start) * 1e3
            records.append(row)
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
    x = sorted(map(float, values))
    if any(map(math.isnan, x)):  # every quartile is NaN, as in numpy
        x = [math.nan]
    quartiles = []
    for q in (0.25, 0.5, 0.75):  # interpolated and rounded as np.percentile does
        p = q * (len(x) - 1)
        i = int(p)
        a, b, t = x[i], x[min(i + 1, len(x) - 1)], p - i
        quartiles.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    q1, q2, q3 = quartiles
    return {"median": q2, "iqr": q3 - q1, "count": len(values)}


# per task: the grid dimensions that name a summary.json group, its metric and the metric's bound
_SUMMARISED = {
    "rep_learning": (("d", "n", "k"), "frob_err_sq", "rep_bound"),
    "robust_recovery": (("d", "k", "s"), "recovery_error", "recovery_bound"),
    "diagnostics": (("d", "k", "s"), "diag_min_ratio", None),
}


def _summarise(records: list[dict]) -> dict:
    groups: dict[str, dict] = {}
    for row in records:
        dims, name, bound_name = _SUMMARISED[row["task"]]
        key = ",".join(f"{dim}={row[dim]}" for dim in dims)
        bucket = groups.setdefault(key, {})
        if row["error"] is not None:
            bucket.setdefault("errors", 0)
            bucket["errors"] += 1
            continue
        value = row[name]
        if value is None:
            continue
        bucket.setdefault(name, []).append(value)
        bound = row.get(bound_name)
        if bound:
            bucket.setdefault(f"{name}_over_bound", []).append(value / bound)
    summary = {}
    for key, bucket in sorted(groups.items()):
        entry = {}
        for name, values in bucket.items():
            entry[name] = values if name == "errors" else _quartiles(values)
        summary[key] = entry
    return summary


def emit_results(records: list[dict], output_dir, force: bool = False) -> Path:
    """Write the rows of one :func:`run_sweep` to ``results.csv``, ``summary.json`` and
    ``timings.csv``.

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
    columns = RESULT_COLUMNS[records[0]["task"]]
    with target.open("w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in records:
            writer.writerow([_format_cell(row[col]) for col in columns])
    with (out / "timings.csv").open("w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "wall_time_ms"])
        for i, row in enumerate(records):
            writer.writerow([i, _format_cell(row["wall_time_ms"])])
    with (out / "summary.json").open("w", encoding="ascii") as fh:
        json.dump(_summarise(records), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target
