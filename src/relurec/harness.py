"""Config-driven experiment sweeps with stable CSV/JSON outputs.

A sweep config is a flat ``key = value`` text file (``#`` starts a
comment) describing one of two tasks:

``rep_learning``
    generate matrix instances, reconstruct them, and record error,
    bound, and subspace diagnostics;
``robust_recovery``
    generate vector instances, solve the robust recovery program, and
    record error, bound, and solver diagnostics; with ``cone_check =
    true``, also search each instance's restricted cone for violations
    of the lower bound that the error bound rests on.

Dimension keys take either explicit comma-separated lists or rules of
the form ``<multiplier>d`` (``ceil(multiplier * d)``, exact in decimal), so
``n = 2d`` and ``s = 0.02d`` track the row count.  Results go to
``results.csv`` (a column order per task, RFC-4180 quoting, shortest
round-trip decimals) plus ``summary.json`` with per-configuration
medians and interquartile ranges.  A quartile interpolates linearly
between the order statistics next to ``q (count - 1)``, numpy's default
rule (definition 7 of Hyndman and Fan, 1996), except that an infinite
order statistic takes the whole weight of an interpolation, the limit as
it grows without bound; a quartile is NaN if a value is, or if it lies
between -inf and inf.
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

from . import _checks as checks
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
    "run_sweep",
]

# the keys a task reads besides task, d, k, seeds, bias and output_dir, its grid dimension first
TASK_KEYS = {
    "rep_learning": ("n", "gamma", "nu", "fill_strategy"),
    "robust_recovery": ("s", "delta", "outlier_magnitude", "lambda_mode", "cone_check"),
}


def _rule(parse, check, *args):
    """A parser of the value ``parse`` reads, checked by ``check(name, value, *args)``.

    The name is left empty: the config key or the CLI flag names the value.
    """
    return lambda text: check("", parse(text), *args)


# range rules of the config keys, shared with the CLI flags that set the same values
finite_float = _rule(float, checks.real)
positive_float = _rule(float, checks.real, "positive")
nonnegative_float = _rule(float, checks.real, "nonnegative")
positive_int = _rule(int, checks.integer, 1)
nonnegative_int = _rule(int, checks.integer, 0)
bias_law = _rule(parse_bias_spec, checks.law)


def _boolean(text: str) -> bool:
    """``text`` read as ``false`` or ``true``, as ``results.csv`` writes a boolean."""
    return checks.choice("", text, ("false", "true")) == "true"


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
    """A dimension given either as an explicit list or as a multiple of d, rounded up from the
    exact product with the multiplier's shortest decimal (in floats, 0.07 * 100 exceeds 7)."""

    values: tuple[int, ...] | None = None
    multiplier: float | None = None

    def resolve(self, d: int) -> tuple[int, ...]:
        if self.multiplier is not None:
            digits, _, exponent = repr(self.multiplier).partition("e")
            whole, _, fraction = digits.partition(".")
            places = len(fraction) - int(exponent or 0)  # multiplier = numerator / 10**places
            numerator = int(whole + fraction) * 10 ** max(0, -places)
            return (-(-numerator * d // 10 ** max(0, places)),)
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

    task: str = _key(_rule(str, checks.choice, tuple(TASK_KEYS)))
    d: tuple[int, ...] = _key(_int_list(positive_int))
    k: tuple[int, ...] = _key(_int_list(positive_int))
    seeds: tuple[int, ...] = _key(_int_list(nonnegative_int))  # default_rng rejects a negative seed
    bias: str = _key(parse_bias_spec)  # kept as written; rep_learning takes only a law
    n: DimensionRule | None = _key(_dimension(positive_int, positive_float), None)
    s: DimensionRule | None = _key(_dimension(nonnegative_int, nonnegative_float), None)
    gamma: float = _key(positive_float, 1.0)
    nu: float | None = _key(nonnegative_float, None)  # None: each instance's realized separation
    delta: float = _key(nonnegative_float, 0.0)
    outlier_magnitude: float = _key(finite_float, 5.0)
    lambda_mode: str = _key(_rule(str, checks.choice, ("oracle", "agnostic")), "oracle")
    cone_check: bool = _key(_boolean, False)
    fill_strategy: str = _key(_rule(str, checks.choice, FILL_STRATEGIES), "midpoint")
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
    value out of its range; :func:`run_sweep` checks the rest before its first cell.
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
    _named("bias", bias_law if task == "rep_learning" else parse_bias_spec, raw["bias"])
    values = {
        key: _named(key, _KEYS[key].metadata["parse"], text)
        for key, text in raw.items() if key not in ("task", "bias")
    }
    return ExperimentConfig(task=task, bias=raw["bias"], **values)


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
    constants = BiasConstants(beta, lipschitz, omega, gamma, nu)
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
    """A robust recovery of one vector instance, how far it lies from the truth, and, if asked
    for, the check of the restricted cone that its error bound rests on (None otherwise)."""

    solution: LassoSolution
    num_checked: int | None  # the pairs the cone check scored
    recovery_error: float = _column()
    recovery_bound: float = _column()
    mu: float = _column()
    lambda_used: float = _column()
    iterations: int = _column()
    converged: bool = _column()
    diag_violations: int | None = _column()
    diag_min_ratio: float | None = _column()


def recover_and_evaluate(
    instance: RecoveryInstance, stats: NonlinearityStats, lambda_mode: str | float,
    max_iter: int = LassoConfig.max_iter, cone_check: bool = False,
) -> RecoveryOutcome:
    """Solve the robust lasso on ``instance`` and score the solution.

    The caller supplies ``stats``, the moments of the instance's bias law,
    ``make_nonlinearity_stats(parse_bias_spec(instance.bias))``, so that a
    sweep computes them once for all its cells.  The penalty comes from
    ``lambda_mode`` (see :func:`penalty_level`), and ``max_iter`` bounds the
    solver's steps.  With ``cone_check``, :func:`~relurec.lasso.check_restricted_lower_bound`
    first searches the cone of the penalty used, the support of ``e_star`` and the
    noise bound ``||A^T w||_inf``; the check leaves the other metrics as they are.
    """
    lam = penalty_level(lambda_mode, instance, stats)
    cone = (None, None, None)
    if cone_check:
        cone = check_restricted_lower_bound(
            instance.A, lam=lam, sigma=stats.sigma, eta=stats.eta,
            support=np.flatnonzero(instance.e_star),
            delta_norm=float(np.abs(instance.A.T @ instance.w).max()),
        )
    solution = solve_robust_lasso(instance.v, instance.A, LassoConfig(lam=lam, max_iter=max_iter))
    error, bound = recovery_error_and_bound(solution, instance, stats)
    num_checked, violations, min_ratio = cone
    return RecoveryOutcome(
        solution, num_checked, error, bound, stats.mu, lam, solution.iterations,
        solution.converged, violations, min_ratio,
    )


def _run_recovery_cell(
    config: ExperimentConfig, model: BiasModel | float, stats: NonlinearityStats,
    d: int, k: int, s: int, seed: int,
) -> dict:
    """The result fields of one recovery cell; ``stats`` holds the moments of ``model``."""
    instance = generate_recovery_instance(
        d, k, s, config.delta, config.outlier_magnitude, model, seed
    )
    outcome = recover_and_evaluate(
        instance, stats, config.lambda_mode, cone_check=config.cone_check
    )
    return dict(delta=config.delta, lambda_mode=config.lambda_mode, **outcome.metrics())


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
}


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Run every cell of the Cartesian product of dimensions and seeds.

    Each row maps the task's ``RESULT_COLUMNS``, in order, to the cell's
    values, and then ``wall_time_ms`` to its wall time.  A failing cell
    records its error message instead of aborting the sweep, and its
    metrics stay None; cell order is deterministic.  Before its first cell the
    sweep parses its bias law.  A rep sweep evaluates the law's flatness and
    steepness at ``gamma`` once, and the window mass of a set ``nu``; each cell
    only that of its own ``nu``.  A recovery sweep computes the law's moments
    once, and an agnostic one its penalty at each ``d``.  Each grid point then
    meets the rules between ``d``, ``n``, ``s`` and ``k`` of its cells' library
    calls, in their order.  What fails there would fail every cell: it raises
    ``ValueError("config key '<key>': " + <the cell's message>)``.  Each cell
    looks its runner up on the module, which a caller may rebind.
    """
    model = parse_bias_spec(config.bias)
    rep = config.task == "rep_learning"
    if rep:
        beta = _named("bias", flatness_beta, model, config.gamma)
        lipschitz = _named("bias", lipschitz_L, model, config.gamma)
        if config.nu is not None:
            _named("nu", omega_min_mass, model, config.gamma, config.nu)
    else:
        stats = _named("bias", make_nonlinearity_stats, model)
        if config.lambda_mode == "agnostic":
            for d in config.d:
                _named("bias", agnostic_lambda, d, stats.sigma, config.delta)
    points = []
    for d in config.d:
        n_values = config.n.resolve(d) if rep else (None,)
        s_values = (None,) if rep else config.s.resolve(d)
        for n, k, s in itertools.product(n_values, config.k, s_values):
            if rep:  # generate_representation_instance
                _named("k", checks.at_most, "k", k, "min(d, n)", min(d, n))
            else:  # generate_recovery_instance, check_restricted_lower_bound, solve_robust_lasso
                _named("s", checks.at_most, "s", s, "d", d)
                if config.cone_check:  # outliers of size 0 leave the support empty
                    support = s if config.outlier_magnitude else 0
                    _named("cone_check", checks.at_most, "k + |S|", k + support, "d/4", d / 4)
                _named("k", checks.at_most, "k", k, "d - 1", d - 1)
            points.append((d, n, k, s))
    columns = RESULT_COLUMNS[config.task]
    records: list[dict] = []
    for (d, n, k, s), seed in itertools.product(points, config.seeds):
        start = time.perf_counter()
        try:
            if rep:
                computed = _run_rep_cell(config, model, beta, lipschitz, d, n, k, seed)
            else:
                computed = _run_recovery_cell(config, model, stats, d, k, s, seed)
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
    for q in (0.25, 0.5, 0.75):
        p = q * (len(x) - 1)
        i = int(p)
        a, b, t = x[i], x[min(i + 1, len(x) - 1)], p - i
        if math.isfinite(a) and math.isfinite(b):  # interpolated and rounded as np.percentile does
            quartiles.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
        elif t == 0.0:
            quartiles.append(a)
        else:  # the infinite end, where numpy meets inf - inf; NaN between -inf and inf
            quartiles.append(math.nan if a == -b else a if math.isinf(a) else b)
    q1, q2, q3 = quartiles
    iqr = q3 - q1
    if q1 == q3 and math.isinf(q1):
        # the limit of inf - inf: 0 if the order statistics from q1's lower one to q3's upper
        # one are all that infinity, else inf, since q1 or q3 also weighs a finite value
        low, high = x[int(0.25 * (len(x) - 1))], x[math.ceil(0.75 * (len(x) - 1))]
        iqr = 0.0 if low == high else math.inf
    return {"median": q2, "iqr": iqr, "count": len(values)}


# per task: the grid dimensions that name a summary.json group, its metrics, and the bound of
# the first; a metric a cell leaves empty, such as those of a recovery without the cone check,
# is not summarised
_SUMMARISED = {
    "rep_learning": (("d", "n", "k"), ("frob_err_sq",), "rep_bound"),
    "robust_recovery": (
        ("d", "k", "s"), ("recovery_error", "diag_violations", "diag_min_ratio"), "recovery_bound",
    ),
}


def _summarise(records: list[dict]) -> dict:
    groups: dict[str, dict] = {}
    for row in records:
        dims, names, bound_name = _SUMMARISED[row["task"]]
        key = ",".join(f"{dim}={row[dim]}" for dim in dims)
        bucket = groups.setdefault(key, {})
        if row["error"] is not None:
            bucket.setdefault("errors", 0)
            bucket["errors"] += 1
            continue
        for name in names:
            if row[name] is not None:
                bucket.setdefault(name, []).append(row[name])
        value, bound = row[names[0]], row[bound_name]
        if value is not None and bound:
            bucket.setdefault(f"{names[0]}_over_bound", []).append(value / bound)
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
