"""Row-wise maximum-likelihood reconstruction for rectified observations.

Given a nonnegative observation matrix ``Y`` whose positive entries are
shifted copies of an unknown bounded matrix (one shared shift per row)
and whose zeros mark clipped entries, the estimator here recovers each
row shift by maximising the bias log-density over a feasible interval,
then fills the unobserved (clipped) entries inside their admissible
range.

The feasible set for a candidate matrix ``X`` given ``Y``, a bound
``gamma`` and a separation ``nu`` requires:

* ``|X_ij| <= gamma`` everywhere,
* on each row's support (``Y_ij > 0``) the residual ``Y_ij - X_ij`` is
  the same for every entry, and
* every off-support entry sits at least ``nu`` below the smallest
  on-support entry of ``X`` in that row.

Under these constraints the row log-likelihood reduces to a
one-dimensional function of the shared residual: the log-density of the
shift.  Every bias law is log-concave, so its maximiser is the law's mode
clipped to the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bias import BiasConstants, BiasModel

__all__ = [
    "ConsistencyError",
    "EstimatedMatrix",
    "InfeasibleBetaError",
    "InfeasibleRowError",
    "InfeasibilityError",
    "RowMle",
    "RowObservation",
    "VacuousBoundError",
    "feasible_shift_interval",
    "estimate_row_bias",
    "log_likelihood_gap",
    "reconstruct_matrix",
    "row_log_likelihood",
    "row_support",
    "theoretical_rep_bound",
]

FILL_STRATEGIES = ("upper_boundary", "lower_boundary", "midpoint")


class InfeasibleRowError(ValueError):
    """The feasible interval for a row's shift is empty."""


class InfeasibleBetaError(ValueError):
    """A candidate shift lies outside its row's feasible interval."""


class InfeasibilityError(ValueError):
    """A candidate matrix violates the feasible-set constraints."""


class ConsistencyError(RuntimeError):
    """An internally produced estimate failed its own feasibility check."""


class VacuousBoundError(ValueError):
    """A requested theoretical bound is infinite for these constants."""


@dataclass(frozen=True)
class RowObservation:
    """Support pattern and positive values of one observation row."""

    index: int
    n: int
    support: np.ndarray
    positive_values: np.ndarray  # sorted descending

    @property
    def s(self) -> int:
        return self.support.size

    @property
    def smallest_positive(self) -> float:
        if self.s == 0:
            raise ValueError(f"row {self.index} has empty support")
        return float(self.positive_values[-1])


def row_support(y_row: np.ndarray, index: int = 0) -> RowObservation:
    """Split a row into its surviving (strictly positive) part and the rest."""
    y_row = np.asarray(y_row, dtype=float)
    if (y_row < 0.0).any():
        raise ValueError(f"row {index} contains negative entries; not a rectified output")
    support = np.flatnonzero(y_row > 0.0)
    values = np.sort(y_row[support])[::-1]
    return RowObservation(index=index, n=y_row.size, support=support, positive_values=values)


def feasible_shift_interval(
    row: RowObservation, gamma: float, nu: float
) -> tuple[float, float]:
    """Interval of residual shifts ``beta`` compatible with the feasible set.

    The largest observation pins ``beta >= Y_max - gamma``; the smallest
    pins ``beta <= Y_min + gamma`` and, when the row also has clipped
    entries, the separation tightens this to ``Y_min + gamma - nu``.
    """
    if row.s == 0:
        raise ValueError(f"row {row.index} has empty support; no shift to estimate")
    lo = float(row.positive_values[0]) - gamma
    hi = float(row.positive_values[-1]) + gamma
    if row.s < row.n:
        hi -= nu
    return lo, hi


def row_log_likelihood(
    row: RowObservation,
    beta: float | None,
    model: BiasModel,
    gamma: float,
    nu: float,
    x_star: float | None = None,
) -> float:
    """Normalised log-likelihood contribution of one row.

    For rows with support the contribution is
    ``log p(beta) - log p(Y_min)``, the density of the candidate shift
    relative to the zero-shift baseline; ``-inf`` is returned when the
    candidate shift has zero density.  For all-clipped rows it is
    ``log P(B <= -x) - log P(B <= 0)`` evaluated at the candidate ceiling
    ``x`` (``x_star``, defaulting to ``-gamma``).
    """
    if row.s == 0:
        x = -gamma if x_star is None else float(x_star)
        mass = float(model.cdf(-x))
        base = float(model.cdf(0.0))
        if mass <= 0.0:
            return -math.inf
        if base <= 0.0:
            raise ValueError("baseline probability P(B <= 0) vanishes for this model")
        return math.log(mass) - math.log(base)
    if beta is None:
        raise ValueError(f"row {row.index} has support; a shift value is required")
    lo, hi = feasible_shift_interval(row, gamma, nu)
    if not (lo - 1e-9 <= beta <= hi + 1e-9):
        raise InfeasibleBetaError(
            f"shift {beta} outside feasible interval [{lo}, {hi}] for row {row.index}"
        )
    lp = float(model.log_density(beta))
    if not math.isfinite(lp):
        return -math.inf
    return lp - float(model.log_density(row.smallest_positive))


@dataclass(frozen=True)
class RowMle:
    """Maximiser of one row's shift likelihood."""

    beta_hat: float
    interval: tuple[float, float]
    loglik: float
    status: str  # "interior" | "boundary"


def estimate_row_bias(
    row: RowObservation, model: BiasModel, gamma: float, nu: float
) -> RowMle:
    """Maximise the shift likelihood of a single row with support.

    Raises
    ------
    InfeasibleRowError
        If the observations admit no shift at all (spread wider than the
        interval allows).
    """
    lo, hi = feasible_shift_interval(row, gamma, nu)
    if lo > hi + 1e-12:
        raise InfeasibleRowError(
            f"row {row.index}: empty feasible interval [{lo}, {hi}] "
            f"(spread {row.positive_values[0] - row.positive_values[-1]:.6g} "
            f"vs bound {gamma}, separation {nu})"
        )
    hi = max(hi, lo)
    # a log-concave density rises up to its mode and falls after it, so the
    # argmax is the clipped mode; where the density vanishes on the whole
    # interval (an exponential law starting right of hi) all shifts tie at
    # zero likelihood, and the tie goes to lo
    beta = min(max(model.mode, lo), hi)
    loglik = row_log_likelihood(row, beta, model, gamma, nu)
    if loglik == -math.inf:
        beta = lo
    margin = 1e-9 * max(1.0, hi - lo)
    status = "interior" if lo + margin < beta < hi - margin else "boundary"
    return RowMle(beta_hat=beta, interval=(lo, hi), loglik=loglik, status=status)


@dataclass(frozen=True)
class EstimatedMatrix:
    """Reconstructed matrix with per-row shift estimates and diagnostics."""

    m_hat: np.ndarray
    beta_hats: np.ndarray  # NaN for rows with empty support
    row_statuses: tuple[str, ...]
    fill_strategy: str
    total_loglik: float
    gamma: float
    nu: float


def reconstruct_matrix(
    Y: np.ndarray,
    model: BiasModel,
    gamma: float,
    nu: float,
    fill: str = "midpoint",
) -> EstimatedMatrix:
    """Estimate the pre-activation matrix behind rectified observations.

    Support entries become ``Y_ij - beta_hat_i``; clipped entries are
    filled inside their admissible interval ``[-gamma, m_min - nu]``
    (where ``m_min`` is the row's smallest reconstructed support entry)
    according to ``fill``: its upper end, its lower end, or the midpoint.
    Rows with no support at all are filled with ``-gamma``.
    """
    if fill not in FILL_STRATEGIES:
        raise ValueError(f"fill must be one of {FILL_STRATEGIES}, got {fill!r}")
    Y = np.asarray(Y, dtype=float)
    d, n = Y.shape
    rows = [row_support(Y[i], i) for i in range(d)]
    occupied = [r for r in rows if r.s > 0]

    m_hat = np.full((d, n), -gamma, dtype=float)
    beta_hats = np.full(d, np.nan)
    statuses: list[str] = ["empty_support_row"] * d
    total = 0.0

    for r in occupied:
        mle = estimate_row_bias(r, model, gamma, nu)
        i, beta = r.index, mle.beta_hat
        beta_hats[i] = beta
        statuses[i] = mle.status
        m_hat[i, r.support] = Y[i, r.support] - beta
        if r.s < n:
            ceiling = (r.smallest_positive - beta) - nu
            if fill == "upper_boundary":
                value = max(ceiling, -gamma)
            elif fill == "lower_boundary":
                value = -gamma
            else:
                value = max((ceiling - gamma) / 2.0, -gamma)
            off = np.setdiff1d(np.arange(n), r.support, assume_unique=True)
            m_hat[i, off] = value
        total += mle.loglik

    for r in rows:
        if r.s == 0:
            total += row_log_likelihood(r, None, model, gamma, nu)

    estimate = EstimatedMatrix(
        m_hat=m_hat,
        beta_hats=beta_hats,
        row_statuses=tuple(statuses),
        fill_strategy=fill,
        total_loglik=total,
        gamma=float(gamma),
        nu=float(nu),
    )
    try:
        _check_feasible(m_hat, Y, gamma, nu, label="reconstruction")
    except InfeasibilityError as exc:
        raise ConsistencyError(f"reconstruction violated its own constraints: {exc}") from exc
    return estimate


# ----------------------------------------------------------------------
# feasibility checking and likelihood comparison of candidate matrices
# ----------------------------------------------------------------------


def _check_feasible(
    X: np.ndarray, Y: np.ndarray, gamma: float, nu: float, label: str, tol: float = 1e-8
) -> None:
    X = np.asarray(X, dtype=float)
    if X.shape != Y.shape:
        raise InfeasibilityError(f"{label}: shape {X.shape} does not match Y {Y.shape}")
    over = np.abs(X).max()
    if over > gamma + tol:
        raise InfeasibilityError(f"{label}: entry magnitude {over:.6g} exceeds bound {gamma}")
    for i in range(Y.shape[0]):
        on = Y[i] > 0.0
        if not on.any():
            continue
        resid = Y[i, on] - X[i, on]
        spread = float(np.ptp(resid))
        if spread > tol:
            raise InfeasibilityError(
                f"{label}: row {i} support residuals vary by {spread:.6g}"
            )
        if on.all():
            continue
        gap = X[i, on].min() - X[i, ~on].max()
        if gap < nu - tol:
            raise InfeasibilityError(
                f"{label}: row {i} separation {gap:.6g} below required {nu}"
            )


def log_likelihood_gap(
    M: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    model: BiasModel,
    gamma: float,
    nu: float,
) -> float:
    """Difference of normalised log-likelihoods of two feasible candidates.

    Both ``M`` and ``X`` must lie in the feasible set for ``Y``; the
    offending matrix and row are named otherwise.  Per-row normalisation
    cancels in the difference, so only candidate shifts (and ceilings of
    all-clipped rows) enter.
    """
    Y = np.asarray(Y, dtype=float)
    _check_feasible(M, Y, gamma, nu, label="M")
    _check_feasible(X, Y, gamma, nu, label="X")
    M = np.asarray(M, dtype=float)
    X = np.asarray(X, dtype=float)
    total = 0.0
    for i in range(Y.shape[0]):
        on = Y[i] > 0.0
        if on.any():
            j = np.flatnonzero(on)[np.argmin(Y[i, on])]
            lp_m = float(model.log_density(Y[i, j] - M[i, j]))
            lp_x = float(model.log_density(Y[i, j] - X[i, j]))
        else:
            mass_m = float(model.cdf(-M[i].max()))
            mass_x = float(model.cdf(-X[i].max()))
            lp_m = math.log(mass_m) if mass_m > 0.0 else -math.inf
            lp_x = math.log(mass_x) if mass_x > 0.0 else -math.inf
        if lp_m == lp_x:
            continue  # also covers rows where both candidates are impossible
        total += lp_m - lp_x
    return total


def theoretical_rep_bound(constants: BiasConstants, d: int, c0: float = 2.0) -> float:
    """Squared-Frobenius error bound implied by the bias constants.

    Scales linearly in the number of rows; infinite (and rejected) when
    the flatness or window-mass constant vanishes.  The bound has no
    column count ``n``: the acceptance suite compares it with the total
    error ``||M - M_hat||_F^2`` but gates the scaling in ``d`` on the
    error per observation, ``||M - M_hat||_F^2 / n``, since rows clipped
    to zero cost any estimator a total that grows with ``n``.  The
    paper's abstract states the O(d) claim without saying how ``n``
    enters, so this normalisation is not settled by it.
    """
    if d < 1:
        raise ValueError(f"row count must be positive, got {d}")
    if constants.vacuous:
        raise VacuousBoundError(
            f"bound is vacuous: flatness={constants.beta}, window mass={constants.omega}"
        )
    return c0 * constants.lipschitz * constants.gamma * d / (constants.beta * constants.omega)
