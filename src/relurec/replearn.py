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

A row's interval depends only on the largest and smallest entry of its
support, so :func:`reconstruct_matrix` takes all rows at once: masked row
reductions over ``Y > 0``, the clipped mode per row, one masked subtraction
over a per-row fill.  The feasibility check, the likelihood gap and the
one-row helpers run on the same batched functions.
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


def _observations(Y, first_row: int = 0) -> np.ndarray:
    """``Y`` as a float matrix; ``ValueError`` naming the first entry no rectifier outputs."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"Y must be a 2-D matrix, got shape {Y.shape}")
    if Y.size and not (Y.min() >= 0.0 and Y.max() < math.inf):  # NaN fails both tests
        i, j = np.argwhere(~((Y >= 0.0) & (Y < math.inf)))[0]
        raise ValueError(
            f"Y row {first_row + i} holds {Y[i, j]} at column {j}; "
            "a rectified output is finite and nonnegative"
        )
    return Y


def row_support(y_row: np.ndarray, index: int = 0) -> RowObservation:
    """Split a row into its surviving (strictly positive) part and the rest."""
    y_row = _observations(np.asarray(y_row, dtype=float)[np.newaxis], first_row=index)[0]
    support = np.flatnonzero(y_row > 0.0)
    values = np.sort(y_row[support])[::-1]
    return RowObservation(index=index, n=y_row.size, support=support, positive_values=values)


# ----------------------------------------------------------------------
# batched row functions over rows with support, each given by its largest
# (top) and smallest (bottom) observation and whether it has clipped entries
# ----------------------------------------------------------------------


def _shift_intervals(top, bottom, mixed, gamma, nu):
    """Feasible shift intervals ``(lo, hi)``; see :func:`feasible_shift_interval`."""
    return top - gamma, bottom + gamma - np.where(mixed, nu, 0.0)


def _shift_logliks(beta, bottom, model: BiasModel) -> np.ndarray:
    """``log p(beta) - log p(bottom)`` per row; ``-inf`` where ``p(beta)`` is zero."""
    lp = model.log_density(beta)
    out = np.full(lp.shape, -np.inf)
    finite = np.isfinite(lp)
    out[finite] = lp[finite] - model.log_density(bottom[finite])
    return out


def _row_mles(top, bottom, mixed, index, model: BiasModel, gamma: float, nu: float):
    """Per-row ``(lo, hi, beta, loglik, interior)``; ``index`` numbers the rows in errors."""
    lo, hi = _shift_intervals(top, bottom, mixed, gamma, nu)
    empty = lo > hi + 1e-12
    if empty.any():
        i = int(np.argmax(empty))
        raise InfeasibleRowError(
            f"row {index[i]}: empty feasible interval [{float(lo[i])}, {float(hi[i])}] "
            f"(spread {top[i] - bottom[i]:.6g} vs bound {gamma}, separation {nu})"
        )
    hi = np.maximum(hi, lo)
    # a log-concave density rises up to its mode and falls after it, so the
    # argmax is the clipped mode; where the density vanishes on the whole
    # interval (an exponential law starting right of hi) all shifts tie at
    # zero likelihood, and the tie goes to lo
    beta = np.minimum(np.maximum(model.mode, lo), hi)
    loglik = _shift_logliks(beta, bottom, model)
    beta = np.where(loglik == -np.inf, lo, beta)
    margin = 1e-9 * np.maximum(1.0, hi - lo)
    interior = (lo + margin < beta) & (beta < hi - margin)
    return lo, hi, beta, loglik, interior


def _ceiling_loglik(x: float, model: BiasModel) -> float:
    """``log P(B <= -x) - log P(B <= 0)``: an all-clipped row with ceiling ``x``."""
    mass = float(model.cdf(-x))
    base = float(model.cdf(0.0))
    if mass <= 0.0:
        return -math.inf
    if base <= 0.0:
        raise ValueError("baseline probability P(B <= 0) vanishes for this model")
    return math.log(mass) - math.log(base)


def _one_row(row: RowObservation):
    """A row with support as the ``(top, bottom, mixed)`` input of the batched functions."""
    if row.s == 0:
        raise ValueError(f"row {row.index} has empty support; no shift to estimate")
    return row.positive_values[:1], row.positive_values[-1:], np.array([row.s < row.n])


def feasible_shift_interval(
    row: RowObservation, gamma: float, nu: float
) -> tuple[float, float]:
    """Interval of residual shifts ``beta`` compatible with the feasible set.

    The largest observation pins ``beta >= Y_max - gamma``; the smallest
    pins ``beta <= Y_min + gamma`` and, when the row also has clipped
    entries, the separation tightens this to ``Y_min + gamma - nu``.
    """
    lo, hi = _shift_intervals(*_one_row(row), gamma, nu)
    return float(lo[0]), float(hi[0])


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
        return _ceiling_loglik(-gamma if x_star is None else float(x_star), model)
    if beta is None:
        raise ValueError(f"row {row.index} has support; a shift value is required")
    lo, hi = feasible_shift_interval(row, gamma, nu)
    if not (lo - 1e-9 <= beta <= hi + 1e-9):
        raise InfeasibleBetaError(
            f"shift {beta} outside feasible interval [{lo}, {hi}] for row {row.index}"
        )
    return float(_shift_logliks(np.array([float(beta)]), row.positive_values[-1:], model)[0])


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
    lo, hi, beta, loglik, interior = _row_mles(*_one_row(row), (row.index,), model, gamma, nu)
    status = "interior" if interior[0] else "boundary"
    return RowMle(float(beta[0]), (float(lo[0]), float(hi[0])), float(loglik[0]), status)


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

    Raises ``ValueError`` for a ``Y`` that is not a 2-D matrix or holds a
    NaN, an infinity or a negative entry (naming the first such row), for
    ``gamma`` not positive and finite, and for ``nu`` not nonnegative and
    finite.
    """
    if fill not in FILL_STRATEGIES:
        raise ValueError(f"fill must be one of {FILL_STRATEGIES}, got {fill!r}")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative and finite, got {nu}")
    Y = _observations(Y)
    d, n = Y.shape
    on = Y > 0.0
    rows = np.flatnonzero(on.any(axis=1))
    top = Y.max(axis=1, initial=0.0)[rows]  # Y >= 0, so the row max is the support's
    bottom = np.min(Y, axis=1, where=on, initial=math.inf)[rows]
    mixed = ~on.all(axis=1)[rows]
    lo, hi, beta, loglik, interior = _row_mles(top, bottom, mixed, rows, model, gamma, nu)

    # one fill value per row: the row's ceiling m_min - nu on mixed rows
    # (moot on fully observed ones), -gamma on rows with empty support
    fill_value = np.full(d, -float(gamma))
    ceiling = (bottom - beta) - nu
    if fill == "upper_boundary":
        fill_value[rows] = np.maximum(ceiling, -gamma)
    elif fill == "midpoint":
        fill_value[rows] = np.maximum((ceiling - gamma) / 2.0, -gamma)
    shift = np.zeros(d)
    shift[rows] = beta
    m_hat = np.repeat(fill_value[:, None], n, axis=1)
    np.subtract(Y, shift[:, None], out=m_hat, where=on)

    beta_hats = np.full(d, np.nan)
    beta_hats[rows] = beta
    statuses = np.full(d, "empty_support_row", dtype=object)
    statuses[rows] = np.where(interior, "interior", "boundary")
    total = sum(loglik.tolist(), 0.0)
    if rows.size < d:
        total += (d - rows.size) * _ceiling_loglik(-gamma, model)

    try:
        _check_feasible(m_hat, Y, gamma, nu, label="reconstruction")
    except InfeasibilityError as exc:
        raise ConsistencyError(f"reconstruction violated its own constraints: {exc}") from exc
    return EstimatedMatrix(
        m_hat=m_hat, beta_hats=beta_hats, row_statuses=tuple(statuses), fill_strategy=fill,
        total_loglik=total, gamma=float(gamma), nu=float(nu),
    )


# ----------------------------------------------------------------------
# feasibility checking and likelihood comparison of candidate matrices
# ----------------------------------------------------------------------


def _check_feasible(
    X: np.ndarray, Y: np.ndarray, gamma: float, nu: float, label: str, tol: float = 1e-8
) -> None:
    """Raise ``InfeasibilityError`` naming the first row where ``X`` leaves the feasible set."""
    X = np.asarray(X, dtype=float)
    if X.shape != Y.shape:
        raise InfeasibilityError(f"{label}: shape {X.shape} does not match Y {Y.shape}")
    over = max(X.max(initial=-math.inf), -X.min(initial=math.inf))
    if over > gamma + tol:
        raise InfeasibilityError(f"{label}: entry magnitude {over:.6g} exceeds bound {gamma}")
    on = Y > 0.0
    resid = Y - X
    # rows without support get spread -inf, rows without clipped entries gap +inf
    spread = np.max(resid, axis=1, where=on, initial=-math.inf) - np.min(
        resid, axis=1, where=on, initial=math.inf
    )
    gap = np.min(X, axis=1, where=on, initial=math.inf) - np.max(
        X, axis=1, where=~on, initial=-math.inf
    )
    varies = spread > tol
    bad = varies | (gap < nu - tol)
    if bad.any():
        i = int(np.argmax(bad))
        if varies[i]:
            raise InfeasibilityError(f"{label}: row {i} support residuals vary by {spread[i]:.6g}")
        raise InfeasibilityError(f"{label}: row {i} separation {gap[i]:.6g} below required {nu}")


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
    on = Y > 0.0
    rows = np.flatnonzero(on.any(axis=1))
    cols = np.argmin(np.where(on, Y, math.inf), axis=1)[rows]  # each row's smallest observation

    def row_logliks(C: np.ndarray) -> np.ndarray:
        # all-clipped rows: log P(B <= -max_j C_ij); the others: the shift's log-density
        mass = model.cdf(-C.max(axis=1))
        out = np.full(C.shape[0], -math.inf)
        np.log(mass, out=out, where=mass > 0.0)
        out[rows] = model.log_density(Y[rows, cols] - C[rows, cols])
        return out

    lp_m = row_logliks(np.asarray(M, dtype=float))
    lp_x = row_logliks(np.asarray(X, dtype=float))
    differ = lp_m != lp_x  # equal terms cancel, also where both candidates are impossible
    return sum((lp_m[differ] - lp_x[differ]).tolist(), 0.0)


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
