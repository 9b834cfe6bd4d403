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
over a per-row fill.  Each row's estimate depends on that row alone, so
``reconstruct_matrix(Y[i:i+1], ...)`` is the one-row estimator.  The
estimate is feasible by construction; the feasibility check guards the
candidates passed to :func:`log_likelihood_gap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bias import BiasConstants, BiasModel

__all__ = [
    "EstimatedMatrix",
    "InfeasibleRowError",
    "InfeasibilityError",
    "log_likelihood_gap",
    "reconstruct_matrix",
    "theoretical_rep_bound",
]

FILL_STRATEGIES = ("upper_boundary", "lower_boundary", "midpoint")


class InfeasibleRowError(ValueError):
    """The feasible interval for a row's shift is empty."""


class InfeasibilityError(ValueError):
    """A candidate matrix violates the feasible-set constraints."""


def _checked_inputs(Y, model, gamma: float, nu: float) -> np.ndarray:
    """``Y`` as a float matrix, after the input checks both public entry points share."""
    if not isinstance(model, BiasModel):
        raise ValueError(f"the bias law must be a distributional BiasModel, got {model!r}")
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be nonnegative and finite, got {nu}")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"Y must be a 2-D matrix, got shape {Y.shape}")
    if Y.size and not (Y.min() >= 0.0 and Y.max() < math.inf):  # NaN fails both tests
        i, j = np.argwhere(~((Y >= 0.0) & (Y < math.inf)))[0]
        raise ValueError(
            f"Y row {i} holds {Y[i, j]} at column {j}; "
            "a rectified output is finite and nonnegative"
        )
    return Y


# ----------------------------------------------------------------------
# batched row functions over rows with support, each given by its largest
# (top) and smallest (bottom) observation and whether it has clipped entries
# ----------------------------------------------------------------------


def _shift_intervals(top, bottom, mixed, gamma, nu):
    """Feasible shift intervals ``(lo, hi)``.

    The largest observation pins ``beta >= Y_max - gamma``; the smallest
    pins ``beta <= Y_min + gamma`` and, when the row also has clipped
    entries, the separation tightens this to ``Y_min + gamma - nu``.
    """
    return top - gamma, bottom + gamma - np.where(mixed, nu, 0.0)


def _shift_logliks(beta, bottom, model: BiasModel) -> np.ndarray:
    """``log p(beta) - log p(bottom)`` per row; ``-inf`` where ``p(beta)`` is zero."""
    lp = model.log_density(beta)
    out = np.full(lp.shape, -np.inf)
    finite = np.isfinite(lp)
    out[finite] = lp[finite] - model.log_density(bottom[finite])
    return out


def _row_mles(top, bottom, mixed, index, model: BiasModel, gamma: float, nu: float):
    """Per-row ``(beta, loglik, interior)``; ``index`` numbers the rows in errors."""
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
    return beta, loglik, interior


def _ceiling_loglik(x: float, model: BiasModel) -> float:
    """``log P(B <= -x) - log P(B <= 0)``: an all-clipped row with ceiling ``x``."""
    mass = float(model.cdf(-x))
    base = float(model.cdf(0.0))
    if mass <= 0.0:
        return -math.inf
    if base <= 0.0:
        raise ValueError("baseline probability P(B <= 0) vanishes for this model")
    return math.log(mass) - math.log(base)


@dataclass(frozen=True)
class EstimatedMatrix:
    """Reconstructed matrix with per-row shift estimates and diagnostics."""

    m_hat: np.ndarray
    beta_hats: np.ndarray  # NaN for rows with empty support
    row_statuses: tuple[str, ...]
    total_loglik: float


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

    The estimate is feasible by construction: each ``beta_hat`` is clipped
    into its row's interval, so support entries lie within ``gamma`` and
    their residual is ``beta_hat``, and each fill lies in its admissible
    interval.  The only slack is the ``1e-12`` tolerance on an interval
    that is empty by rounding.

    Raises ``ValueError`` for a ``model`` that is not a :class:`BiasModel`,
    for a ``Y`` that is not a 2-D matrix or holds a NaN, an infinity or a
    negative entry (naming the first such row), for ``gamma`` not positive
    and finite, and for ``nu`` not nonnegative and finite.
    """
    if fill not in FILL_STRATEGIES:
        raise ValueError(f"fill must be one of {FILL_STRATEGIES}, got {fill!r}")
    Y = _checked_inputs(Y, model, gamma, nu)
    d, n = Y.shape
    on = Y > 0.0
    rows = np.flatnonzero(on.any(axis=1))
    top = Y.max(axis=1, initial=0.0)[rows]  # Y >= 0, so the row max is the support's
    bottom = np.min(Y, axis=1, where=on, initial=math.inf)[rows]
    mixed = ~on.all(axis=1)[rows]
    beta, loglik, interior = _row_mles(top, bottom, mixed, rows, model, gamma, nu)

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
    return EstimatedMatrix(
        m_hat=m_hat, beta_hats=beta_hats, row_statuses=tuple(statuses), total_loglik=total
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
    if not over <= gamma + tol:  # a NaN entry propagates through max/min and fails here
        if not math.isfinite(over):
            raise InfeasibilityError(f"{label}: an entry is not finite ({over})")
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

    The other inputs are checked as in :func:`reconstruct_matrix`, and
    ``M`` and ``X`` must lie in the feasible set for ``Y`` (naming the
    offending matrix and row otherwise).  Per-row normalisation cancels, so
    only candidate shifts (and ceilings of all-clipped rows) enter.
    """
    Y = _checked_inputs(Y, model, gamma, nu)
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


def theoretical_rep_bound(constants: BiasConstants, d: int) -> float:
    """Squared-Frobenius error bound ``2 L gamma d / (beta omega)`` of the bias constants.

    The leading constant is fixed at 2.  Scales linearly in the number of
    rows; ``math.inf`` for vacuous constants, whose flatness or window mass
    vanishes.  The bound has no column count ``n``: the acceptance suite
    compares it with the total error ``||M - M_hat||_F^2`` but gates the
    scaling in ``d`` on the error per observation, ``||M - M_hat||_F^2 / n``,
    since rows clipped to zero cost any estimator a total that grows with
    ``n``.  The paper's abstract states the O(d) claim without saying how
    ``n`` enters, so this normalisation is not settled by it.
    """
    if d < 1:
        raise ValueError(f"row count must be positive, got {d}")
    if constants.vacuous:
        return math.inf
    return 2.0 * constants.lipschitz * constants.gamma * d / (constants.beta * constants.omega)
