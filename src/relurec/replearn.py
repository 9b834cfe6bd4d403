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
clipped to the interval, and the estimate reads nothing of the law but its
mode and the start of its support.  :func:`log_likelihood` scores an
estimate separately.

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
    "log_likelihood",
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


def _row_mles(top, bottom, mixed, index, model: BiasModel, gamma: float, nu: float):
    """Shift estimates of the rows with support; ``index`` numbers them in errors.

    Each row is given by its largest (``top``) and smallest (``bottom``)
    observation and whether it has clipped entries (``mixed``).  The largest
    pins ``beta >= Y_max - gamma``; the smallest pins
    ``beta <= Y_min + gamma``, tightened by the separation to
    ``Y_min + gamma - nu`` on a mixed row.
    """
    lo, hi = top - gamma, bottom + gamma - np.where(mixed, nu, 0.0)
    empty = lo > hi + 1e-12
    if empty.any():
        i = int(np.argmax(empty))
        raise InfeasibleRowError(
            f"row {index[i]}: empty feasible interval [{float(lo[i])}, {float(hi[i])}] "
            f"(spread {top[i] - bottom[i]:.6g} vs bound {gamma}, separation {nu})"
        )
    hi = np.maximum(hi, lo)
    # a log-concave density rises up to its mode and falls after it, so the
    # argmax is the clipped mode; where the support starts right of the whole
    # interval (an exponential law) all shifts tie at zero likelihood, and
    # the tie goes to lo
    beta = np.minimum(np.maximum(model.mode, lo), hi)
    return np.where(hi < model.support()[0], lo, beta)


@dataclass(frozen=True)
class EstimatedMatrix:
    """Reconstructed matrix and its per-row shifts; :func:`log_likelihood` scores it."""

    m_hat: np.ndarray
    beta_hats: np.ndarray  # NaN for rows with empty support


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
    beta_hats = np.full(d, np.nan)
    beta_hats[rows] = beta = _row_mles(top, bottom, mixed, rows, model, gamma, nu)

    # one fill value per row: the row's ceiling m_min - nu on mixed rows
    # (moot on fully observed ones), -gamma on rows with empty support
    fill_value = np.full(d, -float(gamma))
    ceiling = (bottom - beta) - nu
    if fill == "upper_boundary":
        fill_value[rows] = np.maximum(ceiling, -gamma)
    elif fill == "midpoint":
        fill_value[rows] = np.maximum((ceiling - gamma) / 2.0, -gamma)
    m_hat = np.repeat(fill_value[:, None], n, axis=1)
    np.subtract(Y, beta_hats[:, None], out=m_hat, where=on)
    return EstimatedMatrix(m_hat=m_hat, beta_hats=beta_hats)


# ----------------------------------------------------------------------
# likelihoods of estimates and candidate matrices, and feasibility checking
# ----------------------------------------------------------------------


def _row_logliks(shifts, C: np.ndarray, rows, model: BiasModel) -> np.ndarray:
    """Per-row log-likelihood of candidate ``C``, ``-inf`` where it is impossible.

    ``log p(shift)`` on the rows with support, numbered by ``rows``, and
    ``log P(B <= -max_j C_ij)`` on the all-clipped others.
    """
    mass = model.cdf(-C.max(axis=1, initial=-math.inf))
    out = np.full(C.shape[0], -math.inf)
    np.log(mass, out=out, where=mass > 0.0)
    out[rows] = model.log_density(shifts)
    return out


def log_likelihood(Y: np.ndarray, estimate: EstimatedMatrix, model: BiasModel) -> float:
    """Log-likelihood of a :func:`reconstruct_matrix` estimate, each row against a baseline.

    A row with support scores ``log p(beta_hat) - log p(Y_min)``, or
    ``-inf`` where ``p(beta_hat)`` is zero.  An all-clipped row, filled at
    ``-gamma``, scores ``log P(B <= gamma) - log P(B <= 0)`` and raises
    ``ValueError`` where ``P(B <= 0)`` vanishes.  The shifts are read from
    ``beta_hats``: ``Y - m_hat`` can round below an exponential law's
    support edge.
    """
    Y = np.asarray(Y, dtype=float)
    if estimate.m_hat.shape != Y.shape:
        raise ValueError(f"estimate shape {estimate.m_hat.shape} does not match Y {Y.shape}")
    on = Y > 0.0
    clipped = ~on.any(axis=1)
    rows = np.flatnonzero(~clipped)
    lp = _row_logliks(estimate.beta_hats[rows], estimate.m_hat, rows, model)
    # a row's baseline is its term at shift Y_min, or at ceiling 0 when all clipped
    bottom = np.min(Y, axis=1, where=on, initial=math.inf)[rows]
    base = _row_logliks(bottom, np.zeros((Y.shape[0], 1)), rows, model)
    live = np.isfinite(lp)
    if np.isneginf(base[clipped & live]).any():
        raise ValueError("baseline probability P(B <= 0) vanishes for this model")
    np.subtract(lp, base, out=lp, where=live)
    return sum(lp.tolist(), 0.0)


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
    lp_m, lp_x = (
        _row_logliks(Y[rows, cols] - C[rows, cols], C, rows, model)
        for C in (np.asarray(M, dtype=float), np.asarray(X, dtype=float))
    )
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
