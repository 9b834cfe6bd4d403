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
estimate separately, and the likelihood gap between two candidates is the
difference of their scores.

A row's interval depends only on the largest and smallest entry of its
support, so :func:`reconstruct_matrix` takes all rows at once: masked row
reductions over ``Y > 0``, the clipped mode per row, one masked subtraction
over a per-row fill.  Each row's estimate depends on that row alone, so
``reconstruct_matrix(Y[i:i+1], ...)`` is the one-row estimator.  The
estimate is feasible by construction and is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks as checks
from .bias import BiasConstants, BiasModel

__all__ = [
    "EstimatedMatrix",
    "InfeasibleRowError",
    "log_likelihood",
    "reconstruct_matrix",
    "theoretical_rep_bound",
]

FILL_STRATEGIES = ("upper_boundary", "lower_boundary", "midpoint")


class InfeasibleRowError(ValueError):
    """The feasible interval for a row's shift is empty."""


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

    Raises ``ValueError`` naming a ``model`` that is not a :class:`BiasModel`,
    a ``Y`` that is not a 2-D array or the first of its entries that is a
    NaN, an infinity or negative, a ``gamma`` that is not a positive finite
    real number, and a ``nu`` that is not a nonnegative finite one.
    """
    checks.choice("fill", fill, FILL_STRATEGIES)
    checks.law("model", model)
    Y = checks.array("Y", Y, 2, nonnegative=True)
    gamma = checks.real("gamma", gamma, "positive")
    nu = checks.real("nu", nu, "nonnegative")
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
    fill_value = np.full(d, -gamma)
    ceiling = (bottom - beta) - nu
    if fill == "upper_boundary":
        fill_value[rows] = np.maximum(ceiling, -gamma)
    elif fill == "midpoint":
        fill_value[rows] = np.maximum((ceiling - gamma) / 2.0, -gamma)
    m_hat = np.repeat(fill_value[:, None], n, axis=1)
    np.subtract(Y, beta_hats[:, None], out=m_hat, where=on)
    return EstimatedMatrix(m_hat=m_hat, beta_hats=beta_hats)


# ----------------------------------------------------------------------
# the likelihood of an estimate or a candidate matrix
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
    """Log-likelihood of an estimate of ``Y``, each row against a baseline.

    A row with support scores ``log p(beta_hat) - log p(Y_min)``, or
    ``-inf`` where ``p(beta_hat)`` is zero.  An all-clipped row scores
    ``log P(B <= -max_j m_hat_ij) - log P(B <= 0)`` (``-gamma`` fills give
    ``log P(B <= gamma)``) and raises ``ValueError`` where ``P(B <= 0)``
    vanishes.  The baselines depend on ``Y`` alone, so the likelihood gap
    between two candidates is the difference of their scores.

    ``Y`` and ``model`` are checked as in :func:`reconstruct_matrix`.  The
    estimate must fit ``Y``, else ``ValueError`` names what does not: an
    ``m_hat`` not of the shape of ``Y`` or its first non-finite entry, a
    ``beta_hats`` without one entry per row of ``Y``, or the first row with
    support that breaks a rule: it has a finite ``beta_hat`` from which
    every ``Y_ij - m_hat_ij`` differs by at most ``4 eps`` times the
    largest magnitude in the row's ``Y``, ``m_hat`` and ``beta_hat``
    (``eps`` the float64 machine epsilon).  The score reads the shift from
    ``beta_hats``: ``Y - m_hat`` can round below an exponential law's
    support edge.
    """
    checks.law("model", model)
    Y = checks.array("Y", Y, 2, nonnegative=True)
    m_hat = checks.array("m_hat", estimate.m_hat, Y.shape)
    # NaN marks a row without support
    beta_hats = checks.array("beta_hats", estimate.beta_hats, Y.shape[:1], finite=False)
    on = Y > 0.0
    clipped = ~on.any(axis=1)
    rows = np.flatnonzero(~clipped)
    shift = np.where(clipped, 0.0, beta_hats)  # an all-clipped row has no shift to fit
    stray = np.max(np.abs(Y - m_hat - shift[:, None]), axis=1, where=on, initial=0.0)
    scale = np.maximum(np.max(np.maximum(np.abs(m_hat), Y), axis=1, initial=0.0), np.abs(shift))
    unfit = ~(np.isfinite(shift) & (stray <= 4.0 * np.finfo(float).eps * scale))
    if unfit.any():
        i = int(np.argmax(unfit))
        raise ValueError(f"estimate row {i}: Y - m_hat is {stray[i]:.3g} off beta_hat {shift[i]}")
    lp = _row_logliks(beta_hats[rows], m_hat, rows, model)
    # a row's baseline is its term at shift Y_min, or at ceiling 0 when all clipped
    bottom = np.min(Y, axis=1, where=on, initial=math.inf)[rows]
    base = _row_logliks(bottom, np.zeros((Y.shape[0], 1)), rows, model)
    live = np.isfinite(lp)
    if np.isneginf(base[clipped & live]).any():
        raise ValueError("baseline probability P(B <= 0) vanishes for this model")
    np.subtract(lp, base, out=lp, where=live)
    return sum(lp.tolist(), 0.0)


def theoretical_rep_bound(constants: BiasConstants, d: int) -> float:
    """Squared-Frobenius error bound ``2 L gamma d / (beta omega)`` of the bias constants.

    The leading constant is fixed at 2.  Scales linearly in the number of
    rows; ``math.inf`` for vacuous constants, whose flatness or window mass
    vanishes.  The bound has no column count ``n``: the acceptance suite
    compares it with the total error ``||M - M_hat||_F^2`` but gates the
    scaling in ``d`` on the error per observation, ``||M - M_hat||_F^2 / n``,
    since rows clipped to zero cost any estimator a total that grows with
    ``n``.  The paper's abstract states the O(d) claim without saying how
    ``n`` enters, so this normalisation is not settled by it.  ``ValueError``
    names a ``d`` that is not an integer of at least 1.
    """
    d = checks.integer("row count d", d, 1)
    if constants.vacuous:
        return math.inf
    return 2.0 * constants.lipschitz * constants.gamma * d / (constants.beta * constants.omega)
