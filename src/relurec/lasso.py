"""Outlier-robust linear recovery behind an unknown rectifying nonlinearity.

Observations ``v = ReLU(A c* + b) + e* + w`` are treated as a linear
model for the surrogate target ``mu c*``: the rectifier contributes an
effective slope ``mu`` plus zero-mean model noise whose size is captured
by two moments ``sigma`` and ``eta``.  Recovery solves the generalized
LASSO

    min_{c, e}  (1/2d) ||v - A c - e||_2^2  +  lambda ||e||_1

as Huber regression: the best ``e`` for a given ``c`` soft thresholds the
residual ``v - A c`` at ``d lambda``, which leaves the Huber loss of that
residual, piecewise quadratic in ``c`` (She & Owen, arXiv:1006.2592).  Each
step is the Newton step ``H^-1 A^T r`` from the residual ``r`` the last step
left, where ``H`` is the Gram of the rows that step did not flag as
outliers: exact once the flagged rows and their signs stop changing
(Madsen & Nielsen, BIT 30, 1990), so a solve takes a few steps.  Where
those rows lack full rank, the eigenvalues of ``H`` relative to ``A^T A``
are floored, and a step that would raise the objective is halved.  The
step needs only the triangular factor ``R`` of a QR of ``A`` (``Q`` is
never formed): ``H = R^T (I - B B^T) R`` with ``B = R^-T A_O^T`` for the
flagged rows ``A_O``.  Where ``A`` has a condition number ``kappa`` of at
most 1e2, ``R`` is the Cholesky factor of ``A^T A``, one pass over ``A``,
whose relative error is about ``kappa^2 u`` (CholeskyQR; Fukaya, Kannan,
Nakatsukasa, Yamamoto & Yanagisawa, arXiv:1809.11085).  Otherwise it comes
from a tall-skinny QR (TSQR; Demmel, Grigori, Hoemmen & Langou,
arXiv:0808.2664), as backward stable as one Householder QR of ``A``, so
the condition number of ``A`` is never squared.

The module also provides the rectifier's moments, penalty-level rules, the
recovery error with its rate bound (leading constant 1), and a search of the
restricted cone for pairs that violate the lower bound underlying the recovery
analysis.  One function, :func:`make_nonlinearity_stats`, computes the
moments: at a constant offset and under a Gaussian law they have
truncated-normal closed forms, and a fixed Gauss-Legendre rule averages the
constant-offset forms over a shifted-exponential or logistic law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks as checks
from .bias import BiasModel, bias_spec_to_config
from .generate import RecoveryInstance

__all__ = [
    "LassoConfig",
    "LassoSolution",
    "NonlinearityStats",
    "RankDeficiencyError",
    "agnostic_lambda",
    "check_restricted_lower_bound",
    "make_nonlinearity_stats",
    "oracle_lambda",
    "recovery_error_and_bound",
    "solve_robust_lasso",
]

# Phi and phi of the moments below
_STANDARD_NORMAL = BiasModel.gaussian()


class RankDeficiencyError(ValueError):
    """The design matrix is numerically rank deficient."""


@dataclass(frozen=True)
class NonlinearityStats:
    """Effective slope and noise moments of the rectifier for one bias spec."""

    mu: float
    sigma: float
    eta: float


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """200-point Gauss-Legendre nodes and weights on ``[-1, 1]``, computed once per process."""
    from numpy.polynomial.legendre import leggauss  # a launch without these laws skips it

    return leggauss(200)


def _tail_nodes(model: BiasModel) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights spanning the bias law's effective support."""
    lo, hi = model.support()
    lo = float(model.ppf(1e-10)) if not math.isfinite(lo) else lo
    hi = float(model.ppf(1.0 - 1e-10))
    x, w = _legendre_rule()
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * w


def _offset_rule(bias: BiasModel | float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability masses of a rule averaging over the offset.

    A constant offset ``b0`` is the one-node rule ``([b0], [1.0])``; a
    random law weights the :func:`_tail_nodes` rule by its density.
    ``ValueError`` names a constant offset that is not a finite real
    number, and a law whose masses do not sum to 1 within 1e-6, such as one
    whose spread is lost in rounding at its location.
    """
    if not isinstance(bias, BiasModel):
        return np.array([checks.real("constant bias", bias)]), np.array([1.0])
    nodes, weights = _tail_nodes(bias)
    mass = weights * np.asarray(bias.density(nodes))
    total = float(mass.sum())
    if not abs(total - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(
            f"the quadrature masses of bias law {bias_spec_to_config(bias)} sum to {total}, not 1"
        )
    return nodes, mass


def _residual_moments(b0, mu: float, std: float = 0.0):
    """``E[(ReLU(g+b) - mu g)^2]`` and ``E[g^2 (ReLU(g+b) - mu g)^2]`` over ``4^e``, and ``e``.

    The offset ``b`` is ``N(b0, std^2)``, and the constant ``b0`` at
    ``std = 0``.  Then ``X = g + b = b0 + tau Z`` with ``tau^2 = 1 + std^2``
    and ``Z`` standard normal, ``ReLU(X) = tau (Z + z)`` on ``Z > a``, with
    ``z = b0 / tau = -a``, and given ``Z`` the input ``g`` is Gaussian with
    mean ``Z / tau`` and variance ``w^2 = std^2 / tau^2``.  The truncated
    moments ``T_k = E[Z^k; Z > a]`` are ``T0 = Phi(z)``, ``T1 = phi(z)``,
    ``T2 = T0 + a T1``, ``T3 = (a^2 + 2) T1`` and ``T4 = 3 T2 + a^3 T1``;
    with ``E[g^2 | Z] = Z^2/tau^2 + w^2`` and ``E[g^3 | Z] = Z^3/tau^3 +
    3 w^2 Z/tau``, expanding the squares gives both moments, elementwise in
    ``b0``, in terms of them.  Beyond ``|z| = 40``, ``phi`` is 0 and
    ``Phi`` is 0 or 1 in floating point, so the ``T_k`` are taken at ``z``
    clipped to ``[-40, 40]``, where no power of ``a`` overflows.  The
    moments grow like ``b0^2 + std^2``, so ``b0`` and ``std`` enter them
    divided by ``2^e``, the least power of two above ``std`` and every
    ``|b0|`` (``e >= 0``).  Scaling by a power of two is exact, so the
    moments are those of the unscaled expansion times ``4^-e`` unless a
    term falls below the normal range.
    """
    b0 = np.asarray(b0, dtype=float)
    e = max(math.frexp(max(float(np.abs(b0).max()), std))[1], 0)
    tau = math.hypot(1.0, std)
    b = np.clip(b0 / tau, -40.0, 40.0)
    a = -b
    t0 = _STANDARD_NORMAL.cdf(b)
    t1 = _STANDARD_NORMAL.density(b)
    t2 = t0 + a * t1
    t3 = (a * a + 2.0) * t1
    t4 = 3.0 * t2 + a**3 * t1
    s = math.ldexp(1.0, -e)
    c, s2, st, w = s * b0, s * s, s * tau, std / tau
    cz, sw = c / tau, s * std
    cw = cz * std  # s z std: like s z and s std it stays below 1 where z std could overflow
    slope = s2 * t2 + cz * (s * t1)  # E[g ReLU(X)] over 4^e, which is mu over 4^e
    sig2 = st * st * t2 + 2.0 * c * (st * t1) + c * c * t0 - 2.0 * mu * slope + mu * mu * s2
    eta2 = (
        s2 * t4 + 2.0 * cz * (s * t3) + cz * cz * t2
        + (sw * sw * t2 + 2.0 * sw * cw * t1 + cw * cw * t0)
        - 2.0 * mu * ((s2 * t4 + cz * (s * t3)) / tau / tau + 3.0 * w * w * slope)
        + 3.0 * mu * mu * s2
    )
    return sig2, eta2, e


def make_nonlinearity_stats(bias: BiasModel | float) -> NonlinearityStats:
    """Effective slope ``mu`` and noise moments ``sigma``, ``eta`` of the rectifier.

    ``bias`` is either a constant offset or a :class:`BiasModel` whose
    draw is independent of the Gaussian input ``g``.  The slope is
    ``mu = E[g ReLU(g + b)]``, which is ``Phi(b0 / tau)`` for an offset
    drawn from ``N(b0, std^2)``, with ``tau^2 = 1 + std^2`` (Stein's lemma;
    a constant offset ``b0`` is ``std = 0``).
    ``sigma^2 = E[(ReLU(g+b) - mu g)^2]`` measures the residual size and
    ``eta^2 = E[g^2 (ReLU(g+b) - mu g)^2]`` its correlation with the design
    direction.  At a constant offset and under a Gaussian law all three are
    closed forms; under a shifted-exponential or logistic law they average
    the constant-offset closed forms over the nodes of :func:`_offset_rule`.
    ``ValueError`` names a law whose ``sigma`` or ``eta`` exceeds the largest
    float, and the faults :func:`_offset_rule` names.
    """
    if isinstance(bias, BiasModel) and bias.kind == "gaussian":
        (mean, std), mass = bias.params, np.array([1.0])
        nodes = np.array([mean])
    else:
        (nodes, mass), std = _offset_rule(bias), 0.0
    mu = float(np.sum(mass * _STANDARD_NORMAL.cdf(nodes / math.hypot(1.0, std))))
    sig2, eta2, e = _residual_moments(nodes, mu, std)
    try:
        sigma, eta = (math.ldexp(math.sqrt(max(float(mass @ m), 0.0)), e) for m in (sig2, eta2))
    except OverflowError:  # a Gaussian law's spread can carry them past the largest float
        raise ValueError(f"the moments of bias law {bias_spec_to_config(bias)} overflow") from None
    return NonlinearityStats(mu=mu, sigma=sigma, eta=eta)


# ----------------------------------------------------------------------
# the solver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LassoConfig:
    """Penalty level and step budget of :func:`solve_robust_lasso`.

    The solver stops by itself once it is stationary, so the budget
    ``max_iter`` is its only stopping knob.  ``ValueError`` names a ``lam``
    that is not a positive finite real number (``True`` is no penalty), or
    a ``max_iter`` that is not an integer of at least 1.
    """

    lam: float
    max_iter: int = 1000

    def __post_init__(self) -> None:
        checks.real("lam", self.lam, "positive")
        checks.integer("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class LassoSolution:
    """A solver result and why the solver stopped.

    ``stop_reason`` is ``"tol"`` when the solve stopped at the minimum, by
    the tests of :func:`solve_robust_lasso`, and ``"max_iter"`` when the
    step budget ran out first.  ``iterations`` counts the steps taken, one
    entry of ``objective_trace`` each.  ``grad_norm``, which a stop at the
    minimum bounds, is ``||A^T r||_inf / d`` at the returned pair, with
    ``r = v - A c_hat - e_hat``; the ``e``-step is exact, so it is the whole
    first-order residual.
    """

    c_hat: np.ndarray
    e_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    grad_norm: float


def _gram(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``A^T A``, or a ``ValueError`` naming a non-finite entry of ``A`` or a ``v`` too large."""
    with np.errstate(all="ignore"):  # A^T A of a finite A may overflow or underflow, v^T v too
        G, square = A.T @ A, float(v @ v)
    # a column's sum of squares is finite only if each of its entries is, so scan A only then
    if not np.isfinite(G.diagonal()).all():
        checks.array("A", A, 2)
    if square == math.inf:  # the objective's squared residual would overflow as well
        raise ValueError(
            f"v is too large: its sum of squares overflows (largest entry {np.abs(v).max():.6g})"
        )
    return G


def _triangular_factor(A: np.ndarray) -> np.ndarray:
    """The ``k x k`` factor ``R`` of a QR of the tall ``d x k`` design ``A``.

    For ``k <= 90`` each block of ``32768 // k`` rows (at most 256 KiB, at
    least ``4 k`` rows) gets a Householder QR that stays in cache, and one
    more QR of the stacked block factors gives ``R``.  A design within one
    block runs one Householder QR of ``A``, with nothing to stack.  Wider
    designs get one Householder QR of ``A`` too, because blocks shorter
    than ``4 k`` rows stack into so many rows that the last QR costs more
    than the blocks save.
    ``R`` is unique up to the signs of its rows, which ``R^T R = A^T A``
    does not see.
    """
    d, k = A.shape
    rows = 32768 // k
    if rows < 4 * k or d <= rows:
        return np.linalg.qr(A, mode="r")
    blocks = [np.linalg.qr(A[i : i + rows], mode="r") for i in range(0, d, rows)]
    return np.linalg.qr(np.vstack(blocks), mode="r")


# The Cholesky factor of A^T A is R up to row signs with a relative error near kappa^2 u, which
# c_hat inherits: up to 0.12 of the tests' 1e-12 kappa oracle at this kappa, 1.1 at kappa = 1e3
_GRAM_MAX_CONDITION = 1e2


def _factor_and_singular_values(A: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R`` of ``A = QR`` and its singular values, those of ``A``: the Cholesky factor of ``G =
    A^T A`` if they are finite, above the rank threshold 1e-10 (below it ``G`` may underflow)
    and within ``_GRAM_MAX_CONDITION`` of each other, else :func:`_triangular_factor`."""
    try:
        R = np.linalg.cholesky(G).T
        s = np.linalg.svd(R, compute_uv=False)
        if np.isfinite(s).all() and 1e-10 < s[-1] and s[0] <= _GRAM_MAX_CONDITION * s[-1]:
            return R, s
    except np.linalg.LinAlgError:  # G is not numerically positive definite
        pass
    R = _triangular_factor(A)
    return R, np.linalg.svd(R, compute_uv=False)


def _newton_step(R_inv: np.ndarray, g: np.ndarray, inner: tuple | None) -> tuple[np.ndarray, bool]:
    """``H^-1 g`` for the Gram ``H`` of the rows of ``A = Q R`` that are not flagged.

    ``R_inv`` is the inverse of ``R``.  With ``B = R^-T A_O^T`` for the flagged rows ``A_O``,
    ``H = A^T A - A_O^T A_O`` is ``R^T (I - B B^T) R``: the eigenvalues ``w`` and vectors
    ``V`` of ``I - B B^T``, which ``inner`` holds, give the step as
    ``R^-1 V diag(1 / w) V^T R^-T g``, and ``H``, whose condition number is that of the
    unflagged rows squared, is never formed.  Where those rows lack full rank, an eigenvalue
    below 1e-8 is taken as 1e-8, and the flag says whether one was.  With no row flagged,
    ``inner`` is None and the step is ``R^-1 R^-T g``.
    """
    y = R_inv.T @ g
    if inner is None:
        return R_inv @ y, False
    w, V = inner
    return R_inv @ (V @ (V.T @ y / np.maximum(w, 1e-8))), bool(w[0] < 1e-8)


def solve_robust_lasso(v: np.ndarray, A: np.ndarray, config: LassoConfig) -> LassoSolution:
    """Minimise the robust recovery objective by Newton steps on the rows it does not flag.

    At fixed ``c`` the best ``e`` soft thresholds ``u = v - A c`` at
    ``T = d * lam``, which leaves the Huber loss of ``u``, piecewise
    quadratic in ``c``.  From ``c = 0`` and ``e = 0``, each step moves ``c``
    along ``p = H^-1 g``, with ``g = A^T r`` for the residual
    ``r = v - A c - e`` of the previous step, and then soft thresholds the
    new ``u``.  ``H`` is the Gram of the rows that the previous step left
    unflagged (``e_i = 0``), as :func:`_newton_step` floors it: a Newton
    step, which lands on the minimum once the flagged rows keep their signs.
    The first step is ``p``; a later one is ``t p`` for the first ``t`` of
    ``1, 1/2, 1/4, ...`` at which the objective rises by at most 1e-12 of
    it, or ``t = 0`` below ``2^-40``.  ``R`` comes once from
    :func:`_factor_and_singular_values`, the eigenpairs once per flagged set.

    The solve stops with ``stop_reason="tol"`` before a step when three tests
    hold.  ``||g||_inf / d`` is at most ``1e-8 max(1, ||v||_inf)``
    ``max(1, s_max / sqrt(d))``, as ``g`` scales with ``A`` and its largest
    singular value ``s_max``.  The step would lower the objective by at most
    1e-12 of it (``g^T p / 2d``), as steps down a nearly flat valley of the
    Huber loss shrink the gradient long before the objective stops falling.
    And the last step, not the first, was not floored and left the flagged
    rows as the step before had; or it had ``t = 0``; or ``p`` would move no
    entry of ``c`` by more than ``1e-12 (1 / max(1, s_max / sqrt(d)) +
    ||c||_inf)``, which refines the first step: it solves the seminormal
    equations, whose error grows with the square of the condition number.
    Otherwise it stops with ``"max_iter"`` after ``config.max_iter`` steps.
    ``u``, ``e`` and ``r`` are three ``d``-vectors allocated once per solve.

    Raises
    ------
    ValueError
        Naming an ``A`` that is not 2-D or has no column, a ``v`` that is not
        of shape ``(d,)``, the first non-finite entry of either, and a ``v``
        whose sum of squares overflows.
    RankDeficiencyError
        If the design's ``k`` columns are not fewer than its ``d`` rows, or
        its smallest singular value is at or below 1e-10.
    """
    A = checks.array("A", A, 2, finite=False)  # the diagonal of its Gram tests it
    d, k = A.shape
    if k == 0:
        raise ValueError(f"A must have at least one column, got shape {A.shape}")
    v = checks.array("v", v, (d,))
    G = _gram(v, A)
    checks.at_most("k", k, "d - 1", d - 1, RankDeficiencyError)  # A is d x k
    R, singular = _factor_and_singular_values(A, G)
    if singular[-1] <= 1e-10:
        raise RankDeficiencyError(f"smallest singular value {singular[-1]:.3g} is numerically zero")

    R_inv = np.linalg.inv(R)
    threshold = d * config.lam
    scale = max(1.0, singular[0] / d**0.5)  # s_max / sqrt(d), carried by ||A^T r|| / d and 1 / c
    grad_tol = 1e-8 * max(1.0, float(v.max()), -float(v.min())) * scale  # ||v||_inf without |v|
    u, e, r = np.empty(d), np.empty(d), np.empty(d)

    def objective_at(c: np.ndarray) -> float:
        """Fill ``e`` and ``r`` at ``c`` and return the objective there."""
        np.subtract(v, np.matmul(A, c, out=u), out=u)
        np.clip(u, -threshold, threshold, out=r)
        np.subtract(u, r, out=e)  # the soft threshold of u
        np.subtract(u, e, out=r)  # the residual v - A c - e, rounded as (v - A c) - e
        return float(r @ r / (2.0 * d) + config.lam * np.abs(e, out=u).sum())

    c = np.zeros(k)
    g = A.T @ v  # A^T r at c = 0, e = 0
    flagged = np.zeros(0, dtype=np.intp)  # e = 0 flags no row
    inner, kept = None, True  # the eigenpairs of I - B B^T, formed again when `flagged` changes
    trace: list[float] = []
    stop_reason = "max_iter"
    while True:
        if not kept:
            Bt = A.take(flagged, axis=0) @ R_inv
            inner = np.linalg.eigh(np.eye(k) - Bt.T @ Bt) if flagged.size else None
        step, floored = _newton_step(R_inv, g, inner)
        if trace:
            if (
                grad_norm <= grad_tol
                and g @ step <= 2e-12 * d * trace[-1]
                and (certified or np.abs(step).max() <= 1e-12 * (1.0 / scale + np.abs(c).max()))
            ):
                stop_reason = "tol"
                break
            if len(trace) == config.max_iter:
                break
        t, current = 1.0, objective_at(c + step)
        while trace and not current <= trace[-1] + 1e-12 * trace[-1]:  # NaN is halved too
            t *= 0.5
            if t < 2.0**-40:
                t, current = 0.0, objective_at(c)
                break
            current = objective_at(c + t * step)
        c = c + t * step
        trace.append(current)
        g = A.T @ r
        grad_norm = float(np.abs(g).max()) / d
        previous, flagged = flagged, np.flatnonzero(e != 0.0)
        kept = np.array_equal(flagged, previous)
        certified = t == 0.0 or (len(trace) > 1 and not floored and kept)
    return LassoSolution(
        c_hat=c,
        e_hat=e,
        objective_trace=np.asarray(trace),
        iterations=len(trace),
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
        grad_norm=grad_norm,
    )


# ----------------------------------------------------------------------
# penalty rules and the error/bound pair
# ----------------------------------------------------------------------


def oracle_lambda(instance: RecoveryInstance, stats: NonlinearityStats) -> float:
    """Penalty level computed from the ground truth of a synthetic instance.

    Twice the largest combined magnitude of the rectifier's model noise
    ``z = ReLU(Ac* + b) - mu Ac*`` and the dense noise ``w``, divided by
    the sample size; floored at 1e-12 to stay a valid penalty in exactly
    noiseless cases.
    """
    clean = instance.A @ instance.c_star
    z = np.maximum(clean + instance.b, 0.0) - stats.mu * clean
    lam = 2.0 * float(np.abs(z + instance.w).max()) / instance.A.shape[0]
    return max(lam, 1e-12)


def agnostic_lambda(d: int, sigma: float, delta: float) -> float:
    """Penalty rule using only the noise moments, not the realisation.

    ``ValueError`` names a sample size ``d`` that is not an integer of at
    least 1, a ``sigma`` or ``delta`` that is not a nonnegative finite real
    number, and rejects a penalty of 0, which no solve accepts: a bias far
    enough below 0 makes the rectifier's output, and so ``sigma``, 0 in
    floating point.
    """
    d = checks.integer("sample size d", d, 1)
    sigma = checks.real("sigma", sigma, "nonnegative")
    delta = checks.real("delta", delta, "nonnegative")
    lam = 4.0 * (sigma * math.sqrt(2.0 * math.log(2.0 * d)) + delta) / d
    if lam == 0.0:
        raise ValueError(
            f"the agnostic penalty at d={d} is 0 in floating point, from the rectifier's "
            f"noise moment sigma={sigma!r} and the noise level delta={delta!r}"
        )
    return lam


def recovery_error_and_bound(
    solution: LassoSolution,
    instance: RecoveryInstance,
    stats: NonlinearityStats,
) -> tuple[float, float]:
    """Combined estimation error and its theoretical rate counterpart.

    The error is ``||mu c* - c_hat||_2 + ||e* - e_hat||_2 / sqrt(d)``;
    the bound is the rate ``max(sqrt(k log k / d), sqrt(s log d / d))``
    with its leading constant fixed at 1 and the degenerate ``k = 1``
    factor ``k log k`` replaced by ``k``.  ``ValueError`` names a ``c_hat``
    not of shape ``(k,)``, an ``e_hat`` not of shape ``(d,)``, and the first
    non-finite entry of either.
    """
    d, k = instance.A.shape
    c_hat = checks.array("c_hat", solution.c_hat, (k,))
    e_hat = checks.array("e_hat", solution.e_hat, (d,))
    err_c = float(np.linalg.norm(stats.mu * instance.c_star - c_hat))
    err_e = float(np.linalg.norm(instance.e_star - e_hat)) / math.sqrt(d)
    latent = k * math.log(k) if k > 1 else float(k)
    sparse = instance.s * math.log(d) if instance.s > 0 else 0.0
    bound = math.sqrt(max(latent, sparse) / d)
    return err_c + err_e, bound


# ----------------------------------------------------------------------
# search of the restricted cone for the worst pair
# ----------------------------------------------------------------------


def _pair_ratio(Ah: np.ndarray, h: np.ndarray, f: np.ndarray) -> float:
    """Ratio of ``(1/2d)||A h + f||^2`` to ``(1/128)(||h|| + ||f||/sqrt(d))^2``, given ``A h``.

    Values at or above 1 satisfy the restricted lower bound; the zero
    pair gives ``inf`` by convention.
    """
    d = Ah.size
    lhs = float(np.linalg.norm(Ah + f) ** 2) / (2.0 * d)
    size = float(np.linalg.norm(h)) + float(np.linalg.norm(f)) / math.sqrt(d)
    return lhs / (size * size / 128.0) if size else math.inf


def _cone_pairs(A: np.ndarray, S: np.ndarray, *, lam, sigma, eta, delta_norm):
    """The pairs ``(h, f)`` that :func:`check_restricted_lower_bound` scores, each in the cone,
    as triples ``(h, A @ h, f)``: ``A @ h`` is formed once per ``h``.

    ``h`` runs over the top three generalized eigenvectors of ``(A_S^T A_S, A^T A)``, whose
    ``A h`` is heaviest on ``S``; for each ``t`` in ``0, 0.1, ..., 3``, ``f_S = -t (A h)_S``,
    and ``f_{S^c} = -clip(x, -tau, tau)`` with ``sum min(|x_i|, tau) = B`` (or ``-x`` if
    ``B >= ||x||_1``) spends the cone's L1 budget ``B`` on cancelling ``x = (A h)_{S^c}``.
    """
    d, k = A.shape
    slope = 2.0 * ((math.sqrt(k) * sigma + eta) / math.sqrt(d) + math.sqrt(k) / d * delta_norm)
    try:
        L = np.linalg.cholesky(A.T @ A)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("A^T A is not positive definite") from None
    on = np.isin(np.arange(d), S)
    # the eigenvectors y of L^-1 A_S^T A_S L^-T give h = L^-T y, with ||A h|| = 1
    _, Y = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, A[on].T @ A[on]).T))
    H = np.linalg.solve(L.T, Y[:, :-4:-1])
    for h, Ah in zip(H.T, (A @ H).T):
        product = A @ h  # the column Ah of A @ H, which builds f, differs in the last bits
        x = Ah[~on]
        a = np.r_[0.0, np.sort(np.abs(x))]
        spent = np.cumsum(a) + (a.size - 1 - np.arange(a.size)) * a  # sum min(|x_i|, a[j])
        for t in np.arange(31) / 10:
            f = np.where(on, -t * Ah, 0.0)
            budget = slope * float(np.linalg.norm(h)) / lam + 3.0 * float(np.abs(f).sum())
            tau = np.interp(budget, spent, a)  # spends the budget, or all of x when it cannot
            f[~on] = -np.clip(x, -tau, tau)
            yield h, product, f


def check_restricted_lower_bound(
    A: np.ndarray, *, lam: float, sigma: float, eta: float,
    support: np.ndarray, delta_norm: float = 0.0,
) -> tuple[int, int, float]:
    """Search the restricted cone for pairs that violate the quadratic lower bound.

    A pair ``(h, f)`` lies in the restricted cone when the penalised mass
    of ``f`` off the outlier support ``S = support`` is controlled by

        lam ||f_{S^c}||_1 <= 2 (C (sqrt(k) sigma + eta) / sqrt(d) + sqrt(k)/d * delta_norm) ||h||_2
                             + 3 lam ||f_S||_1

    where ``delta_norm`` bounds ``||A^T w||_inf`` and ``C`` is fixed at 1.  Returns
    ``(num_checked, num_violations, min_ratio)``: the pairs scored, those whose ratio lies
    below 1, and the smallest ratio.  Every pair of :func:`_cone_pairs` lies in the cone, so
    each violation is certified, while a ``min_ratio`` at or above 1 proves nothing.
    ``ValueError`` rejects a ``lam`` that is not a positive finite real number, a ``sigma``,
    ``eta`` or ``delta_norm`` that is not a nonnegative finite one, an ``A`` that is not 2-D
    or has a non-finite entry, a support entry that is not an integer in ``[0, d)`` or is
    repeated (each named with its first bad entry), ``k + |S| > d / 4``, outside the bound's
    regime, and an ``A`` of deficient rank.
    """
    lam = checks.real("lam", lam, "positive")
    sigma, eta, delta_norm = (
        checks.real(name, value, "nonnegative")
        for name, value in (("sigma", sigma), ("eta", eta), ("delta_norm", delta_norm))
    )
    A = checks.array("A", A, 2)
    d, k = A.shape
    seen = set()
    for i, j in enumerate(support):
        j = checks.integer(f"support entry at index {i}", j, 0)
        if j >= d:
            raise ValueError(f"support entry {j} at index {i} lies outside [0, d={d})")
        if j in seen:
            raise ValueError(f"support entry {j} at index {i} is repeated")
        seen.add(j)
    S = np.asarray(support, dtype=int)
    checks.at_most("k + |S|", k + S.size, "d/4", d / 4)
    pairs = _cone_pairs(A, S, lam=lam, sigma=sigma, eta=eta, delta_norm=delta_norm)
    ratios = [_pair_ratio(Ah, h, f) for h, Ah, f in pairs]
    return len(ratios), sum(r < 1.0 for r in ratios), min(ratios)
