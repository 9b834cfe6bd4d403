"""Outlier-robust linear recovery behind an unknown rectifying nonlinearity.

Observations ``v = ReLU(A c* + b) + e* + w`` are treated as a linear
model for the surrogate target ``mu c*``: the rectifier contributes an
effective slope ``mu`` plus zero-mean model noise whose size is captured
by two moments ``sigma`` and ``eta``.  Recovery solves the generalized
LASSO

    min_{c, e}  (1/2d) ||v - A c - e||_2^2  +  lambda ||e||_1

by exact alternating minimisation: the ``c``-step is a least-squares
solve, the ``e``-step a soft threshold.  Each step solves its block
exactly, so the objective never increases.  The ``c``-step needs only the
triangular factor ``R`` of a QR of ``A`` (``Q`` is never formed): it
corrects the previous ``c`` by ``R^-1 R^-T A^T r`` from the residual ``r``
the last sweep left, the corrected seminormal equations.  ``R`` comes from
a tall-skinny QR (TSQR; Demmel, Grigori, Hoemmen & Langou,
arXiv:0808.2664): for ``k <= 90`` a Householder QR of each block of
``32768 // k`` rows (at most 256 KiB of ``A``), then one more of the
stacked ``k x k`` factors.  It is as backward stable as one Householder
QR of ``A``, and a design that fits in one block gets exactly that QR, as
does every design with more than 90 columns.

The module also provides the rectifier's moments, penalty-level rules,
the recovery error with its rate bound (leading constant 1), and a
sampling check of the restricted-cone lower bound that underlies the
recovery analysis; the check takes the cone's penalty, moments, outlier
support and noise level as keywords.  One function,
:func:`make_nonlinearity_stats`, computes the moments: at a constant
offset they have truncated-normal closed forms, which a fixed
Gauss-Legendre rule averages over a random offset's law.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import numpy.polynomial  # numpy loads it on first use, which would fall in the first cell

from .bias import BiasModel
from .generate import RecoveryInstance

__all__ = [
    "LassoConfig",
    "LassoSolution",
    "NonlinearityStats",
    "RankDeficiencyError",
    "RestrictedSetReport",
    "agnostic_lambda",
    "check_restricted_lower_bound",
    "kkt_residuals",
    "make_nonlinearity_stats",
    "oracle_lambda",
    "recovery_error_and_bound",
    "restricted_pair_ratio",
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
    return np.polynomial.legendre.leggauss(200)


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
    ``ValueError`` names a law whose masses do not sum to 1 within 1e-6,
    such as one whose spread is lost in rounding at its location.
    """
    if not isinstance(bias, BiasModel):
        return np.array([float(bias)]), np.array([1.0])
    nodes, weights = _tail_nodes(bias)
    mass = weights * np.asarray(bias.density(nodes))
    total = float(mass.sum())
    if not abs(total - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(
            f"the quadrature masses of bias law {bias.to_config()} sum to {total}, not 1"
        )
    return nodes, mass


def _residual_moments(b0, mu: float):
    """``E[(ReLU(g+b0) - mu g)^2]`` and ``E[g^2 (ReLU(g+b0) - mu g)^2]`` over ``4^e``, and ``e``.

    With ``a = -b0``, the truncated moments ``T_k = E[g^k; g > a]`` of a
    standard normal ``g`` are ``T0 = Phi(b0)``, ``T1 = phi(b0)``,
    ``T2 = T0 + a T1``, ``T3 = (a^2 + 2) T1`` and ``T4 = 3 T2 + a^3 T1``;
    expanding the squares gives both moments, elementwise in ``b0``, in
    terms of them.  Beyond ``|b0| = 40``, ``phi`` is 0 and ``Phi`` is 0
    or 1 in floating point, so the ``T_k`` are taken at ``b0`` clipped to
    ``[-40, 40]``, where no power of ``a`` overflows.  The moments grow like
    ``b0^2``, so ``b0`` enters them divided by ``2^e``, the least power of
    two with ``|b0| < 2^e`` for every node (``e >= 0``).  Scaling by a
    power of two is exact, so the moments are those of the unscaled
    expansion times ``4^-e`` unless a term falls below the normal range.
    """
    b0 = np.asarray(b0, dtype=float)
    e = max(math.frexp(float(np.abs(b0).max()))[1], 0)
    b = np.clip(b0, -40.0, 40.0)
    a = -b
    t0 = _STANDARD_NORMAL.cdf(b)
    t1 = _STANDARD_NORMAL.density(b)
    t2 = t0 + a * t1
    t3 = (a * a + 2.0) * t1
    t4 = 3.0 * t2 + a**3 * t1
    s = math.ldexp(1.0, -e)
    c, s2 = s * b0, s * s
    sig2 = (
        s2 * t2 + 2.0 * c * (s * t1) + c * c * t0
        - 2.0 * mu * (s2 * t2 + c * (s * t1)) + mu * mu * s2
    )
    eta2 = (
        s2 * t4 + 2.0 * c * (s * t3) + c * c * t2
        - 2.0 * mu * (s2 * t4 + c * (s * t3)) + 3.0 * mu * mu * s2
    )
    return sig2, eta2, e


def make_nonlinearity_stats(bias: BiasModel | float) -> NonlinearityStats:
    """Effective slope ``mu`` and noise moments ``sigma``, ``eta`` of the rectifier.

    ``bias`` is either a constant offset or a :class:`BiasModel` whose
    draw is independent of the Gaussian input ``g``.  The slope is
    ``mu = E[g ReLU(g + b)]``, which is ``Phi(b0)`` at a constant offset
    ``b0`` (Stein's lemma).  ``sigma^2 = E[(ReLU(g+b) - mu g)^2]`` measures
    the residual size and ``eta^2 = E[g^2 (ReLU(g+b) - mu g)^2]`` its
    correlation with the design direction.  All three average the
    constant-offset closed forms over the nodes of :func:`_offset_rule`.
    """
    nodes, mass = _offset_rule(bias)
    mu = float(np.sum(mass * _STANDARD_NORMAL.cdf(nodes)))
    sig2, eta2, e = _residual_moments(nodes, mu)
    sigma, eta = (math.ldexp(math.sqrt(max(float(mass @ m), 0.0)), e) for m in (sig2, eta2))
    return NonlinearityStats(mu=mu, sigma=sigma, eta=eta)


# ----------------------------------------------------------------------
# the solver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LassoConfig:
    """Penalty level and stopping rule for the alternating solver.

    ``ValueError`` names the field of a ``lam`` or ``tol`` that is not
    positive and finite, or of a ``max_iter`` that is not an integer of at
    least 1.
    """

    lam: float
    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self) -> None:
        for name in ("lam", "tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # bool is an int subclass, but True is no sweep count
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class LassoSolution:
    """A solver result and why the solver stopped.

    ``stop_reason`` is ``"tol"`` when the objective flattened out and the
    pair was first-order stationary in ``c``, or ``"max_iter"`` when the
    sweep budget ran out first.  ``grad_norm`` is ``||A^T r||_inf / d``
    at the returned pair, with ``r = v - A c_hat - e_hat``.
    """

    c_hat: np.ndarray
    e_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    grad_norm: float


def _validated_problem(v, A) -> tuple[np.ndarray, np.ndarray]:
    """``v`` and ``A`` as float arrays, or a ``ValueError`` naming the bad argument."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a 2-D design matrix, got shape {A.shape}")
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],):
        raise ValueError(f"v must be 1-D of length {A.shape[0]} (the rows of A), got shape {v.shape}")
    for name, x in (("v", v), ("A", A)):
        finite = np.isfinite(x)
        if not finite.all():
            index = tuple(int(i) for i in np.unravel_index(np.argmin(finite), x.shape))
            at = index[0] if x.ndim == 1 else index
            raise ValueError(f"{name} has a non-finite entry {x[index]} at index {at}")
    with np.errstate(over="ignore"):
        square = float(v @ v)
    if square == math.inf:  # the objective's squared residual would overflow as well
        raise ValueError(
            f"v is too large: its sum of squares overflows (largest entry {np.abs(v).max():.6g})"
        )
    return v, A


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


def solve_robust_lasso(v: np.ndarray, A: np.ndarray, config: LassoConfig) -> LassoSolution:
    """Alternating exact minimisation of the robust recovery objective.

    Starting from ``c = 0`` and ``e = 0``, each sweep first minimises over
    ``c``: with the triangular factor ``R`` of a QR of ``A`` (computed
    once, ``Q`` never formed) and ``g = A^T r`` for the residual
    ``r = v - A c - e`` of the previous sweep, the step
    ``c <- c + R^-1 R^-T g``, two ``k x k`` solves with ``R^T`` and then
    ``R``, solves ``A^T A c = A^T (v - e)``, and in
    floating point it refines the previous ``c`` rather than solving
    afresh.  ``R`` is the TSQR factor: for ``k <= 90``, Householder QRs
    of blocks of ``32768 // k`` rows, then one of their stacked factors; a
    design of at most that many rows, or of more than 90 columns, gets one
    Householder QR.  It then soft thresholds ``u = v - A c`` at
    ``d * lam`` to update ``e``.  Stops with ``stop_reason="tol"`` once the relative
    objective decrease falls below ``config.tol`` and ``||g||_inf / d`` is
    at most ``1e-8 max(1, ||v||_inf)``, or with ``"max_iter"``.

    Raises
    ------
    ValueError
        If ``A`` is not 2-D, ``v`` is not 1-D with one entry per row of
        ``A``, or either holds a non-finite entry (the first one is named),
        or the sum of squares of ``v`` overflows.
    RankDeficiencyError
        If the design has fewer rows than columns or a smallest singular
        value at or below 1e-10.
    """
    v, A = _validated_problem(v, A)
    d, k = A.shape
    if d <= k:
        raise RankDeficiencyError(f"need more rows than columns, got {d} x {k}")
    R = _triangular_factor(A)
    # A = QR with orthonormal Q, so A and the k x k factor R share singular values
    smallest = np.linalg.svd(R, compute_uv=False)[-1]
    if smallest <= 1e-10:
        raise RankDeficiencyError(f"smallest singular value {smallest:.3g} is numerically zero")

    threshold = d * config.lam
    grad_tol = 1e-8 * max(1.0, float(np.abs(v).max()))
    c = np.zeros(k)
    g = A.T @ v  # A^T r at c = 0, e = 0
    trace: list[float] = []
    stop_reason = "max_iter"
    prev = math.inf
    for _ in range(config.max_iter):
        c = c + np.linalg.solve(R, np.linalg.solve(R.T, g))
        u = v - A @ c
        e = u - np.clip(u, -threshold, threshold)
        r = u - e  # the residual v - A c - e, rounded as (v - A c) - e
        g = A.T @ r
        grad_norm = float(np.abs(g).max()) / d
        current = float(r @ r / (2.0 * d) + config.lam * np.abs(e).sum())
        trace.append(current)
        # the objective flattens out quadratically in the gradient, so
        # polish until the pair is first-order stationary as well
        if (
            math.isfinite(prev)
            and abs(prev - current) <= config.tol * max(abs(prev), 1e-12)
            and grad_norm <= grad_tol
        ):
            stop_reason = "tol"
            break
        prev = current
    return LassoSolution(
        c_hat=c,
        e_hat=e,
        objective_trace=np.asarray(trace),
        iterations=len(trace),
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
        grad_norm=grad_norm,
    )


def kkt_residuals(
    v: np.ndarray, A: np.ndarray, solution: LassoSolution, lam: float
) -> tuple[float, float]:
    """First-order optimality residuals at a candidate solution.

    Returns the infinity norm of the smooth gradient in ``c`` and the
    largest violation of the subgradient condition for ``e`` (distance of
    ``r_i = (v - Ac - e)_i / d`` from ``lam * sign(e_i)`` on the active
    set, and the excess of ``|r_i|`` over ``lam`` off it).
    """
    d = A.shape[0]
    r = v - A @ solution.c_hat - solution.e_hat
    grad_c = float(np.abs(A.T @ r).max()) / d
    r = r / d
    active = solution.e_hat != 0.0
    sub = 0.0
    if active.any():
        sub = float(np.abs(r[active] - lam * np.sign(solution.e_hat[active])).max())
    if (~active).any():
        sub = max(sub, float(np.maximum(np.abs(r[~active]) - lam, 0.0).max()))
    return grad_c, sub


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
    """Penalty rule using only the noise moments, not the realisation."""
    if d < 1:
        raise ValueError(f"sample size must be positive, got {d}")
    return 4.0 * (sigma * math.sqrt(2.0 * math.log(2.0 * d)) + delta) / d


def recovery_error_and_bound(
    solution: LassoSolution,
    instance: RecoveryInstance,
    stats: NonlinearityStats,
) -> tuple[float, float]:
    """Combined estimation error and its theoretical rate counterpart.

    The error is ``||mu c* - c_hat||_2 + ||e* - e_hat||_2 / sqrt(d)``;
    the bound is the rate ``max(sqrt(k log k / d), sqrt(s log d / d))``
    with its leading constant fixed at 1 and the degenerate ``k = 1``
    factor ``k log k`` replaced by ``k``.
    """
    d, k = instance.A.shape
    err_c = float(np.linalg.norm(stats.mu * instance.c_star - solution.c_hat))
    err_e = float(np.linalg.norm(instance.e_star - solution.e_hat)) / math.sqrt(d)
    latent = k * math.log(k) if k > 1 else float(k)
    sparse = instance.s * math.log(d) if instance.s > 0 else 0.0
    bound = math.sqrt(max(latent, sparse) / d)
    return err_c + err_e, bound


# ----------------------------------------------------------------------
# sampling check of the restricted-cone lower bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictedSetReport:
    num_checked: int
    num_violations: int
    min_ratio: float


def restricted_pair_ratio(A: np.ndarray, h: np.ndarray, f: np.ndarray) -> float:
    """Ratio of ``(1/2d)||A h + f||^2`` to ``(1/128)(||h|| + ||f||/sqrt(d))^2``.

    Values at or above 1 satisfy the restricted lower bound; the zero
    pair gives ``inf`` by convention.
    """
    d = A.shape[0]
    lhs = float(np.linalg.norm(A @ h + f) ** 2) / (2.0 * d)
    size = float(np.linalg.norm(h)) + float(np.linalg.norm(f)) / math.sqrt(d)
    if size == 0.0:
        return math.inf
    return lhs / (size * size / 128.0)


def check_restricted_lower_bound(
    A: np.ndarray, samples: int, *, lam: float, sigma: float, eta: float,
    support: np.ndarray, delta_norm: float = 0.0, seed: int = 0,
) -> RestrictedSetReport:
    """Sample cone members and check the quadratic lower bound on each.

    A pair ``(h, f)`` lies in the restricted cone when the penalised mass
    of ``f`` off the outlier support ``S = support`` is controlled by

        lam ||f_{S^c}||_1 <= 2 (C (sqrt(k) sigma + eta) / sqrt(d)
                                + sqrt(k)/d * delta_norm) ||h||_2
                             + 3 lam ||f_S||_1

    where ``delta_norm`` bounds ``||A^T w||_inf`` and the absolute
    constant ``C`` is fixed at 1.  Members are built to satisfy this
    inequality by construction: ``h`` and the on-support part of ``f`` are
    Gaussian with varied scales, and the off-support part of ``f`` spreads
    a random fraction of its allowed L1 budget over a few random
    coordinates.  ``ValueError`` rejects ``samples < 1``, which checks
    nothing, and ``k + |S| > d / 4``, outside the bound's regime.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    A = np.asarray(A, dtype=float)
    d, k = A.shape
    S = np.asarray(support, dtype=int)
    if k + S.size > d / 4:
        raise ValueError(
            f"regime violated: k + |S| = {k + S.size} exceeds d/4 = {d / 4}"
        )
    off = np.setdiff1d(np.arange(d), S)
    slope = 2.0 * ((math.sqrt(k) * sigma + eta) / math.sqrt(d) + math.sqrt(k) / d * delta_norm)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        h = rng.standard_normal(k) * scale
        f = np.zeros(d)
        if S.size:
            f[S] = rng.standard_normal(S.size) * scale * rng.uniform(0.0, 3.0)
        # the L1 mass the cone allows off the support
        budget = (slope * float(np.linalg.norm(h)) + 3.0 * lam * float(np.abs(f[S]).sum())) / lam
        if off.size and budget > 0.0:
            m = min(3 * max(S.size, 1), off.size)
            coords = rng.choice(off, size=m, replace=False)
            raw = rng.standard_normal(m)
            raw *= rng.uniform(0.0, 1.0) * budget / np.abs(raw).sum()
            f[coords] = raw
        ratios.append(restricted_pair_ratio(A, h, f))
    return RestrictedSetReport(
        num_checked=samples, num_violations=sum(r < 1.0 for r in ratios), min_ratio=min(ratios)
    )
