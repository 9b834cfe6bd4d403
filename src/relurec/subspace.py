"""Column-space extraction and alignment diagnostics for low-rank estimates.

The reconstruction error of a rank-``k`` matrix estimate is usually
summarised through its leading left singular subspace: how far is the
span of the top-``k`` left singular vectors of the estimate from that of
the truth?  This module provides the truncated SVD and one function that
scores two bases both ways: the principal-angle (sin-theta) distance and
the residual of the best orthogonal alignment (Procrustes), from one
``k x k`` SVD of their cross-product.

The truncated SVD computes only the ``k`` triplets it returns, from the
Gram matrix of the shorter side and one Rayleigh-Ritz step, never a thin
SVD (``truncated_svd`` states the cost and the accuracy).  The Gram
matrix's eigenvectors come from one certified Lanczos basis when it is
large and otherwise from the dense ``numpy.linalg.eigh``, as
``_certified_lanczos`` states.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.linalg import eigh

from . import _checks as checks

__all__ = [
    "RankDeficiencyWarning",
    "subspace_distances",
    "truncated_svd",
]


class RankDeficiencyWarning(UserWarning):
    """The requested rank exceeds the numerical rank of the matrix."""


def truncated_svd(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triplets ``(U, S, V)`` with ``U`` d x k and ``V`` n x k.

    Rows ``c_i 1^T`` (maximum equal to minimum) first merge into one row
    ``||c|| 1^T``: ``M^T M``, hence ``S`` and ``V``, is unchanged, and
    ``U_i = (c_i / ||c||) U_merged`` on those rows.  The merge is skipped
    when it removes no row, every constant row is zero, or fewer than ``k``
    rows would remain.  Then, on the shorter side ``m``, the top-``k``
    eigenvectors ``Q`` of the ``m x m`` Gram matrix and the SVD of the
    projection ``Q^T M = P S W^T`` give ``U = Q P``, ``S`` and ``V = W``
    (a tall matrix is handled as its transpose), at the cost of the Gram
    product, ``O(m^2 max(d, n))``, and an ``m x m`` eigensolve, never a thin
    SVD of ``M``.  The eigensolve is certified Lanczos or dense, as
    ``_certified_lanczos`` states; either way the result is deterministic,
    ``S`` is accurate to about ``eps * s_1``, and ``U`` and ``V`` to about
    ``eps * s_1^2 / (s_k^2 - s_{k+1}^2)``.

    Raises ``ValueError`` naming an ``M`` that is not a 2-D array or its
    first NaN or infinite entry, and a ``k`` that is not an integer in
    ``[1, min(d, n)]``.  Warns when ``s_k <= max(d, n) * eps * s_1`` (always
    for a zero matrix), since the trailing basis directions are then
    arbitrary.
    """
    M = checks.array("M", M, 2, finite=False)
    k = checks.integer("k", k, 1)
    if k > min(M.shape):
        raise ValueError(f"rank k={k} must lie in [1, {min(M.shape)}] for shape {M.shape}")
    top, bottom = M.max(axis=1), M.min(axis=1)  # both finite exactly when the row is
    if not (np.isfinite(top).all() and np.isfinite(bottom).all()):
        checks.array("M", M, 2)  # names the first entry that is not finite
    constant = top == bottom
    c = top[constant]
    norm = float(np.linalg.norm(c))
    merge = c.size >= 2 and norm > 0.0 and M.shape[0] - c.size + 1 >= k
    X = M
    if merge:
        X = M[np.append(np.flatnonzero(~constant), np.argmax(constant))]
        X[-1] = norm
    tall = X.shape[0] > X.shape[1]
    short = X.T if tall else X
    G = short @ short.T
    m, p = G.shape[0], max(2 * k + 1, 20)
    Q = _certified_lanczos(G, k, p) if m >= _CROSSOVER * p else None
    if Q is None:
        Q = eigh(G)[1][:, m - k :]
    P, S, Wt = np.linalg.svd(Q.T @ short, full_matrices=False)
    U, V = (Wt.T, Q @ P) if tall else (Q @ P, Wt.T)
    if merge:
        U_merged, U = U, np.empty((M.shape[0], k))
        U[~constant] = U_merged[:-1]
        U[constant] = np.outer(c / norm, U_merged[-1])
    if S[k - 1] <= max(M.shape) * np.finfo(float).eps * S[0]:
        warnings.warn(
            f"singular value {k} is {S[k - 1]:.3g} of s_1 = {S[0]:.3g}; "
            f"matrix has numerical rank below {k}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return U, S, V


# the crossover, in basis sizes, and the residual bound of _certified_lanczos
_CROSSOVER = 8
_RESIDUAL = 1e-13


def _certified_lanczos(G: np.ndarray, k: int, p: int) -> np.ndarray | None:
    """Top-``k`` eigenvectors of the PSD ``G`` from one certified Lanczos basis, or ``None``.

    ``truncated_svd`` calls it on an ``m x m`` Gram matrix with ``m >= 8 p``,
    ``p = max(2k + 1, 20)``, where the dense ``O(m^3)`` eigensolve dominates
    and a basis that fails costs at most about a quarter of it; below that
    size, and whenever this returns ``None``, the dense eigensolve runs.
    Single-vector Lanczos from a fixed seeded start, with full
    reorthogonalisation, builds a basis of ``p`` vectors, and one
    Rayleigh-Ritz step on it gives Ritz pairs ``(theta, x)``.  The top-``k``
    Ritz vectors are returned when two checks hold.  Each has a residual
    ``||G x - theta x||`` of at most ``1e-13 theta_max``, so each is an
    eigenpair.  And the Frobenius norm of ``G`` left outside all the
    certified pairs, plus a bound on its rounding, is below ``theta_k``, so
    no eigenvalue the basis missed exceeds ``theta_k``: one start vector
    cannot see a second copy of a repeated eigenvalue.  The certificate
    bounds the basis error by ``1e-13 s_1^2 / (s_k^2 - s_{k+1}^2)``, so the
    accuracy is that of the dense path.  ``None`` when the checks fail, or
    on a breakdown, when the basis spans an invariant subspace early.
    """
    m = G.shape[0]
    basis = np.empty((p, m))
    images = np.empty((p, m))  # G times each basis vector
    start = np.random.default_rng(0).standard_normal(m)
    basis[0] = start / np.linalg.norm(start)
    trace = np.trace(G)
    for j in range(1, p):
        B = basis[:j]
        w = np.matmul(G, B[-1], out=images[j - 1])
        w = w - (B @ w) @ B
        w -= (B @ w) @ B  # a second pass restores orthogonality to working precision
        beta = np.linalg.norm(w)
        if beta <= _RESIDUAL * trace:
            return None
        np.divide(w, beta, out=basis[j])
    np.matmul(G, basis[-1], out=images[-1])
    theta, S = np.linalg.eigh(basis @ images.T)
    X = S.T @ basis
    residual = np.linalg.norm(S.T @ images - theta[:, None] * X, axis=1) / theta[-1]
    certified = residual <= _RESIDUAL
    outside = np.vdot(G, G) - np.sum(theta[certified] ** 2)
    # bounds, with room, the rounding of ``outside`` and the Ritz values' error
    slack = p * m * _RESIDUAL * theta[-1] ** 2
    if certified[-k:].all() and outside + slack < theta[-k] ** 2:
        return X[-k:].T
    return None


def subspace_distances(U: np.ndarray, U_hat: np.ndarray) -> tuple[float, float]:
    """Sin-theta and Procrustes distances between two orthonormal ``k``-column bases.

    Sin-theta is ``||U_hat - U (U^T U_hat)||_F``, the Frobenius norm of the
    sines of the principal angles: zero when the spans coincide, ``sqrt(k)``
    when they are orthogonal.  This projection residual keeps small angles
    that ``sqrt(k - ||U^T U_hat||_F^2)`` loses to cancellation below about
    ``sqrt(eps)``.  Procrustes is ``min_O ||U - U_hat O||_F`` over orthogonal
    ``O``, which is ``sqrt(sum 2 - 2 cos theta_i)``; with the cosines from the
    singular values of ``U^T U_hat`` and ``2 - 2 cos = sin^2 + (1 - cos)^2``
    it is ``hypot(sin_theta, ||1 - cos||)``, exact at small angles too, and
    the minimising rotation is never formed.  Raises ``ValueError`` naming a
    basis that is not 2-D, or its first NaN or infinite entry.
    """
    U, U_hat = checks.array("U", U, 2), checks.array("U_hat", U_hat, 2)
    if U.shape != U_hat.shape:
        raise ValueError(f"basis shapes differ: {U.shape} vs {U_hat.shape}")
    G = U.T @ U_hat
    sin_theta = float(np.linalg.norm(U_hat - U @ G))
    cos = np.linalg.svd(G, compute_uv=False)
    return sin_theta, math.hypot(sin_theta, float(np.linalg.norm(1.0 - np.minimum(cos, 1.0))))
