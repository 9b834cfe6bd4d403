"""Column-space extraction and alignment diagnostics for low-rank estimates.

The reconstruction error of a rank-``k`` matrix estimate is usually
summarised through its leading left singular subspace: how far is the
span of the top-``k`` left singular vectors of the estimate from that of
the truth?  This module provides the truncated SVD and one function that
scores two bases both ways: the principal-angle (sin-theta) distance and
the residual of the best orthogonal alignment (Procrustes), from one
``k x k`` SVD of their cross-product.

The truncated SVD computes only the ``k`` triplets it returns: the top-``k``
eigenvectors of the Gram matrix of the shorter side, followed by one
Rayleigh-Ritz step, an SVD of the ``k``-row projection.  For a ``d x n``
matrix with ``d <= n`` that costs one ``d x d`` Gram product and a
symmetric eigensolve of it instead of a full thin SVD.  Constant rows
``c_i 1^T``, such as the rows a reconstruction fills without support,
first merge into one row ``||c|| 1^T``, which leaves ``M^T M`` unchanged.
The singular values are accurate to about ``eps * s_1`` and
the bases to about ``eps * s_1^2 / (s_k^2 - s_{k+1}^2)``.

The eigensolve is dense (``numpy.linalg.eigh``, all ``m`` eigenpairs) on a
short side of fewer than ``8 p`` rows, ``p = max(2k + 1, 20)``.  From
there, where its ``O(m^3)`` cost dominates, single-vector Lanczos with
full reorthogonalisation builds a basis of ``p`` vectors (``2 p`` at most)
from a fixed seeded start, and Rayleigh-Ritz on it gives the top-``k``
vectors.  They are used only when certified: every top-``k`` residual
``||G x - theta x||`` is at most ``1e-13 theta_max``, and the Frobenius
norm of ``G`` outside the certified Ritz pairs is below ``theta_k``, so
no eigenvalue was missed.  Otherwise, and on a breakdown, the dense
eigensolve runs.  The certificate bounds the basis error by
``1e-13 s_1^2 / (s_k^2 - s_{k+1}^2)``; on reconstructions the certified
bases match the dense ones to about ``1e-14`` and the singular values to
``1e-15`` relative, so the accuracy is that of the dense path.  A matrix
with no spectral gap at ``k`` pays for a failed basis of ``p`` vectors,
which costs at most about a quarter of the dense eigensolve.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.linalg import eigh

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
    SVD of ``M``.  The eigensolve is dense below ``m = 8 max(2k + 1, 20)``
    and certified Lanczos from there, with the dense one as its fallback
    (module docstring); the result is deterministic either way.  ``S`` is
    accurate to about ``eps * s_1``, and ``U`` and ``V`` to about
    ``eps * s_1^2 / (s_k^2 - s_{k+1}^2)``.

    Raises ``ValueError`` naming the first NaN or infinite entry.  Warns
    when ``s_k <= max(d, n) * eps * s_1`` (always for a zero matrix), since
    the trailing basis directions are then arbitrary.
    """
    M = np.asarray(M, dtype=float)
    if not 1 <= k <= min(M.shape):
        raise ValueError(f"rank k={k} must lie in [1, {min(M.shape)}] for shape {M.shape}")
    top, bottom = M.max(axis=1), M.min(axis=1)  # both finite exactly when the row is
    if not (np.isfinite(top).all() and np.isfinite(bottom).all()):
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"M row {i} holds {M[i, j]} at column {j}; the SVD needs finite entries")
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
    Q = _top_eigenvectors(short @ short.T, k)
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


# Lanczos with a first basis of p vectors replaces the dense eigensolve on a
# short side of at least _CROSSOVER * p rows, where a failed attempt is cheap
_CROSSOVER = 8
# a Ritz pair is certified when ||G x - theta x|| <= _RESIDUAL * theta_max
_RESIDUAL = 1e-13
# the basis doubles once when the top-k residual at p is below _RETRY * theta_max
_RETRY = 1e-6


def _top_eigenvectors(G: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` eigenvectors of the symmetric ``G``, as the columns of an m x k array."""
    m = G.shape[0]
    p = max(2 * k + 1, 20)
    if m >= _CROSSOVER * p:
        Q = _certified_lanczos(G, k, p)
        if Q is not None:
            return Q
    return eigh(G)[1][:, m - k :]


def _certified_lanczos(G: np.ndarray, k: int, p: int) -> np.ndarray | None:
    """Top-``k`` eigenvectors of the PSD ``G`` from a certified Lanczos basis, or ``None``.

    Single-vector Lanczos from a fixed seeded start, with full
    reorthogonalisation, then Rayleigh-Ritz on the basis of ``p`` vectors.
    The top-``k`` Ritz vectors are returned when two checks hold.  Each has
    a residual ``||G x - theta x||`` of at most ``_RESIDUAL * theta_max``,
    so each is an eigenpair.  And the Frobenius norm of ``G`` left outside
    all the certified pairs, plus a bound on its rounding, is below
    ``theta_k``, so no eigenvalue the basis missed exceeds ``theta_k``:
    one start vector cannot see a second copy of a repeated eigenvalue.
    Otherwise the basis doubles once, when the top-``k`` residual is below
    ``_RETRY * theta_max``, since it about squares when the basis doubles.
    ``None`` when neither basis certifies, or on a breakdown.
    """
    m = G.shape[0]
    basis = np.empty((2 * p, m))
    images = np.empty((2 * p, m))  # G times each basis vector
    start = np.random.default_rng(0).standard_normal(m)
    basis[0] = start / np.linalg.norm(start)
    trace = np.trace(G)
    for j in range(2 * p):
        B = basis[: j + 1]
        w = np.matmul(G, basis[j], out=images[j])
        w = w - (B @ w) @ B
        w -= (B @ w) @ B  # a second pass restores orthogonality to working precision
        if j + 1 in (p, 2 * p):
            theta, S = np.linalg.eigh(B @ images[: j + 1].T)
            X = S.T @ B
            residual = np.linalg.norm(S.T @ images[: j + 1] - theta[:, None] * X, axis=1)
            residual /= theta[-1]
            certified = residual <= _RESIDUAL
            if certified[-k:].all():
                outside = np.vdot(G, G) - np.sum(theta[certified] ** 2)
                # bounds, with room, the rounding of ``outside`` and the Ritz values' error
                slack = (j + 1) * m * _RESIDUAL * theta[-1] ** 2
                if outside + slack < theta[-k] ** 2:
                    return X[-k:].T
            if j + 1 == 2 * p or residual[-k:].max() > _RETRY:
                return None
        beta = np.linalg.norm(w)
        if beta <= _RESIDUAL * trace:  # breakdown: the basis spans an invariant subspace
            return None
        np.divide(w, beta, out=basis[j + 1])
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
    the minimising rotation is never formed.
    """
    U = np.asarray(U, dtype=float)
    U_hat = np.asarray(U_hat, dtype=float)
    if U.shape != U_hat.shape:
        raise ValueError(f"basis shapes differ: {U.shape} vs {U_hat.shape}")
    G = U.T @ U_hat
    sin_theta = float(np.linalg.norm(U_hat - U @ G))
    cos = np.linalg.svd(G, compute_uv=False)
    return sin_theta, math.hypot(sin_theta, float(np.linalg.norm(1.0 - np.minimum(cos, 1.0))))
