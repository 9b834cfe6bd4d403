"""Column-space extraction and alignment diagnostics for low-rank estimates.

The reconstruction error of a rank-``k`` matrix estimate is usually
summarised through its leading left singular subspace: how far is the
span of the top-``k`` left singular vectors of the estimate from that of
the truth?  This module provides the truncated SVD, the principal-angle
(sin-theta) distance, the best orthogonal alignment between two bases,
and a perturbation bound that controls the alignment error in terms of
the perturbation's Frobenius norm and the truth's spectral gap.

The truncated SVD computes only the ``k`` triplets it returns: the top-``k``
eigenvectors of the Gram matrix of the shorter side, followed by one
Rayleigh-Ritz step, an SVD of the ``k``-row projection.  For a ``d x n``
matrix with ``d <= n`` that costs one ``d x d`` Gram product and a partial
symmetric eigensolve instead of a full thin SVD.  The singular values are
accurate to about ``eps * s_1`` and the bases to about
``eps * s_1^2 / (s_k^2 - s_{k+1}^2)``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import eigh

__all__ = [
    "RankDeficiencyWarning",
    "alignment_error_bound",
    "procrustes_align",
    "sin_theta_distance",
    "truncated_svd",
]


class RankDeficiencyWarning(UserWarning):
    """The requested rank exceeds the numerical rank of the matrix."""


def truncated_svd(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triplets ``(U, S, V)`` with ``U`` d x k and ``V`` n x k.

    Works on the shorter side ``m = min(d, n)``: the top-``k`` eigenvectors
    ``Q`` of the ``m x m`` Gram matrix, then the SVD of the ``k``-row
    projection ``Q^T M = P S W^T``, which gives ``U = Q P``, ``S`` and
    ``V = W`` (a tall matrix is handled as its transpose).  The cost is the
    Gram product, ``O(m^2 max(d, n))``, plus a partial eigensolve; no full
    basis is formed.  The Rayleigh-Ritz step keeps ``S`` accurate to about
    ``eps * s_1``; ``U`` and ``V`` are accurate to about
    ``eps * s_1^2 / (s_k^2 - s_{k+1}^2)``.

    Warns when the ``k``-th singular value is numerically zero, since the
    trailing basis directions are then arbitrary.
    """
    M = np.asarray(M, dtype=float)
    if not 1 <= k <= min(M.shape):
        raise ValueError(f"rank k={k} must lie in [1, {min(M.shape)}] for shape {M.shape}")
    tall = M.shape[0] > M.shape[1]
    short = M.T if tall else M
    m = short.shape[0]
    _, Q = eigh(short @ short.T, subset_by_index=[m - k, m - 1])
    P, S, Wt = np.linalg.svd(Q.T @ short, full_matrices=False)
    U, V = Q @ P, Wt.T
    if S[k - 1] < 1e-12:
        warnings.warn(
            f"singular value {k} is {S[k - 1]:.3g}; matrix has numerical rank below {k}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return (V, S, U) if tall else (U, S, V)


def sin_theta_distance(U: np.ndarray, U_hat: np.ndarray) -> float:
    """Frobenius sin-theta distance between two k-dimensional subspaces.

    Computed as ``||U_hat - U (U^T U_hat)||_F`` for orthonormal bases: zero
    when the spans coincide, ``sqrt(k)`` when they are orthogonal.  The
    equivalent ``sqrt(k - ||U^T U_hat||_F^2)`` loses small angles to
    cancellation below about ``sqrt(eps)``; the projection residual does not.
    """
    U = np.asarray(U, dtype=float)
    U_hat = np.asarray(U_hat, dtype=float)
    if U.shape != U_hat.shape:
        raise ValueError(f"basis shapes differ: {U.shape} vs {U_hat.shape}")
    return float(np.linalg.norm(U_hat - U @ (U.T @ U_hat)))


def procrustes_align(U: np.ndarray, U_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """Best orthogonal map of ``U_hat`` onto ``U`` and the residual it leaves.

    Returns the orthogonal ``O`` minimising ``||U - U_hat O||_F``
    together with that minimum.  The minimiser is ``P Q^T`` from the SVD
    ``U_hat^T U = P Sigma Q^T``.
    """
    U = np.asarray(U, dtype=float)
    U_hat = np.asarray(U_hat, dtype=float)
    if U.shape != U_hat.shape:
        raise ValueError(f"basis shapes differ: {U.shape} vs {U_hat.shape}")
    P, _, Qt = np.linalg.svd(U_hat.T @ U)
    O = P @ Qt
    residual = float(np.linalg.norm(U - U_hat @ O))
    return O, residual


def alignment_error_bound(M: np.ndarray, E: np.ndarray, k: int) -> float:
    """Perturbation bound on the aligned basis error of ``M + E`` versus ``M``.

    For a truth ``M`` with singular values ``s_1 >= s_2 >= ...`` and a
    perturbation ``E``, the aligned top-``k`` basis error is at most::

        2^{3/2} (2 s_1 + ||E||_F) ||E||_F / (s_k^2 - s_{k+1}^2)

    This is the singular-vector form of the Davis-Kahan variant of Yu, Wang
    and Samworth, "A useful variant of the Davis-Kahan theorem for
    statisticians" (arXiv:1405.0680, Theorem 3), applied to ``M^T`` for the
    left singular vectors with ``r = 1`` and ``s = k``, and with ``||E||_F``
    in place of the smaller ``||E||_op`` and ``min(sqrt(k) ||E||_op, ||E||_F)``.
    It needs only ``s_1``, ``s_k`` and ``s_{k+1}`` of the truth and no
    condition on the spectrum of ``M + E``.

    Raises when the spectral gap in the denominator is not positive.
    """
    M = np.asarray(M, dtype=float)
    sv = np.linalg.svd(M, compute_uv=False)
    if not 1 <= k <= sv.size:
        raise ValueError(f"rank k={k} out of range for {sv.size} singular values")
    tail = sv[k] if sv.size > k else 0.0
    gap = sv[k - 1] ** 2 - tail**2
    if gap <= 0.0:
        raise ValueError(
            f"spectral gap s_{k}^2 - s_{k + 1}^2 = {gap:.3g} is not positive"
        )
    fro = float(np.linalg.norm(E))
    return float(2.0**1.5 * (2.0 * sv[0] + fro) * fro / gap)
