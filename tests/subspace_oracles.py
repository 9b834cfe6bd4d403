"""A perturbation bound on the aligned basis error of a low-rank matrix.

The package scores an estimate's column space by its sin-theta and
Procrustes distances from the truth.  This bound, which needs a full SVD
of the truth, drives the tests' checks that the Procrustes distance stays
below what the perturbation allows.
"""

import numpy as np


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
