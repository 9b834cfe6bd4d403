"""Reference forms of the robust lasso's e-step and objective.

``solve_robust_lasso`` clips the residual and sums the objective inline.
These direct transcriptions of the definitions drive the tests' reference
solver loop and their checks that a solution is a local minimum.
"""

import numpy as np


def soft_threshold(x, tau: float):
    """Shrink ``x`` toward zero by ``tau``, clamping at zero."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def lasso_objective(v: np.ndarray, A: np.ndarray, c: np.ndarray, e: np.ndarray, lam: float) -> float:
    """Penalised least-squares objective ``(1/2d)||v - Ac - e||^2 + lam ||e||_1``."""
    v = np.asarray(v, dtype=float)
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    e = np.asarray(e, dtype=float)
    d, k = A.shape
    if v.shape != (d,) or e.shape != (d,) or c.shape != (k,):
        raise ValueError(
            f"shape mismatch: A is {A.shape}, v {v.shape}, c {c.shape}, e {e.shape}"
        )
    r = v - A @ c - e
    return float(r @ r / (2.0 * d) + lam * np.abs(e).sum())
