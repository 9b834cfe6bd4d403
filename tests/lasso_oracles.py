"""Reference forms of the robust lasso's e-step, objective and first-order conditions, of the
Gaussian-bias moments, and of the restricted cone.

``solve_robust_lasso`` clips the residual and sums the objective inline.
These direct transcriptions of the definitions drive the tests' reference
solver loop and their checks that a solution is a local minimum.
:func:`kkt_residuals` writes out both first-order conditions; on the
solver's own output its ``e``-part is 0 by construction and its ``c``-part
is ``LassoSolution.grad_norm``.
``make_nonlinearity_stats`` gives the moments under a Gaussian bias law in
closed form; :func:`gaussian_bias_moments` integrates the constant-offset
forms over the law instead.  :func:`in_restricted_cone` writes out the
cone inequality that ``check_restricted_lower_bound`` builds its pairs to
satisfy, and :func:`restricted_pair_ratio` the ratio it scores each pair by.
"""

import math

import numpy as np
from scipy import integrate, stats


def gaussian_bias_moments(mean: float, std: float) -> tuple[float, float, float]:
    """``(mu, sigma, eta)`` under a ``N(mean, std^2)`` bias, by adaptive quadrature over the bias.

    At a constant offset ``b``, with ``Phi = Phi(b)`` and ``phi = phi(b)``,
    ``E[g ReLU(g+b)] = Phi``, ``E[ReLU(g+b)^2] = (1 + b^2) Phi + b phi``,
    ``E[g^2 ReLU(g+b)^2] = (3 + b^2) Phi + b phi`` and
    ``E[g^3 ReLU(g+b)] = 3 Phi - b phi``.  Each is averaged over
    ``b = mean + std t`` for standard normal ``t`` cut at ``|t| = 40``, and
    ``sigma^2 = E[ReLU^2] - mu^2`` and
    ``eta^2 = E[g^2 ReLU^2] - 2 mu E[g^3 ReLU] + 3 mu^2``.
    """

    def average(f):
        def integrand(t):
            b = mean + std * t
            return f(b, stats.norm.cdf(b), stats.norm.pdf(b)) * stats.norm.pdf(t)

        rule = {"points": [0.0], "epsabs": 0.0, "epsrel": 1e-13, "limit": 500}
        return integrate.quad(integrand, -40.0, 40.0, **rule)[0]

    mu = average(lambda b, cdf, pdf: cdf)
    relu2 = average(lambda b, cdf, pdf: (1.0 + b * b) * cdf + b * pdf)
    g2_relu2 = average(lambda b, cdf, pdf: (3.0 + b * b) * cdf + b * pdf)
    g3_relu = average(lambda b, cdf, pdf: 3.0 * cdf - b * pdf)
    return mu, math.sqrt(relu2 - mu * mu), math.sqrt(g2_relu2 - 2.0 * mu * g3_relu + 3.0 * mu * mu)


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


def kkt_residuals(v: np.ndarray, A: np.ndarray, solution, lam: float) -> tuple[float, float]:
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


def in_restricted_cone(
    h, f, support, *, lam: float, sigma: float, eta: float, delta_norm: float, rtol: float = 1e-9
) -> bool:
    """Whether ``(h, f)`` satisfies the restricted cone's inequality, up to rounding.

    With ``d = len(f)``, ``k = len(h)`` and ``S = support`` the cone is
    ``lam ||f_{S^c}||_1 <= 2 ((sqrt(k) sigma + eta) / sqrt(d) + sqrt(k) delta_norm / d) ||h||_2
    + 3 lam ||f_S||_1``; the right side is allowed a relative excess of ``rtol``.
    """
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    d, k = f.size, h.size
    on = np.zeros(d, dtype=bool)
    on[np.asarray(support, dtype=int)] = True
    off_mass = lam * float(np.sum(np.abs(f[~on])))
    rate = (math.sqrt(k) * sigma + eta) / math.sqrt(d) + math.sqrt(k) * delta_norm / d
    allowed = 2.0 * rate * float(np.sqrt(np.sum(h * h))) + 3.0 * lam * float(np.sum(np.abs(f[on])))
    return off_mass <= allowed * (1.0 + rtol)


def restricted_pair_ratio(A: np.ndarray, h: np.ndarray, f: np.ndarray) -> float:
    """Ratio of ``(1/2d)||A h + f||^2`` to ``(1/128)(||h|| + ||f||/sqrt(d))^2``.

    Values at or above 1 satisfy the restricted lower bound; the zero pair
    gives ``inf`` by convention.  The arithmetic is that of the check's own
    ratio, so the two agree bit for bit.  ``ValueError`` names an ``h`` not
    of shape ``(k,)`` or an ``f`` not of shape ``(d,)``, which would
    otherwise broadcast to a ratio of the wrong pair.
    """
    d, k = A.shape
    for name, x, n in (("h", h, k), ("f", f, d)):
        if np.shape(x) != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {np.shape(x)}")
    lhs = float(np.linalg.norm(A @ h + f) ** 2) / (2.0 * d)
    size = float(np.linalg.norm(h)) + float(np.linalg.norm(f)) / math.sqrt(d)
    return lhs / (size * size / 128.0) if size else math.inf
