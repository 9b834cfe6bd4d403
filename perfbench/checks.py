"""Output checks for every cell of a sweep's ``results.csv``.

Each check compares a cell against a computation made here, in numpy and
scipy, or against a property the method must have; none compares against
stored numbers.  The instance of each cell is regenerated from its seed
and the program's estimator is run on it again (outside the timed part
of the run) to get the arrays that ``results.csv`` summarises.

``check_cell`` returns the list of failed checks and the cell's accuracy
figures: ``err`` (``||M - M_hat||_F^2 / (d n)`` for ``rep_learning``,
``recovery_error`` for ``robust_recovery``) and, for ``rep_learning``
only, ``sin_theta`` (the sin-theta distance between the top-k left
singular spaces of ``M`` and ``M_hat``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, optimize

from relurec.bias import parse_bias_spec
from relurec.generate import generate_recovery_instance, generate_representation_instance
from relurec.lasso import LassoConfig, solve_robust_lasso
from relurec.replearn import reconstruct_matrix

# E Phi(b) for b ~ N(0, 1) and for b = 0 (Stein's lemma: mu = E Phi(b))
EXPECTED_MU = 0.5


def _float(row: dict, key: str) -> float | None:
    return float(row[key]) if row[key] != "" else None


def _spec_mode(spec: str) -> float:
    """Mode of a bias law written as ``tag:key=value,key=value``."""
    tag, _, body = spec.partition(":")
    params = dict(part.split("=") for part in body.split(","))
    location = {"exp": "shift", "gauss": "mean"}[tag]
    return float(params[location])


def _top_eigvecs(X: np.ndarray, k: int) -> np.ndarray:
    d = X.shape[0]
    _, vecs = linalg.eigh(X @ X.T, subset_by_index=[d - k, d - 1])
    return vecs


def check_rep_cell(row: dict, workload) -> tuple[list[str], float, float]:
    failures: list[str] = []
    d, n, k, seed = (int(row[key]) for key in ("d", "n", "k", "seed"))
    gamma, nu = _float(row, "gamma"), _float(row, "nu")
    model = parse_bias_spec(row["bias"])
    instance = generate_representation_instance(d, n, k, gamma, model, seed)
    if nu != instance.realized_nu:
        failures.append(f"nu {nu} is not the instance's separation {instance.realized_nu}")
    estimate = reconstruct_matrix(instance.Y, model, gamma, nu, fill=row["fill_strategy"])
    X, Y = estimate.m_hat, instance.Y
    on = Y > 0.0
    occupied = on.any(axis=1)
    mixed = occupied & ~on.all(axis=1)

    if np.abs(X).max() > gamma + 1e-9:
        failures.append(f"|M_hat| reaches {np.abs(X).max()} > gamma {gamma}")
    resid = Y - X
    spread = np.where(on, resid, -np.inf).max(axis=1) - np.where(on, resid, np.inf).min(axis=1)
    if (spread[occupied] > 1e-9).any():
        failures.append(f"support residual varies by {spread[occupied].max()} in a row")
    gap = np.where(on, X, np.inf).min(axis=1) - np.where(on, -np.inf, X).max(axis=1)
    if (gap[mixed] < nu - 1e-9).any():
        failures.append(f"separation {gap[mixed].min()} below nu {nu}")

    lo = np.where(on, Y, -np.inf).max(axis=1) - gamma
    hi = np.where(on, Y, np.inf).min(axis=1) + gamma - np.where(mixed, nu, 0.0)
    beta = np.clip(_spec_mode(row["bias"]), lo, np.maximum(hi, lo))
    beta_err = np.abs(estimate.beta_hats[occupied] - beta[occupied])
    if beta_err.size and beta_err.max() > 1e-6:
        failures.append(f"beta_hat is {beta_err.max()} away from clip(mode, lo, hi)")

    frob = float(((instance.M - X) ** 2).sum())
    if not math.isclose(_float(row, "frob_err_sq"), frob, rel_tol=1e-9):
        failures.append(f"frob_err_sq {row['frob_err_sq']} != ||M - M_hat||^2 {frob}")
    angles = linalg.subspace_angles(_top_eigvecs(instance.M, k), _top_eigvecs(X, k))
    sin_theta = float(np.sqrt(np.sum(np.sin(angles) ** 2)))
    if abs(_float(row, "sin_theta") - sin_theta) > 1e-6:
        failures.append(f"sin_theta {row['sin_theta']} != subspace angles {sin_theta}")
    bound = _float(row, "rep_bound")
    if bound is not None and frob > bound:
        failures.append(f"frob_err_sq {frob} exceeds rep_bound {bound}")
    return failures, frob / (d * n), _float(row, "sin_theta")


def _huber_minimiser(v: np.ndarray, A: np.ndarray, lam: float) -> np.ndarray:
    """argmin_c of min_e (1/2d)||v - Ac - e||^2 + lam ||e||_1.

    Minimising over ``e`` first leaves the Huber loss of the residual
    with threshold ``T = d lam``.
    """
    d = A.shape[0]
    T = d * lam

    def fun(c):
        r = v - A @ c
        a = np.abs(r)
        return float(np.where(a <= T, 0.5 * r * r, T * a - 0.5 * T * T).sum()) / d

    def jac(c):
        return -(A.T @ np.clip(v - A @ c, -T, T)) / d

    def hess(c):
        inlier = A[np.abs(v - A @ c) <= T]
        return inlier.T @ inlier / d

    start = np.linalg.lstsq(A, v, rcond=None)[0]
    result = optimize.minimize(
        fun, start, jac=jac, hess=hess, method="trust-exact", options={"gtol": 1e-13}
    )
    return result.x


def _soft(x: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def check_recovery_cell(row: dict, workload) -> tuple[list[str], float, None]:
    failures: list[str] = []
    d, k, s, seed = (int(row[key]) for key in ("d", "k", "s", "seed"))
    mu, lam = _float(row, "mu"), _float(row, "lambda_used")
    instance = generate_recovery_instance(
        d, k, s, _float(row, "delta"), float(workload.key("outlier_magnitude")),
        parse_bias_spec(row["bias"]), seed,
    )
    v, A = instance.v, instance.A
    if abs(mu - EXPECTED_MU) > 1e-8:
        failures.append(f"mu {mu} is not E Phi(b) = {EXPECTED_MU}")
    solution = solve_robust_lasso(v, A, LassoConfig(lam=lam))
    if int(row["iterations"]) != solution.iterations or row["converged"] != "true":
        failures.append(f"iterations {row['iterations']} / converged {row['converged']}")

    c_ref = _huber_minimiser(v, A, lam)
    if np.abs(solution.c_hat - c_ref).max() > 1e-6:
        failures.append(f"c_hat is {np.abs(solution.c_hat - c_ref).max()} from the Huber minimiser")
    e_ref = _soft(v - A @ c_ref, d * lam)
    error = float(
        np.linalg.norm(EXPECTED_MU * instance.c_star - c_ref)
        + np.linalg.norm(instance.e_star - e_ref) / math.sqrt(d)
    )
    if abs(_float(row, "recovery_error") - error) > 1e-6:
        failures.append(f"recovery_error {row['recovery_error']} != recomputed {error}")

    r = (v - A @ solution.c_hat - solution.e_hat) / d
    grad = float(np.abs(A.T @ r).max())
    active = solution.e_hat != 0.0
    sub = max(
        float(np.abs(r[active] - lam * np.sign(solution.e_hat[active])).max(initial=0.0)),
        float((np.abs(r[~active]) - lam).max(initial=0.0)),
    )
    if grad > 1e-6 or sub > 1e-9 * lam:
        failures.append(f"KKT residuals {grad}, {sub}")
    trace = solution.objective_trace
    if (np.diff(trace) > 1e-12 * np.abs(trace[:-1])).any():
        failures.append("objective trace increases")
    return failures, _float(row, "recovery_error"), None


def check_cell(row: dict, workload) -> tuple[list[str], float, float | None]:
    """Check one ``results.csv`` row; a set ``error`` column is a failure."""
    if row["error"]:
        return [f"cell error: {row['error']}"], math.nan, None
    if workload.task == "rep_learning":
        return check_rep_cell(row, workload)
    return check_recovery_cell(row, workload)
