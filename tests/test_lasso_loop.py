"""The R-only robust lasso solver against the QR loop it replaced.

``solve_robust_lasso`` never forms ``Q``: each ``c``-step corrects the
previous ``c`` by ``R^-1 R^-T A^T r`` from the residual of the last sweep.
The loop below is the earlier implementation, kept here as a reference
oracle: each sweep solves ``R c = Q^T (v - e)`` afresh from the reduced QR.
In exact arithmetic both produce the same iterates, so on random designs
with condition number up to 1e6 the solver must stop after the same number
of sweeps with the same verdict, and its ``c_hat`` must agree to rounding
amplified by the condition number.  Independently of the oracle, the
objective trace must never rise and the KKT conditions must hold at
convergence.  Designs taller than one row block (condition number up to
1e9) take ``R`` from the blocked factor, which must agree with one
Householder QR of the whole design and keep the solver on the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from relurec.lasso import (
    LassoConfig,
    RankDeficiencyError,
    _triangular_factor,
    kkt_residuals,
    solve_robust_lasso,
)

from lasso_oracles import lasso_objective, soft_threshold

# ----------------------------------------------------------------------
# reference loop
# ----------------------------------------------------------------------


def qr_loop(v, A, config):
    """Alternating minimisation with the reduced QR: ``c = R^-1 Q^T (v - e)`` each sweep."""
    d, _ = A.shape
    Q, R = np.linalg.qr(A)
    e = np.zeros(d)
    threshold = d * config.lam
    trace = []
    converged = False
    prev = math.inf
    for _ in range(config.max_iter):
        c = solve_triangular(R, Q.T @ (v - e))
        e = soft_threshold(v - A @ c, threshold)
        current = lasso_objective(v, A, c, e, config.lam)
        trace.append(current)
        if math.isfinite(prev) and abs(prev - current) <= config.tol * max(abs(prev), 1e-12):
            r = (v - A @ c - e) / d
            grad = float(np.abs(A.T @ r).max())
            if grad <= 1e-8 * max(1.0, float(np.abs(v).max())):
                converged = True
                break
        prev = current
    return c, e, np.asarray(trace), converged


# ----------------------------------------------------------------------
# random problems
# ----------------------------------------------------------------------


def block_rows(k):
    """Rows per block of the blocked triangular factor: at most 256 KiB of a ``k``-column design."""
    return 32768 // k


def design(rng, d, k, kappa):
    """A ``d x k`` design with singular values ``sqrt(d)`` down to ``sqrt(d) / kappa``."""
    U = np.linalg.qr(rng.standard_normal((d, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    singular = math.sqrt(d) * np.logspace(0.0, -math.log10(kappa), k)
    return (U * singular) @ V.T, singular[0] / singular[-1]


def _problem(draw, d, k, log_kappa):
    """Draw a penalty, the outliers and a seed; build the problem."""
    lam = 10.0 ** draw(st.floats(-4.0, -1.0))
    s = draw(st.integers(0, d // 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, kappa = design(rng, d, k, 10.0**log_kappa)
    v = A @ rng.standard_normal(k) + 0.1 * rng.standard_normal(d)
    v[rng.choice(d, size=s, replace=False)] += rng.choice([-8.0, 8.0], size=s)
    return v, A, LassoConfig(lam=lam), kappa


@st.composite
def problems(draw):
    """A design with a drawn condition number, observations with sparse +-8 outliers, a penalty."""
    d = draw(st.integers(20, 300))
    k = draw(st.integers(1, 8))
    return _problem(draw, d, k, draw(st.floats(0.0, 6.0)))


@st.composite
def tall_problems(draw):
    """As :func:`problems`, on one or two whole blocks plus a last block of any size.

    The last block may be shorter than the design has columns, and the
    condition number reaches 1e9.
    """
    k = draw(st.integers(1, 8))
    last = draw(st.one_of(st.integers(1, k + 1), st.integers(1, block_rows(k))))
    d = block_rows(k) * draw(st.integers(1, 2)) + last
    return _problem(draw, d, k, draw(st.integers(0, 9)))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@given(problems())
def test_same_sweeps_and_verdict_as_qr_loop(problem):
    v, A, config, _ = problem
    sol = solve_robust_lasso(v, A, config)
    _, _, trace, converged = qr_loop(v, A, config)
    assert sol.iterations == trace.size
    assert sol.converged == converged


@given(problems())
def test_c_hat_matches_qr_loop(problem):
    v, A, config, kappa = problem
    sol = solve_robust_lasso(v, A, config)
    c_ref, _, _, _ = qr_loop(v, A, config)
    tol = 1e-12 * kappa * (1.0 + float(np.abs(c_ref).max()))
    assert float(np.abs(sol.c_hat - c_ref).max()) <= tol


@given(problems())
def test_objective_trace_never_rises(problem):
    v, A, config, _ = problem
    trace = solve_robust_lasso(v, A, config).objective_trace
    assert (np.diff(trace) <= 1e-12 * np.abs(trace[:-1])).all()


@given(problems())
def test_kkt_holds_at_convergence(problem):
    v, A, config, _ = problem
    sol = solve_robust_lasso(v, A, config)
    if sol.converged:
        grad_c, sub_e = kkt_residuals(v, A, sol, config.lam)
        assert grad_c <= 1e-6
        assert sub_e <= 1e-6


# ----------------------------------------------------------------------
# the blocked triangular factor on designs taller than one block
# ----------------------------------------------------------------------


@given(tall_problems())
def test_blocked_factor_matches_one_householder_qr(problem):
    _, A, _, _ = problem
    R = _triangular_factor(A)
    top = np.linalg.svd(A, compute_uv=False)
    scale = 1e-13 * top[0]
    assert R.shape == (A.shape[1],) * 2
    np.testing.assert_allclose(np.linalg.svd(R, compute_uv=False), top, rtol=0.0, atol=scale)
    # R is unique up to the signs of its rows
    np.testing.assert_allclose(
        np.abs(R), np.abs(np.linalg.qr(A, mode="r")), rtol=0.0, atol=scale
    )


@given(tall_problems())
def test_tall_designs_match_qr_loop(problem):
    v, A, config, kappa = problem
    sol = solve_robust_lasso(v, A, config)
    c_ref, _, trace, converged = qr_loop(v, A, config)
    assert sol.iterations == trace.size
    assert sol.converged == converged
    tol = 1e-12 * kappa * (1.0 + float(np.abs(c_ref).max()))
    assert float(np.abs(sol.c_hat - c_ref).max()) <= tol


def test_tall_duplicated_column_is_rank_deficient():
    rng = np.random.default_rng(4)
    k = 5
    A = rng.standard_normal((2 * block_rows(k) + 7, k))
    A[:, 3] = A[:, 1]
    with pytest.raises(RankDeficiencyError, match="is numerically zero"):
        solve_robust_lasso(rng.standard_normal(A.shape[0]), A, LassoConfig(lam=0.01))


@pytest.mark.parametrize("k", [1, 3, 10])
def test_design_within_one_block_gets_one_householder_qr(k):
    rng = np.random.default_rng(k)
    for d in (k + 1, block_rows(k)):
        A = rng.standard_normal((d, k))
        np.testing.assert_array_equal(_triangular_factor(A), np.linalg.qr(A, mode="r"))


@pytest.mark.parametrize("k", [91, 200])
def test_wide_design_gets_one_householder_qr(k):
    # blocks of fewer than 4 k rows would cost more than one QR of the design
    rng = np.random.default_rng(k)
    A = rng.standard_normal((2 * block_rows(k) + 7, k))
    np.testing.assert_array_equal(_triangular_factor(A), np.linalg.qr(A, mode="r"))


def test_block_boundary_of_the_triangular_factor():
    # one block up to 32768 // k rows, two blocks from one row more
    k = 10
    rng = np.random.default_rng(17)
    rows = 32768 // k
    one = rng.standard_normal((rows, k))
    np.testing.assert_array_equal(_triangular_factor(one), np.linalg.qr(one, mode="r"))
    two = rng.standard_normal((rows + 1, k))
    R, ref = _triangular_factor(two), np.linalg.qr(two, mode="r")
    signs = np.sign(np.diag(R)) * np.sign(np.diag(ref))
    np.testing.assert_allclose(signs[:, None] * R, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
