"""The robust lasso solver against a plain alternating-minimisation loop.

``solve_robust_lasso`` takes Newton steps on the rows it did not flag as
outliers, halved where a whole step would raise the objective.  The loop
below is exact alternating minimisation with the reduced QR, the solver's
earlier form, kept here as a reference oracle: each sweep solves
``R c = Q^T (v - e)`` afresh.  The two take different paths to the same
minimum, so the oracles are on the solution: the objective trace never
rises, the KKT conditions hold at convergence, the solver converges
whenever the loop does within the same budget, and then its objective is
at most that of the loop run to convergence, plus rounding, and its
``c_hat`` is the minimiser that the loop's last point certifies, to
rounding amplified by the condition number.  A design of condition
number at most 1e2 takes ``R`` from the Cholesky factor of ``A^T A``, and
the oracles hold on either side of that gate.  Worse-conditioned designs
taller than one row block (condition number up to 1e9) take ``R`` from
the blocked factor, which must agree with one Householder QR of the whole
design.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from relurec import lasso
from relurec.generate import generate_recovery_instance
from relurec.lasso import (
    LassoConfig,
    RankDeficiencyError,
    _triangular_factor,
    make_nonlinearity_stats,
    oracle_lambda,
    solve_robust_lasso,
)

from lasso_oracles import kkt_residuals, lasso_objective, soft_threshold

# ----------------------------------------------------------------------
# reference loop
# ----------------------------------------------------------------------


def qr_loop(v, A, lam, max_iter, tol=1e-10):
    """Alternating minimisation with the reduced QR: ``c = R^-1 Q^T (v - e)`` each sweep.

    Stops once the objective changes by at most ``tol`` relative and the
    gradient in ``c`` is at most ``1e-8 max(1, ||v||_inf)``, or after
    ``max_iter`` sweeps; returns ``c``, ``e``, the objective trace and
    whether it stopped by the first rule.
    """
    d, _ = A.shape
    Q, R = np.linalg.qr(A)
    e = np.zeros(d)
    threshold = d * lam
    trace = []
    converged = False
    prev = math.inf
    for _ in range(max_iter):
        c = solve_triangular(R, Q.T @ (v - e))
        e = soft_threshold(v - A @ c, threshold)
        current = lasso_objective(v, A, c, e, lam)
        trace.append(current)
        if math.isfinite(prev) and abs(prev - current) <= tol * max(abs(prev), 1e-12):
            r = (v - A @ c - e) / d
            grad = float(np.abs(A.T @ r).max())
            if grad <= 1e-8 * max(1.0, float(np.abs(v).max())):
                converged = True
                break
        prev = current
    return c, e, np.asarray(trace), converged


# the loop's budget when it stands for the minimum: ten times the solver's
REFERENCE_SWEEPS = 10 * LassoConfig.max_iter


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


def build_problem(seed, d, k, kappa, s, lam):
    """A :func:`design` of condition number ``kappa``, observations with ``s`` outliers of +-8,
    and the config at ``lam``, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    A, kappa = design(rng, d, k, kappa)
    v = A @ rng.standard_normal(k) + 0.1 * rng.standard_normal(d)
    v[rng.choice(d, size=s, replace=False)] += rng.choice([-8.0, 8.0], size=s)
    return v, A, LassoConfig(lam=lam), kappa


def _problem(draw, d, k, log_kappa):
    """Draw a penalty, the outliers and a seed; build the problem."""
    lam = 10.0 ** draw(st.floats(-4.0, -1.0))
    s = draw(st.integers(0, d // 10))
    seed = draw(st.integers(0, 2**32 - 1))
    return build_problem(seed, d, k, 10.0**log_kappa, s, lam)


@st.composite
def problems(draw, max_log_kappa=6.0):
    """A design with a condition number up to ``10**max_log_kappa``, observations with sparse
    +-8 outliers, a penalty."""
    d = draw(st.integers(20, 300))
    k = draw(st.integers(1, 8))
    return _problem(draw, d, k, draw(st.floats(0.0, max_log_kappa)))


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


def assert_same_verdict_as_qr_loop(v, A, config, sol):
    """Within the loop's own budget the solver takes at most ``max_iter`` steps, one trace entry
    each, and converges wherever the loop converges."""
    _, _, trace, converged = qr_loop(v, A, config.lam, config.max_iter)
    assert sol.iterations == sol.objective_trace.size <= config.max_iter
    assert sol.converged or not converged


def certified_minimiser(v, A, lam, c):
    """The minimiser on the Huber piece of ``c`` with the condition number of its rows, or None.

    With ``I`` the rows whose residual at ``c`` lies inside the clip ``T = d lam`` and ``s``
    the signs of the others (``O``), the objective on that piece is stationary at
    ``c* = (A_I^T A_I)^-1 (A_I^T v_I + T A_O^T s)``, solved here with a QR of ``A_I``.  When
    the residuals at ``c*`` keep the pattern of those at ``c``, ``c*`` meets the first-order
    conditions exactly, so it is the minimum.  None when ``A_I`` lacks full rank or the
    pattern breaks.
    """
    d, k = A.shape
    threshold = d * lam
    r = v - A @ c
    inside = np.abs(r) < threshold
    signs = np.sign(r[~inside])
    if inside.sum() < k:
        return None
    Q, R = np.linalg.qr(A[inside])
    sigma = np.linalg.svd(R, compute_uv=False)
    if sigma[-1] <= 1e-10 * sigma[0]:
        return None
    pull = threshold * (A[~inside].T @ signs)
    c_star = solve_triangular(R, Q.T @ v[inside] + solve_triangular(R, pull, trans="T"))
    r_star = v - A @ c_star
    keeps = (np.abs(r_star[inside]) <= threshold).all() and (
        (np.sign(r_star[~inside]) == signs).all() and (np.abs(r_star[~inside]) >= threshold).all()
    )
    return (c_star, sigma[0] / sigma[-1]) if keeps else None


def assert_reaches_the_qr_loop_minimum(v, A, config, sol):
    """A converged solve ends at no higher an objective than the loop run to convergence, plus
    1e-10 relative, and its ``c_hat`` is the minimiser that the loop's last point certifies,
    to rounding amplified by the condition number of the unflagged rows."""
    if not sol.converged:
        return
    c_ref, _, trace, converged = qr_loop(v, A, config.lam, REFERENCE_SWEEPS)
    reference = float(trace[-1])
    assert sol.objective_trace[-1] <= reference + 1e-10 * abs(reference)
    if converged:
        assert_c_hat_is_certified(v, A, config, sol, c_ref)


def assert_c_hat_is_certified(v, A, config, sol, c_ref):
    """``c_hat`` is the minimiser that the loop's converged point ``c_ref`` certifies, if it
    certifies one, to rounding amplified by the condition number of the unflagged rows."""
    certified = certified_minimiser(v, A, config.lam, c_ref)
    if certified is not None:
        c_star, kappa = certified
        tol = 1e-12 * kappa * (1.0 + float(np.abs(c_star).max()))
        assert float(np.abs(sol.c_hat - c_star).max()) <= tol


@given(problems())
def test_same_sweeps_and_verdict_as_qr_loop(problem):
    v, A, config, _ = problem
    assert_same_verdict_as_qr_loop(v, A, config, solve_robust_lasso(v, A, config))


@given(problems())
def test_c_hat_matches_qr_loop(problem):
    v, A, config, _ = problem
    assert_reaches_the_qr_loop_minimum(v, A, config, solve_robust_lasso(v, A, config))


@given(problems())
def test_e_hat_is_the_soft_threshold_of_the_residual(problem):
    # the e-step is exact, so grad_norm is the whole first-order residual
    v, A, config, _ = problem
    sol = solve_robust_lasso(v, A, config)
    threshold = A.shape[0] * config.lam
    np.testing.assert_array_equal(sol.e_hat, soft_threshold(v - A @ sol.c_hat, threshold))


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


def test_sweeps_down_a_flat_valley_do_not_stop_above_its_floor():
    # at lam = 1e-4 the objective of this design (condition number 1e5) has a nearly
    # flat valley, where steps shrink the gradient below the stopping rule long before
    # the objective stops falling
    rng = np.random.default_rng(191)
    A, _ = design(rng, 22, 2, 1e5)
    v = A @ rng.standard_normal(2) + 0.1 * rng.standard_normal(22)
    config = LassoConfig(lam=1e-4)
    sol = solve_robust_lasso(v, A, config)
    _, _, trace, converged = qr_loop(v, A, config.lam, config.max_iter)
    assert converged and sol.converged
    assert sol.objective_trace[-1] <= trace[-1] + 1e-10 * trace[-1]


def test_near_lad_draw_converges_within_fifty_steps():
    # d lam = 0.0039 lies far below the noise: the first step flags all 39 rows, so the
    # next step has no unflagged row to take its Gram from
    v, A, config, _ = build_problem(34, 39, 1, 1.0, 1, 1e-4)
    sol = solve_robust_lasso(v, A, config)
    assert sol.converged and sol.iterations <= 50


def test_near_lad_draws_of_the_problem_distribution_converge_within_fifty_steps():
    # 1000 seeded draws from the distribution of problems() at lam = 1e-4, where d lam lies
    # below the noise and few rows stay unflagged
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d, k = int(rng.integers(20, 301)), int(rng.integers(1, 9))
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        s, seed = int(rng.integers(0, d // 10 + 1)), int(rng.integers(2**32))
        v, A, config, _ = build_problem(seed, d, k, kappa, s, 1e-4)
        sol = solve_robust_lasso(v, A, config)
        trace = sol.objective_trace
        assert sol.converged and sol.iterations <= 50, (seed, d, k, kappa, s)
        assert (np.diff(trace) <= 1e-12 * np.abs(trace[:-1])).all(), (seed, d, k, kappa, s)


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
def test_tall_designs_reach_the_qr_loop_minimum(problem):
    v, A, config, _ = problem
    sol = solve_robust_lasso(v, A, config)
    trace = sol.objective_trace
    assert (np.diff(trace) <= 1e-12 * np.abs(trace[:-1])).all()
    if sol.converged:
        grad_c, sub_e = kkt_residuals(v, A, sol, config.lam)
        assert grad_c <= 1e-6
        assert sub_e <= 1e-6
    assert_same_verdict_as_qr_loop(v, A, config, sol)
    assert_reaches_the_qr_loop_minimum(v, A, config, sol)


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


# ----------------------------------------------------------------------
# the Cholesky factor of A^T A up to condition number 1e2, the TSQR beyond
# ----------------------------------------------------------------------


@given(problems(max_log_kappa=9.0))
def test_c_hat_is_the_certified_minimiser_on_either_side_of_the_gram_gate(problem):
    # condition numbers from 1 to 1e9 cross the gate at 1e2; the objective's 1e-10 bound is
    # left out, since past 1e7 c has entries near 1e8, and a change of c in its last bit
    # moves the objective by up to 1e-9 (relative)
    v, A, config, _ = problem
    sol = solve_robust_lasso(v, A, config)
    assert_same_verdict_as_qr_loop(v, A, config, sol)
    c_ref, _, _, converged = qr_loop(v, A, config.lam, REFERENCE_SWEEPS)
    if sol.converged and converged:
        assert_c_hat_is_certified(v, A, config, sol, c_ref)


def test_well_conditioned_design_takes_its_factor_from_the_gram(monkeypatch):
    def refuse(A):
        raise AssertionError("the TSQR factored a well-conditioned design")

    monkeypatch.setattr(lasso, "_triangular_factor", refuse)
    rng = np.random.default_rng(11)
    d, k = 64000, 10
    A = rng.standard_normal((d, k))
    v = A @ rng.standard_normal(k) + 0.1 * rng.standard_normal(d)
    v[: d // 50] += rng.choice([-5.0, 5.0], size=d // 50)
    config = LassoConfig(lam=2e-5)  # clips residuals at d lam = 1.28
    sol = solve_robust_lasso(v, A, config)
    assert sol.converged and np.count_nonzero(sol.e_hat) >= d // 50
    c_star, kappa = certified_minimiser(v, A, config.lam, sol.c_hat)
    assert np.abs(sol.c_hat - c_star).max() <= 1e-12 * kappa * (1.0 + np.abs(c_star).max())


@pytest.mark.parametrize("seed", [1007, 2004, 3007])
def test_benchmark_cells_reach_the_certified_minimiser(seed):
    # recover_large cells of base seeds 1 to 3 on which a stop after a step with the Gram
    # of all rows leaves c_hat 35 to 152 times the bound away from the minimiser
    inst = generate_recovery_instance(64000, 10, 1280, 0.01, 5.0, bias=0.0, seed=seed)
    lam = oracle_lambda(inst, make_nonlinearity_stats(0.0))
    sol = solve_robust_lasso(inst.v, inst.A, LassoConfig(lam=lam))
    assert sol.converged
    c_star, kappa = certified_minimiser(inst.v, inst.A, lam, sol.c_hat)
    assert np.abs(sol.c_hat - c_star).max() <= 1e-12 * kappa * (1.0 + np.abs(c_star).max())


def test_ill_conditioned_design_takes_the_tsqr(monkeypatch):
    shapes = []
    tsqr = lasso._triangular_factor
    monkeypatch.setattr(lasso, "_triangular_factor", lambda A: shapes.append(A.shape) or tsqr(A))
    rng = np.random.default_rng(12)
    A, _ = design(rng, 200, 5, 1e6)
    v = A @ rng.standard_normal(5) + 0.1 * rng.standard_normal(200)
    assert solve_robust_lasso(v, A, LassoConfig(lam=0.01)).converged
    assert shapes == [(200, 5)]


@pytest.mark.parametrize("scale", [1e-160, 1e-140, 1e150, 1e160, 1e200])
def test_extreme_column_scales_are_solved_or_named_without_a_warning(scale):
    # A^T A underflows at 1e-160 and overflows from about 1e154; the rank check names the
    # smallest singular value of the TSQR, and a scaled design has the unscaled solution
    # over the scale
    rng = np.random.default_rng(5)
    A = rng.standard_normal((300, 4))
    v = A @ rng.standard_normal(4) + 0.1 * rng.standard_normal(300)
    v[:6] += 8.0
    config = LassoConfig(lam=0.01)
    unscaled = solve_robust_lasso(v, A, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale < 1.0:
            smallest = np.linalg.svd(_triangular_factor(scale * A), compute_uv=False)[-1]
            message = f"smallest singular value {smallest:.3g} is numerically zero"
            with pytest.raises(RankDeficiencyError, match=f"^{re.escape(message)}$"):
                solve_robust_lasso(v, scale * A, config)
            return
        sol = solve_robust_lasso(v, scale * A, config)
    assert sol.converged and sol.iterations == unscaled.iterations
    top = np.abs(unscaled.c_hat).max()
    np.testing.assert_allclose(sol.c_hat * scale, unscaled.c_hat, rtol=0.0, atol=1e-12 * top)
    np.testing.assert_array_equal(sol.e_hat != 0.0, unscaled.e_hat != 0.0)
    np.testing.assert_allclose(sol.e_hat, unscaled.e_hat, rtol=0.0, atol=1e-12 * 8.0)
