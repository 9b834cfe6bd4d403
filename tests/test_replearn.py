"""Tests for row-wise shift estimation and matrix reconstruction.

Hand-worked expected values: for a single row ``[2, 1, 0]`` with bound 3,
separation 0.1 and an exponential bias law on ``[-4, inf)``, the feasible
shift interval is ``[-1, 3.9]``; the log-density ``-(beta + 4)`` is
maximised at the left endpoint, so the estimated shift is -1, the
reconstructed support is ``[3, 2]``, and the clipped entry may range over
``[-3, 1.9]``.  The attained log-likelihood is
``log p(-1) - log p(1) = (-3) - (-5) = 2``.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relurec.bias import BiasModel, compute_bias_constants, default_exponential
from relurec.generate import DegenerateInstanceError, generate_representation_instance
from relurec.replearn import (
    FILL_STRATEGIES,
    InfeasibilityError,
    InfeasibleRowError,
    log_likelihood,
    log_likelihood_gap,
    reconstruct_matrix,
    theoretical_rep_bound,
)

EXP4 = BiasModel.shifted_exponential(rate=1.0, shift=-4.0)
# a Gaussian law whose mode lies right of every interval below
FAR_RIGHT = BiasModel.gaussian(10.0, 1.0)


def one_row(y, model, gamma, nu):
    """``reconstruct_matrix`` of the single row ``y``: the one-row estimator."""
    return reconstruct_matrix(np.array([y], dtype=float), model, gamma, nu)


def one_row_loglik(y, model, gamma, nu):
    """``log_likelihood`` of the one-row estimate of ``y``."""
    Y = np.array([y], dtype=float)
    return log_likelihood(Y, reconstruct_matrix(Y, model, gamma, nu), model)


def shift_interval(y, gamma, nu):
    """Oracle feasible shift interval ``[Y_max - gamma, Y_min + gamma (- nu)]`` of a row.

    The separation ``nu`` applies only to a row with clipped entries; an
    interval that closes up to rounding collapses onto its lower end.
    """
    on = y > 0.0
    lo = float(y[on].max()) - gamma
    hi = float(y[on].min()) + gamma
    if not on.all():
        hi -= nu
    return lo, max(hi, lo)


def assert_feasible(est, Y, gamma, nu, tol=1e-10):
    """Check ``est.m_hat`` against the definition of the feasible set for ``Y``.

    Every entry lies within ``gamma``; on each row's support the residual
    ``Y - m_hat`` is the row's estimated shift; every clipped entry sits at
    least ``nu`` below the row's smallest support entry.  A row with no
    support has no shift and is filled at ``-gamma``.
    """
    m_hat, on = est.m_hat, Y > 0.0
    assert np.abs(m_hat).max() <= gamma + tol
    for i in range(Y.shape[0]):
        support, clipped = m_hat[i, on[i]], m_hat[i, ~on[i]]
        if support.size == 0:
            # an all-clipped row's likelihood is that of its ceiling -gamma
            assert np.isnan(est.beta_hats[i])
            assert clipped.max() <= -gamma
            continue
        np.testing.assert_allclose(Y[i, on[i]] - support, est.beta_hats[i], rtol=0.0, atol=tol)
        if clipped.size:
            assert support.min() - clipped.max() >= nu - tol


class TestFeasibleInterval:
    # a density falling across the interval puts the MLE on its lower end,
    # one whose mode lies right of it on its upper end
    def test_mixed_row_interval(self):
        assert one_row([2.0, 1.0, 0.0], EXP4, 3.0, 0.1).beta_hats[0] == -1.0
        assert one_row([2.0, 1.0, 0.0], FAR_RIGHT, 3.0, 0.1).beta_hats[0] == 3.9

    def test_full_row_drops_separation_term(self):
        assert one_row([2.0, 1.0], EXP4, 3.0, 0.5).beta_hats[0] == -1.0
        assert one_row([2.0, 1.0], FAR_RIGHT, 3.0, 0.5).beta_hats[0] == 4.0

    def test_singleton_interval(self):
        for model in (EXP4, FAR_RIGHT):
            est = one_row([1.0, 0.0], model, 0.5, 1.0)
            assert est.beta_hats[0] == pytest.approx(0.5)


class TestRowLogLikelihood:
    def test_zero_shift_is_the_baseline(self):
        # a row scores log p(beta) - log p(Y_min): zero when the MLE is Y_min
        model = BiasModel.gaussian(1.0, 1.0)
        assert one_row([2.0, 1.0, 0.0], model, 3.0, 0.1).beta_hats[0] == 1.0
        assert one_row_loglik([2.0, 1.0, 0.0], model, 3.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_hand_worked_value(self):
        # [2, 1, 0]: beta = -1, (-3) - (-5) = 2; [3, 0.5, 0]: beta = 0, (-4) - (-4.5) = 0.5
        Y = np.array([[2.0, 1.0, 0.0], [3.0, 0.5, 0.0]])
        est = reconstruct_matrix(Y, EXP4, 3.0, 0.1)
        np.testing.assert_allclose(est.beta_hats, [-1.0, 0.0], atol=1e-12)
        assert log_likelihood(Y, est, EXP4) == pytest.approx(2.5, abs=1e-12)

    def test_zero_density_shift_gives_minus_inf(self):
        # row 0's interval [-0.5, 1.15] lies left of the support [1.5, inf) of
        # the law, so its likelihood and the total vanish; row 1's does not
        Y = np.array([[0.5, 0.2, 0.0], [3.0, 2.5, 0.0]])
        model = BiasModel.shifted_exponential(rate=1.0, shift=1.5)
        est = reconstruct_matrix(Y, model, 1.0, 0.05)
        assert log_likelihood(Y, est, model) == -math.inf
        np.testing.assert_array_equal(est.beta_hats, [-0.5, 2.0])

    def test_empty_row_uses_ceiling(self):
        # an all-clipped row adds log P(B <= gamma) - log P(B <= 0) to the
        # row with support, which scores log p(0) - log p(0.8)
        model = BiasModel.gaussian()
        Y = np.array([[0.0, 0.0, 0.0], [1.0, 0.8, 0.0]])
        est = reconstruct_matrix(Y, model, 1.0, 0.1)
        ceiling = math.log(model.cdf(1.0)) - math.log(model.cdf(0.0))
        assert log_likelihood(Y, est, model) == pytest.approx(ceiling + 0.32, abs=1e-12)

    def test_estimate_of_another_shape_is_rejected(self):
        est = one_row([2.0, 1.0, 0.0], EXP4, 3.0, 0.1)
        with pytest.raises(ValueError, match=r"estimate shape \(1, 3\) does not match Y \(1, 2\)"):
            log_likelihood(np.array([[2.0, 1.0]]), est, EXP4)


class TestEstimateRowBias:
    def test_boundary_maximum_for_decreasing_density(self):
        est = one_row([2.0, 1.0, 0.0], EXP4, 3.0, 0.1)
        assert est.beta_hats[0] == pytest.approx(-1.0, abs=1e-9)
        assert one_row_loglik([2.0, 1.0, 0.0], EXP4, 3.0, 0.1) == pytest.approx(2.0, abs=1e-8)

    def test_interior_maximum_at_gaussian_mode(self):
        est = one_row([1.0, 0.8, 0.0], BiasModel.gaussian(), 2.0, 0.1)
        # near a smooth maximum the argument is only determined to ~sqrt(eps)
        assert est.beta_hats[0] == pytest.approx(0.0, abs=1e-7)

    def test_support_edge_inside_interval(self):
        # density jumps at the support edge; the maximiser sits exactly there
        model = BiasModel.shifted_exponential(rate=1.0, shift=-0.3)
        est = one_row([1.0, 0.5, 0.0], model, 2.0, 0.1)
        assert est.beta_hats[0] == pytest.approx(-0.3, abs=1e-9)

    def test_singleton_interval_collapses(self):
        est = one_row([1.0, 0.0], BiasModel.gaussian(), 0.5, 1.0)
        assert est.beta_hats[0] == pytest.approx(0.5)

    def test_matches_dense_grid_search(self):
        rng = np.random.default_rng(0)
        model = BiasModel.logistic(loc=0.2, scale=0.6)
        gamma, nu = 2.0, 0.05
        for _ in range(20):
            y = np.abs(rng.normal(size=6)) * (rng.random(6) > 0.3)
            if not (y > 0).any():
                continue
            beta = one_row(y, model, gamma, nu).beta_hats[0]
            lo, hi = shift_interval(y, gamma, nu)
            grid = np.linspace(lo, hi, 10_000)
            best = np.max(model.log_density(grid))
            assert model.log_density(beta) + 1e-9 >= best

    def test_zero_density_interval_ties_to_lower_end(self):
        # the exponential support starts right of the whole interval [-0.5, 1.15]:
        # every shift has zero likelihood, and the tie goes to the lower end
        model = BiasModel.shifted_exponential(rate=1.0, shift=5.0)
        est = one_row([0.5, 0.2, 0.0], model, 1.0, 0.05)
        assert est.beta_hats[0] == -0.5
        assert one_row_loglik([0.5, 0.2, 0.0], model, 1.0, 0.05) == -math.inf

    def test_mode_right_of_the_interval_with_a_tiny_scale(self):
        # (hi - mode) / scale overflows; the estimate reads no density, so it
        # gives hi without an overflow warning instead of a tie at lo
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = one_row([0.3, 0.2, 0.0], BiasModel.gaussian(5.0, 1e-200), 1.0, 0.05)
        assert est.beta_hats[0] == 0.2 + 1.0 - 0.05

    def test_estimate_evaluates_no_density_or_cdf(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the estimate evaluated the bias law")

        for name in ("log_density", "density", "cdf"):
            monkeypatch.setattr(BiasModel, name, refuse)
        # mixed rows, an all-clipped row and a fully observed row
        Y = np.array([[0.5, 0.2, 0.0], [3.0, 2.5, 0.0], [0.0, 0.0, 0.0], [0.3, 0.3, 0.3]])
        expected = {
            BiasModel.shifted_exponential(1.0, 1.5): [-0.5, 2.0, np.nan, -0.7],  # ties at lo
            BiasModel.gaussian(1.0, 0.5): [1.0, 2.0, np.nan, 1.0],
            BiasModel.logistic(-3.0, 2.0): [-0.5, 2.0, np.nan, -0.7],
        }
        for model, beta_hats in expected.items():
            est = reconstruct_matrix(Y, model, 1.0, 0.05)
            np.testing.assert_allclose(est.beta_hats, beta_hats, rtol=0.0, atol=1e-15)

    def test_empty_interval_raises_with_row_details(self):
        Y = np.zeros((5, 3))
        Y[4] = [3.0, 0.5, 0.0]  # spread 2.5 exceeds 2 gamma - nu = 1.9
        with pytest.raises(InfeasibleRowError, match="row 4"):
            reconstruct_matrix(Y, EXP4, 1.0, 0.1)


class TestReconstructMatrix:
    def test_hand_worked_row_all_fill_strategies(self):
        Y = np.array([[2.0, 1.0, 0.0]])
        expected_fill = {"upper_boundary": 1.9, "lower_boundary": -3.0, "midpoint": -0.55}
        for fill, value in expected_fill.items():
            est = reconstruct_matrix(Y, EXP4, 3.0, 0.1, fill=fill)
            np.testing.assert_allclose(est.m_hat[0, :2], [3.0, 2.0], atol=1e-8)
            assert est.m_hat[0, 2] == pytest.approx(value, abs=1e-8)
            assert est.beta_hats[0] == pytest.approx(-1.0, abs=1e-8)
        est = reconstruct_matrix(Y, EXP4, 3.0, 0.1)
        # the default fill is the midpoint
        np.testing.assert_array_equal(
            est.m_hat, reconstruct_matrix(Y, EXP4, 3.0, 0.1, fill="midpoint").m_hat
        )
        assert log_likelihood(Y, est, EXP4) == pytest.approx(2.0, abs=1e-8)

    def test_gaussian_mode_keeps_support_values(self):
        # with the mode feasible, the estimated shift is 0 and support copies Y
        Y = np.array([[1.2, 0.0, 0.0], [0.0, 0.9, 0.0]])
        est = reconstruct_matrix(Y, BiasModel.gaussian(), 2.0, 0.1)
        assert est.m_hat[0, 0] == pytest.approx(1.2, abs=1e-7)
        assert est.m_hat[1, 1] == pytest.approx(0.9, abs=1e-7)

    def test_empty_rows_fill_floor(self):
        Y = np.array([[0.0, 0.0], [1.0, 0.0]])
        est = reconstruct_matrix(Y, BiasModel.gaussian(), 1.0, 0.1)
        np.testing.assert_array_equal(est.m_hat[0], [-1.0, -1.0])
        assert math.isnan(est.beta_hats[0])

    def test_empty_row_contributes_ceiling_likelihood(self):
        model = BiasModel.gaussian()
        Y = np.zeros((1, 3))
        est = reconstruct_matrix(Y, model, 1.0, 0.1)
        expected = math.log(model.cdf(1.0)) - math.log(model.cdf(0.0))
        assert log_likelihood(Y, est, model) == pytest.approx(expected, abs=1e-12)

    def test_support_residuals_are_row_constant(self):
        model = default_exponential(1.0)
        inst = generate_representation_instance(30, 60, 3, 1.0, model, seed=21)
        est = reconstruct_matrix(inst.Y, model, 1.0, inst.realized_nu)
        on = inst.Y > 0
        for i in range(30):
            if on[i].any():
                resid = inst.Y[i, on[i]] - est.m_hat[i, on[i]]
                assert float(np.ptp(resid)) <= 1e-10

    @pytest.mark.parametrize("fill", ["upper_boundary", "lower_boundary", "midpoint"])
    def test_random_instances_satisfy_constraints(self, fill):
        model = default_exponential(1.0)
        checked = 0
        for seed in range(100):
            d = 6 + seed % 4
            n = 10 + seed % 5
            try:
                inst = generate_representation_instance(d, n, 2, 1.0, model, seed=seed)
            except DegenerateInstanceError:
                continue  # tiny instances may carry no sign information
            est = reconstruct_matrix(inst.Y, model, 1.0, inst.realized_nu, fill=fill)
            assert_feasible(est, inst.Y, 1.0, inst.realized_nu)
            checked += 1
        assert checked >= 50

    def test_unknown_fill_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_matrix(np.ones((1, 2)), EXP4, 3.0, 0.1, fill="median")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, r"Y row 1 holds nan at column 2"),
            (np.inf, r"Y row 1 holds inf at column 2"),
            (-0.5, r"Y row 1 holds -0.5 at column 2"),
        ],
    )
    def test_bad_entries_are_named_by_row(self, bad, message):
        # a NaN once read as clipped, and an inf gave an interval [inf, ...]
        Y = np.array([[1.0, 0.0, 0.5], [0.2, 0.0, bad], [0.0, np.nan, 0.0]])
        with pytest.raises(ValueError, match=message):
            reconstruct_matrix(Y, EXP4, 3.0, 0.1)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_y_must_be_a_matrix(self, shape):
        with pytest.raises(ValueError, match=r"Y must be a 2-D matrix, got shape"):
            reconstruct_matrix(np.ones(shape), EXP4, 3.0, 0.1)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            reconstruct_matrix(np.array([[1.0, 0.0]]), EXP4, gamma, 0.1)

    @pytest.mark.parametrize("nu", [-0.1, np.nan, np.inf])
    def test_nu_must_be_nonnegative_and_finite(self, nu):
        with pytest.raises(ValueError, match="nu must be nonnegative and finite"):
            reconstruct_matrix(np.array([[1.0, 0.0]]), EXP4, 3.0, nu)

    def test_zero_separation_is_accepted(self):
        est = reconstruct_matrix(np.array([[2.0, 1.0, 0.0]]), EXP4, 3.0, 0.0)
        assert est.m_hat[0, 2] == pytest.approx(-0.5)


LAWS = {
    "shifted_exponential": BiasModel.shifted_exponential,
    "gaussian": BiasModel.gaussian,
    "logistic": BiasModel.logistic,
}


@pytest.mark.parametrize("kind", sorted(LAWS))
@given(
    location=st.floats(-2.0, 2.0),
    scale=st.floats(0.2, 3.0),
    gamma=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_row_mle_is_feasible_and_beats_a_dense_grid(kind, location, scale, gamma, seed):
    # the exponential's first parameter is its rate, the others' their location
    params = (1.0 / scale, location) if kind == "shifted_exponential" else (location, scale)
    model = LAWS[kind](*params)
    try:
        inst = generate_representation_instance(12, 24, 2, gamma, model, seed=seed)
    except DegenerateInstanceError:
        assume(False)
    est = reconstruct_matrix(inst.Y, model, gamma, inst.realized_nu)
    assert_feasible(est, inst.Y, gamma, inst.realized_nu)
    for i, y in enumerate(inst.Y):
        if not (y > 0.0).any():
            continue
        lo, hi = shift_interval(y, gamma, inst.realized_nu)
        beta = est.beta_hats[i]
        assert lo <= beta <= hi
        best = np.max(model.log_density(np.linspace(lo, hi, 10_000)))
        assert model.log_density(beta) >= best - 1e-12


@pytest.mark.parametrize("kind", sorted(LAWS))
@given(
    location=st.floats(-2.0, 2.0),
    scale=st.floats(0.2, 3.0),
    fill=st.sampled_from(FILL_STRATEGIES),
    seed=st.integers(0, 2**31 - 1),
)
def test_each_row_is_estimated_from_that_row_alone(kind, location, scale, fill, seed):
    # so reconstruct_matrix on one row is the one-row estimator
    params = (1.0 / scale, location) if kind == "shifted_exponential" else (location, scale)
    model = LAWS[kind](*params)
    try:
        inst = generate_representation_instance(10, 20, 2, 1.0, model, seed=seed)
    except DegenerateInstanceError:
        assume(False)
    nu = inst.realized_nu
    full = reconstruct_matrix(inst.Y, model, 1.0, nu, fill=fill)
    for i in range(inst.Y.shape[0]):
        alone = reconstruct_matrix(inst.Y[i : i + 1], model, 1.0, nu, fill=fill)
        np.testing.assert_array_equal(alone.m_hat[0], full.m_hat[i])
        np.testing.assert_array_equal(alone.beta_hats[0], full.beta_hats[i])


@pytest.mark.parametrize("fill", FILL_STRATEGIES)
@pytest.mark.parametrize("kind", sorted(LAWS))
@given(
    location=st.floats(-2.0, 2.0),
    scale=st.floats(0.2, 3.0),
    gamma=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_reconstruction_is_feasible(kind, fill, location, scale, gamma, seed):
    params = (1.0 / scale, location) if kind == "shifted_exponential" else (location, scale)
    model = LAWS[kind](*params)
    try:
        inst = generate_representation_instance(12, 24, 2, gamma, model, seed=seed)
    except DegenerateInstanceError:
        assume(False)
    est = reconstruct_matrix(inst.Y, model, gamma, inst.realized_nu, fill=fill)
    assert_feasible(est, inst.Y, gamma, inst.realized_nu)


@pytest.mark.parametrize(
    "first, second",
    [
        ("gaussian", "logistic"),
        ("logistic", "gaussian"),
        ("gaussian", "gaussian"),
        ("shifted_exponential", "shifted_exponential"),
    ],
)
@given(
    mode=st.floats(-3.0, 3.0),
    scales=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
    gamma=st.floats(0.2, 3.0),
    nu_frac=st.floats(0.0, 1.0),
    fill=st.sampled_from(FILL_STRATEGIES),
    seed=st.integers(0, 2**31 - 1),
)
def test_estimate_reads_only_the_mode_and_the_support_edge(
    first, second, mode, scales, gamma, nu_frac, fill, seed
):
    # two laws sharing their mode and support edge give the same bits for any Y
    rng = np.random.default_rng(seed)
    d, n = rng.integers(1, 10, size=2)
    M = rng.uniform(-gamma, gamma, size=(d, n))
    Y = np.maximum(M + rng.uniform(-2.0 * gamma, 2.0 * gamma, size=(d, 1)), 0.0)
    outcomes = []
    for kind, scale in ((first, scales[0]), (second, scales[1])):
        params = (1.0 / scale, mode) if kind == "shifted_exponential" else (mode, scale)
        try:
            est = reconstruct_matrix(Y, LAWS[kind](*params), gamma, nu_frac * gamma, fill=fill)
        except InfeasibleRowError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((est.m_hat.tobytes(), est.beta_hats.tobytes()))
    assert outcomes[0] == outcomes[1]


class TestLikelihoodGap:
    def _instance(self, seed=3):
        model = default_exponential(1.0)
        inst = generate_representation_instance(8, 12, 2, 1.0, model, seed=seed)
        return inst, model

    def test_identical_candidates_gap_zero(self):
        inst, model = self._instance()
        gap = log_likelihood_gap(inst.M, inst.M, inst.Y, model, 1.0, inst.realized_nu)
        assert gap == 0.0

    def test_antisymmetry(self):
        inst, model = self._instance()
        nu = inst.realized_nu
        # a uniform downward shift keeps residuals row-constant and margins intact
        X = inst.M - 0.25 * nu
        ab = log_likelihood_gap(inst.M, X, inst.Y, model, 1.0 + 0.25 * nu, nu * 0.5)
        ba = log_likelihood_gap(X, inst.M, inst.Y, model, 1.0 + 0.25 * nu, nu * 0.5)
        assert ab == pytest.approx(-ba, abs=1e-12)

    def test_true_matrix_beats_shifted_copy_in_expectation(self):
        # the expected likelihood gap between the truth and any fixed
        # feasible alternative is nonnegative; check it empirically
        rng = np.random.default_rng(5)
        model = BiasModel.gaussian(mean=2.0, std=0.5)
        M = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 10))
        M *= 1.0 / np.abs(M).max()
        X = M - 0.3
        gaps = []
        for _ in range(200):
            b = model.sample(6, rng=rng)
            Y = np.maximum(M + b[:, None], 0.0)
            gaps.append(log_likelihood_gap(M, X, Y, model, 1.3, 1e-9))
        mean = float(np.mean(gaps))
        se = float(np.std(gaps)) / math.sqrt(len(gaps))
        assert mean > 3.0 * se, f"mean gap {mean:.4f} not clearly positive (se {se:.4f})"

    def test_infeasible_candidate_is_named(self):
        inst, model = self._instance()
        bad = inst.M.copy()
        bad[0, 0] = 5.0  # violates the magnitude bound (and row-constancy)
        with pytest.raises(InfeasibilityError, match="X"):
            log_likelihood_gap(inst.M, bad, inst.Y, model, 1.0, inst.realized_nu)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_candidate_is_named(self, value):
        inst, model = self._instance()
        bad = inst.M.copy()
        bad[2] = value
        with pytest.raises(InfeasibilityError, match=r"^X: an entry is not finite"):
            log_likelihood_gap(inst.M, bad, inst.Y, model, 1.0, inst.realized_nu)


# a valid Y; each case below breaks Y, the law, gamma or nu
GOOD_Y = np.array([[2.0, 1.0, 0.0], [3.0, 2.5, 0.0]])


def _with_entry(value):
    Y = GOOD_Y.copy()
    Y[1, 2] = value
    return Y


@pytest.mark.parametrize(
    "Y, model, gamma, nu",
    [
        (_with_entry(math.nan), EXP4, 3.0, 0.1),
        (_with_entry(-0.5), EXP4, 3.0, 0.1),
        (GOOD_Y, EXP4, 3.0, math.nan),
        (GOOD_Y[0], EXP4, 3.0, 0.1),
        (GOOD_Y, EXP4, math.nan, 0.1),
        (GOOD_Y, 0.0, 3.0, 0.1),
    ],
    ids=["y-nan", "y-negative", "nu-nan", "y-1d", "gamma-nan", "constant-law"],
)
def test_likelihood_gap_rejects_what_reconstruction_rejects(Y, model, gamma, nu):
    # both entry points share one input check; the gap once returned 0.0 for
    # the first three, raised AxisError, a magnitude error or AttributeError
    with pytest.raises(ValueError) as expected:
        reconstruct_matrix(Y, model, gamma, nu)
    M = reconstruct_matrix(GOOD_Y, EXP4, 3.0, 0.1).m_hat
    M = M[0] if np.ndim(Y) == 1 else M
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        log_likelihood_gap(M, M, Y, model, gamma, nu)


class TestTheoreticalBound:
    def test_composes_tested_constants(self):
        model = default_exponential(1.0)
        consts = compute_bias_constants(model, 1.0, 0.5)
        bound = theoretical_rep_bound(consts, d=100)
        expected = 2.0 * consts.lipschitz * consts.gamma * 100 / (consts.beta * consts.omega)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_linear_in_rows(self):
        model = default_exponential(1.0)
        consts = compute_bias_constants(model, 1.0, 0.5)
        assert theoretical_rep_bound(consts, 200) == pytest.approx(
            2.0 * theoretical_rep_bound(consts, 100), rel=1e-12
        )

    def test_vacuous_constants_give_inf(self):
        consts = compute_bias_constants(BiasModel.gaussian(), 1.0, 0.5)
        assert consts.vacuous
        assert theoretical_rep_bound(consts, 100) == math.inf
