"""Tests for the rectifier moments, the robust lasso solver, and the bounds.

Closed-form oracles used below (standard normal ``g``, offset ``b0``):

* ``E[g ReLU(g + b0)] = Phi(b0)`` -- integrate by parts on the positive
  region ``g > -b0``.
* at ``b0 = 0`` the residual ``ReLU(g) - g/2`` equals ``|g|/2``, so
  ``sigma = 1/2`` and ``eta^2 = E[g^4]/4 = 3/4``.
* as ``b0 -> +inf`` the rectifier is inactive and ``sigma -> b0``.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from relurec import _checks as checks
from relurec import lasso
from relurec.bias import BiasModel, bias_spec_to_config
from relurec.generate import generate_recovery_instance
from relurec.lasso import (
    LassoConfig,
    LassoSolution,
    NonlinearityStats,
    RankDeficiencyError,
    agnostic_lambda,
    check_restricted_lower_bound,
    make_nonlinearity_stats,
    oracle_lambda,
    recovery_error_and_bound,
    solve_robust_lasso,
)
from relurec.lasso import _cone_pairs, _offset_rule, _residual_moments, _tail_nodes

from lasso_oracles import (
    gaussian_bias_moments, in_restricted_cone, kkt_residuals, lasso_objective,
    restricted_pair_ratio, soft_threshold,
)
from rectifier_sampling import sampled_moments


class TestMuParameter:
    @pytest.mark.parametrize("b0", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_matches_normal_cdf(self, b0):
        assert make_nonlinearity_stats(b0).mu == pytest.approx(stats.norm.cdf(b0), abs=1e-4)

    def test_saturates_for_large_offset(self):
        assert make_nonlinearity_stats(10.0).mu == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_agrees_with_quadrature(self):
        quad = make_nonlinearity_stats(0.5).mu
        draws = 4_000_000
        mc, _, _ = sampled_moments(0.5, quad, draws, seed=3)
        # the integrand's std is about 1.4, so allow 4 standard errors
        assert mc == pytest.approx(quad, abs=6.0 / math.sqrt(draws))

    def test_random_bias_reduces_to_averaged_cdf(self):
        # E_g[g ReLU(g+b)] = Phi(b), so averaging over b gives E[Phi(b)]
        model = BiasModel.gaussian(mean=0.5, std=0.8)
        expected, _ = integrate.quad(
            lambda b: stats.norm.cdf(b) * model.density(b), -np.inf, np.inf
        )
        assert make_nonlinearity_stats(model).mu == pytest.approx(expected, abs=1e-4)


class TestSigmaEta:
    def test_zero_offset_closed_form(self):
        moments = make_nonlinearity_stats(0.0)
        assert moments.sigma == pytest.approx(0.5, abs=1e-3)
        assert moments.eta == pytest.approx(math.sqrt(0.75), abs=1e-3)

    def test_sigma_formula_across_offsets(self):
        # sigma^2 = (1 + b0^2) Phi(b0) + b0 phi(b0) - Phi(b0)^2 at mu = Phi(b0)
        for b0 in (-0.5, 0.5, 1.5):
            expected = math.sqrt(
                (1.0 + b0 * b0) * stats.norm.cdf(b0)
                + b0 * stats.norm.pdf(b0)
                - stats.norm.cdf(b0) ** 2
            )
            assert make_nonlinearity_stats(b0).sigma == pytest.approx(expected, abs=1e-6)

    def test_large_offset_limit(self):
        moments = make_nonlinearity_stats(10.0)
        assert moments.sigma == pytest.approx(10.0, abs=1e-3)
        assert moments.eta == pytest.approx(10.0, abs=1e-3)

    def test_monte_carlo_agreement(self):
        quad = make_nonlinearity_stats(0.0)
        _, sigma_m, eta_m = sampled_moments(0.0, quad.mu, 2_000_000, seed=5)
        assert sigma_m == pytest.approx(quad.sigma, abs=3e-3)
        assert eta_m == pytest.approx(quad.eta, abs=6e-3)

    def test_random_bias_nested_quadrature(self):
        model = BiasModel.gaussian(mean=0.0, std=0.5)
        quad = make_nonlinearity_stats(model)
        _, sigma_m, eta_m = sampled_moments(model, quad.mu, 2_000_000, seed=7)
        assert quad.sigma == pytest.approx(sigma_m, abs=3e-3)
        assert quad.eta == pytest.approx(eta_m, abs=8e-3)

    def test_stats_bundle(self):
        stats_obj = make_nonlinearity_stats(0.0)
        assert stats_obj.mu == pytest.approx(0.5, abs=1e-6)
        assert stats_obj.sigma == pytest.approx(0.5, abs=1e-6)


def _normal_pdf(g):
    return math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi)


def _quad_moments(b0, mu):
    """``(mu, sigma^2, eta^2)`` at a constant offset by adaptive quadrature."""

    def below(g):
        return (mu * g) ** 2 * _normal_pdf(g)

    def above(g):
        return (g + b0 - mu * g) ** 2 * _normal_pdf(g)

    def quad(f, lo, hi):
        return integrate.quad(f, lo, hi, limit=200)[0]

    slope = quad(lambda g: g * (g + b0) * _normal_pdf(g), -b0, np.inf)
    sig2 = quad(below, -np.inf, -b0) + quad(above, -b0, np.inf)
    eta2 = quad(lambda g: g * g * below(g), -np.inf, -b0)
    eta2 += quad(lambda g: g * g * above(g), -b0, np.inf)
    return slope, sig2, eta2


class TestMomentsMatchQuadrature:
    """The closed forms against ``scipy.integrate.quad`` of the defining integrals."""

    @pytest.mark.parametrize("b0", [-3.0, -1.0, 0.5, 2.0, 4.0])
    def test_constant_offset(self, b0):
        moments = make_nonlinearity_stats(b0)
        slope, sig2, eta2 = _quad_moments(b0, moments.mu)
        assert moments.mu == pytest.approx(slope, rel=1e-10)
        assert moments.sigma == pytest.approx(math.sqrt(sig2), rel=1e-10)
        assert moments.eta == pytest.approx(math.sqrt(eta2), rel=1e-10)

    @pytest.mark.parametrize(
        "model",
        [
            BiasModel.shifted_exponential(rate=1.5, shift=-1.0),
            BiasModel.shifted_exponential(rate=3.0, shift=0.5),
            BiasModel.logistic(loc=-0.2, scale=0.5),
        ],
    )
    def test_random_offset(self, model):
        # same outer rule over the bias law, quad for the Gaussian integral at each node
        nodes, weights = _tail_nodes(model)
        mass = weights * model.density(nodes)
        moments = make_nonlinearity_stats(model)
        inner = np.array([_quad_moments(float(b0), moments.mu) for b0 in nodes])
        slope, sig2, eta2 = mass @ inner
        assert moments.mu == pytest.approx(slope, rel=1e-10)
        assert moments.sigma == pytest.approx(math.sqrt(sig2), rel=1e-10)
        assert moments.eta == pytest.approx(math.sqrt(eta2), rel=1e-10)


def _unscaled_stats(bias) -> NonlinearityStats:
    """The moments from the expansion in ``b0`` as written, with no power of two factored out."""
    normal = BiasModel.gaussian()
    b0, mass = _offset_rule(bias)
    mu = float(np.sum(mass * normal.cdf(b0)))
    a = -b0
    t0 = normal.cdf(b0)
    t1 = normal.density(b0)
    t2 = t0 + a * t1
    t3 = (a * a + 2.0) * t1
    t4 = 3.0 * t2 + a**3 * t1
    sig2 = t2 + 2.0 * b0 * t1 + b0 * b0 * t0 - 2.0 * mu * (t2 + b0 * t1) + mu * mu
    eta2 = t4 + 2.0 * b0 * t3 + b0 * b0 * t2 - 2.0 * mu * (t4 + b0 * t3) + 3.0 * mu * mu
    return NonlinearityStats(
        mu=mu, sigma=math.sqrt(max(float(mass @ sig2), 0.0)),
        eta=math.sqrt(max(float(mass @ eta2), 0.0)),
    )


class TestMomentsAtExtremeOffsets:
    """Offsets far beyond the range where ``b0^2`` fits in a float."""

    @pytest.mark.parametrize(
        "bias, scaled",
        [
            (0.0, False),
            (BiasModel.logistic(), True),
            (BiasModel.shifted_exponential(rate=1.0, shift=-2.0), True),
        ],
        ids=["const-0", "logistic-0-1", "exp-1-shift-2"],
    )
    def test_scaling_by_a_power_of_two_is_exact(self, bias, scaled):
        nodes, mass = _offset_rule(bias)
        *_, e = _residual_moments(nodes, 0.5)
        assert (e > 0) == scaled
        assert make_nonlinearity_stats(bias) == _unscaled_stats(bias)  # bit for bit

    @pytest.mark.parametrize("b0", [1e150, 1e200, 1.7e308])
    def test_large_positive_offset(self, b0):
        # the rectifier never cuts, so the residual is b0 + (1 - mu) g with mu = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_nonlinearity_stats(b0) == NonlinearityStats(mu=1.0, sigma=b0, eta=b0)

    @pytest.mark.parametrize("b0", [-1e150, -1e200, -1.7e308])
    def test_large_negative_offset(self, b0):
        # the rectifier always cuts, so the residual is -mu g with mu = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_nonlinearity_stats(b0) == NonlinearityStats(mu=0.0, sigma=0.0, eta=0.0)

    @pytest.mark.parametrize(
        "loc, total", [(1e17, "3.954713149884052"), (1e15, "1.002047598365992")],
        ids=["1e17", "1e15"],
    )
    def test_spread_lost_in_rounding_is_named(self, loc, total):
        # the law's nodes collapse onto few floats, and the masses no longer sum to 1
        law = BiasModel.logistic(loc=loc, scale=1.0)
        message = f"the quadrature masses of bias law {bias_spec_to_config(law)} sum to {total}, not 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_nonlinearity_stats(law)

    @pytest.mark.parametrize("b0", [True, False, "0.5"], ids=["true", "false", "string"])
    def test_constant_offset_that_is_no_real_number_is_named(self, b0):
        # True was taken as the offset 1.0
        message = f"^constant bias must be a real number, got {re.escape(repr(b0))}$"
        with pytest.raises(ValueError, match=message):
            make_nonlinearity_stats(b0)

    @pytest.mark.parametrize("b0", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_offset_is_named(self, b0):
        # the closed forms would give NaN moments, or warn on an infinite offset
        with pytest.raises(ValueError, match=f"^constant bias must be finite, got {b0}$"):
            make_nonlinearity_stats(b0)


class TestGaussianBiasMoments:
    """A Gaussian bias law's moments are closed forms, with no rule over the law."""

    @pytest.mark.parametrize(
        "mean, std", [(0.0, 1.0), (0.3, 0.8), (-2.0, 0.5), (3.0, 2.0), (0.0, 0.05), (-5.0, 1.0)]
    )
    def test_match_quadrature_over_the_law(self, mean, std):
        moments = make_nonlinearity_stats(BiasModel.gaussian(mean=mean, std=std))
        mu, sigma, eta = gaussian_bias_moments(mean, std)
        assert moments.mu == pytest.approx(mu, rel=1e-12)
        assert moments.sigma == pytest.approx(sigma, rel=1e-12)
        assert moments.eta == pytest.approx(eta, rel=1e-12)

    @pytest.mark.parametrize("std", [1e-3, 0.5, 1.0, 3.0, 1e6])
    def test_zero_mean_slope_is_one_half(self, std):
        # the law is symmetric about 0, so Phi(0) = 1/2 exactly
        assert make_nonlinearity_stats(BiasModel.gaussian(mean=0.0, std=std)).mu == 0.5

    @pytest.mark.parametrize("mean, std", [(1e150, 1.0), (1e200, 1e150), (1e300, 1e298)])
    def test_large_positive_mean(self, mean, std):
        # the rectifier never cuts, so the residual is b + (1 - mu) g with mu = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = make_nonlinearity_stats(BiasModel.gaussian(mean=mean, std=std))
        assert moments.mu == 1.0
        assert moments.sigma == pytest.approx(math.hypot(mean, std), rel=1e-14)
        assert moments.eta == pytest.approx(math.hypot(mean, std), rel=1e-14)

    @pytest.mark.parametrize("mean, std", [(-1e150, 1.0), (-1e200, 1e150), (-1e300, 1e298)])
    def test_large_negative_mean(self, mean, std):
        # the rectifier always cuts, so the residual is -mu g with mu = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = make_nonlinearity_stats(BiasModel.gaussian(mean=mean, std=std))
        assert moments == NonlinearityStats(mu=0.0, sigma=0.0, eta=0.0)

    @pytest.mark.parametrize("std", [1e150, 1e200, 1e300])
    def test_large_spread_about_zero(self, std):
        # g is negligible next to b, so both moments are about E[ReLU(b)^2]^(1/2) = std/sqrt(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments = make_nonlinearity_stats(BiasModel.gaussian(mean=0.0, std=std))
        assert moments.mu == 0.5
        assert moments.sigma == pytest.approx(std / math.sqrt(2.0), rel=1e-14)
        assert moments.eta == pytest.approx(std / math.sqrt(2.0), rel=1e-14)

    def test_moments_beyond_the_largest_float_are_named(self):
        # sigma is about 1.39 * 1.7e308 at z = 1
        law = BiasModel.gaussian(mean=1.7e308, std=1.7e308)
        message = f"the moments of bias law {bias_spec_to_config(law)} overflow"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_nonlinearity_stats(law)

    def test_never_builds_the_rule(self, monkeypatch):
        def no_rule():
            raise AssertionError("a Gaussian law built the Gauss-Legendre rule")

        monkeypatch.setattr(lasso, "_legendre_rule", no_rule)
        make_nonlinearity_stats(BiasModel.gaussian(mean=0.3, std=0.8))
        with pytest.raises(AssertionError, match="built the Gauss-Legendre rule"):
            make_nonlinearity_stats(BiasModel.logistic())


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(soft_threshold(x, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_zero_threshold_is_identity(self):
        x = np.array([1.5, -2.5])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_scalar_input(self):
        assert soft_threshold(2.0, 0.75) == 1.25


class TestObjective:
    def test_zero_residual_zero_outliers(self):
        A = np.array([[1.0], [1.0]])
        v = A @ np.array([2.0])
        assert lasso_objective(v, A, np.array([2.0]), np.zeros(2), 1.0) == 0.0

    def test_hand_computed_value(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        v = np.array([1.0, 2.0, 0.0])
        c = np.array([1.0, 1.0])
        e = np.array([0.0, 1.0, 0.0])
        # residual is (0, 0, -2): quadratic term 4/(2*3), penalty 0.5 * 1
        assert lasso_objective(v, A, c, e, 0.5) == pytest.approx(4.0 / 6.0 + 0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lasso_objective(np.zeros(3), np.ones((3, 2)), np.zeros(3), np.zeros(3), 1.0)


class TestSolver:
    def test_exact_data_recovers_exactly(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((40, 3))
        c0 = np.array([1.0, -2.0, 0.5])
        sol = solve_robust_lasso(A @ c0, A, LassoConfig(lam=1.0))
        np.testing.assert_allclose(sol.c_hat, c0, atol=1e-8)
        assert not sol.e_hat.any()
        assert sol.converged

    def test_two_point_hand_case(self):
        # LS fit of (3, 1) on the all-ones design is 2; residual (1, -1)
        # dies under threshold d*lam = 2, so the outlier part stays zero
        A = np.array([[1.0], [1.0]])
        v = np.array([3.0, 1.0])
        sol = solve_robust_lasso(v, A, LassoConfig(lam=1.0))
        assert sol.c_hat[0] == pytest.approx(2.0, abs=1e-12)
        assert not sol.e_hat.any()

    def test_small_penalty_absorbs_residual(self):
        A = np.array([[1.0], [1.0], [1.0]])
        v = np.array([0.0, 0.0, 9.0])
        sol = solve_robust_lasso(v, A, LassoConfig(lam=0.1))
        # threshold 0.3: the spike at coordinate 2 survives into e_hat
        assert sol.e_hat[2] > 5.0
        assert abs(sol.c_hat[0]) < 1.0

    def test_objective_trace_never_increases(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            A = rng.standard_normal((60, 4))
            v = rng.standard_normal(60) * 3.0
            lam = 10.0 ** rng.uniform(-4, -1)
            sol = solve_robust_lasso(v, A, LassoConfig(lam=lam))
            diffs = np.diff(sol.objective_trace)
            assert (diffs <= 1e-12).all(), f"trial {trial}: objective increased"

    def test_kkt_conditions_at_convergence(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((50, 3))
            v = rng.standard_normal(50)
            v[rng.integers(0, 50, 4)] += rng.choice([-8.0, 8.0], 4)
            lam = 0.01
            sol = solve_robust_lasso(v, A, LassoConfig(lam=lam))
            assert sol.converged
            grad_c, sub_e = kkt_residuals(v, A, sol, lam)
            assert grad_c <= 1e-6, f"stationarity in c violated: {grad_c}"
            assert sub_e <= 1e-6, f"subgradient condition violated: {sub_e}"

    def test_local_perturbations_do_not_improve(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 3))
        v = rng.standard_normal(30)
        v[:3] += 10.0
        lam = 0.02
        sol = solve_robust_lasso(v, A, LassoConfig(lam=lam))
        base = lasso_objective(v, A, sol.c_hat, sol.e_hat, lam)
        for _ in range(2000):
            eps = 10.0 ** rng.uniform(-6, -2)
            dc = rng.standard_normal(3) * eps
            de = rng.standard_normal(30) * eps
            perturbed = lasso_objective(v, A, sol.c_hat + dc, sol.e_hat + de, lam)
            assert perturbed >= base - 1e-9

    def test_rank_deficient_design_raises(self):
        A = np.ones((10, 2))  # duplicate columns
        with pytest.raises(RankDeficiencyError):
            solve_robust_lasso(np.zeros(10), A, LassoConfig(lam=1.0))

    def test_underdetermined_design_raises(self):
        with pytest.raises(RankDeficiencyError):
            solve_robust_lasso(np.zeros(2), np.ones((2, 3)), LassoConfig(lam=1.0))

    def test_design_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"^A must be a 2-D array, got shape \(6,\)$"):
            solve_robust_lasso(np.zeros(6), np.ones(6), LassoConfig(lam=1.0))

    def test_design_must_have_a_column(self):
        # the rank check would find no singular value
        message = r"^A must have at least one column, got shape \(10, 0\)$"
        with pytest.raises(ValueError, match=message):
            solve_robust_lasso(np.ones(10), np.zeros((10, 0)), LassoConfig(lam=0.1))

    @pytest.mark.parametrize("shape", [(7,), (5,), (6, 1)])
    def test_observations_must_match_the_rows(self, shape):
        A = np.random.default_rng(0).standard_normal((6, 2))
        message = rf"^v must be an array of shape \(6,\), got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            solve_robust_lasso(np.zeros(shape), A, LassoConfig(lam=1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_is_named(self, value):
        A = np.random.default_rng(0).standard_normal((6, 2))
        v = np.zeros(6)
        v[[3, 5]] = value
        with pytest.raises(ValueError, match=r"^v must be finite, got .* at index 3$"):
            solve_robust_lasso(v, A, LassoConfig(lam=1.0))

    @pytest.mark.parametrize("value", [1e200, -1e200, 6e153])
    def test_observation_whose_square_overflows_is_named(self, value):
        # 6 * (6e153)^2 exceeds the largest double; the check itself stays silent
        A = np.random.default_rng(0).standard_normal((6, 2))
        v = np.zeros(6)
        v[:] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^v is too large: its sum of squares overflows"):
                solve_robust_lasso(v, A, LassoConfig(lam=1.0))

    def test_largest_observation_whose_square_fits_is_solved(self):
        A = np.random.default_rng(0).standard_normal((6, 2))
        v = np.full(6, 5e153)  # 6 * (5e153)^2 = 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_robust_lasso(v, A, LassoConfig(lam=1.0))
        assert np.isfinite(sol.c_hat).all() and math.isfinite(sol.objective_trace[-1])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_design_entry_is_named(self, value):
        A = np.random.default_rng(0).standard_normal((6, 2))
        A[4, 1] = value
        A[5, 0] = value
        with pytest.raises(ValueError, match=r"^A must be finite, got .* at index \(4, 1\)$"):
            solve_robust_lasso(np.zeros(6), A, LassoConfig(lam=1.0))

    def test_finite_design_is_not_scanned_entry_by_entry(self, monkeypatch):
        # the diagonal of A^T A, which the solve forms anyway, is finite only if A is
        scanned = []
        array = checks.array

        def recorded(name, value, shape, *, finite=True, **rule):
            if finite:
                scanned.append(name)
            return array(name, value, shape, finite=finite, **rule)

        monkeypatch.setattr(checks, "array", recorded)
        A = np.random.default_rng(0).standard_normal((6, 2))
        solve_robust_lasso(np.ones(6), A, LassoConfig(lam=1.0))
        assert scanned == ["v"]

    @pytest.mark.parametrize("scale", [1e10, 1e12])
    def test_scaled_design_stops_as_the_unscaled_one(self, scale):
        # ||A^T r|| / d grows with A; against a tolerance that did not, these ran all 1000
        # steps with a c_hat that already was the unscaled one over the scale
        rng = np.random.default_rng(3)
        A = rng.standard_normal((500, 5))
        v = A @ rng.standard_normal(5) + 0.01 * rng.standard_normal(500)
        v[:10] += 5
        config = LassoConfig(lam=0.01)
        unscaled = solve_robust_lasso(v, A, config)
        sol = solve_robust_lasso(v, scale * A, config)
        assert sol.converged and sol.iterations <= 3
        np.testing.assert_allclose(sol.c_hat * scale, unscaled.c_hat, rtol=1e-10, atol=0.0)

    def test_budget_exhausted_reports_max_iter(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((50, 3))
        v = rng.standard_normal(50)
        v[:4] += 8.0
        sol = solve_robust_lasso(v, A, LassoConfig(lam=0.01, max_iter=1))
        assert sol.iterations == 1
        assert sol.stop_reason == "max_iter"
        assert not sol.converged

    def test_nothing_flagged_stops_after_one_step_at_least_squares(self):
        # no residual reaches the threshold d * lam = 200, so the least-squares fit is the minimum
        rng = np.random.default_rng(8)
        A = rng.standard_normal((200, 5))
        v = A @ rng.standard_normal(5) + 0.1 * rng.standard_normal(200)
        sol = solve_robust_lasso(v, A, LassoConfig(lam=1.0))
        assert sol.iterations == 1 and sol.converged
        assert not sol.e_hat.any()
        c_ls = np.linalg.lstsq(A, v, rcond=None)[0]
        np.testing.assert_allclose(sol.c_hat, c_ls, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_bias_instance_takes_at_most_three_steps(self, seed):
        # Newton steps on the unflagged rows land on the minimum once the flagged rows stop
        # changing
        inst = generate_recovery_instance(4000, 10, 80, 0.01, 5.0, bias=0.0, seed=seed)
        lam = oracle_lambda(inst, make_nonlinearity_stats(0.0))
        sol = solve_robust_lasso(inst.v, inst.A, LassoConfig(lam=lam))
        assert sol.converged
        assert sol.iterations <= 3
        assert np.count_nonzero(sol.e_hat) > 0

    def test_ill_conditioned_first_step_takes_one_more_step(self):
        # at condition number 1e9 the first step from c = 0 is stationary, yet its seminormal
        # error leaves the objective 2e-10 (relative) above the minimum; one more step removes it
        rng = np.random.default_rng(0)
        d, k = 32771, 2
        U = np.linalg.qr(rng.standard_normal((d, k)))[0]
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        A = (U * (math.sqrt(d) * np.array([1.0, 1e-9]))) @ V.T
        v = A @ rng.standard_normal(k) + 0.1 * rng.standard_normal(d)
        sol = solve_robust_lasso(v, A, LassoConfig(lam=1.0))
        assert sol.iterations == 2 and sol.converged
        assert not sol.e_hat.any()
        c_ls = np.linalg.lstsq(A, v, rcond=None)[0]
        minimum = lasso_objective(v, A, c_ls, np.zeros(d), 1.0)
        assert sol.objective_trace[0] > minimum * (1.0 + 1e-10)
        assert sol.objective_trace[-1] <= minimum * (1.0 + 1e-11)

    def test_ill_conditioned_first_step_is_refined_to_least_squares(self):
        # at condition number 1e6 the first step from c = 0 is stationary and the next step
        # would take less than 1e-12 of the objective, yet the seminormal error leaves c 1.3e-6
        # (relative) off least squares; one step of refinement brings it to 1.3e-9
        v, A, kappa = self._ill_conditioned_problem()
        sol = solve_robust_lasso(v, A, LassoConfig(lam=1.0))
        assert sol.iterations == 2 and sol.converged
        assert not sol.e_hat.any()
        c_ls = np.linalg.lstsq(A, v, rcond=None)[0]
        assert np.abs(sol.c_hat - c_ls).max() <= 1e-13 * kappa * (1.0 + np.abs(c_ls).max())

    def test_first_step_refinement_does_not_depend_on_the_scale_of_a(self):
        # c scales as 1 / A; a floor of 1e-12 in the units of c once stopped this solve
        # after its first step, 4.6e-7 (relative) off least squares
        v, A, kappa = self._ill_conditioned_problem()
        unscaled = solve_robust_lasso(v, A, LassoConfig(lam=1.0))
        sol = solve_robust_lasso(v, 1e10 * A, LassoConfig(lam=1.0))
        assert sol.iterations == unscaled.iterations and sol.converged
        c_ls = np.linalg.lstsq(A, v, rcond=None)[0]
        assert np.abs(1e10 * sol.c_hat - c_ls).max() <= 1e-13 * kappa * (1.0 + np.abs(c_ls).max())

    @staticmethod
    def _ill_conditioned_problem():
        """``v``, ``A`` and the condition number 1e6 of ``A``: a 2000 x 2 design with no outlier."""
        rng = np.random.default_rng(2)
        d, k, kappa = 2000, 2, 1e6
        U = np.linalg.qr(rng.standard_normal((d, k)))[0]
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        A = (U * (math.sqrt(d) * np.array([1.0, 1.0 / kappa]))) @ V.T
        return A @ rng.standard_normal(k) + 0.1 * rng.standard_normal(d), A, kappa

    def test_stop_reason_and_gradient_norm(self):
        rng = np.random.default_rng(6)
        for lam in (1e-3, 1e-2, 1e-1):
            A = rng.standard_normal((80, 4))
            v = rng.standard_normal(80)
            v[rng.integers(0, 80, 5)] += rng.choice([-8.0, 8.0], 5)
            for max_iter in (1, 2, 1000):
                sol = solve_robust_lasso(v, A, LassoConfig(lam=lam, max_iter=max_iter))
                assert sol.stop_reason == ("tol" if sol.converged else "max_iter")
                grad_c, _ = kkt_residuals(v, A, sol, lam)
                assert sol.grad_norm == pytest.approx(grad_c, rel=1e-15, abs=0.0)
            assert sol.converged

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            LassoConfig(lam=0.0)
        with pytest.raises(ValueError):
            LassoConfig(lam=1.0, max_iter=0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_penalty_is_named(self, lam):
        # an infinite lam once ran the whole budget on an all-NaN objective (inf * 0)
        with pytest.raises(ValueError, match=r"^lam must be positive and finite, got (inf|nan)$"):
            LassoConfig(lam=lam)

    @pytest.mark.parametrize("lam", [True, "0.1", None], ids=["true", "string", "none"])
    def test_penalty_that_is_no_real_number_is_named(self, lam):
        # True was taken as lam = 1
        message = f"^lam must be a real number, got {re.escape(repr(lam))}$"
        with pytest.raises(ValueError, match=message):
            LassoConfig(lam=lam)

    def test_fractional_budget_is_named(self):
        message = r"^max_iter must be an integer of at least 1, got 1\.5$"
        with pytest.raises(ValueError, match=message):
            LassoConfig(lam=1.0, max_iter=1.5)

    def test_boolean_budget_is_named(self):
        # True is an int to Python, but not a sweep count
        message = r"^max_iter must be an integer of at least 1, got True$"
        with pytest.raises(ValueError, match=message):
            LassoConfig(lam=1.0, max_iter=True)
        assert LassoConfig(lam=1.0, max_iter=np.int64(3)).max_iter == 3


class TestPenaltyRules:
    def test_oracle_matches_definition(self):
        inst = generate_recovery_instance(100, 3, 5, 0.01, 5.0, bias=0.0, seed=9)
        stats_obj = make_nonlinearity_stats(0.0)
        lam = oracle_lambda(inst, stats_obj)
        clean = inst.A @ inst.c_star
        z = np.maximum(clean + inst.b, 0.0) - stats_obj.mu * clean
        assert lam == pytest.approx(2.0 * np.abs(z + inst.w).max() / 100, rel=1e-12)

    def test_degenerate_noiseless_case_floors(self):
        # all-positive pre-activations with slope 1 make the model noise
        # vanish identically, so the rule falls back to its floor
        from relurec.generate import RecoveryInstance
        from relurec.lasso import NonlinearityStats

        rng = np.random.default_rng(0)
        A = np.abs(rng.standard_normal((20, 2))) + 0.1
        c_star = np.array([0.6, 0.8])
        v = A @ c_star
        inst = RecoveryInstance(
            A=A,
            c_star=c_star,
            b=np.zeros(20),
            e_star=np.zeros(20),
            w=np.zeros(20),
            v=v,
            s=0,
            delta=0.0,
            seed=0,
            bias="const:value=0.0",
        )
        flat = NonlinearityStats(mu=1.0, sigma=0.1, eta=0.1)
        assert oracle_lambda(inst, flat) == 1e-12

    def test_oracle_scaling_with_dimension(self):
        # the max of d sub-gaussian terms grows like sqrt(log d), so
        # lam * d / sqrt(log d) should stay within a constant band
        stats_obj = make_nonlinearity_stats(0.0)
        ratios = []
        for d in (250, 1000, 4000):
            inst = generate_recovery_instance(d, 5, 0, 0.01, 5.0, bias=0.0, seed=17)
            lam = oracle_lambda(inst, stats_obj)
            assert 0.0 < lam < 0.05
            ratios.append(lam * d / math.sqrt(math.log(d)))
        assert max(ratios) / min(ratios) < 3.0

    def test_agnostic_rule_arithmetic(self):
        # 4 (0.5 sqrt(2 log 2000) + 0.01) / 1000
        expected = 4.0 * (0.5 * math.sqrt(2.0 * math.log(2000.0)) + 0.01) / 1000.0
        assert agnostic_lambda(1000, 0.5, 0.01) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "d", [True, 2.5, 0, -3, 1000.0], ids=["true", "fraction", "zero", "negative", "float"]
    )
    def test_agnostic_rule_names_a_sample_size_that_is_no_count(self, d):
        # True and 2.5 once gave a penalty
        message = f"^sample size d must be an integer of at least 1, got {d!r}$"
        with pytest.raises(ValueError, match=message):
            agnostic_lambda(d, 1.0, 0.0)

    @pytest.mark.parametrize(
        "sigma, delta, message",
        [
            (math.nan, 0.0, "sigma must be nonnegative and finite, got nan"),
            (-0.5, 0.0, "sigma must be nonnegative and finite, got -0.5"),
            (0.5, math.inf, "delta must be nonnegative and finite, got inf"),
            (0.5, -0.01, "delta must be nonnegative and finite, got -0.01"),
        ],
        ids=["sigma-nan", "sigma-negative", "delta-inf", "delta-negative"],
    )
    def test_agnostic_rule_names_a_bad_moment_or_noise_level(self, sigma, delta, message):
        # a NaN sigma once gave a NaN penalty, and a negative one a negative penalty
        with pytest.raises(ValueError, match=f"^{message}$"):
            agnostic_lambda(10, sigma, delta)


class TestErrorAndBound:
    def _fake_solution(self, c_hat, e_hat):
        return LassoSolution(
            c_hat=np.asarray(c_hat, dtype=float),
            e_hat=np.asarray(e_hat, dtype=float),
            objective_trace=np.array([0.0]),
            iterations=1,
            converged=True,
            stop_reason="tol",
            grad_norm=0.0,
        )

    def test_perfect_estimate_has_zero_error(self):
        inst = generate_recovery_instance(50, 2, 3, 0.0, 5.0, bias=0.0, seed=1)
        stats_obj = make_nonlinearity_stats(0.0)
        sol = self._fake_solution(stats_obj.mu * inst.c_star, inst.e_star)
        err, bound = recovery_error_and_bound(sol, inst, stats_obj)
        assert err == 0.0
        assert bound > 0.0

    def test_bound_arithmetic(self):
        # k=10, s=50, d=1000: max(10 log 10, 50 log 1000)/1000 under the root
        inst = generate_recovery_instance(1000, 10, 50, 0.0, 5.0, bias=0.0, seed=2)
        stats_obj = make_nonlinearity_stats(0.0)
        sol = self._fake_solution(np.zeros(10), np.zeros(1000))
        _, bound = recovery_error_and_bound(sol, inst, stats_obj)
        assert bound == pytest.approx(0.5876897, abs=1e-5)

    def test_rank_one_latent_guard(self):
        # k = 1 replaces the vanishing k log k term by k
        inst = generate_recovery_instance(100, 1, 0, 0.0, 5.0, bias=0.0, seed=3)
        stats_obj = make_nonlinearity_stats(0.0)
        sol = self._fake_solution(np.zeros(1), np.zeros(100))
        _, bound = recovery_error_and_bound(sol, inst, stats_obj)
        assert bound == pytest.approx(math.sqrt(1.0 / 100.0), rel=1e-12)

    @pytest.mark.parametrize(
        "c_hat, e_hat, message",
        [
            (
                np.zeros(1), np.zeros(50),
                r"c_hat must be an array of shape \(3,\), got shape \(1,\)",
            ),
            (
                np.zeros((3, 3)), np.zeros(50),
                r"c_hat must be an array of shape \(3,\), got shape \(3, 3\)",
            ),
            (
                np.zeros(3), np.zeros(1),
                r"e_hat must be an array of shape \(50,\), got shape \(1,\)",
            ),
            (
                np.zeros(3), np.zeros((50, 1)),
                r"e_hat must be an array of shape \(50,\), got shape \(50, 1\)",
            ),
        ],
        ids=["c-one-entry", "c-square", "e-one-entry", "e-column"],
    )
    def test_solution_of_the_wrong_shape_is_named(self, c_hat, e_hat, message):
        # a (1,) c_hat once broadcast to an error of 1.5, and a (3, 3) one to 1.866
        inst = generate_recovery_instance(50, 3, 3, 0.0, 5.0, bias=0.0, seed=1)
        sol = self._fake_solution(c_hat, e_hat)
        with pytest.raises(ValueError, match=f"^{message}$"):
            recovery_error_and_bound(sol, inst, make_nonlinearity_stats(0.0))

    def test_bound_halves_when_d_quadruples(self):
        stats_obj = make_nonlinearity_stats(0.0)
        bounds = []
        for d in (500, 2000):
            inst = generate_recovery_instance(d, 4, 0, 0.0, 5.0, bias=0.0, seed=4)
            sol = self._fake_solution(np.zeros(4), np.zeros(d))
            bounds.append(recovery_error_and_bound(sol, inst, stats_obj)[1])
        assert bounds[1] == pytest.approx(bounds[0] / 2.0, rel=1e-12)


class TestRestrictedSet:
    def test_zero_pair_is_trivially_fine(self):
        A = np.eye(8)
        assert restricted_pair_ratio(A, np.zeros(8), np.zeros(8)) == math.inf

    def test_pure_latent_direction_ratio(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((500, 10))
        h = rng.standard_normal(10)
        h /= np.linalg.norm(h)
        # ||Ah||^2/(2d) concentrates near 1/2 and the rhs is 1/128
        ratio = restricted_pair_ratio(A, h, np.zeros(500))
        assert 20.0 < ratio < 150.0

    def test_search_reports_no_violations_on_a_sound_design(self):
        rng = np.random.default_rng(7)
        d, k, s = 500, 10, 25
        A = rng.standard_normal((d, k))
        num_checked, num_violations, min_ratio = check_restricted_lower_bound(
            A, lam=0.01, sigma=0.5, eta=math.sqrt(0.75), support=np.arange(s), delta_norm=0.5,
        )
        assert num_checked == 93  # 3 directions x 31 steps of t
        assert num_violations == 0
        assert min_ratio >= 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_search_certifies_violations_near_the_regime_edge(self, seed):
        # k + s = 170 <= d/4 = 200, so the check accepts the setting, yet pairs of the
        # cone break the bound; 100 sampled members once reported a smallest ratio near 30
        inst = generate_recovery_instance(800, 10, 160, 0.01, 5.0, BiasModel.gaussian(), seed)
        stats_obj = make_nonlinearity_stats(BiasModel.gaussian())
        cone = {
            "lam": agnostic_lambda(800, stats_obj.sigma, 0.01), "sigma": stats_obj.sigma,
            "eta": stats_obj.eta, "delta_norm": float(np.abs(inst.A.T @ inst.w).max()),
        }
        support = np.flatnonzero(inst.e_star)
        num_checked, num_violations, min_ratio = check_restricted_lower_bound(
            inst.A, support=support, **cone
        )
        assert num_violations >= 1
        assert min_ratio < 1.0
        ratios = []
        for h, Ah, f in _cone_pairs(inst.A, support, **cone):
            assert in_restricted_cone(h, f, support, **cone)
            assert np.array_equal(Ah, inst.A @ h)
            ratios.append(restricted_pair_ratio(inst.A, h, f))
        assert (len(ratios), min(ratios)) == (num_checked, min_ratio)
        assert sum(r < 1.0 for r in ratios) == num_violations

    @given(
        d=st.integers(8, 200),
        data=st.data(),
        lam=st.floats(1e-4, 1.0),
        sigma=st.floats(0.0, 2.0),
        eta=st.floats(0.0, 2.0),
        delta_norm=st.floats(0.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_pair_lies_in_the_cone(self, d, data, lam, sigma, eta, delta_norm, seed):
        k = data.draw(st.integers(1, d // 8), label="k")
        s = data.draw(st.integers(0, d // 4 - k), label="s")
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, k)) * 10.0 ** rng.uniform(-3.0, 3.0, size=k)
        support = rng.choice(d, size=s, replace=False)
        cone = {"lam": lam, "sigma": sigma, "eta": eta, "delta_norm": delta_norm}
        pairs = list(_cone_pairs(A, support, **cone))
        assert len(pairs) == 31 * min(k, 3)
        for h, _, f in pairs:
            assert in_restricted_cone(h, f, support, **cone)

    @pytest.mark.parametrize(
        "h, f, message",
        [
            (np.ones(3), np.array([2.0]), r"f must have shape \(50,\), got \(1,\)"),
            (np.ones(3), np.zeros((50, 1)), r"f must have shape \(50,\), got \(50, 1\)"),
            (np.ones(1), np.zeros(50), r"h must have shape \(3,\), got \(1,\)"),
            (np.ones((3, 1)), np.zeros(50), r"h must have shape \(3,\), got \(3, 1\)"),
        ],
        ids=["f-one-entry", "f-column", "h-one-entry", "h-column"],
    )
    def test_pair_of_the_wrong_shape_is_named(self, h, f, message):
        # an f of [2.0] was once added to every row but counted once in ||f||, giving
        # 124.08, and a (50, 1) f made a 50 x 50 residual, giving 3322.6
        A = np.random.default_rng(0).standard_normal((50, 3))
        with pytest.raises(ValueError, match=f"^{message}$"):
            restricted_pair_ratio(A, h, f)

    def test_regime_guard(self):
        A = np.random.default_rng(8).standard_normal((40, 10))
        with pytest.raises(ValueError):
            check_restricted_lower_bound(
                A, lam=0.01, sigma=0.5, eta=0.8, support=np.arange(20)
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"support": [-1]}, "support entry at index 0 must be an integer of at least 0, "
                                "got -1"),
            ({"support": [4, 150]}, r"support entry 150 at index 1 lies outside \[0, d=100\)"),
            ({"support": [1, 2, 1]}, "support entry 1 at index 2 is repeated"),
            ({"support": [4, 1.5]}, "support entry at index 1 must be an integer of at least 0, "
                                    "got 1.5"),
            ({"A": np.full((100, 3), np.nan)}, r"A must be finite, got nan at index \(0, 0\)"),
            ({"lam": 0.0}, "lam must be positive and finite, got 0.0"),
            ({"lam": math.nan}, "lam must be positive and finite, got nan"),
            ({"sigma": -1.0}, "sigma must be nonnegative and finite, got -1.0"),
            ({"eta": math.inf}, "eta must be nonnegative and finite, got inf"),
            ({"delta_norm": math.nan}, "delta_norm must be nonnegative and finite, got nan"),
            ({"A": np.zeros((100, 3))}, r"A\^T A is not positive definite"),
        ],
        ids=["support-negative", "support-above-d", "support-repeated", "support-fraction",
             "A-nan", "lam-zero", "lam-nan", "sigma-negative", "eta-inf", "delta-norm-nan",
             "A-rank-deficient"],
    )
    def test_bad_input_is_named(self, change, message):
        # these once ran as row 99, as |S| = 3, or with min_ratio = nan, or
        # raised a bare IndexError or ZeroDivisionError; a design of deficient
        # rank has no Cholesky factor of A^T A for the search to start from
        args = {
            "A": np.random.default_rng(8).standard_normal((100, 3)), "lam": 0.01, "sigma": 0.5,
            "eta": 0.8, "support": [1, 2], "delta_norm": 0.0,
        } | change
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_restricted_lower_bound(args.pop("A"), **args)
