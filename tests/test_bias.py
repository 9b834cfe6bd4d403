"""Tests for the bias distribution family and its interval constants.

Expected values were frozen from independent computations with
``scipy.stats`` distributions and dense-grid / closed-form evaluation.
The module evaluates the interval constants at the interval's ends only;
``TestScanOracle`` checks them against a dense scan of the interval.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from relurec.bias import (
    BiasConstants,
    BiasModel,
    bias_spec_to_config,
    compute_bias_constants,
    default_exponential,
    flatness_beta,
    lipschitz_L,
    omega_min_mass,
    parse_bias_spec,
)
from relurec.harness import bias_law

ALL_MODELS = [
    BiasModel.shifted_exponential(rate=1.0, shift=-2.0),
    BiasModel.shifted_exponential(rate=2.0, shift=0.5),
    BiasModel.gaussian(mean=0.0, std=1.0),
    BiasModel.gaussian(mean=-0.3, std=0.7),
    BiasModel.logistic(loc=0.0, scale=1.0),
    BiasModel.logistic(loc=0.4, scale=0.25),
]


def _scipy_frozen(model):
    """Reference distribution for cross-checks."""
    a, b = model.params
    if model.kind == "shifted_exponential":
        return stats.expon(loc=b, scale=1.0 / a)
    if model.kind == "gaussian":
        return stats.norm(loc=a, scale=b)
    return stats.logistic(loc=a, scale=b)


def _p_and_dp(model, x):
    return model.density(x), model.density_derivative(x)


class TestDensityAndDerivative:
    def test_exponential_at_support_edge(self):
        model = BiasModel.shifted_exponential(rate=1.0, shift=-1.0)
        p, dp = _p_and_dp(model, -1.0)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert dp == pytest.approx(-1.0, abs=1e-12)

    def test_gaussian_at_mode(self):
        model = BiasModel.gaussian(mean=0.0, std=1.0)
        p, dp = _p_and_dp(model, 0.0)
        assert p == pytest.approx(0.3989422804014327, abs=1e-12)
        assert dp == pytest.approx(0.0, abs=1e-12)

    def test_exponential_interior_point(self):
        model = BiasModel.shifted_exponential(rate=2.0, shift=0.0)
        p, dp = _p_and_dp(model, 1.0)
        assert p == pytest.approx(0.2706705664732254, rel=1e-12)
        assert dp == pytest.approx(-0.5413411329464508, rel=1e-12)

    def test_left_of_exponential_support_is_zero(self):
        model = BiasModel.shifted_exponential(rate=1.0, shift=0.0)
        p, dp = _p_and_dp(model, -0.5)
        assert p == 0.0
        assert dp == 0.0

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_scipy_density(self, model):
        ref = _scipy_frozen(model)
        xs = np.linspace(-4.0, 4.0, 201)
        np.testing.assert_allclose(model.density(xs), ref.pdf(xs), atol=1e-12)
        np.testing.assert_allclose(model.cdf(xs), ref.cdf(xs), atol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_derivative_matches_finite_differences(self, model):
        lo, _ = model.support()
        xs = np.linspace(-3.0, 3.0, 41)
        xs = xs[xs > lo + 1e-3]  # stay away from the nonsmooth support edge
        h = 1e-6
        fd = (model.density(xs + h) - model.density(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(model.density_derivative(xs), fd, atol=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_density_integrates_to_one(self, model):
        lo, hi = model.support()
        total, err = integrate.quad(model.density, lo, hi)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestIntervalProbability:
    """The mass of ``[a, b]`` is ``cdf(b) - cdf(a)``, also at infinite ends."""

    def test_full_line_has_unit_mass(self):
        model = BiasModel.logistic()
        assert model.cdf(math.inf) - model.cdf(-math.inf) == pytest.approx(1.0)

    def test_half_line_matches_cdf(self):
        model = BiasModel.shifted_exponential(rate=1.0, shift=-1.0)
        # mass of B <= 0 for a unit exponential started at -1
        assert model.cdf(0.0) - model.cdf(-math.inf) == pytest.approx(
            0.6321205588285577, rel=1e-12
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_quadrature(self, model):
        val = model.cdf(0.4) - model.cdf(-1.3)
        ref, _ = integrate.quad(model.density, -1.3, 0.4)
        assert val == pytest.approx(ref, abs=1e-9)


class TestDistributionFunctionsAgainstScipy:
    """``cdf`` and ``ppf`` of the standard Gaussian and logistic laws, tails included."""

    MODELS = [BiasModel.gaussian(), BiasModel.logistic()]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_cdf_to_relative_precision(self, model):
        # an absolute tolerance would pass any value below it in the left tail
        x = np.linspace(-37.0, 37.0, 7401)
        np.testing.assert_allclose(model.cdf(x), _scipy_frozen(model).cdf(x), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_ppf_to_relative_precision(self, model):
        q = np.concatenate([
            np.logspace(-300.0, -1.0, 600),
            np.linspace(0.1, 0.9, 161),  # holds q = 1/2, where both give 0
            1.0 - np.logspace(-15.0, -1.0, 300),
        ])
        np.testing.assert_allclose(model.ppf(q), _scipy_frozen(model).ppf(q), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_edge_values_without_a_warning(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = np.array([0.0, 1.0, np.nan, -0.5, 1.5])
            np.testing.assert_array_equal(
                model.ppf(q), [-np.inf, np.inf, np.nan, np.nan, np.nan]
            )
            assert model.ppf(0.0) == -math.inf and model.ppf(1.0) == math.inf
            assert math.isnan(model.ppf(math.nan))
            np.testing.assert_array_equal(
                model.cdf(np.array([-np.inf, np.inf, np.nan])), [0.0, 1.0, np.nan]
            )
            assert model.cdf(-math.inf) == 0.0 and model.cdf(math.inf) == 1.0


class TestExponentialEdgeValues:
    """The shifted exponential treats out-of-range inputs as the other two laws do."""

    MODEL = BiasModel.shifted_exponential(rate=2.0, shift=-1.0)

    def test_edge_values_without_a_warning(self):
        model = self.MODEL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = np.array([0.0, 1.0, np.nan, -0.5, 1.5])
            # the quantile at q = 0 is the left end of the support
            np.testing.assert_array_equal(model.ppf(q), [-1.0, np.inf, np.nan, np.nan, np.nan])
            assert model.ppf(1.0) == math.inf
            for value in (math.nan, -0.5, 1.5):
                assert math.isnan(model.ppf(value))
            np.testing.assert_array_equal(
                model.cdf(np.array([-np.inf, np.inf, np.nan])), [0.0, 1.0, np.nan]
            )
            for fn in (model.cdf, model.log_density, model.density, model.density_derivative):
                assert math.isnan(fn(math.nan))
            assert model.log_density(-1.5) == -math.inf and model.density_derivative(-1.5) == 0.0

    def test_in_range_values_keep_their_closed_forms(self):
        # bit for bit the expressions the in-range values have always had
        model, shift, scale = self.MODEL, -1.0, 0.5
        rng = np.random.default_rng(0)
        q = np.concatenate([[0.0, 1e-300, 0.5, 1.0 - 1e-16], rng.uniform(size=1000)])
        np.testing.assert_array_equal(model.ppf(q), shift - scale * np.log1p(-q))
        x = np.concatenate([[-1.0, -0.5, 0.0, 40.0], rng.normal(-1.0, 2.0, size=1000)])
        y = (x - shift) / scale
        above = y >= 0.0
        np.testing.assert_array_equal(model.cdf(x), np.where(above, -np.expm1(-y), 0.0))
        np.testing.assert_array_equal(
            model.log_density(x), np.where(above, -y - math.log(scale), -np.inf)
        )


class TestSampling:
    def test_deterministic_given_seed(self):
        model = BiasModel.logistic(loc=0.5, scale=2.0)
        a = model.sample(100, np.random.default_rng(3))
        b = model.sample(100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_exponential_respects_support(self):
        model = BiasModel.shifted_exponential(rate=3.0, shift=-2.0)
        draws = model.sample(10_000, np.random.default_rng(0))
        assert draws.min() >= -2.0

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_sample_mean_matches_distribution_mean(self, model):
        ref = _scipy_frozen(model)
        draws = model.sample(100_000, np.random.default_rng(7))
        tol = 4.0 * ref.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - ref.mean()) < tol, (
            f"sample mean {draws.mean():.4f} far from {ref.mean():.4f}"
        )


class TestFlatness:
    def test_exponential_closed_form(self):
        # p'^2/(4p) = rate^2 p / 4, minimised at the right endpoint
        model = BiasModel.shifted_exponential(rate=1.0, shift=-2.0)
        assert flatness_beta(model, 1.0) == pytest.approx(0.012446767091965986, rel=1e-2)

    def test_exponential_closed_form_rate_two(self):
        model = BiasModel.shifted_exponential(rate=2.0, shift=-1.0)
        assert flatness_beta(model, 1.0) == pytest.approx(0.03663127777746836, rel=1e-2)

    def test_gaussian_mode_inside_interval_is_vacuous(self):
        # a vanishing flatness is a value, reported by the vacuous flag, not a warning
        model = BiasModel.gaussian(mean=0.0, std=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert flatness_beta(model, 1.0) == 0.0

    def test_gaussian_mode_outside_interval_is_positive(self):
        model = BiasModel.gaussian(mean=5.0, std=1.0)
        value = flatness_beta(model, 1.0)
        # min of (x-5)^2/4 * p(x) over [-1,1] is attained at x=-1
        expected = (36.0 / 4.0) * stats.norm(5.0, 1.0).pdf(-1.0)
        assert value == pytest.approx(expected, rel=1e-2)

    @pytest.mark.parametrize(
        "model, gamma",
        [
            (BiasModel.gaussian(0.4291789843785656, 0.8471779648291016), 1.0943000301996968),
            (BiasModel.gaussian(0.123456789, 1.0), 1.0),
            (BiasModel.logistic(0.123456789, 0.6), 1.0),
        ],
    )
    def test_interior_mode_between_grid_points_is_vacuous(self, model, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert flatness_beta(model, gamma) == 0.0
            assert compute_bias_constants(model, gamma, 0.5).vacuous

    def test_density_vanishing_everywhere_raises(self):
        model = BiasModel.shifted_exponential(rate=1.0, shift=10.0)
        with pytest.raises(ValueError):
            flatness_beta(model, 1.0)


class TestLipschitz:
    def test_exponential_log_slope_dominates(self):
        # |p'|/p is exactly the rate on the support; hazard stays below it here
        model = BiasModel.shifted_exponential(rate=1.0, shift=-2.0)
        assert lipschitz_L(model, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_hazard_dominates(self):
        model = BiasModel.gaussian(mean=0.0, std=1.0)
        assert lipschitz_L(model, 1.0) == pytest.approx(1.525135276160981, rel=1e-3)

    def test_lower_bound_from_single_point(self):
        # sup |p'|/p over [-1, 1] is at least |p'(-1)|/p(-1) = 1 for a standard normal
        model = BiasModel.gaussian(mean=0.0, std=1.0)
        assert lipschitz_L(model, 1.0) >= 1.0

    def test_vanishing_cdf_raises(self):
        model = BiasModel.shifted_exponential(rate=1.0, shift=0.0)
        with pytest.raises(ValueError):
            lipschitz_L(model, 1.0)


class TestOmega:
    def test_single_window_when_nu_spans_interval(self):
        model = BiasModel.gaussian(mean=0.0, std=1.0)
        expected = stats.norm.cdf(1.0) - stats.norm.cdf(-1.0)
        assert omega_min_mass(model, 1.0, 2.0) == pytest.approx(expected, abs=1e-9)

    def test_gaussian_edge_window(self):
        model = BiasModel.gaussian(mean=0.0, std=1.0)
        assert omega_min_mass(model, 1.0, 0.5) == pytest.approx(0.1498822847945298, abs=1e-6)

    def test_exponential_rightmost_window(self):
        model = BiasModel.shifted_exponential(rate=1.0, shift=-3.0)
        assert omega_min_mass(model, 1.0, 0.5) == pytest.approx(0.01188174453358426, rel=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS[:4])
    def test_matches_brute_force_scan(self, model):
        gamma, nu = 1.2, 0.3
        ref = _scipy_frozen(model)
        ts = np.linspace(-gamma, gamma - nu, 50_001)
        expected = float((ref.cdf(ts + nu) - ref.cdf(ts)).min())
        assert omega_min_mass(model, gamma, nu) == pytest.approx(expected, abs=1e-7)

    def test_monotone_in_gamma_and_nu(self):
        model = BiasModel.logistic(loc=0.1, scale=0.8)
        gammas = [0.5, 0.8, 1.1, 1.4, 1.7]
        nus = [0.1, 0.2, 0.3, 0.4, 0.5]
        table = np.array([[omega_min_mass(model, g, v) for v in nus] for g in gammas])
        # growing the interval can only expose smaller windows
        assert (np.diff(table, axis=0) <= 1e-12).all()
        # longer windows can only hold more mass
        assert (np.diff(table, axis=1) >= -1e-12).all()

    def test_invalid_window_lengths_raise(self):
        model = BiasModel.gaussian()
        window = r"^window length nu must satisfy 0 < nu <= 2\*gamma, got nu={}, gamma=1\.0$"
        with pytest.raises(ValueError, match=window.format(r"0\.0")):
            omega_min_mass(model, 1.0, 0.0)
        with pytest.raises(ValueError, match=window.format(r"-0\.2")):
            omega_min_mass(model, 1.0, -0.2)
        with pytest.raises(ValueError, match=window.format(r"2\.5")):
            omega_min_mass(model, 1.0, 2.5)
        with pytest.raises(ValueError, match="^nu must be finite, got inf$"):
            omega_min_mass(model, 1.0, math.inf)


@pytest.mark.parametrize(
    "constant",
    [
        lambda model, gamma: flatness_beta(model, gamma),
        lambda model, gamma: lipschitz_L(model, gamma),
        lambda model, gamma: omega_min_mass(model, gamma, 0.5),
    ],
    ids=["flatness", "lipschitz", "omega"],
)
@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0])
def test_gamma_must_be_positive_and_finite(constant, gamma):
    # at gamma = inf flatness once gave 0.0, omega NaN and lipschitz a CDF error
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        constant(BiasModel.gaussian(), gamma)


SCAN_INTERVALS = [(0.5, 0.2), (1.0, 0.4), (1.7, 1.1), (3.0, 0.05)]


def _scan_constants(model, gamma, nu, points=100_001):
    """Flatness, Lipschitz constant and window mass from a dense scan.

    Each is ``None`` where the constant is undefined (the module raises).
    """
    ref = _scipy_frozen(model)
    x = np.linspace(-gamma, gamma, points)
    p, cdf = ref.pdf(x), ref.cdf(x)
    dp = model.density_derivative(x)
    positive = p > 0.0
    beta = float(np.min(dp[positive] ** 2 / (4.0 * p[positive]))) if positive.any() else None
    lipschitz = None
    if cdf[0] > 0.0:
        lipschitz = max(
            float(np.max(p / cdf)), float(np.max(np.abs(dp[positive]) / p[positive]))
        )
    starts = np.linspace(-gamma, gamma - nu, points)
    omega = max(float(np.min(ref.cdf(starts + nu) - ref.cdf(starts))), 0.0)
    return beta, lipschitz, omega


class TestScanOracle:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_constants_match_dense_scan(self, model):
        for gamma, nu in SCAN_INTERVALS:
            beta, lipschitz, omega = _scan_constants(model, gamma, nu)
            label = f"gamma={gamma}, nu={nu}"
            if beta is None:
                with pytest.raises(ValueError):
                    flatness_beta(model, gamma)
            elif model.kind != "shifted_exponential" and -gamma < model.mode < gamma:
                # the scan only comes close to the zero at the interior mode
                assert flatness_beta(model, gamma) == 0.0, label
            else:
                expected = beta if beta >= 1e-12 else 0.0
                assert flatness_beta(model, gamma) == pytest.approx(
                    expected, rel=1e-6, abs=1e-300
                ), label
            if lipschitz is None:
                with pytest.raises(ValueError):
                    lipschitz_L(model, gamma)
            else:
                assert lipschitz_L(model, gamma) == pytest.approx(lipschitz, rel=1e-6), label
            assert omega_min_mass(model, gamma, nu) == pytest.approx(
                omega, rel=1e-6, abs=1e-300
            ), label


class TestConstantsBundle:
    def test_compose_from_individually_tested_pieces(self):
        model = default_exponential(1.0)
        consts = compute_bias_constants(model, 1.0, 0.5)
        assert consts.beta == pytest.approx(flatness_beta(model, 1.0), rel=1e-12)
        assert consts.lipschitz == pytest.approx(lipschitz_L(model, 1.0), rel=1e-12)
        assert consts.omega == pytest.approx(omega_min_mass(model, 1.0, 0.5), rel=1e-12)
        assert not consts.vacuous

    def test_vacuous_flag(self):
        consts = compute_bias_constants(BiasModel.gaussian(), 1.0, 0.5)
        assert consts.beta == 0.0
        assert consts.vacuous

    def test_validation(self):
        with pytest.raises(ValueError):
            BiasConstants(beta=-0.1, lipschitz=1.0, omega=0.1, gamma=1.0, nu=0.1)
        with pytest.raises(ValueError):
            BiasConstants(beta=0.1, lipschitz=1.0, omega=1.5, gamma=1.0, nu=0.1)

    @pytest.mark.parametrize(
        "constant",
        [
            lambda model: flatness_beta(model, 1.0),
            lambda model: lipschitz_L(model, 1.0),
            lambda model: omega_min_mass(model, 1.0, 0.5),
            lambda model: compute_bias_constants(model, 1.0, 0.5),
        ],
        ids=["flatness", "lipschitz", "omega", "bundle"],
    )
    @pytest.mark.parametrize("model", [0.0, -2, None, "exp:rate=1,shift=-2"], ids=repr)
    def test_a_non_law_is_named(self, constant, model):
        # each once raised AttributeError: 'float' object has no attribute 'support' (or 'cdf')
        message = f"model must be a bias law, got {model!r}"
        with pytest.raises(ValueError) as caught:
            constant(model)
        assert str(caught.value) == message


class TestConfigStrings:
    @pytest.mark.parametrize(
        "text, kind, params",
        [
            ("exp:rate=1,shift=-2", "shifted_exponential", (1.0, -2.0)),
            ("gauss:mean=0,std=1", "gaussian", (0.0, 1.0)),
            ("logistic:loc=0.25,scale=1.5", "logistic", (0.25, 1.5)),
            ("exp:shift=-2,rate=0.5", "shifted_exponential", (0.5, -2.0)),
        ],
    )
    def test_parse(self, text, kind, params):
        model = bias_law(text)
        assert model.kind == kind
        assert model.params == params

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_round_trip(self, model):
        assert parse_bias_spec(bias_spec_to_config(model)) == model

    @given(
        kind=st.sampled_from(["shifted_exponential", "gaussian", "logistic"]),
        location=st.floats(-1e3, 1e3),
        spread=st.floats(1e-3, 1e3),
        number=st.sampled_from([float, int, np.float64, np.float32]),
    )
    def test_a_law_of_any_real_type_round_trips(self, kind, location, spread, number):
        # np.float64(0.1) was once kept, written as mean=np.float64(0.1) and not parsed back
        if number is int:
            location, spread = round(location), max(round(spread), 1)
        pair = (spread, location) if kind == "shifted_exponential" else (location, spread)
        law = BiasModel(kind, tuple(number(x) for x in pair))
        assert all(type(x) is float for x in law.params)
        assert parse_bias_spec(bias_spec_to_config(law)) == law

    def test_constant_spec(self):
        assert parse_bias_spec("const:value=0.5") == 0.5
        assert parse_bias_spec(bias_spec_to_config(-1.25)) == -1.25

    def test_model_spec_round_trip(self):
        spec = parse_bias_spec("exp:rate=3,shift=0.1")
        assert isinstance(spec, BiasModel)
        assert parse_bias_spec(bias_spec_to_config(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "weibull:k=1",
            "exp:rate=1",
            "exp:rate=1,shift=-2,extra=3",
            "gauss:mean=0,std=abc",
            "gauss mean=0",
            "const:val=1",
        ],
    )
    def test_malformed_configs_raise(self, text):
        with pytest.raises(ValueError):
            parse_bias_spec(text)

    # a constant is parsed by the grammar of the laws, so its errors name the fault
    @pytest.mark.parametrize(
        "text, message",
        [
            ("const:value=1,value=2",
             "duplicate bias parameter 'value' in config 'const:value=1,value=2'"),
            ("const:value=", "bad numeric value '' for 'value'"),
            ("const:value=-inf", "constant bias value must be finite, got -inf"),
        ],
        ids=["duplicate", "empty", "infinite"],
    )
    def test_malformed_constant_is_named(self, text, message):
        with pytest.raises(ValueError) as caught:
            parse_bias_spec(text)
        assert str(caught.value) == message

    def test_constant_is_not_a_law(self):
        with pytest.raises(ValueError, match="^must be a bias law, got 0.5$"):
            bias_law("const:value=0.5")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            BiasModel.gaussian(std=0.0)
        with pytest.raises(ValueError):
            BiasModel.shifted_exponential(rate=-1.0)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("gaussian", (0.0, 1.0, 5.0), r"gaussian takes the pair \(mean, std\), got \(0.0, 1.0, 5.0\)"),
            ("gaussian", (0.0,), r"gaussian takes the pair \(mean, std\), got \(0.0,\)"),
            ("logistic", (), r"logistic takes the pair \(loc, scale\), got \(\)"),
        ],
        ids=["three", "one", "none"],
    )
    def test_params_that_are_not_a_pair_are_named(self, kind, params, message):
        # three once built a law whose mode failed to unpack, and one raised a bare IndexError
        with pytest.raises(ValueError, match=f"^{message}$"):
            BiasModel(kind, params)

    # each was once accepted, and its moments in make_nonlinearity_stats were all NaN
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BiasModel.gaussian(math.nan, 1.0), "gaussian parameter mean must be finite"),
            (
                lambda: BiasModel.gaussian(0.0, math.inf),
                "gaussian parameter std must be positive and finite, got inf",
            ),
            (
                lambda: BiasModel.shifted_exponential(rate=math.inf),
                "shifted_exponential parameter rate must be positive and finite, got inf",
            ),
            (
                lambda: bias_law("gauss:mean=nan,std=1"),
                "gaussian parameter mean must be finite",
            ),
            (lambda: parse_bias_spec("const:value=nan"), "constant bias value must be finite"),
        ],
        ids=["gaussian-mean-nan", "gaussian-std-inf", "exp-rate-inf", "config-nan", "const-nan"],
    )
    def test_non_finite_parameters_are_named(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0])
def test_default_exponential_needs_a_positive_finite_gamma(gamma):
    # gamma = inf once gave a law with shift -inf
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        default_exponential(gamma)


def test_default_exponential_places_support_left_of_interval():
    model = default_exponential(1.5)
    assert model.kind == "shifted_exponential"
    assert model.support()[0] == -2.5
    # the working interval is strictly inside the support
    assert model.density(-1.5) > 0.0
