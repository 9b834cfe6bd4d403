"""Tests for the synthetic instance generators and their on-disk format."""

import math
import re
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from relurec.bias import BiasModel, bias_spec_to_config, default_exponential
from relurec.generate import (
    DegenerateInstanceError,
    GenerativeInstance,
    RecoveryInstance,
    generate_recovery_instance,
    generate_representation_instance,
    load_instance,
    relu_map,
    save_instance,
)


class TestReluMap:
    def test_clips_negatives(self):
        np.testing.assert_array_equal(relu_map(np.array([-1.0, 0.0, 2.5])), [0.0, 0.0, 2.5])

    def test_matrix_input(self):
        x = np.array([[-3.0, 1.0], [0.5, -0.5]])
        np.testing.assert_array_equal(relu_map(x), [[0.0, 1.0], [0.5, 0.0]])


@pytest.fixture
def rep_instance():
    model = default_exponential(1.0)
    return generate_representation_instance(d=40, n=80, k=3, gamma=1.0, model=model, seed=5)


class TestRepresentationInstance:
    def test_rank_and_rescaling(self, rep_instance):
        assert np.linalg.matrix_rank(rep_instance.M, tol=1e-8) == 3
        peak = np.abs(rep_instance.M).max()
        assert peak == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rep_instance.A @ rep_instance.C, rep_instance.M, atol=1e-12)

    def test_observation_consistency(self, rep_instance):
        pre = rep_instance.M + rep_instance.b[:, None]
        np.testing.assert_array_equal(rep_instance.Y, relu_map(pre))

    def test_support_residuals_equal_row_bias(self, rep_instance):
        # on the support, Y - M recovers each row's bias exactly
        on = rep_instance.Y > 0.0
        for i in range(rep_instance.Y.shape[0]):
            if on[i].any():
                resid = rep_instance.Y[i, on[i]] - rep_instance.M[i, on[i]]
                np.testing.assert_allclose(resid, rep_instance.b[i], atol=1e-12)

    def test_deterministic_given_seed(self):
        model = default_exponential(1.0)
        a = generate_representation_instance(10, 20, 2, 1.0, model, seed=9)
        b = generate_representation_instance(10, 20, 2, 1.0, model, seed=9)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.b, b.b)

    def test_doubling_gamma_doubles_m_exactly(self):
        model = BiasModel.gaussian()
        one = generate_representation_instance(12, 24, 2, 1.0, model, seed=3)
        two = generate_representation_instance(12, 24, 2, 2.0, model, seed=3)
        np.testing.assert_array_equal(two.M, 2.0 * one.M)

    def test_realized_margin_matches_direct_scan(self, rep_instance):
        M, on = rep_instance.M, rep_instance.M + rep_instance.b[:, None] > 0.0
        mixed = [i for i in range(len(M)) if on[i].any() and not on[i].all()]
        gaps = [M[i, on[i]].min() - M[i, ~on[i]].max() for i in mixed]
        assert rep_instance.realized_nu == min(gaps)
        assert rep_instance.realized_nu > 0.0

    @pytest.mark.parametrize(
        "model",
        [default_exponential(1.0), BiasModel.gaussian(0.1, 0.5), BiasModel.logistic(-0.2, 0.3)],
        ids=["exp", "gauss", "logistic"],
    )
    def test_bias_is_one_draw_of_the_recorded_law_after_a_and_c(self, model):
        inst = generate_representation_instance(30, 50, 4, 1.0, model, seed=7)
        rng = np.random.default_rng(7)
        rng.standard_normal((30, 4))  # A
        rng.standard_normal((4, 50))  # C
        np.testing.assert_array_equal(inst.b, model.sample(30, rng=rng))
        assert inst.bias == bias_spec_to_config(model)

    def test_mixed_sign_fraction_is_reasonable(self):
        model = default_exponential(1.0)
        fractions = []
        for seed in range(20):
            inst = generate_representation_instance(50, 100, 5, 1.0, model, seed=seed)
            fractions.append((inst.Y > 0).mean())
        assert 0.01 < min(fractions) and max(fractions) < 0.99

    def test_all_rows_saturated_raises(self):
        # support far to the right makes every pre-activation positive
        model = BiasModel.shifted_exponential(rate=1.0, shift=5.0)
        with pytest.raises(DegenerateInstanceError):
            generate_representation_instance(5, 10, 2, 1.0, model, seed=0)

    def test_bad_dimensions_raise(self):
        with pytest.raises(ValueError):
            generate_representation_instance(0, 5, 1, 1.0, default_exponential(1.0), seed=0)
        with pytest.raises(ValueError):
            generate_representation_instance(5, 5, 1, -1.0, default_exponential(1.0), seed=0)

    @pytest.mark.parametrize("d, n", [(8, 12), (12, 8)])
    def test_rank_above_min_d_n_raises(self, d, n):
        # M = A C would have rank 8, not k
        with pytest.raises(ValueError, match=r"^k must be at most min\(d, n\) = 8, got 20$"):
            generate_representation_instance(d, n, 20, 1.0, default_exponential(1.0), seed=0)

    @pytest.mark.parametrize("gamma", [0.0, np.inf, np.nan])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            generate_representation_instance(5, 10, 1, gamma, default_exponential(1.0), seed=0)

    def test_constant_bias_is_rejected(self):
        # a float has no sample method; it once raised AttributeError
        with pytest.raises(ValueError, match="^model must be a bias law, got 0.0$"):
            generate_representation_instance(5, 10, 1, 1.0, 0.0, seed=0)


class TestRecoveryInstance:
    def test_noiseless_case_is_exact(self):
        inst = generate_recovery_instance(
            d=50, k=4, s=0, delta=0.0, outlier_magnitude=5.0, bias=0.0, seed=2
        )
        np.testing.assert_array_equal(inst.v, relu_map(inst.A @ inst.c_star))
        assert not inst.e_star.any()
        assert not inst.w.any()

    def test_component_budgets(self):
        inst = generate_recovery_instance(
            d=200, k=5, s=10, delta=0.01, outlier_magnitude=5.0, bias=0.5, seed=4
        )
        assert np.count_nonzero(inst.e_star) == 10
        assert set(np.abs(inst.e_star[inst.e_star != 0])) == {5.0}
        assert np.abs(inst.w).max() <= 0.01
        assert np.linalg.norm(inst.c_star) == pytest.approx(1.0, abs=1e-12)
        assert (inst.b == 0.5).all()

    def test_half_normal_mean_when_bias_zero(self):
        # mean of ReLU(g) is 1/sqrt(2*pi) for standard normal g
        inst = generate_recovery_instance(
            d=100_000, k=1, s=0, delta=0.0, outlier_magnitude=5.0, bias=0.0, seed=8
        )
        clean = relu_map(inst.A[:, 0] * inst.c_star[0])
        tol = 4.0 * clean.std() / math.sqrt(clean.size)
        assert abs(clean.mean() - 1.0 / math.sqrt(2.0 * math.pi)) < tol

    def test_streams_are_structurally_independent(self):
        base = generate_recovery_instance(30, 3, 0, 0.0, 5.0, bias=0.0, seed=6)
        heavy = generate_recovery_instance(30, 3, 8, 0.05, 9.0, bias=0.0, seed=6)
        np.testing.assert_array_equal(base.A, heavy.A)
        np.testing.assert_array_equal(base.c_star, heavy.c_star)

    def test_random_bias_model(self):
        model = BiasModel.gaussian(mean=0.0, std=0.5)
        inst = generate_recovery_instance(1000, 2, 0, 0.0, 5.0, bias=model, seed=1)
        assert inst.b.std() > 0.1
        assert inst.bias == bias_spec_to_config(model)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            generate_recovery_instance(10, 2, 11, 0.0, 5.0, bias=0.0, seed=0)
        with pytest.raises(ValueError):
            generate_recovery_instance(10, 2, 0, -0.1, 5.0, bias=0.0, seed=0)

    @pytest.mark.parametrize(
        "s, delta, message",
        [
            (-1, 0.0, "s must be an integer of at least 0, got -1"),
            (41, 0.0, "s must be at most d = 40, got 41"),
            (2, -1.0, "noise level delta must be nonnegative and finite, got -1.0"),
            (2, math.nan, "noise level delta must be nonnegative and finite, got nan"),
        ],
        ids=["s-negative", "s-above-d", "delta-negative", "delta-nan"],
    )
    def test_bad_setting_is_named(self, s, delta, message):
        # the one check of s and delta behind recovery cells and `gen`
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_recovery_instance(40, 2, s, delta, 5.0, bias=0.0, seed=0)

    @pytest.mark.parametrize(
        "d, k, s, message",
        [
            (20.0, 2, 2, "d must be an integer of at least 1, got 20.0"),
            (20, 2.0, 2, "k must be an integer of at least 1, got 2.0"),
            (20, 2, True, "s must be an integer of at least 0, got True"),
            (True, 2, 0, "d must be an integer of at least 1, got True"),
        ],
        ids=["d-float", "k-float", "s-true", "d-true"],
    )
    def test_dimension_that_is_no_integer_is_named(self, d, k, s, message):
        # numpy once raised an unnamed TypeError on these, or took True as 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_recovery_instance(d, k, s, 0.0, 5.0, bias=0.0, seed=0)

    @pytest.mark.parametrize("bias", [True, False, "0.0"], ids=["true", "false", "string"])
    def test_constant_bias_that_is_no_real_number_is_named(self, bias):
        # True was taken as the offset 1.0 and recorded as const:value=1.0
        message = f"^constant bias must be a real number, got {re.escape(repr(bias))}$"
        with pytest.raises(ValueError, match=message):
            generate_recovery_instance(20, 2, 2, 0.0, 5.0, bias, 0)

    # a NaN delta once gave noiseless w = 0 while recording delta = nan, an
    # infinite one an OverflowError, and the others a non-finite v
    @pytest.mark.parametrize(
        "delta, magnitude, bias, message",
        [
            (math.nan, 5.0, 0.0, "delta"),
            (math.inf, 5.0, 0.0, "delta"),
            (0.0, math.nan, 0.0, "outlier_magnitude"),
            (0.0, math.inf, 0.0, "outlier_magnitude"),
            (0.0, 5.0, math.nan, "constant bias"),
            (0.0, 5.0, math.inf, "constant bias"),
        ],
        ids=["delta-nan", "delta-inf", "magnitude-nan", "magnitude-inf", "bias-nan", "bias-inf"],
    )
    def test_non_finite_arguments_are_named(self, delta, magnitude, bias, message):
        with pytest.raises(ValueError, match=message):
            generate_recovery_instance(10, 2, 3, delta, magnitude, bias=bias, seed=0)


class TestSerialization:
    def test_representation_round_trip(self, tmp_path, rep_instance):
        save_instance(rep_instance, tmp_path / "inst")
        loaded = load_instance(tmp_path / "inst")
        assert isinstance(loaded, GenerativeInstance)
        for attr in ("A", "C", "b", "M", "Y"):
            np.testing.assert_array_equal(
                getattr(loaded, attr), getattr(rep_instance, attr), err_msg=attr
            )
        assert loaded.gamma == rep_instance.gamma
        assert loaded.realized_nu == rep_instance.realized_nu
        assert loaded.bias == rep_instance.bias

    def test_recovery_round_trip(self, tmp_path):
        inst = generate_recovery_instance(25, 3, 4, 0.01, 5.0, bias=0.25, seed=13)
        save_instance(inst, tmp_path / "rec")
        loaded = load_instance(tmp_path / "rec")
        assert isinstance(loaded, RecoveryInstance)
        for attr in ("A", "c_star", "b", "e_star", "w", "v"):
            np.testing.assert_array_equal(
                getattr(loaded, attr), getattr(inst, attr), err_msg=attr
            )
        assert loaded.s == 4 and loaded.delta == 0.01

    def test_manifest_schema(self, tmp_path, rep_instance):
        # the archive's entries are the dataclass fields plus the class name
        save_instance(rep_instance, tmp_path / "inst")
        assert sorted(p.name for p in (tmp_path / "inst").iterdir()) == ["instance.npz"]
        with np.load(tmp_path / "inst" / "instance.npz", allow_pickle=False) as archive:
            assert sorted(archive.files) == sorted(
                ["A", "C", "b", "M", "Y", "gamma", "realized_nu", "seed", "bias", "type"]
            )
            assert archive["type"].item() == "GenerativeInstance"
            assert archive["Y"].shape == (40, 80)
            assert archive["gamma"].shape == ()

    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="instance.npz"):
            load_instance(tmp_path)
        # a directory in the earlier CSV + JSON layout holds no archive either
        (tmp_path / "instance.json").write_text('{"d": 1, "seed": 0}')
        (tmp_path / "y.csv").write_text("0.5\n")
        with pytest.raises(FileNotFoundError, match="instance.npz"):
            load_instance(tmp_path)

    def test_missing_field_raises(self, tmp_path, rep_instance):
        save_instance(rep_instance, tmp_path)
        with np.load(tmp_path / "instance.npz") as archive:
            entries = {name: archive[name] for name in archive.files}
        del entries["Y"], entries["seed"]
        np.savez(tmp_path / "instance.npz", **entries)
        missing = r"lacks the GenerativeInstance fields \['Y', 'seed'\]"
        with pytest.raises(ValueError, match=missing):
            load_instance(tmp_path)

    @pytest.mark.parametrize("kind", ["EstimatedMatrix", None])
    def test_unknown_type_raises(self, tmp_path, kind):
        inst = generate_recovery_instance(6, 2, 1, 0.0, 5.0, bias=0.0, seed=1)
        entries = {f.name: getattr(inst, f.name) for f in fields(inst)}
        if kind is not None:
            entries["type"] = kind
        np.savez(tmp_path / "instance.npz", **entries)
        with pytest.raises(ValueError, match=r"instance\.npz: instance type .* is not one of"):
            load_instance(tmp_path)


def _assert_same_fields(loaded, original):
    assert type(loaded) is type(original)
    for f in fields(original):
        got, want = getattr(loaded, f.name), getattr(original, f.name)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), f.name
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert np.array_equal(got, want), f.name
        else:
            assert type(got) is type(want), f.name
            assert got == want, f.name


def _round_trip(instance):
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(instance, tmp)
        return load_instance(tmp)


BIAS_FAMILIES = [
    BiasModel.shifted_exponential(rate=1.0, shift=-1.0),
    BiasModel.gaussian(mean=0.0, std=1.0),
    BiasModel.logistic(loc=0.25, scale=0.5),
]


class TestRoundTripProperty:
    """Every field of either instance kind survives save and load bit for bit."""

    @given(
        d=st.integers(2, 12),
        n=st.integers(2, 12),
        data=st.data(),
        gamma=st.floats(0.1, 10.0),
        model=st.sampled_from(BIAS_FAMILIES),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_representation_instance(self, d, n, data, gamma, model, seed):
        k = data.draw(st.integers(1, min(d, n)), label="k")
        try:
            inst = generate_representation_instance(d, n, k, gamma, model, seed)
        except DegenerateInstanceError:
            assume(False)
        _assert_same_fields(_round_trip(inst), inst)

    @given(
        d=st.integers(1, 12),
        k=st.integers(1, 4),
        data=st.data(),
        delta=st.floats(0.0, 1.0),
        magnitude=st.floats(0.1, 10.0),
        bias=st.one_of(st.floats(-3.0, 3.0), st.sampled_from(BIAS_FAMILIES)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_recovery_instance(self, d, k, data, delta, magnitude, bias, seed):
        s = data.draw(st.integers(0, d), label="s")
        inst = generate_recovery_instance(d, k, s, delta, magnitude, bias, seed)
        _assert_same_fields(_round_trip(inst), inst)
