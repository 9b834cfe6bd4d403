"""Tests for subspace extraction, alignment, and the perturbation bound."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from relurec.subspace import (
    RankDeficiencyWarning,
    alignment_error_bound,
    procrustes_align,
    sin_theta_distance,
    truncated_svd,
)


def random_orthonormal(d, k, rng):
    Q, R = np.linalg.qr(rng.standard_normal((d, k)))
    return Q * np.sign(np.diag(R))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        M = np.diag([3.0, 1.0])
        U, S, V = truncated_svd(M, 1)
        np.testing.assert_allclose(S, [3.0])
        assert abs(U[0, 0]) == pytest.approx(1.0) and U[1, 0] == pytest.approx(0.0)

    def test_rank_one_outer_product(self, rng):
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(5)
        M = np.outer(u, 2.5 * v / np.linalg.norm(v))
        U, S, V = truncated_svd(M, 1)
        assert S[0] == pytest.approx(2.5, abs=1e-10)
        np.testing.assert_allclose(np.abs(U[:, 0] @ u), 1.0, atol=1e-10)

    def test_residual_matches_spectral_tail(self, rng):
        M = rng.standard_normal((20, 30))
        k = 5
        U, S, V = truncated_svd(M, k)
        residual = np.linalg.norm(M - U @ np.diag(S) @ V.T, ord=2)
        full = np.linalg.svd(M, compute_uv=False)
        assert residual == pytest.approx(full[k], abs=1e-8)

    def test_orthonormal_output(self, rng):
        M = rng.standard_normal((15, 10))
        U, S, V = truncated_svd(M, 4)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-10)

    def test_rank_deficiency_warns(self, rng):
        u = rng.standard_normal(6)
        M = np.outer(u, rng.standard_normal(4))
        with pytest.warns(RankDeficiencyWarning):
            truncated_svd(M, 2)

    def test_rank_test_is_relative_to_the_largest_singular_value(self, rng):
        # a rank-1 matrix at scale 1e6 leaves rounding noise s_2 of about 1e-10
        # (above any absolute cutoff near 1e-12) and must warn; a
        # well-conditioned matrix at scale 1e-13 is full rank and must not
        gen = np.random.default_rng(0)
        low_rank = 1e6 * np.outer(gen.standard_normal(6), gen.standard_normal(4))
        with pytest.warns(RankDeficiencyWarning, match="singular value 2"):
            _, S, _ = truncated_svd(low_rank, 2)
        assert S[1] > 1e-12
        tiny = 1e-13 * rng.standard_normal((6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficiencyWarning)
            truncated_svd(tiny, 4)

    def test_zero_matrix_warns(self):
        with pytest.warns(RankDeficiencyWarning):
            truncated_svd(np.zeros((3, 5)), 1)

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)


@given(
    d=st.integers(1, 12),
    n=st.integers(1, 12),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**31 - 1),
)
def test_truncated_svd_matches_full_svd(d, n, scale, seed):
    M = scale * np.random.default_rng(seed).standard_normal((d, n))
    U_full, S_full, Vt_full = np.linalg.svd(M, full_matrices=False)
    tail = np.append(S_full, 0.0)
    for k in range(1, min(d, n) + 1):
        U, S, V = truncated_svd(M, k)
        assert U.shape == (d, k) and S.shape == (k,) and V.shape == (n, k)
        np.testing.assert_allclose(S, S_full[:k], rtol=1e-10)
        if tail[k - 1] > 1.01 * tail[k]:
            assert sin_theta_distance(U_full[:, :k], U) <= 1e-8
            assert sin_theta_distance(Vt_full[:k].T, V) <= 1e-8
        np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(M @ V, U * S, atol=1e-10 * S_full[0])


@given(
    d=st.integers(1, 12),
    n=st.integers(1, 12),
    rank=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_truncated_svd_warns_exactly_beyond_the_rank(d, n, rank, seed):
    rank = min(rank, d, n)
    gen = np.random.default_rng(seed)
    M = gen.standard_normal((d, rank)) @ gen.standard_normal((rank, n))
    for k in range(1, min(d, n) + 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            truncated_svd(M, k)
        warned = any(issubclass(w.category, RankDeficiencyWarning) for w in caught)
        assert warned == (k > rank)


class TestSinTheta:
    def test_same_subspace_is_zero(self, rng):
        U = random_orthonormal(10, 3, rng)
        # any rotation of the basis spans the same subspace
        O = random_orthonormal(3, 3, rng)
        assert sin_theta_distance(U, U @ O) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("angle", np.logspace(-9, -3, 7))
    def test_small_angles_match_scipy(self, rng, angle):
        d, k = 40, 3
        # signed coordinate axes keep both bases exact in floating point
        axes = np.eye(d)[rng.permutation(d)][:, : 2 * k] * rng.choice([-1.0, 1.0], 2 * k)
        U = axes[:, :k]
        thetas = angle * np.array([1.0, 0.6, 0.3])
        W = U * np.cos(thetas) + axes[:, k:] * np.sin(thetas)
        expected = np.linalg.norm(np.sin(subspace_angles(U, W)))
        O = random_orthonormal(k, k, rng)
        assert sin_theta_distance(U, W) == pytest.approx(expected, rel=1e-10)
        assert sin_theta_distance(U, W @ O) == pytest.approx(expected, rel=1e-10)

    def test_orthogonal_subspaces_reach_sqrt_k(self):
        U = np.eye(10)[:, :2]
        W = np.eye(10)[:, 4:6]
        assert sin_theta_distance(U, W) == pytest.approx(np.sqrt(2.0))

    def test_symmetry(self, rng):
        U = random_orthonormal(12, 4, rng)
        W = random_orthonormal(12, 4, rng)
        assert sin_theta_distance(U, W) == pytest.approx(sin_theta_distance(W, U), abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sin_theta_distance(np.eye(4)[:, :2], np.eye(4)[:, :3])


class TestProcrustes:
    def test_identity_alignment(self, rng):
        U = random_orthonormal(9, 3, rng)
        O, err = procrustes_align(U, U)
        np.testing.assert_allclose(O, np.eye(3), atol=1e-10)
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_undoes_a_rotation(self, rng):
        U = random_orthonormal(9, 3, rng)
        R = random_orthonormal(3, 3, rng)
        O, err = procrustes_align(U, U @ R)
        assert err == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose((U @ R) @ O, U, atol=1e-10)

    def test_beats_random_orthogonal_maps(self, rng):
        U = random_orthonormal(20, 4, rng)
        W = random_orthonormal(20, 4, rng)
        O, err = procrustes_align(U, W)
        np.testing.assert_allclose(O.T @ O, np.eye(4), atol=1e-10)
        for _ in range(100):
            other = random_orthonormal(4, 4, rng)
            assert err <= np.linalg.norm(U - W @ other) + 1e-12

    def test_sin_theta_never_exceeds_procrustes_error(self, rng):
        for _ in range(100):
            U = random_orthonormal(15, 3, rng)
            W = random_orthonormal(15, 3, rng)
            _, err = procrustes_align(U, W)
            assert sin_theta_distance(U, W) <= err + 1e-10


class TestAlignmentErrorBound:
    def test_formula_arithmetic(self):
        M = np.diag([4.0, 2.0, 0.0])
        E = np.zeros((3, 3))
        E[2, 2] = 0.5
        # 2^{3/2} (2*4 + 0.5) * 0.5 / (2^2 - 0^2)
        expected = 2.0**1.5 * 8.5 * 0.5 / 4.0
        assert alignment_error_bound(M, E, 2) == pytest.approx(expected, rel=1e-12)

    def test_bound_holds_for_small_perturbations(self, rng):
        A = rng.standard_normal((40, 3))
        C = rng.standard_normal((3, 60))
        M = A @ C
        for scale in (1e-3, 1e-2, 1e-1):
            E = scale * rng.standard_normal((40, 60))
            U, _, _ = truncated_svd(M, 3)
            U_hat, _, _ = truncated_svd(M + E, 3)
            _, err = procrustes_align(U, U_hat)
            assert err <= alignment_error_bound(M, E, 3) + 1e-12

    @given(
        k=st.integers(1, 4),
        extra_d=st.integers(0, 8),
        extra_n=st.integers(0, 8),
        log_scale=st.floats(-6.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bound_holds_on_random_perturbations(self, k, extra_d, extra_n, log_scale, seed):
        gen = np.random.default_rng(seed)
        d, n = k + extra_d, k + extra_n
        M = gen.standard_normal((d, k)) @ gen.standard_normal((k, n))
        E = 10.0**log_scale * gen.standard_normal((d, n))
        U, _, _ = truncated_svd(M, k)
        U_hat, _, _ = truncated_svd(M + E, k)
        _, err = procrustes_align(U, U_hat)
        assert err <= alignment_error_bound(M, E, k) + 1e-12

    def test_no_spectral_gap_raises(self):
        M = np.eye(3)  # s_1 = s_2, so the k=1 gap vanishes
        with pytest.raises(ValueError):
            alignment_error_bound(M, np.zeros((3, 3)), 1)
