"""Tests for subspace extraction, the two subspace distances, and the perturbation bound."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from relurec.subspace import RankDeficiencyWarning, subspace_distances, truncated_svd

from subspace_oracles import alignment_error_bound


def sin_theta(U, W):
    return subspace_distances(U, W)[0]


def procrustes(U, W):
    return subspace_distances(U, W)[1]


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


def assert_matches_full_svd(M: np.ndarray, rank: int, ks=None) -> None:
    """``truncated_svd(M, k)`` against ``np.linalg.svd`` for each of ``ks`` (default: every ``k``).

    Beyond ``rank`` the singular values are rounding-level, so there they are
    compared to ``s_1`` and their arbitrary directions are not compared.
    """
    d, n = M.shape
    U_full, S_full, Vt_full = np.linalg.svd(M, full_matrices=False)
    tail = np.append(S_full, 0.0)
    for k in ks or range(1, min(d, n) + 1):
        with warnings.catch_warnings():
            if k > rank:
                warnings.simplefilter("ignore", RankDeficiencyWarning)
            U, S, V = truncated_svd(M, k)
        assert U.shape == (d, k) and S.shape == (k,) and V.shape == (n, k)
        r = min(k, rank)
        np.testing.assert_allclose(S[:r], S_full[:r], rtol=1e-10)
        np.testing.assert_allclose(S[r:], S_full[r:k], rtol=0.0, atol=1e-13 * S_full[0])
        if k <= rank and tail[k - 1] > 1.01 * tail[k]:
            assert sin_theta(U_full[:, :k], U) <= 1e-8
            assert sin_theta(Vt_full[:k].T, V) <= 1e-8
        np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(M @ V, U * S, atol=1e-10 * S_full[0])


@given(
    d=st.integers(1, 12),
    n=st.integers(1, 12),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**31 - 1),
)
def test_truncated_svd_matches_full_svd(d, n, scale, seed):
    M = scale * np.random.default_rng(seed).standard_normal((d, n))
    assert_matches_full_svd(M, min(d, n))


@given(
    d=st.integers(1, 12),
    n=st.integers(1, 12),
    planted=st.integers(0, 12),
    zeros=st.integers(0, 3),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**31 - 1),
)
@example(d=12, n=4, planted=0, zeros=0, scale=1.0, seed=0)  # no constant row, tall
@example(d=5, n=9, planted=1, zeros=0, scale=1.0, seed=1)  # one: no merge
@example(d=12, n=7, planted=6, zeros=0, scale=1.0, seed=2)  # several, tall
@example(d=6, n=11, planted=3, zeros=1, scale=1.0, seed=3)  # with a zero row, wide
@example(d=8, n=5, planted=8, zeros=0, scale=1.0, seed=4)  # all: one merged row, < k for k > 1
@example(d=7, n=10, planted=5, zeros=2, scale=1e3, seed=5)  # 3 merged rows, < k for k > 3
@example(d=6, n=6, planted=6, zeros=6, scale=1.0, seed=6)  # the zero matrix
def test_truncated_svd_merges_constant_rows_exactly(d, n, planted, zeros, scale, seed):
    gen = np.random.default_rng(seed)
    M = scale * gen.standard_normal((d, n))
    rows = gen.permutation(d)[: min(planted, d)]
    M[rows] = M[rows, :1]  # constant rows c_i 1^T, which truncated_svd merges
    M[rows[:zeros]] = 0.0
    # the free rows are generic and the nonzero constant rows add 1^T
    assert_matches_full_svd(M, min(d - rows.size + (rows.size > zeros), n))


@given(
    d=st.integers(1, 12),
    n=st.integers(1, 12),
    rank=st.integers(1, 12),
    planted=st.integers(0, 12),
    zeros=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
@example(d=9, n=6, rank=4, planted=7, zeros=0, seed=0)  # rank 3: 2 free rows and 1^T
@example(d=6, n=8, rank=3, planted=6, zeros=2, seed=1)  # all constant: rank 1
@example(d=5, n=5, rank=2, planted=5, zeros=5, seed=2)  # the zero matrix: rank 0
def test_truncated_svd_warns_exactly_beyond_the_rank(d, n, rank, planted, zeros, seed):
    rank = min(rank, d, n)
    gen = np.random.default_rng(seed)
    B = gen.standard_normal((d, rank))
    W = gen.standard_normal((rank, n))
    rows = gen.permutation(d)[: min(planted, d)]
    if rows.size:
        # with 1^T as the first row of W, the planted rows of M = B W are
        # constant; the free rows are generic and the nonzero constant ones add 1^T
        W[0] = 1.0
        B[rows, 1:] = 0.0
        B[rows[:zeros]] = 0.0
    M = B @ W
    rank = min(rank, d - rows.size + (rows.size > zeros))
    for k in range(1, min(d, n) + 1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            truncated_svd(M, k)
        warned = any(issubclass(w.category, RankDeficiencyWarning) for w in caught)
        assert warned == (k > rank)


# Above the crossover: a short side of at least 160 rows puts k <= 9 on the Lanczos path
LANCZOS_SHAPE = (330, 420)
LANCZOS_KS = (1, 2, 5, 6)


@pytest.fixture
def dense_calls():
    """The calls into the dense eigensolve, which the Lanczos path avoids."""
    with mock.patch("relurec.subspace.eigh", wraps=np.linalg.eigh) as spy:
        yield spy


def spectrum_matrix(squares, shape, seed):
    """A matrix with the squared singular values ``squares`` and random bases."""
    gen = np.random.default_rng(seed)
    d, n = shape
    r = len(squares)
    return (random_orthonormal(d, r, gen) * np.sqrt(squares)) @ random_orthonormal(n, r, gen).T


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_path_certifies_planted_rank_plus_noise(seed, dense_calls):
    # a reconstruction's shape: rank k + 1 (the constant rows add 1^T), noise,
    # and constant rows that merge into one, leaving a short side of 330 - 30 + 1
    gen = np.random.default_rng(seed)
    d, n = LANCZOS_SHAPE
    M = 3.0 * gen.standard_normal((d, 6)) @ gen.standard_normal((6, n))
    M += 0.1 * gen.standard_normal((d, n))
    rows = gen.permutation(d)[:30]
    M[rows] = gen.standard_normal(30)[:, None]
    assert_matches_full_svd(M, min(d, n), ks=LANCZOS_KS)
    assert dense_calls.call_count == 0


@pytest.mark.parametrize("shape", [LANCZOS_SHAPE, (420, 330), (330, 330)])
def test_lanczos_falls_back_to_dense_on_gapless_matrices(shape, dense_calls):
    M = np.random.default_rng(7).standard_normal(shape)
    assert_matches_full_svd(M, min(shape), ks=LANCZOS_KS)
    assert dense_calls.call_count == len(LANCZOS_KS)


@pytest.mark.parametrize("tail", [1e-3, 1e-6, 0.0])
@pytest.mark.parametrize("seed", range(2))
def test_repeated_top_singular_values(tail, seed):
    # k = 1 and 2 split the repeated value, k = 3 and 5 do not
    tail_squares = tail**2 * np.random.default_rng(seed).uniform(0.5, 1.0, 300)
    M = spectrum_matrix(np.concatenate([[9.0, 9.0, 9.0, 4.0, 3.0], tail_squares]),
                        LANCZOS_SHAPE, seed)
    assert_matches_full_svd(M, 5, ks=(1, 2, 3, 5))


def test_unseen_copy_of_a_repeated_value_is_not_certified(dense_calls):
    # one start vector sees one copy of 9 in exact arithmetic; the first basis
    # holds Ritz pairs 9, 9, 9, 7.5 and 5.5 with residuals that certify each as
    # an eigenpair, and only the Frobenius norm left outside them shows the
    # fourth copy of 9 that belongs in the top 5
    gen = np.random.default_rng(20)
    squares = np.concatenate([[9.0] * 4, [7.5, 5.5, 2.0], 0.01 * gen.uniform(0.0, 1.0, 300)])
    M = spectrum_matrix(squares, LANCZOS_SHAPE, 20)
    assert_matches_full_svd(M, 307, ks=(5,))
    assert dense_calls.call_count == 1


@pytest.mark.parametrize("seed", [2, 5])
def test_values_below_the_certificate_resolution_go_dense(seed, dense_calls):
    # s_4 and s_5 near 1e-5 s_1: theta_5^2 is below the rounding of ||G||_F^2,
    # so the Frobenius check cannot rule out a missed eigenvalue; certified
    # anyway, S was off by up to 2e-8 s_1, where the check allows 1e-13 s_1
    tail_squares = 1e-10 * np.random.default_rng(seed).uniform(0.5, 1.0, 300)
    M = spectrum_matrix(np.concatenate([[9.0, 4.0, 3.0], tail_squares]), LANCZOS_SHAPE, seed)
    assert_matches_full_svd(M, 3, ks=(5,))
    assert dense_calls.call_count == 1


def test_exactly_rank_deficient_matrix_warns_beyond_the_rank():
    gen = np.random.default_rng(3)
    d, n = LANCZOS_SHAPE
    M = gen.standard_normal((d, 3)) @ gen.standard_normal((3, n))
    assert_matches_full_svd(M, 3, ks=(2, 3, 4, 6))
    for k in (3, 4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            truncated_svd(M, k)
        assert any(issubclass(w.category, RankDeficiencyWarning) for w in caught) == (k > 3)


def test_lanczos_path_does_not_depend_on_call_history(dense_calls):
    gen = np.random.default_rng(5)
    d, n = LANCZOS_SHAPE
    M = 2.0 * gen.standard_normal((d, 5)) @ gen.standard_normal((5, n))
    M += 0.05 * gen.standard_normal((d, n))
    first = truncated_svd(M, 5)
    truncated_svd(M[::-1].T + 0.01 * gen.standard_normal((n, d)), 3)
    second = truncated_svd(M, 5)
    assert dense_calls.call_count == 0
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_truncated_svd_names_the_first_non_finite_entry(bad):
    M = np.ones((4, 6))
    M[2, 3] = bad
    M[3, 1] = bad
    with pytest.raises(ValueError, match=rf"^M must be finite, got {bad} at index \(2, 3\)$"):
        truncated_svd(M, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["U", "U_hat"])
def test_subspace_distances_names_the_first_non_finite_entry(name, bad):
    # the SVD of U^T U_hat would fail on a NaN with an unnamed LinAlgError
    bases = {"U": np.eye(5, 2), "U_hat": np.eye(5, 2)}
    bases[name][3, 1] = bad
    bases[name][4, 0] = bad
    message = rf"^{name} must be finite, got {bad} at index \(3, 1\)$"
    with pytest.raises(ValueError, match=message):
        subspace_distances(**bases)


@pytest.mark.parametrize("name", ["U", "U_hat"])
def test_subspace_distances_names_a_basis_that_is_not_2d(name):
    bases = {"U": np.eye(5, 1), "U_hat": np.eye(5, 1)}
    bases[name] = bases[name][:, 0]
    with pytest.raises(ValueError, match=rf"^{name} must be a 2-D array, got shape \(5,\)$"):
        subspace_distances(**bases)


class TestSinTheta:
    def test_same_subspace_is_zero(self, rng):
        U = random_orthonormal(10, 3, rng)
        # any rotation of the basis spans the same subspace
        O = random_orthonormal(3, 3, rng)
        assert sin_theta(U, U @ O) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("angle", np.logspace(-9, -3, 7))
    def test_small_angles_match_scipy(self, rng, angle):
        d, k = 40, 3
        # signed coordinate axes keep both bases exact in floating point
        axes = np.eye(d)[rng.permutation(d)][:, : 2 * k] * rng.choice([-1.0, 1.0], 2 * k)
        U = axes[:, :k]
        thetas = angle * np.array([1.0, 0.6, 0.3])
        W = U * np.cos(thetas) + axes[:, k:] * np.sin(thetas)
        angles = subspace_angles(U, W)
        expected = np.linalg.norm(np.sin(angles))
        # ||U - W O*|| over the best rotation is the norm of 2 sin(theta / 2)
        aligned = np.linalg.norm(2.0 * np.sin(angles / 2.0))
        O = random_orthonormal(k, k, rng)
        for basis in (W, W @ O):
            assert sin_theta(U, basis) == pytest.approx(expected, rel=1e-10)
            assert procrustes(U, basis) == pytest.approx(aligned, rel=1e-10)

    def test_orthogonal_subspaces_reach_sqrt_k(self):
        U = np.eye(10)[:, :2]
        W = np.eye(10)[:, 4:6]
        assert sin_theta(U, W) == pytest.approx(np.sqrt(2.0))

    def test_symmetry(self, rng):
        U = random_orthonormal(12, 4, rng)
        W = random_orthonormal(12, 4, rng)
        assert sin_theta(U, W) == pytest.approx(sin_theta(W, U), abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            subspace_distances(np.eye(4)[:, :2], np.eye(4)[:, :3])


class TestProcrustes:
    def test_identity_alignment(self, rng):
        U = random_orthonormal(9, 3, rng)
        assert procrustes(U, U) == pytest.approx(0.0, abs=1e-10)

    def test_undoes_a_rotation(self, rng):
        U = random_orthonormal(9, 3, rng)
        R = random_orthonormal(3, 3, rng)
        assert procrustes(U, U @ R) == pytest.approx(0.0, abs=1e-10)

    def test_beats_random_orthogonal_maps(self, rng):
        U = random_orthonormal(20, 4, rng)
        W = random_orthonormal(20, 4, rng)
        err = procrustes(U, W)
        for _ in range(100):
            other = random_orthonormal(4, 4, rng)
            assert err <= np.linalg.norm(U - W @ other) + 1e-12

    def test_matches_the_explicit_rotation(self, rng):
        # the minimiser is P Q^T from the SVD U_hat^T U = P Sigma Q^T
        for _ in range(100):
            U = random_orthonormal(15, 3, rng)
            W = random_orthonormal(15, 3, rng)
            P, _, Qt = np.linalg.svd(W.T @ U)
            assert procrustes(U, W) == pytest.approx(np.linalg.norm(U - W @ P @ Qt), rel=1e-12)

    def test_sin_theta_never_exceeds_procrustes_error(self, rng):
        for _ in range(100):
            U = random_orthonormal(15, 3, rng)
            W = random_orthonormal(15, 3, rng)
            sin_theta_err, err = subspace_distances(U, W)
            assert sin_theta_err <= err + 1e-10


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
            assert procrustes(U, U_hat) <= alignment_error_bound(M, E, 3) + 1e-12

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
        assert procrustes(U, U_hat) <= alignment_error_bound(M, E, k) + 1e-12

    def test_no_spectral_gap_raises(self):
        M = np.eye(3)  # s_1 = s_2, so the k=1 gap vanishes
        with pytest.raises(ValueError):
            alignment_error_bound(M, np.zeros((3, 3)), 1)
