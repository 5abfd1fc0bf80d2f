"""Fisher aggregation tests: pool averaging, the trace-ratio value, the
objective's matrix laws, the whitening identity, and the two matrix
inequalities used by the selection analysis."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from firal.fisher import (
    fir,
    pool_hessian,
    sigma_max,
    whiten_factors,
)
from firal.linalg import inv_sqrt_psd
from firal.model import KronFishers

from oracle import dense_fishers, f_objective, labeled_first, point_fisher


def random_spd(rng, n, jitter=0.1):
    R = rng.normal(size=(n, n))
    return R @ R.T + jitter * np.eye(n)


def random_psd(rng, n, rank=None):
    rank = rank or n
    R = rng.normal(size=(n, rank))
    return R @ R.T


class TestPoolHessian:
    def test_single_point(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3)
        theta = rng.normal(size=(2, 3))
        np.testing.assert_allclose(
            pool_hessian(x[None, :], theta), point_fisher(x, theta), rtol=1e-12
        )

    def test_duplication_invariance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 2))
        theta = rng.normal(size=(2, 2))
        H1 = pool_hessian(X, theta)
        H2 = pool_hessian(np.vstack([X, X]), theta)
        np.testing.assert_allclose(H1, H2, rtol=1e-12)

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3, 2))
        theta = rng.normal(size=(2, 2))
        naive = sum(point_fisher(x, theta) for x in X) / 3
        np.testing.assert_allclose(pool_hessian(X, theta), naive, atol=1e-12)


class TestShiftedFisher:
    # The round's shift at ridge 0: (1/budget) sum of the labeled Fishers.
    def test_empty_labeled_set(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2)
        theta = rng.normal(size=(1, 2))
        _, fishers = labeled_first(np.empty((0, 2)), x[None], theta, 4)
        np.testing.assert_array_equal(fishers.shift, 0.0)
        np.testing.assert_allclose(
            point_fisher(x, theta) + fishers.shift, point_fisher(x, theta)
        )

    def test_zero_point_returns_shift(self):
        rng = np.random.default_rng(4)
        theta = rng.normal(size=(1, 2))
        _, fishers = labeled_first(rng.normal(size=(3, 2)), np.zeros((1, 2)), theta, 2)
        np.testing.assert_allclose(
            point_fisher(np.zeros(2), theta) + fishers.shift, fishers.shift, atol=1e-15
        )

    def test_matches_hand_composition(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(2, 3))
        X0 = rng.normal(size=(4, 3))
        x = rng.normal(size=3)
        b = 5
        shift = sum(point_fisher(x0, theta) for x0 in X0) / b
        _, fishers = labeled_first(X0, x[None], theta, b)
        np.testing.assert_allclose(
            point_fisher(x, theta) + fishers.shift,
            point_fisher(x, theta) + shift,
            rtol=1e-12,
        )


def kron_instance(seed, c, m=7, d=3, empty=False):
    """Candidates with two rows pushed to logits of magnitude 700, and a
    nonzero shift."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(c - 1, d))
    X = rng.normal(size=(0 if empty else m, d))
    for i, sign in zip(range(min(2, len(X))), (1.0, -1.0)):
        logits = theta @ X[i]
        X[i] *= 700.0 / logits[np.argmax(sign * logits)]
    shift = random_psd(rng, (c - 1) * d)
    return X, theta, shift


def near(got, want):
    """Relative 1e-12 of the largest reference entry, so that entries
    that cancel to near zero are compared on the reference's scale."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=1.0))


class TestKronFishers:
    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_aggregate_and_inner_match_dense_stack(self, c):
        X, theta, shift = kron_instance(30 + c, c)
        kf = KronFishers.at(X, theta, shift)
        dense = dense_fishers(X, theta, shift)
        assert kf.shape == dense.shape
        z = np.random.default_rng(c).random(len(X))
        near(kf.aggregate(z), np.einsum("i,ijk->jk", z, dense))
        M = random_psd(np.random.default_rng(c + 1), kf.shape[1])
        near(kf.inner(M), np.einsum("ijk,jk->i", dense, M))

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_factors_reproduce_point_fisher(self, c):
        X, theta, shift = kron_instance(40 + c, c)
        G = KronFishers.at(X, theta, shift).factors
        assert G.shape == (c - 1, len(X), (c - 1) * X.shape[1])
        for i, x in enumerate(X):
            near(G[:, i].T @ G[:, i], point_fisher(x, theta))

    def test_factors_are_computed_once(self, monkeypatch):
        X, theta, shift = kron_instance(41, 3)
        kf = KronFishers.at(X, theta, shift)
        first = kf.factors
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: pytest.fail("factors recomputed"))
        assert kf.factors is first

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_take_is_the_restricted_pool(self, c):
        X, theta, shift = kron_instance(45 + c, c, m=30)
        kf = KronFishers.at(X, theta, shift)
        rng = np.random.default_rng(c)
        idx = np.sort(rng.choice(len(X), size=12, replace=False))
        part = kf.take(idx)
        assert part.shift is kf.shift
        assert part.factors.tobytes() == kf.factors[:, idx].tobytes()
        z = np.zeros(len(X))
        z[idx] = rng.random(len(idx))
        near(part.aggregate(z[idx]), kf.aggregate(z))
        M = random_psd(rng, kf.shape[1])
        near(part.inner(M), kf.inner(M)[idx])

    def test_empty_candidate_set(self):
        X, theta, shift = kron_instance(50, 3, empty=True)
        kf = KronFishers.at(X, theta, shift)
        dt = shift.shape[0]
        assert kf.shape == (0, dt, dt)
        np.testing.assert_array_equal(kf.aggregate(np.zeros(0)), np.zeros((dt, dt)))
        assert kf.inner(np.eye(dt)).shape == (0,)
        assert kf.factors.shape == (2, 0, dt)

    def test_default_shift_is_zero(self):
        X, theta, _ = kron_instance(51, 3)
        near(KronFishers.at(X, theta).aggregate(np.ones(len(X))),
             sum(point_fisher(x, theta) for x in X))

    def test_rejects_misshaped_shift(self):
        X, theta, _ = kron_instance(52, 3)
        with pytest.raises(ValueError):
            KronFishers.at(X, theta, np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 9),
        d=st.integers(1, 5),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inner_equals_dense_contraction(self, m, d, k, seed):
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(m, k, k))
        W = R + R.transpose(0, 2, 1)
        X = rng.normal(size=(m, d))
        shift = random_psd(rng, k * d)
        M = rng.normal(size=(k * d, k * d))
        dense = np.einsum("iab,ip,iq->iapbq", W, X, X).reshape(m, k * d, k * d) + shift
        near(KronFishers(X, W, shift).inner(M), np.einsum("ijk,jk->i", dense, M))


class TestFir:
    def test_equal_matrices(self):
        rng = np.random.default_rng(7)
        A = random_spd(rng, 5)
        assert fir(A, A) == pytest.approx(5.0, rel=1e-12)

    def test_reciprocal_scaling(self):
        rng = np.random.default_rng(8)
        A = random_spd(rng, 6)
        assert fir(2 * A, A) == pytest.approx(3.0, rel=1e-12)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(9)
        Hq = random_spd(rng, 4)
        Hp = random_spd(rng, 4)
        expected = np.trace(np.linalg.inv(Hq) @ Hp)
        assert fir(Hq, Hp) == pytest.approx(expected, rel=1e-10)

    def test_positive_for_nonzero_target(self):
        rng = np.random.default_rng(10)
        Hq = random_spd(rng, 4)
        Hp = random_psd(rng, 4, rank=1)
        assert fir(Hq, Hp) > 0

    def test_singular_raises(self):
        rng = np.random.default_rng(11)
        Hq = random_psd(rng, 4, rank=2)
        with pytest.raises(np.linalg.LinAlgError):
            fir(Hq, np.eye(4))


class TestFObjective:
    def test_reciprocal_linearity(self):
        rng = np.random.default_rng(12)
        H = random_spd(rng, 3)
        Hp = random_spd(rng, 3)
        base = f_objective(np.array([1.0]), H[None], Hp)
        for t in (0.5, 2.0, 7.5):
            val = f_objective(np.array([t]), H[None], Hp)
            assert val == pytest.approx(base / t, rel=1e-10)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(13)
        Hp = random_spd(rng, 4)
        for _ in range(50):
            A = random_spd(rng, 4)
            B = A + random_psd(rng, 4)
            assert fir(A, Hp) >= fir(B, Hp) - 1e-12

    def test_convexity(self):
        rng = np.random.default_rng(14)
        Hp = random_spd(rng, 4)
        for _ in range(50):
            A = random_spd(rng, 4)
            B = random_spd(rng, 4)
            lam = rng.random()
            lhs = fir(lam * A + (1 - lam) * B, Hp)
            rhs = lam * fir(A, Hp) + (1 - lam) * fir(B, Hp)
            assert lhs <= rhs + 1e-10 * abs(rhs)

    def test_index_multiset(self):
        rng = np.random.default_rng(15)
        F = np.stack([random_spd(rng, 3) for _ in range(4)])
        Hp = random_spd(rng, 3)
        by_idx = f_objective(np.array([0, 2, 2]), F, Hp)
        by_weight = f_objective(np.array([1.0, 0.0, 2.0, 0.0]), F, Hp)
        assert by_idx == pytest.approx(by_weight, rel=1e-12)

    def test_index_bounds(self):
        rng = np.random.default_rng(16)
        F = np.stack([random_spd(rng, 2) for _ in range(3)])
        with pytest.raises(ValueError):
            f_objective(np.array([3]), F, np.eye(2))


class TestWhitenFactors:
    def _instance(self, seed, c=3, d=2, m=6):
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=(c - 1, d))
        X = rng.normal(size=(m, d))
        X0 = rng.normal(size=(3, d))
        b = 4
        z = rng.random(m)
        z *= b / z.sum()
        _, fishers = labeled_first(X0, X, theta, b)
        return z, X, theta, fishers.shift

    def test_reconstruction(self):
        # shift_w + P_i P_i^T is the dense candidate conjugated by sigma^-1/2.
        z, X, theta, shift = self._instance(17)
        wf = whiten_factors(z, KronFishers.at(X, theta, shift))
        fishers = dense_fishers(X, theta, shift)
        S = inv_sqrt_psd(np.einsum("i,ijk->jk", z, fishers))
        for i, P in enumerate(wf.factors):
            np.testing.assert_allclose(
                wf.shift_w + P @ P.T, S @ fishers[i] @ S, atol=1e-10
            )

    def test_identity(self):
        z, X, theta, shift = self._instance(18)
        wf = whiten_factors(z, KronFishers.at(X, theta, shift))
        total = wf.shift_w * z.sum() + np.einsum(
            "i,iak,ibk->ab", z, wf.factors, wf.factors
        )
        np.testing.assert_allclose(total, np.eye(wf.d_tilde), atol=1e-8)
        assert wf.identity_residual < 1e-8

    def test_rank_deficient_sigma_raises(self):
        # All weight on one point and no shift: sigma = W_0 kron x_0 x_0^T
        # has rank c - 1 of d (c - 1), so it has no inverse root.
        z, X, theta, _ = self._instance(20)
        z = np.zeros(len(X))
        z[0] = 4.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            whiten_factors(z, KronFishers.at(X, theta))

    def test_ill_conditioned_sigma_fails_residual_gate(self):
        # Condition number 1e11 passes the singularity rule, but its
        # eigendecomposition cannot whiten it to WHITEN_RESIDUAL_TOL.
        Q, _ = np.linalg.qr(np.random.default_rng(21).normal(size=(2, 2)))
        W = (Q * [1.0, 1e-11]) @ Q.T
        fishers = KronFishers(np.ones((1, 1)), W[None], np.zeros((2, 2)))
        with pytest.raises(FloatingPointError, match="whitening residual"):
            whiten_factors(np.ones(1), fishers)

    def test_binary_single_column(self):
        z, X, theta, shift = self._instance(19, c=2, d=3)
        wf = whiten_factors(z, KronFishers.at(X, theta, shift))
        assert wf.factors.shape == (len(X), 3, 1)


class TestSigmaMax:
    def test_equal(self):
        rng = np.random.default_rng(20)
        A = random_spd(rng, 4)
        assert sigma_max(A, A) == pytest.approx(1.0, rel=1e-10)

    def test_scaled(self):
        rng = np.random.default_rng(21)
        A = random_spd(rng, 4)
        assert sigma_max(A / 3, A) == pytest.approx(3.0, rel=1e-10)

    def test_generalized_eig_oracle(self):
        rng = np.random.default_rng(22)
        Hq = random_spd(rng, 5)
        Hp = random_spd(rng, 5)
        expected = scipy.linalg.eigh(Hp, Hq, eigvals_only=True)[-1]
        assert sigma_max(Hq, Hp) == pytest.approx(expected, rel=1e-10)


class TestMatrixInequalities:
    def test_min_eig_variational_characterization(self):
        # lambda_min(A) equals the smallest inner product with a trace-one
        # PSD matrix: equality at the minimal eigenvector's outer product,
        # and every random density matrix scores at least lambda_min.
        rng = np.random.default_rng(23)
        A = random_psd(rng, 5)
        w, V = np.linalg.eigh(A)
        U_star = np.outer(V[:, 0], V[:, 0])
        assert np.sum(U_star * A) == pytest.approx(w[0], abs=1e-10)
        for _ in range(100):
            W = rng.normal(size=(5, 5))
            U = W @ W.T
            U /= np.trace(U)
            assert np.sum(U * A) >= w[0] - 1e-10

    def test_trace_inequality(self):
        # <(I+B)^{-1}, A> >= Tr(A) / (1 + Tr(B)) for PSD A, B.
        rng = np.random.default_rng(24)
        for _ in range(100):
            A = random_psd(rng, 4)
            B = random_psd(rng, 4)
            lhs = np.sum(np.linalg.inv(np.eye(4) + B) * A)
            rhs = np.trace(A) / (1 + np.trace(B))
            assert lhs >= rhs - 1e-10


class TestEigHelpers:
    def test_inv_sqrt(self):
        rng = np.random.default_rng(26)
        A = random_spd(rng, 4)
        S = inv_sqrt_psd(A)
        np.testing.assert_allclose(S @ A @ S, np.eye(4), atol=1e-10)

    def test_inv_sqrt_singular_raises(self):
        # The one singularity rule: no clamped inverse root is returned.
        A = random_psd(np.random.default_rng(27), 3, rank=2)
        with pytest.raises(np.linalg.LinAlgError, match="inv_sqrt_psd"):
            inv_sqrt_psd(A)
