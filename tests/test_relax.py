"""Relaxation tests: gradient exactness against finite differences, the
Frank-Wolfe certificate and optimality conditions of the solve, the
lower-bound property against exhaustive subset enumeration, and the
``linalg`` Cholesky test and floored solve that the relaxation calls."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firal import relax
from firal.fisher import fir, pool_hessian
from firal.linalg import EIG_FLOOR_REL, cholesky_pd, solve_psd
from firal.model import KronFishers
from firal.relax import (
    GAP_TOL,
    SUPPORT_BLOCK,
    _inverse_parts,
    _pairwise_direction,
    _step,
    _Support,
    relax_solve,
)
from firal.round import round_fishers

from oracle import dense_fishers, f_objective, relax_gradient


def random_spd(rng, n, jitter=0.3):
    R = rng.normal(size=(n, n))
    return R @ R.T + jitter * np.eye(n)


def random_instance(seed, m=6, dim=3):
    rng = np.random.default_rng(seed)
    fishers = np.stack([random_spd(rng, dim) for _ in range(m)])
    Hp0 = random_spd(rng, dim)
    return fishers, Hp0


def kron(fishers):
    """A dense stack as Kronecker factors: ``W_i kron [1] = W_i``."""
    m, dt, _ = fishers.shape
    return KronFishers(np.ones((m, 1)), fishers, np.zeros((dt, dt)))


def f_of_kappa(kappa, fishers, Hp0):
    sigma = np.einsum("i,ijk->jk", kappa, fishers)
    return fir(sigma, Hp0)


class TestRelaxGradient:
    def test_identical_candidates_symmetric(self):
        rng = np.random.default_rng(0)
        H = random_spd(rng, 3)
        fishers = np.stack([H] * 4)
        Hp0 = random_spd(rng, 3)
        g = relax_gradient(np.full(4, 0.25), kron(fishers), Hp0)
        np.testing.assert_allclose(g, g[0], rtol=1e-12)

    def test_matches_finite_differences(self):
        fishers, Hp0 = random_instance(1)
        rng = np.random.default_rng(2)
        kappa = rng.random(len(fishers))
        kappa /= kappa.sum()
        g = relax_gradient(kappa, kron(fishers), Hp0)
        h = 1e-6
        for i in range(len(kappa)):
            kp, km = kappa.copy(), kappa.copy()
            kp[i] += h
            km[i] -= h
            fd = (f_of_kappa(kp, fishers, Hp0) - f_of_kappa(km, fishers, Hp0)) / (2 * h)
            assert abs(g[i] - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_single_candidate_calculus(self):
        # With one candidate, f(kappa) = f(H)/kappa so g = -f at kappa = 1.
        rng = np.random.default_rng(3)
        H = random_spd(rng, 3)
        Hp0 = random_spd(rng, 3)
        g = relax_gradient(np.array([1.0]), kron(H[None]), Hp0)
        f1 = f_of_kappa(np.array([1.0]), H[None], Hp0)
        assert g[0] == pytest.approx(-f1, rel=1e-10)


class TestCholeskyPd:
    def test_pivots_below_the_floor_are_singular(self):
        # The factorization succeeds, with squared pivots 1 and 1e-13.
        A = np.diag([1.0, 1e-13])
        np.testing.assert_array_equal(np.linalg.cholesky(A), np.sqrt(A))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"^ctx: matrix is singular to working precision"):
            cholesky_pd(A, "ctx")

    def test_failed_factorization_names_its_context(self):
        with pytest.raises(np.linalg.LinAlgError, match=r"^ctx: matrix is not positive definite"):
            cholesky_pd(np.diag([1.0, -1.0]), "ctx")

    def test_returns_the_factor_above_the_floor(self):
        A = np.diag([1.0, 2.0 * EIG_FLOOR_REL])
        np.testing.assert_array_equal(cholesky_pd(A, "ctx"), np.linalg.cholesky(A))


class TestSolvePsd:
    def test_eigenvalue_floor(self):
        # A positive definite H is solved by Cholesky; where the Cholesky
        # fails, eigenvalues below EIG_FLOOR_REL times the largest are
        # raised to that floor, and a zero H gives a zero step.
        rng = np.random.default_rng(25)
        b = rng.normal(size=3)
        full = random_spd(rng, 3)
        np.testing.assert_allclose(full @ solve_psd(full, b), b, rtol=1e-12)
        R = rng.normal(size=(3, 1))
        deficient = R @ R.T
        w_ref, V_ref = np.linalg.eigh(deficient)
        floor = EIG_FLOOR_REL * w_ref[-1]
        assert np.all(w_ref[:2] < floor)
        w = np.array([floor, floor, w_ref[-1]])
        np.testing.assert_array_equal(solve_psd(deficient, b),
                                      V_ref @ ((V_ref.T @ b) / w))
        np.testing.assert_array_equal(solve_psd(np.zeros((3, 3)), b), np.zeros(3))

    def test_numerically_singular_factor_takes_the_floor(self):
        # The Cholesky of a PSD matrix with an eigenvalue far below the
        # floor can succeed; its pivots show the singularity, and the solve
        # floors that eigenvalue instead of dividing by it.
        rng = np.random.default_rng(26)
        b = rng.normal(size=3)
        V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        H = (V * np.array([1e-14, 0.5, 2.0])) @ V.T
        H = 0.5 * (H + H.T)
        np.linalg.cholesky(H)
        w_ref, V_ref = np.linalg.eigh(H)
        w = np.maximum(w_ref, EIG_FLOOR_REL * w_ref[-1])
        assert w[0] == EIG_FLOOR_REL * w_ref[-1]
        np.testing.assert_array_equal(solve_psd(H, b), V_ref @ ((V_ref.T @ b) / w))

    @pytest.mark.parametrize("ratio", [0.5e-12, 2e-12])
    def test_one_floor_for_raise_solve_and_clamp(self, ratio):
        # On a diagonal matrix the squared Cholesky pivots are the
        # eigenvalues, so the solve's pivot screen and fir's singularity
        # test both read lam_min / lam_max: fir raises exactly where the
        # solve clamps lam_min at EIG_FLOOR_REL lam_max.
        w = np.array([2.0 * ratio, 1.0, 2.0])
        H = np.diag(w)
        b = np.array([1.0, -2.0, 3.0])
        Hp = np.diag([0.5, 1.5, 1.0])
        singular = ratio < EIG_FLOOR_REL
        floored = np.maximum(w, EIG_FLOOR_REL * w[-1])
        assert (floored[0] != w[0]) == singular
        np.testing.assert_allclose(solve_psd(H, b), b / floored, rtol=1e-12)
        if singular:
            with pytest.raises(np.linalg.LinAlgError, match="fir: matrix is singular"):
                fir(H, Hp)
        else:
            assert fir(H, Hp) == pytest.approx(np.sum(np.diag(Hp) / w), rel=1e-12)


class TestStep:
    def test_no_step_along_a_non_descent_direction(self):
        # Uphill and zero directions give None, however small the slope
        # is next to f; a tiny descent direction is still taken unchecked.
        fishers, Hp0 = random_instance(3, m=4)
        support = _Support(kron(fishers), Hp0)
        w = np.full(4, 0.25)
        f, g, _, _ = support.derivatives(w)
        d = np.array([1.0, -1.0, 0.0, 0.0]) * np.sign(g[0] - g[1])
        assert g @ d > 0
        assert _step(support, w, f, g, d) is None
        assert _step(support, w, f, g, np.zeros(4)) is None
        tiny = -1e-13 * d
        assert 0 < -(g @ tiny) <= relax.RESOLVE_REL * f
        np.testing.assert_allclose(_step(support, w, f, g, tiny), w + tiny,
                                   rtol=0, atol=1e-16)


    def test_pairwise_direction_descends(self):
        # The fallback moves the whole weight of the weighted point with the
        # largest gradient to the point with the smallest, weighted or not.
        fishers, Hp0 = random_instance(5, m=5)
        support = _Support(kron(fishers), Hp0)
        w = np.array([0.4, 0.3, 0.3, 0.0, 0.0])
        f, g, _, _ = support.derivatives(w)
        away, toward = np.argmax(np.where(w > 0, g, -np.inf)), np.argmin(g)
        assert g[away] > g[toward]
        d = _pairwise_direction(w, g)
        want = np.zeros(5)
        want[away], want[toward] = -w[away], w[away]
        np.testing.assert_array_equal(d, want)
        assert support.value(_step(support, w, f, g, d)) < f


class TestSigmaParts:
    def test_factored_equals_dense_formula(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(2, 3))
        X = rng.normal(size=(9, 3)) * 2.0
        shift = 0.1 * random_spd(rng, 6)
        Hp0 = pool_hessian(X, theta)
        kappa = rng.random(len(X))
        kappa /= kappa.sum()
        f, M, _ = _inverse_parts(KronFishers.at(X, theta, shift).aggregate(kappa), Hp0)
        dense = dense_fishers(X, theta, shift)
        sigma_inv = np.linalg.inv(np.einsum("i,ijk->jk", kappa, dense))
        assert f == pytest.approx(np.trace(sigma_inv @ Hp0), rel=1e-10)
        np.testing.assert_allclose(M, sigma_inv @ Hp0 @ sigma_inv,
                                   rtol=1e-9, atol=1e-12 * np.abs(M).max())


class TestRelaxSolve:
    def test_identical_candidates_stay_uniform(self):
        rng = np.random.default_rng(4)
        H = random_spd(rng, 3)
        fishers = np.stack([H] * 5)
        Hp0 = random_spd(rng, 3)
        res = relax_solve(3, Hp0, kron(fishers))
        np.testing.assert_allclose(res.z, 0.6, rtol=1e-12)

    def test_two_candidate_golden_section_oracle(self):
        fishers, Hp0 = random_instance(5, m=2, dim=2)
        res = relax_solve(1, Hp0, kron(fishers))

        def f1(k1):
            return f_of_kappa(np.array([k1, 1 - k1]), fishers, Hp0)

        # Golden-section search over the single free coordinate.
        lo, hi = 1e-9, 1 - 1e-9
        invphi = (np.sqrt(5) - 1) / 2
        a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fa, fb = f1(a), f1(b)
        for _ in range(200):
            if fa < fb:
                hi, b, fb = b, a, fa
                a = hi - invphi * (hi - lo)
                fa = f1(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + invphi * (hi - lo)
                fb = f1(b)
        f_opt = min(fa, fb)
        assert res.objective <= f_opt + 1e-9 * abs(f_opt)

    def test_best_iterate_no_worse_than_uniform(self):
        fishers, Hp0 = random_instance(6)
        m = len(fishers)
        uniform_f = f_of_kappa(np.full(m, 1.0 / m), fishers, Hp0)
        res = relax_solve(2, Hp0, kron(fishers))
        assert res.objective * 2 <= uniform_f + 1e-12

    def test_simplex_invariants(self):
        fishers, Hp0 = random_instance(7)
        res = relax_solve(2, Hp0, kron(fishers))
        kappa = res.z / 2
        assert np.all(kappa >= 0)
        assert abs(kappa.sum() - 1.0) < 1e-12
        assert abs(res.z.sum() - 2) < 1e-9

    def test_lower_bounds_exhaustive_optimum(self):
        # The relaxed optimum can be no worse than the best 0/1 design,
        # found here by complete enumeration.
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            m, b = 7, 2
            fishers = np.stack([random_spd(rng, 3) for _ in range(m)])
            Hp0 = random_spd(rng, 3)
            f_star = min(
                f_objective(np.array(subset, dtype=int), fishers, Hp0)
                for subset in itertools.combinations(range(m), b)
            )
            res = relax_solve(b, Hp0, kron(fishers))
            assert res.objective <= f_star + 1e-6

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            relax_solve(1, np.eye(2), kron(np.empty((0, 2, 2))))

    @pytest.mark.parametrize("budget", [0, -1, np.nan, np.inf])
    def test_rejects_budget_outside_zero_to_inf(self, budget):
        fishers, Hp0 = random_instance(8)
        with pytest.raises(ValueError, match="budget"):
            relax_solve(budget, Hp0, kron(fishers))

    @settings(max_examples=60, deadline=None)
    # An inexact support solve that the gap already certifies: returning
    # it without an exact last solve leaves a support spread of 9.1e-7
    # against a tolerance of 1.6e-7.
    @example(c=5, m=3, shifted=True, budget=1, seed=3)
    @given(
        c=st.sampled_from([2, 3, 5]),
        m=st.integers(1, 40),
        shifted=st.booleans(),
        budget=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_and_optimality_conditions(self, c, m, shifted, budget, seed):
        # Dense SPD W_i with X = ones, spread over four decades of scale.
        rng = np.random.default_rng(seed)
        k = c - 1
        W = np.stack([random_spd(rng, k) * 10.0 ** rng.uniform(-2, 2)
                      for _ in range(m)])
        shift = 0.1 * random_spd(rng, k) if shifted else np.zeros((k, k))
        fishers = KronFishers(np.ones((m, 1)), W, shift)
        Hp0 = random_spd(rng, k)
        res = relax_solve(budget, Hp0, fishers)
        kappa = res.z / budget
        f = res.objective * budget
        tol = GAP_TOL * f
        g = relax_gradient(kappa, fishers, Hp0)
        g_kappa = g @ kappa
        assert res.gap * budget <= tol
        assert g_kappa - g.min() <= tol
        on = kappa > 0
        assert g[on].max() - g[on].min() <= tol
        assert np.all(g[~on] >= g_kappa - tol)

    def test_singular_first_support_grows(self):
        # Hp0 weighs the first axis, so the 30 candidates on it have the
        # most negative gradients at uniform weights; alone they are singular.
        W = np.concatenate([np.stack([np.diag([1.0, 0.0])] * 30),
                            np.stack([np.diag([0.0, 1.0])] * 10)])
        fishers = KronFishers(np.ones((40, 1)), W, np.zeros((2, 2)))
        Hp0 = np.diag([1.0, 1e-6])
        res = relax_solve(1, Hp0, fishers)
        g = relax_gradient(res.z, fishers, Hp0)
        assert g @ res.z - g.min() <= GAP_TOL * res.objective
        # f = 1 / kappa_1 + 1e-6 / kappa_2 is least at kappa_2 = 1e-3 / 1.001.
        assert res.z[30:].sum() == pytest.approx(1e-3 / 1.001, rel=1e-6)

    def test_whole_pool_support_is_the_pool_bit_for_bit(self):
        # The first support doubles at most to the whole pool, whose
        # aggregate at uniform weights is the one the start factored; and
        # the solve reads its supports' factors, never the pool's.
        for seed in range(4):
            rng = np.random.default_rng(40 + seed)
            m, d, c = int(rng.integers(30, 400)), int(rng.integers(1, 8)), int(rng.integers(2, 6))
            Hp0, fishers = wide_instance(seed, m, d, c)
            u = np.full(m, 1.0 / m)
            whole = fishers.take(np.arange(m)).aggregate(u)
            assert whole.tobytes() == fishers.aggregate(u).tobytes()
            res = relax_solve(2, Hp0, fishers)
            assert res.gap <= GAP_TOL * res.objective
            assert "factors" not in fishers.__dict__

    def test_singular_whole_pool_raises(self):
        # Four points at scale 30 saturate the softmax: the Cholesky of the
        # uniform aggregate succeeds on a pivot at rounding level.
        rng = np.random.default_rng(1356)
        X = 30.0 * rng.normal(size=(4, 2))
        theta = rng.normal(size=(1, 2))
        fishers = round_fishers(X, [], np.arange(4), theta, 4, ridge=0.0)
        with pytest.raises(np.linalg.LinAlgError, match="^relaxed aggregate: "):
            relax_solve(4, pool_hessian(X, theta), fishers)

    def test_small_pool_is_one_support(self):
        # With m <= SUPPORT_BLOCK the first support is the whole pool, and
        # the first round, solved to an infinite tolerance, takes no step
        # and admits no point: only its tolerance tells the next round apart.
        rng = np.random.default_rng(12)
        m = SUPPORT_BLOCK - 5
        fishers = KronFishers.at(rng.normal(size=(m, 2)), rng.normal(size=(2, 2)),
                                 0.05 * random_spd(rng, 4))
        Hp0 = random_spd(rng, 4)
        res = relax_solve(2, Hp0, fishers)
        kappa = res.z / 2
        g = relax_gradient(kappa, fishers, Hp0)
        assert g @ kappa - g.min() <= GAP_TOL * res.objective * 2
        assert res.n_iter > 0

    def test_uncertified_solve_raises(self, monkeypatch):
        fishers, Hp0 = random_instance(9)
        monkeypatch.setattr(relax, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(FloatingPointError, match="not certified"):
            relax_solve(2, Hp0, kron(fishers))


def wide_instance(seed, m, d, c):
    """Kronecker candidates at a random ``theta`` with a small labeled
    shift, and the pool Hessian of a second draw."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(c - 1, d))
    shift = 0.01 * random_spd(rng, d * (c - 1))
    fishers = KronFishers.at(rng.normal(size=(m, d)), theta, shift)
    return pool_hessian(rng.normal(size=(2 * m, d)), theta), fishers


class TestInexactInnerSolves:
    """Intermediate supports are solved to ``INNER_GAP_FRAC`` of the last
    full-pool gap; ``INNER_GAP_FRAC = 0`` gives the exact inner solves."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_certified_objective_as_exact_inner_solves(self, seed, monkeypatch):
        rng = np.random.default_rng(300 + seed)
        m, c = int(rng.integers(20, 400)), int(rng.choice([3, 4]))
        Hp0, fishers = wide_instance(seed, m, d=int(rng.integers(2, 7)), c=c)
        budget = int(rng.integers(1, 6))
        inexact = relax_solve(budget, Hp0, fishers)
        monkeypatch.setattr(relax, "INNER_GAP_FRAC", 0.0)
        exact = relax_solve(budget, Hp0, fishers)
        for res in (inexact, exact):
            assert res.gap <= GAP_TOL * res.objective
        f = max(inexact.objective, exact.objective)
        assert abs(inexact.objective - exact.objective) <= GAP_TOL * f

    def test_fewer_support_derivatives(self, monkeypatch):
        Hp0, fishers = wide_instance(7, m=600, d=16, c=4)
        calls = []
        derivatives = _Support.derivatives

        def counted(self, w):
            calls.append(len(w))
            return derivatives(self, w)

        monkeypatch.setattr(_Support, "derivatives", counted)
        relax_solve(3, Hp0, fishers)
        inexact = len(calls)
        calls.clear()
        monkeypatch.setattr(relax, "INNER_GAP_FRAC", 0.0)
        relax_solve(3, Hp0, fishers)
        assert inexact < len(calls)

    def test_one_hessian_per_newton_direction(self, monkeypatch):
        # The last evaluation of every support's solve takes no Newton step,
        # so it forms no Hessian.
        Hp0, fishers = wide_instance(7, m=600, d=16, c=4)
        evaluated, formed, directions = [], [], []
        derivatives, hessian = _Support.derivatives, _Support.hessian
        newton_direction = relax._newton_direction

        def counted_derivatives(self, w):
            evaluated.append(len(w))
            return derivatives(self, w)

        def counted_hessian(self, S_inv, M):
            formed.append(self.fishers.shape[0])
            return hessian(self, S_inv, M)

        def counted_newton_direction(w, g, H):
            directions.append(len(w))
            return newton_direction(w, g, H)

        monkeypatch.setattr(_Support, "derivatives", counted_derivatives)
        monkeypatch.setattr(_Support, "hessian", counted_hessian)
        monkeypatch.setattr(relax, "_newton_direction", counted_newton_direction)
        relax_solve(3, Hp0, fishers)
        assert formed == directions
        assert 0 < len(formed) < len(evaluated)
