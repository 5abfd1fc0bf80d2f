"""Selection tests: the trace-normalizing root, equivalence of the reduced
score with the dense trace objective, the shared Woodbury kernel's stack of
matrices against one-matrix calls, tie rules, the pruned lockstep pass
against the one-rate rounding that scores every candidate, the per-step
guarantees, and near-optimality against exhaustive enumeration."""

import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firal import sparsify
from firal.linalg import inv_psd_eig
from firal.sparsify import (
    NU_RESIDUAL_TOL,
    _norm_floor,
    _nu_root,
    ftrl_action,
    select_batch,
    trace_solve,
    woodbury_scores,
)

from oracle import f_objective, pipeline_factors, score_candidate, select_batch_one_rate


def random_psd(rng, n, rank=None):
    R = rng.normal(size=(n, rank or n))
    return R @ R.T


EPS = np.finfo(float).eps


def exact_score(B_sqrt, P_i, eta):
    """``tr((I + eta P^T B^{1/2} P)^{-1} P^T B P)`` with ``B = (B^{1/2})^2``,
    evaluated in 50-digit arithmetic from the float inputs."""
    with mpmath.workdps(50):
        Bs, P = mpmath.matrix(B_sqrt.tolist()), mpmath.matrix(P_i.tolist())
        Y = Bs * P
        S = mpmath.inverse(mpmath.eye(P.cols) + eta * (P.T * Y)) * (Y.T * Y)
        return float(sum(S[j, j] for j in range(P.cols)))


def exact_trace_solve(M, U):
    """``tr(M^{-1} U)`` in 50-digit arithmetic from float inputs."""
    with mpmath.workdps(50):
        S = mpmath.inverse(mpmath.matrix(M.tolist())) * mpmath.matrix(U.tolist())
        return float(sum(S[j, j] for j in range(S.rows)))


def exact_nu_root(lam, d_tilde):
    """The root of ``sum_j (nu + lam_j)^{-2} = 1`` by 200 bisection steps in
    50 digits, on the bracket ``nu + min(lam)`` in ``[1, sqrt(d_tilde)]``,
    with the residual's slope there."""
    with mpmath.workdps(50):
        lam = [mpmath.mpf(float(v)) for v in lam]
        lo, hi = 1 - min(lam), mpmath.sqrt(d_tilde) - min(lam)
        for _ in range(200):
            mid = (lo + hi) / 2
            if sum((mid + v) ** -2 for v in lam) > 1:
                lo = mid
            else:
                hi = mid
        return lo, -2 * sum((lo + v) ** -3 for v in lam)


def dense_candidate(factors, i):
    """Whitened candidate ``i`` as a dense matrix, ``shift_w + P_i P_i^T``."""
    P = factors.factors[i]
    return factors.shift_w + P @ P.T


def dense_trace_objective(A_inv_sqrt, candidate, eta):
    return np.trace(np.linalg.inv(A_inv_sqrt + eta * candidate))


class TestFtrlAction:
    def test_zero_history(self):
        A_inv_sqrt, nu, _ = ftrl_action(np.zeros((3, 3)), eta=2.0)
        assert nu == pytest.approx(np.sqrt(3), abs=1e-12)
        np.testing.assert_allclose(A_inv_sqrt, np.sqrt(3) * np.eye(3), atol=1e-12)

    def test_scalar_root(self):
        # One dimension, eigenvalue 2, rate 1: (nu + 2)^{-2} = 1 with
        # nu + 2 > 0 forces nu = -1.
        A_inv_sqrt, nu, _ = ftrl_action(np.array([[2.0]]), eta=1.0)
        assert nu == pytest.approx(-1.0, abs=1e-12)
        assert A_inv_sqrt[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_residual_and_unit_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cum = random_psd(rng, 3)
            eta = float(rng.uniform(0.5, 10.0))
            A_inv_sqrt, nu, trace_a_sqrt = ftrl_action(cum, eta)
            lam = np.linalg.eigvalsh(eta * cum)
            assert abs(np.sum((nu + lam) ** -2) - 1.0) < 1e-12
            assert np.all(nu + lam > 0)
            A = np.linalg.inv(A_inv_sqrt @ A_inv_sqrt)
            assert abs(np.trace(A) - 1.0) < 1e-8
            assert trace_a_sqrt == pytest.approx(np.trace(np.linalg.inv(A_inv_sqrt)),
                                                 rel=1e-12)

    def test_large_eigenvalues_keep_full_precision(self):
        # The shift is about -1e6, so nu + lam would round the shifted
        # eigenvalues to the spacing of 1e6, a residual of -2.5e-11; formed
        # from the root's offset they keep it at rounding level.  A diagonal
        # cumulative loss has the axes as eigenvectors, so the action's
        # diagonal is the shifted spectrum.
        lam = np.array([1e6, 1e6 + 0.5, 2e6])
        A_inv_sqrt, nu, trace_a_sqrt = ftrl_action(np.diag(lam), eta=1.0)
        shifted = np.diag(A_inv_sqrt)
        assert abs(float(np.sum(shifted**-2)) - 1.0) <= NU_RESIDUAL_TOL
        root, slope = exact_nu_root(lam, 3)
        with mpmath.workdps(50):
            exact_trace = sum(1 / (root + mpmath.mpf(v)) for v in lam)
            # Trace error: the root's distance (residual over slope, the
            # sum Tr A^{1/2} has slope at most 1 in the shift) plus rounding.
            bound = (NU_RESIDUAL_TOL + 4 * 3 * EPS) / float(abs(slope)) + 4 * 3 * EPS
            assert float(abs(mpmath.mpf(trace_a_sqrt) - exact_trace)) <= bound
        assert nu == pytest.approx(float(root), abs=1e6 * EPS)


def _spectra():
    rng = np.random.default_rng(11)
    spectra = {
        "zero_history": np.zeros(6),
        # One eigenvalue far below the rest: the root sits next to its pole.
        "near_pole": np.array([2.0, 1e3, 2e3, 5e3, 1e4]),
        # Large eigenvalues: nu is about -1e6, and only the offset x keeps
        # the root's precision.
        "large": np.array([1e6, 1e6 + 0.5, 2e6]),
    }
    for j in range(6):
        n = int(rng.integers(1, 20))
        scale = 10.0 ** rng.uniform(-3, 3)
        spectra[f"random_psd_{j}"] = np.linalg.eigvalsh(
            random_psd(rng, n, rank=j % 3 + 1) * scale)
    return spectra


SPECTRA = _spectra()


class TestNuRoot:
    @pytest.mark.parametrize("lam", SPECTRA.values(), ids=SPECTRA.keys())
    def test_matches_50_digit_root(self, lam):
        # The float residual, in the offset x = nu + min(lam), is at most
        # NU_RESIDUAL_TOL; in exact arithmetic it can be larger by the sum's
        # rounding (d eps) and by rounding mu = lam - min(lam) (each term
        # moves by at most eps mu / (x + mu)^3 < eps).
        lam = np.maximum(lam, 0.0)
        d = len(lam)
        x = _nu_root(lam, d)
        mu = lam - lam.min()
        assert np.all(x + mu > 0)
        assert abs(float(np.sum((x + mu) ** -2)) - 1.0) <= NU_RESIDUAL_TOL
        root, slope = exact_nu_root(lam, d)
        with mpmath.workdps(50):
            nu = mpmath.mpf(x) - mpmath.mpf(float(lam.min()))
            resid = abs(sum((nu + mpmath.mpf(float(v))) ** -2 for v in lam) - 1)
            # |r'| falls as nu rises, so the mean value theorem bounds the
            # distance to the root by the residual over the smaller slope.
            slope_nu = 2 * sum((nu + mpmath.mpf(float(v))) ** -3 for v in lam)
            dist = abs(nu - root)
            bound = NU_RESIDUAL_TOL + 4 * d * EPS
            assert float(resid) <= bound
            assert float(dist) <= bound / float(min(abs(slope), slope_nu))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eigenvalue_raises(self, bad):
        with pytest.raises(FloatingPointError):
            _nu_root(np.array([0.5, bad, 2.0]), 3)

    def test_failed_upper_bracket_raises(self):
        # Four zero eigenvalues cannot share a unit trace at sqrt(1).
        with pytest.raises(FloatingPointError, match="upper bracket"):
            _nu_root(np.zeros(4), 1)

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(sparsify, "NU_MAX_ITER", 1)
        with pytest.raises(FloatingPointError, match="no convergence"):
            _nu_root(np.array([2.0, 3.0, 50.0]), 3)


class TestScoreCandidate:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 9),
        d=st.integers(1, 5),
        m=st.integers(1, 12),
        eta=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_scores_equal_scalar_oracle(self, k, d, m, eta, seed):
        # Both kernels against the score of the same float inputs in 50
        # digits.  Rounding is amplified by cond(I + eta T) in the k x k
        # solve, and by cond(B^{1/2})^2 in forming U: the scalar oracle is
        # handed B = B^{1/2} B^{1/2} rounded.  Over 15k candidate scores
        # drawn from this strategy (k up to 9) the worst error was about a
        # fifth of the bound for either kernel.
        rng = np.random.default_rng(seed)
        dt = k * d
        B_sqrt = np.linalg.inv(random_psd(rng, dt) + 0.1 * np.eye(dt))
        B_sqrt = 0.5 * (B_sqrt + B_sqrt.T)
        P = rng.normal(size=(m, dt, k)) * rng.uniform(0.1, 10.0)
        batched = woodbury_scores(P.transpose(2, 0, 1), B_sqrt, eta)
        cond_b = np.linalg.cond(B_sqrt)
        for i in range(m):
            cond_m = np.linalg.cond(np.eye(k) + eta * P[i].T @ B_sqrt @ P[i])
            rtol = 4 * dt * EPS * (cond_m + cond_b**2)
            exact = exact_score(B_sqrt, P[i], eta)
            assert batched[i] == pytest.approx(exact, rel=rtol)
            assert score_candidate(B_sqrt, B_sqrt @ B_sqrt, P[i], eta) == pytest.approx(
                exact, rel=rtol)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 9),
        n=st.integers(1, 6),
        rank=st.integers(1, 9),
        gap=st.floats(1e-8, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trace_solve_removal_case(self, k, n, rank, gap, seed):
        # The greedy's removal case: M = I - T with 0 <= T < I and U PSD,
        # with lambda_max(T) = 1 - gap.  Elimination without pivoting is
        # backward stable on a positive definite M, and for PSD U a
        # backward error E moves tr(M^{-1} U) by at most
        # ||E|| ||M^{-1}|| tr(M^{-1} U), so the relative error is of order
        # k eps cond(M).  Over 10k solves drawn like these the worst error
        # was an eighth of the bound.
        rng = np.random.default_rng(seed)
        M = np.empty((k, k, n))
        U = np.empty((k, k, n))
        for i in range(n):
            T = random_psd(rng, k, rank=min(rank, k))
            T *= (1.0 - gap) / np.linalg.eigvalsh(T)[-1]
            M[:, :, i] = np.eye(k) - T
            U[:, :, i] = random_psd(rng, k, rank=min(rank, k))
        got = trace_solve(M, U)
        for i in range(n):
            rtol = 4 * k * EPS * np.linalg.cond(M[:, :, i])
            assert got[i] == pytest.approx(exact_trace_solve(M[:, :, i], U[:, :, i]),
                                           rel=rtol)

    @pytest.mark.parametrize("k, m, with_e", [(1, 5, False), (2, 70, True), (3, 130, False),
                                              (3, 40, True)])
    def test_stack_equals_one_matrix_calls(self, k, m, with_e):
        # A stack of R matrices C with one s each gives, bit for bit, the
        # R values of one-matrix calls, with E the identity or not.
        rng = np.random.default_rng(100 * k + m)
        dt = 2 * k
        P = rng.normal(size=(k, m, dt))
        C = np.stack([np.linalg.inv(random_psd(rng, dt) + np.eye(dt)) for _ in range(4)])
        C = 0.5 * (C + np.swapaxes(C, 1, 2))
        s = np.array([0.5, 2.0, 2.0, 16.0])
        E = random_psd(rng, dt) if with_e else None
        stacked = woodbury_scores(P, C, s, E)
        assert stacked.shape == (4, m)
        for r in range(4):
            np.testing.assert_array_equal(stacked[r], woodbury_scores(P, C[r], s[r], E))

    def test_zero_factor(self):
        B_sqrt = np.eye(3)
        assert score_candidate(B_sqrt, B_sqrt @ B_sqrt, np.zeros((3, 2)), 1.0) == 0.0

    def test_argmax_matches_dense_argmin(self):
        # The reduced score must pick the same index as the dense trace
        # objective, computed by full matrix inversion.
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            c = int(rng.integers(2, 4))
            d = int(rng.integers(2, 5))
            m = 20
            factors, _, _, _ = pipeline_factors(seed + 300, c=c, d=d, m=m)
            eta = float(rng.uniform(0.5, 20.0))
            cum = random_psd(rng, factors.d_tilde) * rng.uniform(0.1, 2.0)
            A_inv_sqrt, _, _ = ftrl_action(cum, eta)
            B_sqrt = np.linalg.inv(A_inv_sqrt + eta * factors.shift_w)
            B = B_sqrt @ B_sqrt

            scores = [
                score_candidate(B_sqrt, B, factors.factors[i], eta)
                for i in range(m)
            ]
            dense = [
                dense_trace_objective(A_inv_sqrt, dense_candidate(factors, i), eta)
                for i in range(m)
            ]
            assert int(np.argmax(scores)) == int(np.argmin(dense))

    def test_binary_rank_one_against_dense(self):
        factors, _, _, _ = pipeline_factors(17, c=2, d=3, m=6)
        assert factors.factors.shape[2] == 1
        eta = 4.0
        A_inv_sqrt, _, _ = ftrl_action(np.zeros((factors.d_tilde,) * 2), eta)
        B_sqrt = np.linalg.inv(A_inv_sqrt + eta * factors.shift_w)
        B = B_sqrt @ B_sqrt
        for i in range(6):
            woodbury = score_candidate(B_sqrt, B, factors.factors[i], eta)
            direct = dense_trace_objective(A_inv_sqrt, dense_candidate(factors, i), eta)
            base = np.trace(np.linalg.inv(A_inv_sqrt + eta * factors.shift_w))
            # Dense identity: direct = Tr(B^{1/2}) - eta * score.
            assert direct == pytest.approx(base - eta * woodbury, rel=1e-9)


class TestSelectBatch:
    def test_single_candidate_repeats(self):
        factors, _, _, _ = pipeline_factors(1, m=1)
        [(picks, _)] = select_batch(3, [2.0], factors, mask_selected=False)
        np.testing.assert_array_equal(picks, [0, 0, 0])

    def test_tie_breaks_to_smallest_index(self):
        factors, _, _, _ = pipeline_factors(2, m=4)
        # Duplicate candidate 0's factor everywhere: all scores tie.
        factors.factors[:] = factors.factors[0]
        [(picks, _)] = select_batch(2, [2.0], factors, mask_selected=False)
        np.testing.assert_array_equal(picks, [0, 0])
        [(picks, _)] = select_batch(2, [2.0], factors, mask_selected=True)
        np.testing.assert_array_equal(picks, [0, 1])

    def test_mask_gives_distinct_indices(self):
        factors, _, _, _ = pipeline_factors(3, m=8)
        [(picks, _)] = select_batch(5, [3.0], factors, mask_selected=True)
        assert len(set(picks.tolist())) == 5

    def test_exhaustive_sandwich(self):
        # f at the picked set is at least the exhaustive optimum, while the
        # relaxed value lower-bounds it.
        factors, fishers, Hp0, relaxed = pipeline_factors(4, c=2, d=2, m=8, budget=2)
        [(picks, _)] = select_batch(2, [8.0 * np.sqrt(2)], factors, mask_selected=True)
        f_star = min(
            f_objective(np.array(s, dtype=int), fishers, Hp0)
            for s in itertools.combinations(range(8), 2)
        )
        f_picked = f_objective(picks, fishers, Hp0)
        assert f_picked >= f_star - 1e-9
        assert relaxed.objective <= f_star + 1e-6

    def test_budget_validation(self):
        factors, _, _, _ = pipeline_factors(5, m=4)
        with pytest.raises(ValueError):
            select_batch(5, [1.0], factors, mask_selected=True)
        with pytest.raises(ValueError):
            select_batch(2, [-1.0], factors)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_eta_rejected_before_any_step(self, monkeypatch, eta):
        factors, _, _, _ = pipeline_factors(5, m=4)
        monkeypatch.setattr(sparsify, "ftrl_action", pytest.fail)
        with pytest.raises(ValueError, match="eta"):
            select_batch(2, [eta], factors)

    @pytest.mark.parametrize("budget", [2.5, 2.0, 0])
    def test_budget_must_be_a_positive_integer(self, budget):
        factors, _, _, _ = pipeline_factors(5, m=4)
        for mask in (True, False):
            with pytest.raises(ValueError, match=r"^budget must be an integer"):
                select_batch(budget, [2.0], factors, mask_selected=mask)

    def test_numpy_integer_budget(self):
        factors, _, _, _ = pipeline_factors(5, m=4)
        [(picks, _)] = select_batch(np.int64(2), [2.0], factors)
        [(want, _)] = select_batch(2, [2.0], factors)
        np.testing.assert_array_equal(picks, want)

    @pytest.mark.parametrize("etas", [2.0, [], [[2.0]]], ids=["scalar", "empty", "2-D"])
    def test_rates_must_be_a_nonempty_sequence(self, etas):
        factors, _, _, _ = pipeline_factors(5, m=4)
        with pytest.raises(ValueError, match="^etas must be a nonempty 1-D sequence"):
            select_batch(2, etas, factors)


def lockstep_round(seed, k, m, dup):
    """Whitened factors of a random round with ``k = c - 1`` factor columns
    and ``m`` candidates, ``dup`` of which then repeat other candidates, so
    that their scores tie exactly."""
    factors = pipeline_factors(seed, c=k + 1, d=2 + seed % 2, m=m)[0]
    rng = np.random.default_rng(seed)
    into = rng.choice(m, size=dup, replace=False)
    factors.by_class[:, into] = factors.by_class[:, rng.integers(0, m, size=dup)]
    return factors


LOCKSTEP_ROUNDS = [(k, m, mask) for k in (1, 2, 3) for m in (3, 40, 130, 200)
                   for mask in (True, False)]


class TestLockstepPass:
    @pytest.mark.parametrize("first", [2, sparsify.FIRST_BLOCK])
    @pytest.mark.parametrize("k, m, mask", LOCKSTEP_ROUNDS,
                             ids=[f"k{k}-m{m}-{'masked' if mask else 'repeats'}"
                                  for k, m, mask in LOCKSTEP_ROUNDS])
    def test_equals_full_scoring_at_each_rate(self, monkeypatch, k, m, mask, first):
        # The pruned lockstep pass against the one-rate rounding that scores
        # every candidate: the same picks and the same margins, bit for bit,
        # at every rate, a repeated rate included.  Blocks of two candidates
        # take the pass through many prefix extensions.
        monkeypatch.setattr(sparsify, "FIRST_BLOCK", first)
        factors = lockstep_round(10 * k + m, k, m, dup=m // 3)
        budget = min(m, 7) if mask else 9
        etas = [e * np.sqrt(factors.d_tilde) for e in (0.25, 2.0, 2.0, 16.0)]
        got = select_batch(budget, etas, factors, mask_selected=mask)
        assert len(got) == len(etas)
        for eta, (picks, report) in zip(etas, got):
            want_picks, want = select_batch_one_rate(budget, eta, factors, mask)
            np.testing.assert_array_equal(picks, want_picks)
            np.testing.assert_array_equal(report.margin_min_eig, want.margin_min_eig)
            assert report.min_eig == want.min_eig
            if mask:
                assert report.margin_trace is None
            else:
                np.testing.assert_array_equal(report.margin_trace, want.margin_trace)

    def test_ties_across_blocks_keep_the_smallest_index(self, monkeypatch):
        # Candidates 0 and 1 repeat candidate 2 and are scored last, each in
        # a block of its own; a norm floor of -inf keeps every block open.
        monkeypatch.setattr(sparsify, "FIRST_BLOCK", 1)
        factors = lockstep_round(3, 2, 6, dup=0)
        P = factors.by_class
        P[:, :2] = P[:, 2:3]
        order = np.array([2, 3, 4, 5, 1, 0])
        B_sqrt = np.eye(factors.d_tilde)[None]
        scores = woodbury_scores(P, B_sqrt[0], 1.0)
        assert scores[0] == scores[1] == scores[2] == scores.max()
        picks, best, _ = sparsify._pruned_argmax(
            B_sqrt, np.array([1.0]), np.array([1.0]), P, order, np.full(6, -np.inf),
            np.zeros((1, 6), dtype=bool), 1)
        assert picks.tolist() == [0] and best[0] == scores[0]

    @pytest.mark.parametrize("k, mask", [(1, True), (2, False), (3, True)])
    def test_bound_covers_every_exact_score(self, k, mask):
        # At every step of every rate: lam x / (1 + eta x / k), with lam the
        # largest eigenvalue of B^(1/2) and x = lam ||P_i||_F^2, is at least
        # each candidate's exact score, and so each candidate's norm is at
        # least the floor its own score sets.  Some candidates fall below
        # the floor of the best score, so the bound prunes.
        factors = lockstep_round(7 + k, k, 200, dup=20)
        D, P = factors.shift_w, factors.by_class
        sq = np.einsum("aij,aij->i", P, P)
        budget, pruned = 7, 0
        for eta in [e * np.sqrt(factors.d_tilde) for e in (0.25, 2.0, 16.0)]:
            picks, _ = select_batch_one_rate(budget, eta, factors, mask)
            cum = np.zeros_like(D)
            for i in picks:
                A_inv_sqrt, _, _ = ftrl_action(cum, eta)
                w, B_sqrt = inv_psd_eig(A_inv_sqrt + eta * D)
                scores = woodbury_scores(P, B_sqrt, eta)
                x = sq / w[0]
                assert np.all(scores <= x / w[0] / (1.0 + eta * x / k) * (1.0 + 1e-12))
                lam = (1.0 + sparsify.BOUND_SLACK) / w[0]
                assert np.all(sq >= _norm_floor(lam, eta, k, scores))
                pruned += np.count_nonzero(sq < _norm_floor(lam, eta, k, scores.max()))
                G = factors.factors[i]
                cum = cum + D + G @ G.T
        assert pruned > 0


class TestRegretAudit:
    def test_margins_nonnegative_random_instance(self):
        factors, _, _, _ = pipeline_factors(6, c=3, d=2, m=12, budget=8)
        d_tilde = factors.d_tilde
        [(_, report)] = select_batch(64, [8.0 * np.sqrt(d_tilde)], factors,
                                     mask_selected=False)
        assert report.worst_min_eig >= -1e-8
        assert report.worst_trace >= -1e-8
        assert report.holds()

    def test_single_step_scalar_statement(self):
        # One step from scratch: the regret bound reduces to
        # lambda_min(C) >= -2 sqrt(d)/eta + gain/eta, checkable directly.
        factors, _, _, _ = pipeline_factors(7, c=2, d=2, m=5, budget=3)
        eta = 4.0
        [(picks, report)] = select_batch(1, [eta], factors, mask_selected=False)
        i = picks[0]
        C = dense_candidate(factors, i)
        lam_min = np.linalg.eigvalsh(C)[0]
        d_tilde = factors.d_tilde
        A_inv_sqrt = np.sqrt(d_tilde) * np.eye(d_tilde)
        gain = np.trace(np.eye(d_tilde) / np.sqrt(d_tilde)) - np.trace(
            np.linalg.inv(A_inv_sqrt + eta * C)
        )
        direct_margin = lam_min - (-2 * np.sqrt(d_tilde) / eta + gain / eta)
        assert report.worst_min_eig == pytest.approx(direct_margin, abs=1e-10)
        assert direct_margin >= -1e-8

    def test_masked_run_has_no_trace_margin(self):
        factors, _, _, _ = pipeline_factors(8, m=8)
        [(_, report)] = select_batch(3, [2.0], factors, mask_selected=True)
        assert report.margin_trace is None
        assert report.worst_trace is None

    @pytest.mark.parametrize("mask", [True, False])
    def test_min_eig_of_summed_picks(self, mask):
        # The rate-tuning score: the least eigenvalue of the sum of the
        # picked whitened candidates, a repeated pick counted each time.
        factors, _, _, _ = pipeline_factors(8, m=8)
        [(picks, report)] = select_batch(5, [2.0], factors, mask_selected=mask)
        total = sum(dense_candidate(factors, i) for i in picks)
        assert report.min_eig == pytest.approx(np.linalg.eigvalsh(total)[0],
                                               rel=1e-12, abs=1e-12)
        assert len(report.margin_min_eig) == 5

    def test_two_argument_report_has_no_score(self):
        report = sparsify.AuditReport(np.array([0.0]), None)
        assert np.isnan(report.min_eig)
        assert report.holds()


class TestNearOptimality:
    @pytest.mark.parametrize("c,d,budget", [(2, 2, 96), (3, 2, 160)])
    def test_one_plus_eps_chain_small(self, c, d, budget):
        # epsilon = 1 configuration on tiny instances (budget at least
        # 32 dt + 16 sqrt(dt), rate 8 sqrt(dt), repeats allowed): the
        # picked multiset is within a factor 2 of the relaxed optimum,
        # itself below the exhaustive subset optimum for a budget of 2.
        factors, fishers, Hp0, relaxed = pipeline_factors(
            9, c=c, d=d, m=10, budget=budget
        )
        d_tilde = factors.d_tilde
        eta = 8.0 * np.sqrt(d_tilde)
        [(picks, report)] = select_batch(budget, [eta], factors, mask_selected=False)
        f_picked = f_objective(picks, fishers, Hp0)
        assert f_picked <= 2.0 * relaxed.objective + 1e-9
        assert report.holds()

    def test_relaxed_lower_bounds_exhaustive(self):
        factors, fishers, Hp0, relaxed = pipeline_factors(10, c=2, d=2, m=9,
                                                          budget=2)
        f_star = min(
            f_objective(np.array(s, dtype=int), fishers, Hp0)
            for s in itertools.combinations(range(9), 2)
        )
        assert relaxed.objective <= f_star + 1e-6
