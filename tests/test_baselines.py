"""Baseline selector tests: contracts, hand-built orderings, the
forward-backward greedy sanity against exhaustive enumeration, and the
greedy against FIRAL's certified relaxation on the same round."""

import itertools
import warnings

import mpmath
import numpy as np
import pytest

from firal import baselines
from firal.baselines import (
    BOUND_SLACK,
    GREEDY_BLOCK,
    _best_update,
    _clamped_trace_objective,
    _floor_bound,
    _outer,
    _woodbury_objective,
    select_entropy,
    select_greedy_fb,
    select_kmeans,
    select_random,
    select_var_ratios,
)
from firal.cli import round_fishers
from firal.fisher import labeled_shift, pool_hessian
from firal.linalg import eig_floor
from firal.model import KronFishers
from firal.relax import relax_solve

from oracle import dense_fishers, f_objective


def greedy_fb_reference(budget, Hp, X, theta, shift):
    """Forward-backward greedy scoring one candidate at a time, on the
    dense Fishers of ``X`` from ``budget * shift``."""
    F = dense_fishers(X, theta)

    def value(A):
        return _clamped_trace_objective(A[None], Hp)[0]

    A = budget * np.asarray(shift, dtype=float)
    in_set = np.zeros(len(X), dtype=bool)
    for _ in range(2 * budget):
        best_i, best_val = -1, np.inf
        for i in np.flatnonzero(~in_set):
            val = value(A + F[i])
            if val < best_val:
                best_i, best_val = i, val
        in_set[best_i] = True
        A = A + F[best_i]
    for _ in range(budget):
        best_i, best_val = -1, np.inf
        for i in np.flatnonzero(in_set):
            val = value(A - F[i])
            if val < best_val:
                best_i, best_val = i, val
        in_set[best_i] = False
        A = A - F[best_i]
    return np.flatnonzero(in_set)


class TestSelectRandom:
    def test_full_budget_returns_everything(self):
        X = np.zeros((6, 2))
        np.testing.assert_array_equal(select_random(X, 6, seed=3), np.arange(6))

    def test_seed_reproducibility(self):
        X = np.zeros((50, 2))
        a = select_random(X, 10, seed=42)
        b = select_random(X, 10, seed=42)
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 10

    def test_empirical_uniformity(self):
        # Counts per index over many draws stay within five binomial
        # standard deviations of the expectation b/m.
        m, b, reps = 10, 3, 10_000
        X = np.zeros((m, 1))
        counts = np.zeros(m)
        for r in range(reps):
            counts[select_random(X, b, seed=r)] += 1
        p = b / m
        sd = np.sqrt(reps * p * (1 - p))
        assert np.all(np.abs(counts - reps * p) <= 5 * sd)

    def test_budget_too_large(self):
        with pytest.raises(ValueError):
            select_random(np.zeros((3, 1)), 4, seed=0)


class TestSelectKmeans:
    def test_separated_clusters_one_pick_each(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        X = np.vstack([c + 0.5 * rng.normal(size=(7, 2)) for c in centers])
        picks = select_kmeans(X, 3, seed=1)
        groups = {int(i) // 7 for i in picks}
        assert groups == {0, 1, 2}

    def test_single_centroid_is_nearest_to_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        picks = select_kmeans(X, 1, seed=5)
        expected = int(np.argmin(np.sum((X - X.mean(axis=0)) ** 2, axis=1)))
        assert picks[0] == expected

    def test_duplicate_points_stay_distinct(self):
        X = np.tile(np.array([[1.0, 1.0]]), (6, 1))
        picks = select_kmeans(X, 3, seed=0)
        assert len(set(picks.tolist())) == 3


class TestSelectEntropy:
    def test_zero_parameters_take_first_indices(self):
        X = np.random.default_rng(3).normal(size=(9, 2))
        picks = select_entropy(X, np.zeros((2, 2)), 4)
        np.testing.assert_array_equal(picks, np.arange(4))

    def test_hand_ordering(self):
        # Distances from the boundary order the picks: the on-boundary
        # point is most uncertain, the far point least.
        X = np.array([[0.0], [10.0], [1.0]])
        theta = np.array([[1.0]])
        picks = select_entropy(X, theta, 2)
        np.testing.assert_array_equal(np.sort(picks), [0, 2])
        assert 1 not in picks

    def test_full_budget_identity(self):
        X = np.random.default_rng(4).normal(size=(5, 2))
        theta = np.random.default_rng(5).normal(size=(1, 2))
        np.testing.assert_array_equal(
            np.sort(select_entropy(X, theta, 5)), np.arange(5)
        )


class TestSelectVarRatios:
    def test_zero_parameters_take_first_indices(self):
        X = np.random.default_rng(6).normal(size=(7, 3))
        picks = select_var_ratios(X, np.zeros((2, 3)), 3)
        np.testing.assert_array_equal(picks, np.arange(3))

    def test_hand_ordering(self):
        X = np.array([[0.0], [10.0], [1.0]])
        theta = np.array([[1.0]])
        picks = select_var_ratios(X, theta, 2)
        np.testing.assert_array_equal(np.sort(picks), [0, 2])

    def test_full_budget_identity(self):
        X = np.random.default_rng(7).normal(size=(6, 2))
        theta = np.random.default_rng(8).normal(size=(2, 2))
        np.testing.assert_array_equal(
            np.sort(select_var_ratios(X, theta, 6)), np.arange(6)
        )


class TestSelectGreedyFb:
    def _instance(self, seed, m=8, d=2, c=2):
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=(c - 1, d))
        X = rng.normal(size=(m, d)) * 2.0
        X0 = rng.normal(size=(4, d)) * 2.0
        return X, theta, X0

    @staticmethod
    def _inputs(X, theta, X0, shift):
        """The round's inputs as the loop builds them: the Hessian of the
        whole pool (labeled rows ``X0`` and candidates ``X``) and the
        candidates' Fishers with ``shift``."""
        return pool_hessian(np.vstack([X0, X]), theta), KronFishers.at(X, theta, shift)

    def _greedy(self, X, theta, X0, shift, budget):
        """``(select_greedy_fb picks, reference picks)`` on one round's inputs."""
        Hp, fishers = self._inputs(X, theta, X0, shift)
        return (select_greedy_fb(budget, Hp, fishers),
                greedy_fb_reference(budget, Hp, X, theta, shift))

    def test_minimal_pool_structure(self):
        # With m = 2b the forward pass takes everything, so the result is
        # the complement of the backward removals: exactly b indices.
        X, theta, X0 = self._instance(9, m=4)
        shift = labeled_shift(X0, theta, 2)
        picks = select_greedy_fb(2, *self._inputs(X, theta, X0, shift))
        assert len(picks) == 2
        assert len(set(picks.tolist())) == 2

    def test_result_bounded_by_exhaustive_optimum(self):
        X, theta, X0 = self._instance(10, m=8)
        b = 2
        shift = labeled_shift(X0, theta, b)
        Hp, kron = self._inputs(X, theta, X0, shift)
        picks = select_greedy_fb(b, Hp, kron)
        # The greedy's objective: the labeled sum b * shift plus the picks.
        fishers = dense_fishers(X, theta, shift)
        values = [
            f_objective(np.array(s, dtype=int), fishers, Hp)
            for s in itertools.combinations(range(8), b)
        ]
        f_picked = f_objective(np.asarray(picks, dtype=int), fishers, Hp)
        assert f_picked >= min(values) - 1e-9
        assert f_picked <= max(values) + 1e-9

    def test_deterministic(self):
        X, theta, X0 = self._instance(11)
        inputs = self._inputs(X, theta, X0, labeled_shift(X0, theta, 2))
        a = select_greedy_fb(2, *inputs)
        b = select_greedy_fb(2, *inputs)
        np.testing.assert_array_equal(a, b)

    def test_rank_deficient_seed_warns(self):
        X, theta, X0 = self._instance(12, m=6, d=3)
        with pytest.warns(RuntimeWarning):
            select_greedy_fb(2, *self._inputs(X, theta, X0, np.zeros((3, 3))))

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_blocked_equals_per_candidate_reference(self, rank_deficient):
        # More than one block, the last one partial.
        m = GREEDY_BLOCK + GREEDY_BLOCK // 3
        X, theta, X0 = self._instance(14, m=m, d=3, c=3)
        b = 3
        shift = (np.zeros((6, 6)) if rank_deficient
                 else labeled_shift(X0, theta, b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            picks, reference = self._greedy(X, theta, X0, shift, b)
        np.testing.assert_array_equal(picks, reference)

    def test_clamp_is_per_matrix(self):
        # A stacked call must give each matrix the value it gets alone,
        # even when one matrix in the block is singular.
        rng = np.random.default_rng(15)
        R = rng.normal(size=(3, 4, 4))
        A = R @ R.transpose(0, 2, 1)
        A[1] = np.outer(R[1, 0], R[1, 0])
        Hp0 = np.eye(4)
        stacked = _clamped_trace_objective(A, Hp0)
        alone = [_clamped_trace_objective(A[i:i + 1], Hp0)[0] for i in range(3)]
        np.testing.assert_array_equal(stacked, alone)

    def _spy_paths(self, monkeypatch):
        """Record ``(sign, admitted mask)`` of every Woodbury scoring call."""
        calls = []
        inner = baselines._woodbury_objective

        def spy(A, P, Hp0, sign):
            values, exact = inner(A, P, Hp0, sign)
            calls.append((sign, exact))
            return values, exact

        monkeypatch.setattr(baselines, "_woodbury_objective", spy)
        return calls

    def test_backward_step_mixes_both_paths(self, monkeypatch):
        # Only pool point 7 and no labeled point spans the last feature, so
        # the first add is clamped, and in the backward steps removing
        # point 7 would make the aggregate singular while removing any
        # other point is scored by Woodbury.
        X, theta, X0 = self._instance(16, m=30, d=3, c=3)
        X[:, -1] = 0.0
        X[7, -1] = 3.0
        X0[:, -1] = 0.0
        b = 2
        shift = labeled_shift(X0, theta, b)
        calls = self._spy_paths(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            picks, reference = self._greedy(X, theta, X0, shift, b)
        np.testing.assert_array_equal(picks, reference)
        assert 7 in picks
        assert not calls[0][1].any()
        backward = [exact for sign, exact in calls if sign < 0]
        assert len(backward) == b
        assert all(exact.any() and not exact.all() for exact in backward)

    def test_rank_deficient_run_takes_clamped_path_only(self, monkeypatch):
        # d_tilde = 10 and four rank-2 adds: the aggregate never reaches
        # full rank, so no candidate of any step is scored by Woodbury.
        m = GREEDY_BLOCK + GREEDY_BLOCK // 3
        X, theta, X0 = self._instance(17, m=m, d=5, c=3)
        b = 2
        shift = np.zeros((10, 10))
        calls = self._spy_paths(monkeypatch)
        dense = np.zeros(3 * b, dtype=int)
        inner = baselines._clamped_trace_objective

        def spy(A, Hp0):
            dense[len(calls) - 1] += len(A)
            return inner(A, Hp0)

        monkeypatch.setattr(baselines, "_clamped_trace_objective", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            picks, reference = self._greedy(X, theta, X0, shift, b)
        np.testing.assert_array_equal(picks, reference)
        assert len(calls) == 3 * b
        assert not any(exact.any() for _, exact in calls)
        # The bound-ordered scan leaves some candidate of some step unscored.
        assert any(dense[t] < np.sum(~exact) for t, (_, exact) in enumerate(calls))

    @staticmethod
    def _deficient_step(seed, n_set, n_out):
        """A rank-deficient aggregate ``A``, class-major factors ``P`` and a
        PD ``Hp0`` in a random coordinate order.  The first ``n_set``
        candidates span six of the ten coordinates and are summed into
        ``A``; two more coordinates carry eigenvalues at 0.3 and 0.9 of the
        floor, and the last two are exactly null.  The other ``n_out``
        candidates are dense."""
        dt, k, rank = 10, 2, 6
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(k, n_set + n_out, dt))
        P[:, :n_set, rank:] = 0.0
        A = np.einsum("aij,aik->jk", P[:, :n_set], P[:, :n_set])
        floor = eig_floor(np.linalg.eigvalsh(A)[-1])
        A[rank, rank], A[rank + 1, rank + 1] = 0.3 * floor, 0.9 * floor
        R = rng.normal(size=(dt, dt))
        perm = rng.permutation(dt)
        return A[np.ix_(perm, perm)], P[:, :, perm], R @ R.T / dt + 0.1 * np.eye(dt)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_floor_bound_is_below_clamped_objective(self, seed, sign):
        n_set = 40
        A, P, Hp0 = self._deficient_step(seed, n_set, 40)
        # A removal takes a summand of A; an add takes any candidate.
        idx = np.arange(n_set) if sign < 0 else np.arange(P.shape[1])
        bound = _floor_bound(A, P[:, idx], Hp0, sign)
        clamped = _clamped_trace_objective(A + sign * _outer(P, idx), Hp0)
        assert np.all((1.0 - BOUND_SLACK) * bound <= clamped)
        # The computed bound is the shifted objective it stands for.
        lam_max = np.linalg.eigvalsh(A)[-1]
        with mpmath.workdps(50):
            Am, Hm = mpmath.matrix(A.tolist()), mpmath.matrix(Hp0.tolist())
            for i in idx[::13]:
                G = P[:, i].T
                f = eig_floor(lam_max + (np.sum(G * G) if sign > 0 else 0.0))
                Gm = mpmath.matrix(G.tolist())
                S = Am + sign * (Gm * Gm.T) + mpmath.mpf(float(f)) * mpmath.eye(len(A))
                ref = sum((mpmath.inverse(S) * Hm)[j, j] for j in range(len(A)))
                assert abs(float((bound[i] - ref) / ref)) <= BOUND_SLACK / 10

    def _tied_step(self, seed, sign):
        """A rank-deficient step over more than four blocks of candidates,
        each of them twice in a random order, so the winner ties with a
        copy of itself.  Removals take both copies from ``A``.  Returns
        ``(A, P, idx, Hp0)``."""
        half = 2 * GREEDY_BLOCK + 19
        if sign > 0:
            A, P, Hp0 = self._deficient_step(seed, 3, half)
            P = P[:, 3:]
        else:
            A, P, Hp0 = self._deficient_step(seed, half, 0)
            A = A + np.einsum("aij,aik->jk", P, P)
        order = np.random.default_rng(seed).permutation(np.tile(np.arange(half), 2))
        return A, P[:, order], np.arange(2 * half), Hp0

    @staticmethod
    def _full_scan(A, P, idx, Hp0, sign):
        """The argmin, earliest on ties, of every candidate's value: Woodbury
        where it is exact, dense and clamped everywhere else."""
        values, exact = _woodbury_objective(A, P[:, idx], Hp0, sign)
        slow = np.flatnonzero(~exact)
        values[slow] = _clamped_trace_objective(A + sign * _outer(P, idx[slow]), Hp0)
        return idx[int(np.argmin(values))]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_best_update_equals_full_scan(self, seed, sign):
        A, P, idx, Hp0 = self._tied_step(seed, sign)
        assert _best_update(A, P, idx, Hp0, sign) == self._full_scan(A, P, idx, Hp0, sign)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bound_does_not_prune(self, monkeypatch, bad):
        A, P, idx, Hp0 = self._tied_step(3, 1.0)
        winner = self._full_scan(A, P, idx, Hp0, 1.0)
        inner = baselines._floor_bound

        def spoiled(A, P, Hp0, sign):
            bound = inner(A, P, Hp0, sign)
            bound[np.flatnonzero(idx == winner)] = bad
            return bound

        monkeypatch.setattr(baselines, "_floor_bound", spoiled)
        assert _best_update(A, P, idx, Hp0, 1.0) == winner

    @pytest.mark.parametrize("seed", range(5))
    def test_woodbury_equals_clamped_objective_where_admitted(self, seed):
        X, theta, X0 = self._instance(seed, m=40, d=3, c=3)
        P = KronFishers.at(X, theta).factors.transpose(2, 0, 1)
        F = dense_fishers(X, theta)
        Hp0 = pool_hessian(X, theta)
        A = labeled_shift(X0, theta, 3) + F[:4].sum(axis=0)
        for sign, idx in ((1.0, np.arange(4, 40)), (-1.0, np.arange(4))):
            values, exact = _woodbury_objective(A, P[:, idx], Hp0, sign)
            assert exact.any()
            expected = _clamped_trace_objective(A + sign * F[idx[exact]], Hp0)
            np.testing.assert_allclose(values[exact], expected, rtol=1e-12)

    def test_budget_validation(self):
        X, theta, X0 = self._instance(13, m=6)
        inputs = self._inputs(X, theta, X0, labeled_shift(X0, theta, 4))
        with pytest.raises(ValueError, match=r"budget 4 outside 1\.\.3"):
            select_greedy_fb(4, *inputs)


class TestGreedyAgainstRelaxation:
    @pytest.mark.parametrize("c, d, m, budget, seed", [
        (2, 2, 20, 3, 0), (3, 2, 30, 4, 1), (3, 3, 40, 3, 2), (4, 2, 36, 2, 3),
    ])
    def test_relaxation_bounds_greedy_picks_from_below(self, c, d, m, budget, seed):
        # Both selectors read one round's inputs, and the 0/1 weights of the
        # greedy's picks are feasible for the relaxation, so the certified
        # relaxed objective minus its gap bounds their objective from below.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, d)) * 2.0
        theta = rng.normal(size=(c - 1, d))
        labeled = rng.choice(m, size=2 * c, replace=False)
        unlabeled = np.setdiff1d(np.arange(m), labeled)
        Hp = pool_hessian(X, theta)
        fishers = round_fishers(X, labeled, unlabeled, theta, budget)
        relaxed = relax_solve(budget, Hp, fishers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            picks = select_greedy_fb(budget, Hp, fishers)
        dense = dense_fishers(X[unlabeled], theta, fishers.shift)
        assert f_objective(picks, dense, Hp) >= relaxed.objective - relaxed.gap
