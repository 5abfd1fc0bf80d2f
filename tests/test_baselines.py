"""Baseline selector tests: contracts, hand-built orderings, the
forward-backward greedy sanity against exhaustive enumeration, and the
greedy against FIRAL's certified relaxation on the same round."""

import itertools

import numpy as np
import pytest

from firal import round_fishers
from firal.baselines import (
    select_entropy,
    select_greedy_fb,
    select_kmeans,
    select_random,
    select_var_ratios,
)
from firal.fisher import pool_hessian
from firal.linalg import inv_psd
from firal.model import KronFishers
from firal.relax import relax_solve
from firal.sparsify import woodbury_scores

from oracle import dense_fishers, f_objective, labeled_first


RIDGE = 1e-6


def dense_objective(A, Hp):
    """``tr(A^{-1} Hp)`` by one dense solve."""
    return np.trace(np.linalg.solve(A, Hp))


def greedy_fb_reference(budget, Hp, X, theta, shift):
    """Forward-backward greedy scoring one candidate at a time, on the
    dense Fishers of ``X`` from ``budget * shift``."""
    F = dense_fishers(X, theta)

    def value(A):
        return dense_objective(A, Hp)

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
    def _inputs(X, theta, X0, budget, shift=None):
        """The round's inputs as the loop builds them: the Hessian of the
        whole pool (labeled rows ``X0`` and candidates ``X``) and the
        candidates' Fishers from :func:`firal.round_fishers` at ridge 0,
        or with ``shift`` where it is given."""
        pool, fishers = labeled_first(X0, X, theta, budget)
        if shift is not None:
            fishers = KronFishers.at(X, theta, shift)
        return pool_hessian(pool, theta), fishers

    def _greedy(self, X, theta, X0, budget, shift=None):
        """``(select_greedy_fb picks, reference picks)`` on one round's inputs."""
        Hp, fishers = self._inputs(X, theta, X0, budget, shift)
        return (select_greedy_fb(budget, Hp, fishers),
                greedy_fb_reference(budget, Hp, X, theta, fishers.shift))

    def test_minimal_pool_structure(self):
        # With m = 2b the forward pass takes everything, so the result is
        # the complement of the backward removals: exactly b indices.
        X, theta, X0 = self._instance(9, m=4)
        picks = select_greedy_fb(2, *self._inputs(X, theta, X0, 2))
        assert len(picks) == 2
        assert len(set(picks.tolist())) == 2

    def test_result_bounded_by_exhaustive_optimum(self):
        X, theta, X0 = self._instance(10, m=8)
        b = 2
        Hp, kron = self._inputs(X, theta, X0, b)
        picks = select_greedy_fb(b, Hp, kron)
        # The greedy's objective: the labeled sum b * shift plus the picks.
        fishers = dense_fishers(X, theta, kron.shift)
        values = [
            f_objective(np.array(s, dtype=int), fishers, Hp)
            for s in itertools.combinations(range(8), b)
        ]
        f_picked = f_objective(np.asarray(picks, dtype=int), fishers, Hp)
        assert f_picked >= min(values) - 1e-9
        assert f_picked <= max(values) + 1e-9

    def test_deterministic(self):
        X, theta, X0 = self._instance(11)
        inputs = self._inputs(X, theta, X0, 2)
        a = select_greedy_fb(2, *inputs)
        b = select_greedy_fb(2, *inputs)
        np.testing.assert_array_equal(a, b)

    def test_singular_seed_raises(self):
        X, theta, X0 = self._instance(12, m=6, d=3)
        with pytest.raises(np.linalg.LinAlgError, match="inv_psd: matrix is singular"):
            select_greedy_fb(2, *self._inputs(X, theta, X0, 2, np.zeros((3, 3))))

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_blocked_equals_per_candidate_reference(self, rank_deficient):
        # The rank-deficient case has no labeled Fisher, only the ridge
        # term of four labeled points: the aggregate is singular but for it.
        X, theta, X0 = self._instance(14, m=60, d=3, c=3)
        b = 3
        shift = len(X0) * RIDGE / b * np.eye(6) if rank_deficient else None
        picks, reference = self._greedy(X, theta, X0, b, shift)
        np.testing.assert_array_equal(picks, reference)

    @pytest.mark.parametrize("seed", range(5))
    def test_woodbury_equals_clamped_objective_where_admitted(self, seed):
        # Every add and every removal of a summand is scored as the dense
        # solve scores it: the greedy's value from the shared kernel at
        # C = A^{-1}, E = Hp.
        X, theta, X0 = self._instance(seed, m=40, d=3, c=3)
        P = KronFishers.at(X, theta).factors
        F = dense_fishers(X, theta)
        Hp0 = pool_hessian(X, theta)
        A = labeled_first(X0, X, theta, 3)[1].shift + F[:4].sum(axis=0)
        A_inv = inv_psd(A)
        for sign, idx in ((1.0, np.arange(4, 40)), (-1.0, np.arange(4))):
            values = np.sum(A_inv * Hp0) - sign * woodbury_scores(P[:, idx], A_inv, sign, Hp0)
            expected = [dense_objective(A + sign * F[i], Hp0) for i in idx]
            np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_budget_validation(self):
        X, theta, X0 = self._instance(13, m=6)
        inputs = self._inputs(X, theta, X0, 4)
        with pytest.raises(ValueError, match=r"budget 4 outside 1\.\.3"):
            select_greedy_fb(4, *inputs)

    @pytest.mark.parametrize("budget", [2.5, 2.0, 0])
    def test_budget_must_be_a_positive_integer(self, budget):
        X, theta, X0 = self._instance(13, m=6)
        with pytest.raises(ValueError, match=r"^budget must be an integer"):
            select_greedy_fb(budget, *self._inputs(X, theta, X0, 2))

    def test_numpy_integer_budget(self):
        X, theta, X0 = self._instance(13, m=6)
        inputs = self._inputs(X, theta, X0, 2)
        np.testing.assert_array_equal(select_greedy_fb(np.int64(2), *inputs),
                                      select_greedy_fb(2, *inputs))


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
        fishers = round_fishers(X, labeled, unlabeled, theta, budget, ridge=RIDGE)
        relaxed = relax_solve(budget, Hp, fishers)
        picks = select_greedy_fb(budget, Hp, fishers)
        dense = dense_fishers(X[unlabeled], theta, fishers.shift)
        assert f_objective(picks, dense, Hp) >= relaxed.objective - relaxed.gap
