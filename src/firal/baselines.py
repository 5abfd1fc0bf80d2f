"""Comparison selectors: random, k-means, entropy, variation ratios, and a
forward-backward greedy on the design objective of FIRAL's relaxation.

Every selector returns ``budget`` distinct, in-range pool indices.  Ties
break to the smallest index for determinism.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_hp, inv_psd
from .model import PROB_FLOOR, class_probabilities
from .sparsify import check_budget, woodbury_scores


def select_random(X, budget, seed):
    """Uniformly random distinct indices, reproducible per seed."""
    m = len(X)
    check_budget(budget, m)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(m, size=budget, replace=False))


def _kmeans_pp_init(X, k, rng):
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(len(X))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(len(X), size=k - j)]
            break
        probs = d2 / total
        centers[j] = X[rng.choice(len(X), p=probs)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


KMEANS_MAX_ITER = 50


def select_kmeans(X, budget, seed):
    """K-means with ``k = budget``; one nearest pool point per centroid.

    At most :data:`KMEANS_MAX_ITER` Lloyd iterations from a k-means++
    start; each centroid is then mapped to its nearest still-unclaimed
    pool point, so the returned indices are distinct even when pool
    points coincide.
    """
    X = np.asarray(X, dtype=float)
    m = len(X)
    check_budget(budget, m)
    rng = np.random.default_rng(seed)

    centers = _kmeans_pp_init(X, budget, rng)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(budget):
            members = X[assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers

    claimed = np.zeros(m, dtype=bool)
    picks = np.empty(budget, dtype=int)
    for j in range(budget):
        d2 = np.sum((X - centers[j]) ** 2, axis=1)
        d2[claimed] = np.inf
        picks[j] = int(np.argmin(d2))
        claimed[picks[j]] = True
    return picks


def _entropy_scores(X, theta):
    P = class_probabilities(X, theta)
    # p log p, 0 where p = 0: the floor keeps the log finite.
    return np.sum(P * np.log(np.maximum(P, PROB_FLOOR)), axis=1)


def select_entropy(X, theta, budget):
    """Top-``budget`` points by smallest ``sum_c p log p`` (most uncertain)."""
    m = len(X)
    check_budget(budget, m)
    scores = _entropy_scores(X, theta)
    return np.sort(np.argsort(scores, kind="stable")[:budget])


def select_var_ratios(X, theta, budget):
    """Top-``budget`` points by smallest maximum class probability."""
    m = len(X)
    check_budget(budget, m)
    scores = class_probabilities(X, theta).max(axis=1)
    return np.sort(np.argsort(scores, kind="stable")[:budget])


def select_greedy_fb(budget, Hp, fishers):
    """Forward-backward greedy on ``<A^{-1}, Hp>`` from the inputs of
    :func:`~firal.relax.relax_solve`; ``A`` starts at ``budget * shift``,
    the labeled Fisher sum plus the fit's ridge term that
    :func:`~firal.round.round_fishers` puts in the shift, so at ``budget``
    picks its value is the relaxed ``f``.

    Greedily adds ``2 * budget`` candidates minimizing the objective, then
    removes ``budget`` whose removal increases it least.  A positive
    definite start keeps every step positive definite, since a removal
    leaves at least the start, so each step scores every candidate exactly,
    ``tr(A^{-1} Hp) -+ woodbury_scores(P, A^{-1}, +-1, Hp)`` for an add or
    a removal, from one inverse of ``A``.  Raises ``LinAlgError`` for a
    singular start, as a zero ridge with too few labeled points gives, and
    ``ValueError`` for an ``Hp`` that fails :func:`~firal.linalg.check_hp`.
    """
    m = fishers.shape[0]
    check_budget(budget, m // 2)
    Hp = check_hp(Hp, fishers.shape[1:])
    P = fishers.factors
    A = budget * fishers.shift
    in_set = np.zeros(m, dtype=bool)
    for add, steps in ((True, 2 * budget), (False, budget)):
        sign = 1.0 if add else -1.0
        for _ in range(steps):
            A_inv = inv_psd(A)
            trace = np.sum(A_inv * Hp)
            if add:
                # All of P is scored in place; a point in the set is barred.
                values = trace - woodbury_scores(P, A_inv, sign, Hp)
                values[in_set] = np.inf
                best_i = int(np.argmin(values))
            else:
                idx = np.flatnonzero(in_set)
                best_i = idx[int(np.argmin(trace + woodbury_scores(P[:, idx], A_inv, sign, Hp)))]
            in_set[best_i] = add
            G = P[:, best_i]
            A = A + sign * (G.T @ G)
    return np.nonzero(in_set)[0]
