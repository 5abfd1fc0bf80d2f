"""Comparison selectors: random, k-means, entropy, variation ratios, and a
forward-backward greedy on the inverse-trace objective.

Every selector returns ``budget`` distinct, in-range pool indices.  Ties
break to the smallest index for determinism.
"""

from __future__ import annotations

import warnings

import numpy as np

from .fisher import pool_hessian, point_fishers
from .model import class_probabilities


def _check_budget(budget, m):
    if not 1 <= budget <= m:
        raise ValueError(f"budget {budget} outside 1..{m}")


def select_random(X, budget, seed):
    """Uniformly random distinct indices, reproducible per seed."""
    m = len(X)
    _check_budget(budget, m)
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


def select_kmeans(X, budget, seed, max_iter=50):
    """K-means with ``k = budget``; one nearest pool point per centroid.

    Lloyd iterations from a k-means++ start; each centroid is then mapped
    to its nearest still-unclaimed pool point, so the returned indices
    are distinct even when pool points coincide.
    """
    X = np.asarray(X, dtype=float)
    m = len(X)
    _check_budget(budget, m)
    rng = np.random.default_rng(seed)

    centers = _kmeans_pp_init(X, budget, rng)
    for _ in range(max_iter):
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
    # p log p with the 0 * log 0 = 0 convention.
    logp = np.where(P > 0, np.log(np.maximum(P, 1e-300)), 0.0)
    return np.sum(P * logp, axis=1)


def select_entropy(X, theta, budget):
    """Top-``budget`` points by smallest ``sum_c p log p`` (most uncertain)."""
    m = len(X)
    _check_budget(budget, m)
    scores = _entropy_scores(X, theta)
    return np.sort(np.argsort(scores, kind="stable")[:budget])


def select_var_ratios(X, theta, budget):
    """Top-``budget`` points by smallest maximum class probability."""
    m = len(X)
    _check_budget(budget, m)
    scores = class_probabilities(X, theta).max(axis=1)
    return np.sort(np.argsort(scores, kind="stable")[:budget])


# Candidates scored per stacked eigendecomposition in the greedy.  It
# amortizes the per-call overhead while bounding the (block, d_tilde,
# d_tilde) working set, so peak memory does not grow with the pool.
GREEDY_BLOCK = 256


def _clamped_trace_objective(A, Hp0, rel_floor=1e-12):
    """``<A_n^{-1}, Hp0>`` for each matrix of a stack ``A`` of shape
    ``(n, d_tilde, d_tilde)``, with each matrix's eigenvalues floored
    relative to its own largest, for rank-deficient ``A_n``."""
    w, V = np.linalg.eigh(0.5 * (A + A.transpose(0, 2, 1)))
    lam_max = np.maximum(w[:, -1:], rel_floor)
    w = np.maximum(w, rel_floor * lam_max)
    proj = np.einsum("nji,jk,nki->ni", V, Hp0, V)
    return np.sum(proj / w, axis=1)


def _best_update(A, F, idx, Hp0, sign):
    """The index in ``idx`` whose Fisher matrix, added (``sign=1``) or
    removed (``sign=-1``), gives the lowest clamped objective; ties go to
    the earliest position in ``idx``."""
    values = np.concatenate([
        _clamped_trace_objective(A + sign * F[idx[s:s + GREEDY_BLOCK]], Hp0)
        for s in range(0, len(idx), GREEDY_BLOCK)
    ])
    return idx[int(np.argmin(values))]


def select_greedy_fb(X, theta, shift, budget):
    """Forward-backward greedy on the inverse-trace objective.

    Greedily adds ``2 * budget`` points minimizing the running objective,
    then greedily removes ``budget`` whose removal increases it least.
    The running aggregate is seeded with the labeled-set shift so early
    scores stay finite; remaining rank deficiency is handled by a clamped
    inverse and reported through a warning.  Each step scores all its
    candidates in blocks of ``GREEDY_BLOCK`` stacked matrices.
    """
    X = np.asarray(X, dtype=float)
    m = len(X)
    if not 1 <= budget <= m // 2:
        raise ValueError(f"budget {budget} outside 1..{m // 2}")
    Hp0 = pool_hessian(X, theta)
    F = point_fishers(X, theta)
    shift = np.asarray(shift, dtype=float)

    w0 = np.linalg.eigvalsh(shift)
    if w0[0] <= 1e-12 * max(w0[-1], 1e-30):
        warnings.warn(
            "greedy seed matrix is rank deficient; scores use a clamped inverse",
            RuntimeWarning,
            stacklevel=2,
        )

    A = shift.copy()
    in_set = np.zeros(m, dtype=bool)
    for _ in range(2 * budget):
        best_i = _best_update(A, F, np.flatnonzero(~in_set), Hp0, 1.0)
        in_set[best_i] = True
        A = A + F[best_i]

    for _ in range(budget):
        best_i = _best_update(A, F, np.flatnonzero(in_set), Hp0, -1.0)
        in_set[best_i] = False
        A = A - F[best_i]

    return np.nonzero(in_set)[0]
