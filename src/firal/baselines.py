"""Comparison selectors: random, k-means, entropy, variation ratios, and a
forward-backward greedy on the design objective of FIRAL's relaxation.

Every selector returns ``budget`` distinct, in-range pool indices.  Ties
break to the smallest index for determinism.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import eig_floor
from .model import class_probabilities
from .sparsify import _woodbury_terms, trace_solve


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
    _check_budget(budget, m)
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


# Candidates scored per stacked eigendecomposition on the clamped path.
# It amortizes the per-call overhead while bounding the (block, d_tilde,
# d_tilde) working set, so peak memory does not grow with the pool.  The
# scan visits candidates in the order of their floor bounds, and the first
# block usually holds the winner, so a small block wastes few dense scores.
GREEDY_BLOCK = 64
# Relative margin taken off every floor bound before it may prune.  Against
# a 50-digit reference over the clamped steps of `greedy_S` seeds 0-3, the
# computed bound was within 6e-5 and the dense values within 3.1e-6, so the
# margin covers the rounding of both.
BOUND_SLACK = 1e-3


def _clamped_trace_objective(A, Hp0):
    """``<A_n^{-1}, Hp0>`` for each matrix of a stack ``A`` of shape
    ``(n, d_tilde, d_tilde)``, with each matrix's eigenvalues floored
    relative to its own largest, for rank-deficient ``A_n``."""
    w, V = np.linalg.eigh(0.5 * (A + A.transpose(0, 2, 1)))
    w = np.maximum(w, eig_floor(w[:, -1:]))
    proj = np.einsum("nji,jk,nki->ni", V, Hp0, V)
    return np.sum(proj / w, axis=1)


def _woodbury_objective(A, P, Hp0, sign):
    """``<(A + sign G_i G_i^T)^{-1}, Hp0>`` for each tall factor ``G_i`` of
    class-major ``P (k, n, d_tilde)`` by the Woodbury identity, and the
    mask of the ``i`` for which the clamp of :func:`_clamped_trace_objective`
    cannot fire, so that both compute the same quantity (the Woodbury value
    rounds less when ``A +- G_i G_i^T`` is ill conditioned).  Values
    outside the mask are left at zero.

    With ``T_i = G_i^T A^{-1} G_i`` and ``U_i = G_i^T A^{-1} Hp0 A^{-1} G_i``
    (the rounding's kernel on ``Y = P A^{-1}`` and ``Z = Y Hp0``) the value
    is ``tr(A^{-1} Hp0) -+ tr((I +- T_i)^{-1} U_i)``.  By Weyl an add keeps
    every eigenvalue above the floor when ``lam_min(A) >= floor *
    (lam_max(A) + ||G_i||_F^2)``; a removal does when ``lam_min(A) * min(1,
    lam_min(I - T_i)) >= floor * lam_max(A)``, since ``A - G_i G_i^T =
    A^{1/2} (I - A^{-1/2} G_i G_i^T A^{-1/2}) A^{1/2}`` and the nonzero
    spectrum of the middle term is that of ``T_i``.
    """
    k, n, dt = P.shape
    values = np.zeros(n)
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    lam_min, lam_max = w[0], w[-1]
    if lam_min <= eig_floor(lam_max):
        return values, np.zeros(n, dtype=bool)
    A_inv = (V / w) @ V.T
    Y = (P.reshape(k * n, dt) @ A_inv).reshape(k, n, dt)
    Z = (Y.reshape(k * n, dt) @ Hp0).reshape(k, n, dt)
    M, U = _woodbury_terms(P, Y, Z, sign)
    if sign > 0:
        reach = lam_max + np.einsum("aij,aij->i", P, P)
        exact = lam_min >= eig_floor(reach)
    else:
        shrink = np.minimum(1.0, np.linalg.eigvalsh(M.transpose(2, 0, 1))[:, 0])
        exact = lam_min * shrink >= eig_floor(lam_max)
    values[exact] = np.sum(A_inv * Hp0) - sign * trace_solve(M[..., exact], U[..., exact])
    return values, exact


def _outer(P, rows):
    """The dense ``G_i G_i^T`` of the given rows of class-major ``P``."""
    G = P[:, rows].transpose(1, 2, 0)
    return G @ G.transpose(0, 2, 1)


def _floor_bound(A, P, Hp0, sign):
    """A lower bound on :func:`_clamped_trace_objective` of ``A + sign G_i
    G_i^T`` for each tall factor ``G_i`` of class-major ``P (k, n,
    d_tilde)``; a removed ``G_i G_i^T`` must be a summand of ``A``.

    The clamp weighs eigenvalue ``w >= 0`` by ``1 / max(w, floor)``, which is
    at least ``1 / (w + f)`` for any ``f >= floor``.  By Weyl ``f_i =
    eig_floor(lam_max(A) + ||G_i||_F^2)`` bounds an add's floor and
    ``eig_floor(lam_max(A))`` a removal's, so ``<(A +- G_i G_i^T + f_i
    I)^{-1}, Hp0>`` is a lower bound.  In the eigenbasis ``V`` of ``A``
    (eigenvalues clipped at zero, which only lowers the bound) the shift is
    the diagonal ``D_i = diag(1 / (w + f_i))``, and with ``g_i = V^T G_i``
    and ``Ht = V^T Hp0 V`` the bound is one Woodbury reduction:
    ``sum_j Ht_jj D_ij -+ tr((I +- g_i^T D_i g_i)^{-1} (D_i g_i)^T Ht D_i g_i)``.
    """
    k, n, dt = P.shape
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    w = np.maximum(w, 0.0)
    f = eig_floor(w[-1] + (sign > 0) * np.einsum("aij,aij->i", P, P))
    D = 1.0 / (w + f[:, None])
    Ht = V.T @ Hp0 @ V
    g = (P.reshape(k * n, dt) @ V).reshape(k, n, dt)
    Y = g * D
    Z = (Y.reshape(k * n, dt) @ Ht).reshape(k, n, dt)
    return D @ np.diag(Ht) - sign * trace_solve(*_woodbury_terms(g, Y, Z, sign))


def _best_update(A, P, idx, Hp0, sign):
    """The index in ``idx`` whose Fisher matrix, added (``sign=1``) or
    removed (``sign=-1``), gives the lowest clamped objective; ties go to
    the earliest position in ``idx``.

    Candidates the Woodbury path cannot score exactly are scored on their
    dense matrices, in blocks taken in the order of their
    :func:`_floor_bound`, less :data:`BOUND_SLACK`.  The scan stops at the
    first block whose smallest bound exceeds the best value so far, so every
    candidate that could win or tie is scored densely; the rest are not.  A
    non-finite bound never prunes.
    """
    values, exact = _woodbury_objective(A, P[:, idx], Hp0, sign)
    slow = np.flatnonzero(~exact)
    if not len(slow):
        return idx[int(np.argmin(values))]
    bound = (1.0 - BOUND_SLACK) * _floor_bound(A, P[:, idx[slow]], Hp0, sign)
    bound[~np.isfinite(bound)] = -np.inf
    order = np.argsort(bound, kind="stable")
    values[slow] = np.inf
    best = values[exact].min(initial=np.inf)
    for s in range(0, len(slow), GREEDY_BLOCK):
        block = order[s:s + GREEDY_BLOCK]
        if bound[block[0]] > best:
            break
        pos = slow[block]
        values[pos] = _clamped_trace_objective(A + sign * _outer(P, idx[pos]), Hp0)
        best = np.minimum(best, values[pos].min())
    return idx[int(np.argmin(values))]


def select_greedy_fb(budget, Hp, fishers):
    """Forward-backward greedy on ``<A^{-1}, Hp>`` from the inputs of
    :func:`~firal.relax.relax_solve`; ``A`` starts at ``budget * shift``, the
    labeled Fisher sum, so at ``budget`` picks its value is the relaxed ``f``.

    Greedily adds ``2 * budget`` candidates minimizing the objective, then
    removes ``budget`` whose removal increases it least.  Remaining rank
    deficiency is handled by a clamped inverse and reported through a
    warning.  Each step scores its candidates by rank-``(c-1)`` Woodbury
    updates of one factored aggregate (the FIRAL rounding's kernel).  Where
    the clamp could change a value it falls back to a clamped
    eigendecomposition of the dense candidate matrices, and only for the
    candidates whose floor bound (:func:`_floor_bound`) does not already
    rule them out of the step's minimum.
    """
    m = fishers.shape[0]
    _check_budget(budget, m // 2)
    P = np.ascontiguousarray(fishers.factors.transpose(2, 0, 1))
    A = budget * fishers.shift

    w0 = np.linalg.eigvalsh(A)
    if w0[0] <= eig_floor(w0[-1]):
        warnings.warn(
            "greedy seed matrix is rank deficient; scores use a clamped inverse",
            RuntimeWarning,
            stacklevel=2,
        )

    in_set = np.zeros(m, dtype=bool)
    for add, steps in ((True, 2 * budget), (False, budget)):
        sign = 1.0 if add else -1.0
        for _ in range(steps):
            best_i = _best_update(A, P, np.flatnonzero(in_set != add), Hp, sign)
            in_set[best_i] = add
            A = A + sign * _outer(P, [best_i])[0]
    return np.nonzero(in_set)[0]
