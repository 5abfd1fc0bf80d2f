"""Per-point and dense references the tests check the package against.

Single-point probabilities, loss, gradient and the ``np.kron`` Fisher
matrix :func:`point_fisher`; the dense candidate stack built from it
point by point, independently of the factored
:class:`firal.model.KronFishers` the selectors read; the design objective
on such a stack; the per-candidate Woodbury score; the exact
relaxation gradient; and the random round that the selection tests share,
built by :func:`firal.round_fishers` and taken through the relaxation and
the whitening.
"""

import numpy as np

from firal import round_fishers
from firal.fisher import fir, pool_hessian, whiten_factors
from firal.model import PROB_FLOOR, _as_theta, class_probabilities
from firal.relax import _inverse_parts, relax_solve


def predict_proba(x, theta):
    """Class probabilities for a single point, length ``c``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a vector, got shape {x.shape}")
    return class_probabilities(x[None, :], theta)[0]


def _check_label(y, n_classes):
    y = int(y)
    if not 1 <= y <= n_classes:
        raise ValueError(f"label {y} outside 1..{n_classes}")
    return y


def nll_loss(x, y, theta):
    """Negative log-likelihood of label ``y`` (1-based) at ``theta``."""
    p = predict_proba(x, theta)
    y = _check_label(y, p.size)
    return -np.log(max(p[y - 1], PROB_FLOOR))


def loss_gradient(x, y, theta):
    """Gradient of the per-example loss, shape ``(c-1, d)``.

    Row ``i`` equals ``beta_i * x`` with ``beta_i = -1{y=i} + h_i(x)``.
    """
    theta = _as_theta(theta)
    x = np.asarray(x, dtype=float)
    p = predict_proba(x, theta)
    y = _check_label(y, p.size)
    beta = p[:-1].copy()
    if y <= theta.shape[0]:
        beta[y - 1] -= 1.0
    return np.outer(beta, x)


def point_fisher(x, theta):
    """Per-point Fisher information, a PSD matrix of size ``d(c-1)``.

    Equals ``(diag(h) - h h^T) kron (x x^T)``; independent of any label.
    """
    x = np.asarray(x, dtype=float)
    h = predict_proba(x, theta)[:-1]
    return np.kron(np.diag(h) - np.outer(h, h), np.outer(x, x))


def dense_fishers(X, theta, shift=0.0):
    """``point_fisher(x_i, theta) + shift`` for every row of ``X``, stacked
    as ``(m, d_tilde, d_tilde)``."""
    return np.array([point_fisher(x, theta) + shift for x in X])


def f_objective(weights_or_indices, fishers, Hp0):
    """Design objective ``<(sum_i z_i H(x_i))^{-1}, Hp0>``.

    ``weights_or_indices`` is either a length-``m`` real weight vector or
    an integer index sequence (a multiset; repeated indices accumulate).
    """
    fishers = np.asarray(fishers, dtype=float)
    z = np.asarray(weights_or_indices)
    if z.dtype.kind in "iu":
        if z.ndim != 1 or (z.size and (z.min() < 0 or z.max() >= len(fishers))):
            raise ValueError("index set entries must lie in [0, m)")
        z = np.bincount(z, minlength=len(fishers)).astype(float)
    else:
        z = z.astype(float)
        if z.shape != (len(fishers),):
            raise ValueError("weights must have one entry per candidate")
    sigma = np.einsum("i,ijk->jk", z, fishers)
    return fir(sigma, Hp0)


def score_candidate(B_sqrt, B, P_i, eta):
    """Woodbury-reduced selection score for one candidate factor.

    Equals ``<(I + eta P^T B^{1/2} P)^{-1}, P^T B P>``; the argmax over
    candidates coincides with the argmin of the direct trace objective.
    """
    P_i = np.asarray(P_i, dtype=float)
    k = P_i.shape[1]
    T = P_i.T @ B_sqrt @ P_i
    U = P_i.T @ B @ P_i
    return float(np.trace(np.linalg.solve(np.eye(k) + eta * T, U)))


def relax_gradient(kappa, fishers, Hp0):
    """Exact gradient of ``f(kappa) = <(sum kappa_i H_i)^{-1}, Hp0>``.

    Entry ``i`` equals ``-<H_i, sigma^{-1} Hp0 sigma^{-1}>``.
    """
    _, M, _ = _inverse_parts(fishers.aggregate(kappa), Hp0)
    return -fishers.inner(M)


def labeled_first(X0, X, theta, budget):
    """The pool ``[X0; X]`` and :func:`firal.round_fishers` on it with
    ``ridge=0``, the rows ``X0`` labeled and ``X`` the candidates: their
    shift is ``(1/budget) sum_j H(x0_j)``."""
    pool = np.vstack([X0, X])
    n = len(X0)
    return pool, round_fishers(pool, np.arange(n), np.arange(n, len(pool)), theta,
                               budget, ridge=0.0)


def pipeline_factors(seed, c=2, d=2, m=8, n_labeled=3, budget=4, scale=2.0):
    """A random round through the pipeline.

    Draws ``theta``, ``m`` candidates and ``n_labeled`` labeled points from
    ``seed``, the points scaled by ``scale``; builds the round by
    :func:`labeled_first`, relaxes it against the candidates' own Hessian
    ``Hp0`` and whitens it.  Returns ``(whitened factors, dense candidate
    stack, Hp0, relaxed)``.
    """
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(c - 1, d))
    X = rng.normal(size=(m, d)) * scale
    X0 = rng.normal(size=(n_labeled, d)) * scale
    _, fishers = labeled_first(X0, X, theta, budget)
    Hp0 = pool_hessian(X, theta)
    relaxed = relax_solve(budget, Hp0, fishers)
    return (whiten_factors(relaxed.z, fishers), dense_fishers(X, theta, fishers.shift),
            Hp0, relaxed)
