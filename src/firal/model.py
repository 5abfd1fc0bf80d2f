"""Multinomial logistic regression: class probabilities, the empirical loss
and its gradient, the per-point Fisher information in Kronecker form, and
Newton ERM.

The parameter matrix ``theta`` has shape ``(c - 1, d)`` for a ``c``-class
model on ``d``-dimensional features.  Class ``c`` is the reference class
with an implicit zero logit, so only ``c - 1`` rows are free.  Labels are
1-based integers in ``{1, ..., c}`` throughout, matching the CSV dataset
format (columns ``x_1..x_d, y``).

Parameters are vectorized row-major, i.e. ``theta.ravel()`` stacks the
class rows.  Under that convention the per-point loss Hessian is the
Kronecker product ``(diag(h) - h h^T) kron (x x^T)`` where ``h`` holds the
first ``c - 1`` class probabilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import solve_psd, symmetrize

# Probabilities are floored before taking logs so the loss stays finite
# even for logits of magnitude several hundred.
PROB_FLOOR = 1e-300


def _as_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ValueError(f"theta must be (c-1, d), got shape {theta.shape}")
    return theta


def class_probabilities(X, theta):
    """Softmax class probabilities for a batch of points.

    Parameters
    ----------
    X : ndarray of shape (n, d)
    theta : ndarray of shape (c-1, d)

    Returns
    -------
    ndarray of shape (n, c), rows nonnegative and summing to 1.
    """
    theta = _as_theta(theta)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != theta.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: X has shape {X.shape}, "
            f"theta has shape {theta.shape}"
        )
    return reference_softmax(X @ theta.T)


def reference_softmax(logits):
    """Softmax of ``(n, c-1)`` logits and the zero logit of the reference
    class, ``(n, c)`` with the reference class last.

    The only place the softmax is written.  Each row is shifted by its max
    for overflow safety; the max is a running ``np.maximum`` over the
    logit columns from 0, and the row sum is :func:`row_sums`, since numpy
    reduces along a short contiguous axis far more slowly.  ``exp`` runs in
    place on the whole array.  The result equals, bit for bit,
    ``concatenate`` with a zero column, ``max(axis=1)``, ``exp`` and
    ``sum(axis=1)``.
    """
    logits = np.asarray(logits, dtype=float)
    n, k = logits.shape
    p = np.empty((n, k + 1))
    p[:, :k] = logits
    p[:, k] = 0.0
    top = np.zeros(n)
    for j in range(k):
        np.maximum(top, p[:, j], out=top)
    p -= top[:, None]
    np.exp(p, out=p)
    p /= row_sums(p)[:, None]
    return p


def row_sums(A):
    """``A.sum(axis=1)`` of an ``(n, c)`` array, bit for bit.  Below eight
    columns numpy adds a row left to right from 0, which a running add of
    the columns repeats without the cost of reducing a short axis; from
    eight columns numpy pairs the terms, so its own sum is used."""
    if A.shape[1] >= 8:
        return A.sum(axis=1)
    total = np.zeros(len(A))
    for j in range(A.shape[1]):
        total += A[:, j]
    return total


def empirical_loss(X, y, theta, ridge=0.0):
    """Mean negative log-likelihood plus ``ridge/2 * ||theta||_F^2``."""
    P = class_probabilities(X, theta)
    y = np.asarray(y, dtype=int)
    pk = np.maximum(P[np.arange(len(y)), y - 1], PROB_FLOOR)
    loss = -np.mean(np.log(pk))
    if ridge > 0:
        loss += 0.5 * ridge * float(np.sum(theta**2))
    return loss


def empirical_gradient(X, y, theta, ridge=0.0):
    """Gradient of :func:`empirical_loss`, shape ``(c-1, d)``."""
    theta = _as_theta(theta)
    P = class_probabilities(X, theta)
    B = P[:, :-1].copy()
    y = np.asarray(y, dtype=int)
    in_free = y <= theta.shape[0]
    B[np.nonzero(in_free)[0], y[in_free] - 1] -= 1.0
    g = B.T @ np.asarray(X, dtype=float) / len(y)
    if ridge > 0:
        g = g + ridge * theta
    return g


@dataclass(frozen=True)
class KronFishers:
    """Per-point information ``F_i = W_i kron x_i x_i^T + shift`` held as
    ``X (m, d)``, ``W (m, c-1, c-1)`` and ``shift (d_tilde, d_tilde)``,
    without building the ``(m, d_tilde, d_tilde)`` stack.
    """

    X: np.ndarray
    W: np.ndarray
    shift: np.ndarray

    @classmethod
    def at(cls, X, theta, shift=None):
        """``W_i = diag(h_i) - h_i h_i^T`` at ``theta``; zero shift by default."""
        dt = np.size(theta)
        h = class_probabilities(X, theta)[:, :-1, None]
        W = h * np.eye(h.shape[1]) - h * h.transpose(0, 2, 1)
        shift = np.zeros((dt, dt)) if shift is None else np.asarray(shift, dtype=float)
        if shift.shape != (dt, dt):
            raise ValueError(f"shift shape {shift.shape} != fisher shape {(dt, dt)}")
        return cls(np.asarray(X, dtype=float), W, shift)

    @property
    def shape(self):
        """``(m, d_tilde, d_tilde)``, the shape of the dense stack."""
        return (len(self.X),) + self.shift.shape

    def aggregate(self, z):
        """``sum_i z_i F_i``, exactly symmetric, from one ``(d, d)`` GEMM
        per pair of classes."""
        z = np.asarray(z, dtype=float)
        (_, k, _), d = self.W.shape, self.X.shape[1]
        H = np.empty((k, d, k, d))
        for a in range(k):
            for b in range(a, k):
                # W is symmetric, so block (b, a) equals block (a, b).
                H[a, :, b, :] = H[b, :, a, :] = (self.X.T * (z * self.W[:, a, b])) @ self.X
        return symmetrize(H.reshape(self.shift.shape) + z.sum() * self.shift)

    def inner(self, M):
        """``<F_i, M>`` for every ``i``: one ``X @ M`` GEMM, a batched
        matmul with ``x_i``, then a contraction over ``(m, c-1, c-1)``."""
        (m, k, _), d = self.W.shape, self.X.shape[1]
        # Y[i, (a, b), q] = sum_p x_ip M[(a, p), (b, q)]
        M4 = np.asarray(M, dtype=float).reshape(k, d, k, d)
        Y = (self.X @ M4.transpose(1, 0, 2, 3).reshape(d, -1)).reshape(m, k * k, d)
        T = (Y @ self.X[:, :, None]).reshape(m, k, k)
        return np.einsum("iab,iab->i", self.W, T) + np.sum(self.shift * M)

    def take(self, idx):
        """The Fishers of the points ``idx``, with the same shift."""
        return KronFishers(self.X[idx], self.W[idx], self.shift)

    @cached_property
    def factors(self):
        """Tall ``G_i = Q_i kron x_i``, with ``G_i G_i^T = W_i kron x_i x_i^T``
        (no shift), stored class-major as ``(c-1, m, d_tilde)``:
        ``factors[:, i]`` is ``G_i^T``, its columns ordered as ``theta.ravel()``.
        Computed on first use and kept: the whitening and the greedy read
        the pool's, and each Newton step on a relaxation support that
        support's."""
        wW, VW = np.linalg.eigh(self.W)
        Q = VW * np.sqrt(np.maximum(wW, 0.0))[:, None, :]
        return np.einsum("iab,ip->biap", Q, self.X).reshape(Q.shape[2:] + self.shape[:2])


@dataclass
class FitResult:
    """Outcome of :func:`fit_erm`.

    ``converged`` is False when the gradient tolerance :data:`FIT_TOL` was
    not reached within :data:`FIT_MAX_ITER` Newton steps; the best iterate
    is still returned.
    """

    theta: np.ndarray
    converged: bool
    n_iter: int
    grad_norm: float


FIT_TOL = 1e-8
FIT_MAX_ITER = 100


def fit_erm(X, y, n_classes, *, ridge):
    """Damped Newton minimization of :func:`empirical_loss` with ``ridge``.

    Full-Hessian Newton with Armijo backtracking (c = 1e-4, step halving).
    The Newton system is solved by :func:`~firal.linalg.solve_psd`, which
    floors the eigenvalues of a Hessian singular to working precision
    (``ridge=0`` on a rank-deficient design).  Deterministic given its
    inputs; the objective is non-increasing across iterations.  A fit that
    stops short of :data:`FIT_TOL`, after :data:`FIT_MAX_ITER` steps or a
    step no backtracking accepts, returns ``converged=False`` and emits one
    ``RuntimeWarning`` naming ``n_iter`` and ``grad_norm``; it does not raise.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    if len(X) < 1:
        raise ValueError("need at least one example")
    if np.any(y < 1) or np.any(y > n_classes):
        raise ValueError(f"labels outside 1..{n_classes}")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge!r}")

    k, d = n_classes - 1, X.shape[1]
    theta = np.zeros((k, d))
    loss = empirical_loss(X, y, theta, ridge)
    grad = empirical_gradient(X, y, theta, ridge)
    gnorm = float(np.abs(grad).max())
    n_iter = 0

    for n_iter in range(1, FIT_MAX_ITER + 1):
        if gnorm <= FIT_TOL:
            return FitResult(theta, True, n_iter - 1, gnorm)
        H = KronFishers.at(X, theta).aggregate(np.full(len(X), 1 / len(X)))
        step = solve_psd(H + ridge * np.eye(k * d), -grad.ravel()).reshape(k, d)

        # Armijo backtracking; reject any step that fails to decrease.
        slope = float(np.sum(grad * step))
        t = 1.0
        accepted = False
        while t >= 2.0**-40:
            cand = theta + t * step
            cand_loss = empirical_loss(X, y, cand, ridge)
            if not np.isfinite(cand_loss):
                raise ValueError("non-finite loss encountered during fit")
            if cand_loss <= loss + 1e-4 * t * slope:
                theta, loss = cand, cand_loss
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        grad = empirical_gradient(X, y, theta, ridge)
        gnorm = float(np.abs(grad).max())

    converged = gnorm <= FIT_TOL
    if not converged:
        warnings.warn(f"fit_erm did not converge: grad_norm {gnorm:.3e} above "
                      f"FIT_TOL {FIT_TOL:g} after n_iter {n_iter} Newton steps",
                      RuntimeWarning, stacklevel=2)
    return FitResult(theta, converged, n_iter, gnorm)


def accuracy(X, y, theta):
    """Fraction of points whose argmax class matches the given labels."""
    P = class_probabilities(X, theta)
    pred = np.argmax(P, axis=1) + 1
    return float(np.mean(pred == np.asarray(y, dtype=int)))
