"""Fisher information aggregation and the inverse-trace design objective.

All matrices here live in the vectorized parameter space of dimension
``d_tilde = d(c-1)``.  Both search selectors, the FIRAL round and the
forward-backward greedy, read the candidates through
:class:`~firal.model.KronFishers` and never build the dense ``(m,
d_tilde, d_tilde)`` stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eigh_pd, inv_sqrt_psd
from .model import KronFishers

# Largest entry of |S sigma S - I| that whiten_factors accepts.  Well-posed
# rounds whiten to about 1e-13; a sigma that is nonsingular but badly
# conditioned can miss the identity by more.
WHITEN_RESIDUAL_TOL = 1e-8


def pool_hessian(X, theta):
    """Average Fisher information over a pool: ``(1/m) sum_i H(x_i)``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 1:
        raise ValueError("pool must be a nonempty (m, d) array")
    return KronFishers.at(X, theta).aggregate(np.full(len(X), 1.0 / len(X)))


def fir(Hq, Hp):
    """Fisher information ratio ``Trace(Hq^{-1} Hp)`` from the
    eigendecomposition ``Hq = V diag(w) V^T``, as ``sum_j (V^T Hp V)_jj / w_j``.

    Raises ``LinAlgError`` when ``Hq`` is singular to working precision.
    """
    w, V = eigh_pd(Hq, "fir")
    return float(np.sum((np.asarray(Hp, dtype=float) @ V * V).sum(axis=0) / w))


def sigma_max(Hq, Hp):
    """Largest eigenvalue of ``Hq^{-1/2} Hp Hq^{-1/2}``."""
    S = inv_sqrt_psd(Hq)
    M = S @ np.asarray(Hp, dtype=float) @ S
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


@dataclass
class WhitenedFactors:
    """Factored candidate matrices after whitening by the relaxed design.

    In whitened coordinates every candidate decomposes as
    ``shift_w + factors[i] @ factors[i].T`` and the weighted sum over the
    design weights equals the identity (up to ``identity_residual``).
    """

    shift_w: np.ndarray        # (d_tilde, d_tilde) shared PSD part
    by_class: np.ndarray       # whitened KronFishers.factors, in its layout
    identity_residual: float

    @property
    def d_tilde(self):
        return self.shift_w.shape[0]

    @property
    def factors(self):
        """The tall per-point factors, ``(m, d_tilde, c-1)``: a view of
        ``by_class``.  Besides the tests, only ``perfbench/tracing.py``
        reads it."""
        return self.by_class.transpose(1, 2, 0)


def whiten_factors(z, fishers):
    """Whiten the candidate matrices by the weighted aggregate.

    Given weights ``z`` (summing to the budget) and the candidates as a
    :class:`~firal.model.KronFishers`, forms ``sigma = sum_i z_i F_i`` and
    returns the shared shift and the tall factors ``Q_i kron x_i``
    conjugated by ``sigma^{-1/2}``.  Raises ``LinAlgError`` when ``sigma``
    is singular to working precision, and ``FloatingPointError`` when the
    whitened aggregate misses the identity by more than
    :data:`WHITEN_RESIDUAL_TOL`.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != fishers.shape[:1]:
        raise ValueError("one weight per pool point required")
    sigma = fishers.aggregate(z)
    S = inv_sqrt_psd(sigma)

    shift_w = S @ fishers.shift @ S
    shift_w = 0.5 * (shift_w + shift_w.T)

    resid = float(np.abs(S @ sigma @ S - np.eye(len(S))).max())
    if not resid <= WHITEN_RESIDUAL_TOL:
        raise FloatingPointError(
            f"whitening residual {resid:.3e} exceeds {WHITEN_RESIDUAL_TOL:.0e}")
    return WhitenedFactors(
        shift_w=shift_w,
        # S is symmetric, so each row G_i^T S is (S G_i)^T.
        by_class=fishers.factors @ S,
        identity_residual=resid,
    )
