"""Inverses and solves of symmetric positive (semi)definite matrices, under
one rule: a symmetric matrix is singular to working precision when its
smallest eigenvalue is at most :func:`eig_floor` of its largest.
:func:`eigh_pd` and the inverses built on it raise for such a matrix.
:func:`cholesky_pd` applies the rule to the squared Cholesky pivots: the
relaxation factors its aggregates with it, and :func:`solve_psd` floors
the eigenvalues of a matrix it rejects; :func:`check_hp` applies it to the
search selectors' pool Hessian.  Imports nothing from the rest of the
package.
"""

from __future__ import annotations

import numpy as np

EIG_FLOOR_REL = 1e-12


def eig_floor(lam_max):
    """``EIG_FLOOR_REL`` times the largest eigenvalue ``lam_max``, or zero
    where it is not positive.  Broadcasts."""
    return EIG_FLOOR_REL * np.maximum(lam_max, 0.0)


def check_hp(Hp, shape):
    """``Hp`` as a float array, checked to be a finite, symmetric, positive
    semidefinite matrix of ``shape`` to the working precision of
    :func:`eig_floor`: the search selectors' check of their pool Hessian.
    Raises ``ValueError`` naming ``Hp`` otherwise."""
    Hp = np.asarray(Hp, dtype=float)
    if Hp.shape != shape:
        raise ValueError(f"Hp must be {shape}, got shape {Hp.shape}")
    if not np.all(np.isfinite(Hp)):
        raise ValueError("Hp must be finite")
    if np.abs(Hp - Hp.T).max() > eig_floor(np.abs(Hp).max()):
        raise ValueError("Hp must be symmetric")
    lam = np.linalg.eigvalsh(Hp)
    if lam[0] < -eig_floor(lam[-1]):
        raise ValueError(f"Hp must be positive semidefinite, got eigenvalue {lam[0]:.3e}")
    return Hp


def symmetrize(A):
    """``(A + A^T) / 2``, of one matrix or of each matrix of a stack."""
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def eigh_pd(A, context):
    """``eigh`` of the symmetrized ``A``, which must be positive definite;
    raises ``LinAlgError``, naming ``context``, where it is singular.  A
    stack of matrices is decomposed matrix by matrix, and the first
    singular one is named."""
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh(symmetrize(A))
    singular = w[..., 0] <= eig_floor(w[..., -1])
    if np.any(singular):
        lo, hi = w[..., 0][singular].flat[0], w[..., -1][singular].flat[0]
        raise np.linalg.LinAlgError(
            f"{context}: matrix is singular to working precision "
            f"(min/max eigenvalue {lo:.3e}/{hi:.3e})"
        )
    return w, V


def cholesky_pd(A, context):
    """Lower Cholesky factor of a symmetric positive definite ``A``; raises
    ``LinAlgError``, naming ``context``, where the factorization fails or
    the least squared pivot is at most :func:`eig_floor` of the largest."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{context}: matrix is not positive definite") from None
    pivots = np.diag(L) ** 2
    if pivots.min() <= eig_floor(pivots.max()):
        raise np.linalg.LinAlgError(f"{context}: matrix is singular to working precision (min/max "
                                    f"squared pivot {pivots.min():.3e}/{pivots.max():.3e})")
    return L


def inv_sqrt_psd(A):
    """Inverse matrix square root ``S = A^{-1/2}`` via symmetric
    eigendecomposition."""
    w, V = eigh_pd(A, "inv_sqrt_psd")
    return symmetrize((V / np.sqrt(w)) @ V.T)


def inv_psd_eig(A):
    """``(w, A^{-1})``: the eigenvalues and the symmetrized inverse of a
    symmetric positive definite matrix, or of each matrix of a stack."""
    w, V = eigh_pd(A, "inv_psd")
    return w, symmetrize((V / w[..., None, :]) @ np.swapaxes(V, -1, -2))


def inv_psd(A):
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    return inv_psd_eig(A)[1]


def solve_psd(H, b):
    """``H x = b`` for a symmetric PSD ``H`` by one LU solve, or, where
    :func:`cholesky_pd` rejects ``H``, by its eigendecomposition with the
    eigenvalues floored at :func:`eig_floor` (the zero vector if none is
    positive)."""
    try:
        cholesky_pd(H, "solve_psd")
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(symmetrize(H))
        if w[-1] <= 0:
            return np.zeros_like(b)
        return V @ ((V.T @ b) / np.maximum(w, eig_floor(w[-1])))
    return np.linalg.solve(H, b)
