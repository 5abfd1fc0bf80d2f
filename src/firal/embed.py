"""Spectral embedding through the normalized graph Laplacian of a k-NN graph.

Builds an unweighted, OR-symmetrized k-nearest-neighbor graph, forms
``L = I - D^{-1/2} A D^{-1/2}``, and embeds each point by the eigenvectors
of the smallest eigenvalues.  A dense eigensolver is used; intended for
corpora up to a few thousand points.
"""

from __future__ import annotations

import numpy as np

from .linalg import symmetrize


def knn_graph(X, k):
    """Dense symmetric 0/1 adjacency of the k-nearest-neighbor graph.

    Edge ``(i, j)`` is present iff ``j`` is among the ``k`` Euclidean
    nearest neighbors of ``i`` or vice versa.  Distance ties break by
    index; no self loops.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    sq = np.sum(X**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]

    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), k), order.ravel()] = 1.0
    return np.maximum(A, A.T)


def normalized_laplacian(adj):
    """Dense ``I - D^{-1/2} A D^{-1/2}`` for a symmetric adjacency."""
    A = np.asarray(adj, dtype=float)
    deg = A.sum(axis=1)
    if np.any(deg <= 0):
        isolated = np.nonzero(deg <= 0)[0]
        raise ValueError(f"graph has isolated vertices: {isolated[:5].tolist()}")
    dinv = 1.0 / np.sqrt(deg)
    L = np.eye(len(A)) - dinv[:, None] * A * dinv[None, :]
    return symmetrize(L)


def _fix_signs(V):
    """Make the largest-magnitude entry of each column positive."""
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs[None, :]


def spectral_embed(X, k, d_out):
    """Embed points by the lowest eigenvectors of the normalized Laplacian.

    Columns are ordered by ascending eigenvalue, starting at the zero
    eigenvalue; eigenvector signs are fixed for reproducibility.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if not 1 <= d_out <= n:
        raise ValueError(f"need 1 <= d_out <= n, got d_out={d_out}, n={n}")
    L = normalized_laplacian(knn_graph(X, k))
    _, V = np.linalg.eigh(L)
    return _fix_signs(V[:, :d_out])
