"""Embedding tests: graph construction on hand-built geometries, Laplacian
spectral properties, and cluster separation."""

import numpy as np
import pytest

from firal.embed import knn_graph, normalized_laplacian, spectral_embed


def two_clusters(n_per=12, gap=50.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 2))
    b = rng.normal(size=(n_per, 2)) + np.array([gap, 0.0])
    return np.vstack([a, b])


class TestKnnGraph:
    def test_collinear_points_make_path(self):
        # Three equidistant collinear points with k=1: the middle point's
        # distance tie breaks to the smaller index, and OR-symmetrization
        # yields the path 0-1-2.
        X = np.array([[0.0], [1.0], [2.0]])
        A = knn_graph(X, 1)
        expected = np.array([
            [0, 1, 0],
            [1, 0, 1],
            [0, 1, 0],
        ], dtype=float)
        np.testing.assert_array_equal(A, expected)

    def test_full_neighborhood_is_complete(self):
        X = np.random.default_rng(1).normal(size=(6, 2))
        A = knn_graph(X, 5)
        np.testing.assert_array_equal(A, 1 - np.eye(6))

    def test_symmetric_no_self_loops(self):
        X = np.random.default_rng(2).normal(size=(20, 3))
        A = knn_graph(X, 4)
        np.testing.assert_array_equal(A, A.T)
        assert np.all(np.diag(A) == 0)
        assert set(np.unique(A)) <= {0.0, 1.0}

    def test_k_bounds(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError):
            knn_graph(X, 0)
        with pytest.raises(ValueError):
            knn_graph(X, 4)


class TestNormalizedLaplacian:
    def test_symmetric_psd_and_bounded_spectrum(self):
        X = np.random.default_rng(3).normal(size=(30, 2))
        L = normalized_laplacian(knn_graph(X, 5))
        np.testing.assert_allclose(L, L.T, atol=1e-14)
        w = np.linalg.eigvalsh(L)
        assert w[0] >= -1e-10
        assert w[-1] <= 2.0 + 1e-10

    def test_connected_graph_nullspace(self):
        # The zero eigenvector of a connected graph is proportional to the
        # square-root degree vector.
        X = np.random.default_rng(4).normal(size=(25, 2))
        A = knn_graph(X, 6)
        L = normalized_laplacian(A)
        w, V = np.linalg.eigh(L)
        assert abs(w[0]) < 1e-10
        deg = np.asarray(A.sum(axis=1)).ravel()
        v = np.sqrt(deg)
        v /= np.linalg.norm(v)
        overlap = abs(v @ V[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_isolated_vertex_raises(self):
        A = np.zeros((3, 3))
        A[0, 1] = A[1, 0] = 1.0
        with pytest.raises(ValueError):
            normalized_laplacian(A)


class TestSpectralEmbed:
    def test_two_cliques_two_zero_eigenvalues(self):
        X = two_clusters()
        emb = spectral_embed(X, k=3, d_out=2)
        vals = np.linalg.eigvalsh(normalized_laplacian(knn_graph(X, 3)))
        assert vals[0] < 1e-8
        assert vals[1] < 1e-8
        # The 2-d embedding is linearly separable: projecting onto the
        # difference of cluster means puts a clean margin between them.
        half = len(X) // 2
        w = emb[:half].mean(axis=0) - emb[half:].mean(axis=0)
        proj_a, proj_b = emb[:half] @ w, emb[half:] @ w
        assert proj_a.min() > proj_b.max() + 0.1 * (proj_a.mean() - proj_b.mean())

    def test_eigenpair_residuals(self):
        X = np.random.default_rng(5).normal(size=(40, 3))
        L = normalized_laplacian(knn_graph(X, 6))
        emb = spectral_embed(X, k=6, d_out=5)
        vals = np.linalg.eigvalsh(L)
        for j in range(5):
            resid = np.linalg.norm(L @ emb[:, j] - vals[j] * emb[:, j])
            assert resid <= 1e-8

    def test_eigenvalues_ascending_from_zero(self):
        X = np.random.default_rng(6).normal(size=(30, 2))
        vals = np.linalg.eigvalsh(normalized_laplacian(knn_graph(X, 5)))[:4]
        assert abs(vals[0]) < 1e-10
        assert np.all(np.diff(vals) >= -1e-12)

    def test_sign_convention_deterministic(self):
        X = np.random.default_rng(7).normal(size=(30, 2))
        a = spectral_embed(X, k=5, d_out=3)
        b = spectral_embed(X, k=5, d_out=3)
        np.testing.assert_array_equal(a, b)
        for j in range(3):
            col = a[:, j]
            assert col[np.argmax(np.abs(col))] > 0
