"""Model tests: likelihood values, derivative correctness against finite
differences, the Fisher identities by exact label enumeration, and the
Newton ERM contract."""

import warnings

import numpy as np
import pytest

from firal import model
from firal.model import (
    FIT_TOL,
    accuracy,
    class_probabilities,
    empirical_objective,
    fit_erm,
    reference_softmax,
    row_sums,
)

from oracle import loss_gradient, nll_loss, point_fisher, predict_proba


def random_instance(rng, n_classes, dim):
    x = rng.normal(size=dim)
    theta = rng.normal(size=(n_classes - 1, dim))
    y = int(rng.integers(1, n_classes + 1))
    return x, y, theta


def fd_gradient(x, y, theta, h=1e-5):
    """Central finite differences of the loss over every parameter."""
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        for j in range(theta.shape[1]):
            tp, tm = theta.copy(), theta.copy()
            tp[i, j] += h
            tm[i, j] -= h
            g[i, j] = (nll_loss(x, y, tp) - nll_loss(x, y, tm)) / (2 * h)
    return g


def fd_hessian(x, y, theta, h=1e-4):
    """Second-order central differences of the loss, vectorized row-major."""
    k, d = theta.shape
    dim = k * d
    H = np.zeros((dim, dim))

    def f(v):
        return nll_loss(x, y, v.reshape(k, d))

    v0 = theta.ravel()
    for a in range(dim):
        for b in range(a, dim):
            ea = np.zeros(dim)
            eb = np.zeros(dim)
            ea[a] = h
            eb[b] = h
            val = (
                f(v0 + ea + eb) - f(v0 + ea - eb)
                - f(v0 - ea + eb) + f(v0 - ea - eb)
            ) / (4 * h * h)
            H[a, b] = H[b, a] = val
    return H


class TestPredictProba:
    def test_zero_parameters_are_uniform(self):
        theta = np.zeros((2, 4))
        p = predict_proba(np.array([1.0, -2.0, 0.5, 3.0]), theta)
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-15)

    def test_binary_zero_logit(self):
        p = predict_proba(np.array([5.0]), np.zeros((1, 1)))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-15)

    def test_hand_computed_three_class(self):
        theta = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = predict_proba(np.array([1.0, 1.0]), theta)
        e = np.e
        np.testing.assert_allclose(p, np.array([e, e, 1.0]) / (2 * e + 1), rtol=1e-14)

    def test_sums_to_one_with_extreme_logits(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.normal(size=(3, 2)) * 250
            x = rng.normal(size=2)
            p = predict_proba(x, theta)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_proba(np.ones(3), np.zeros((1, 2)))


def concat_softmax(logits):
    """The softmax as numpy reductions along the class axis: the formula
    the column-wise kernel replaces."""
    z = np.concatenate([logits, np.zeros((len(logits), 1))], axis=1)
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p


def softmax_logits(rng, n, c):
    """Logits at several scales, with rows at +-800 and mixed signs."""
    L = rng.normal(size=(n, c - 1)) * rng.choice([0.1, 1.0, 10.0, 100.0], size=(n, 1))
    L[:3] = 800.0
    L[3:6] = -800.0
    L[6, ::2] = 800.0
    L[7, ::2] = -800.0
    return L


class TestReferenceSoftmax:
    @pytest.mark.parametrize("c", [2, 3, 4, 5, 6, 7, 8, 10])
    def test_bitwise_equal_to_axis_reductions(self, c):
        # The max is exact in any order.  Below eight classes the running
        # column add is numpy's order; from eight numpy's own sum is used.
        L = softmax_logits(np.random.default_rng(c), 4000, c)
        np.testing.assert_array_equal(reference_softmax(L), concat_softmax(L))

    @pytest.mark.parametrize("c", [2, 5, 10])
    def test_no_rows(self, c):
        p = reference_softmax(np.empty((0, c - 1)))
        assert p.shape == (0, c)
        np.testing.assert_array_equal(p, concat_softmax(np.empty((0, c - 1))))

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6, 7, 8, 10])
    def test_row_sums_bitwise_equal_to_numpy(self, c):
        A = np.random.default_rng(c).normal(size=(3000, c)) * 10.0 ** np.arange(c)
        A[0] = -0.0
        np.testing.assert_array_equal(row_sums(A), np.sum(A, axis=1))
        assert np.signbit(row_sums(A)[0]) == np.signbit(np.sum(A, axis=1)[0])

    @pytest.mark.parametrize("c", [7, 8, 10])
    def test_row_sums_read_any_layout_in_c_order(self, c):
        # numpy sums an F-order array's rows left to right even from eight
        # columns; row_sums pairs them as in C order.  ``out`` holds the same.
        A = np.random.default_rng(c).normal(size=(3000, c)) * 10.0 ** np.arange(c)
        want = np.sum(A, axis=1)
        F = np.asfortranarray(A)
        np.testing.assert_array_equal(row_sums(F), want)
        out = np.full(len(A), np.nan)
        assert row_sums(F, out=out) is out
        np.testing.assert_array_equal(out, want)


class TestNllLoss:
    def test_zero_parameters(self):
        assert nll_loss(np.ones(2), 1, np.zeros((3, 2))) == pytest.approx(np.log(4))
        assert nll_loss(np.ones(2), 2, np.zeros((1, 2))) == pytest.approx(np.log(2))

    def test_hand_computed_three_class(self):
        theta = np.array([[1.0, 0.0], [0.0, 1.0]])
        val = nll_loss(np.array([1.0, 1.0]), 3, theta)
        assert val == pytest.approx(np.log(2 * np.e + 1), rel=1e-14)

    def test_finite_for_saturated_logits(self):
        theta = np.array([[500.0]])
        assert np.isfinite(nll_loss(np.array([1.0]), 2, theta))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            nll_loss(np.ones(2), 4, np.zeros((2, 2)))


class TestLossGradient:
    def test_binary_zero_parameters(self):
        x = np.array([2.0, -1.0])
        g = loss_gradient(x, 1, np.zeros((1, 2)))
        np.testing.assert_allclose(g, -x[None, :] / 2, atol=1e-15)

    def test_zero_mean_over_label_law(self):
        # The label-averaged gradient vanishes at the generating parameter,
        # verified by exact enumeration over the label.
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=d)
            theta = rng.normal(size=(c - 1, d))
            p = predict_proba(x, theta)
            mean = sum(p[y - 1] * loss_gradient(x, y, theta) for y in range(1, c + 1))
            np.testing.assert_allclose(mean, 0.0, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x, y, theta = random_instance(rng, 3, 4)
        g = loss_gradient(x, y, theta)
        fd = fd_gradient(x, y, theta)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-6


class TestPointFisher:
    def test_binary_scalar_form(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        theta = rng.normal(size=(1, 3))
        h = predict_proba(x, theta)[0]
        np.testing.assert_allclose(
            point_fisher(x, theta), h * (1 - h) * np.outer(x, x), rtol=1e-12
        )

    def test_zero_point(self):
        np.testing.assert_array_equal(
            point_fisher(np.zeros(2), np.ones((2, 2))), np.zeros((4, 4))
        )

    def test_fisher_identity_by_enumeration(self):
        # Outer products of the gradient, averaged over the label law,
        # reproduce the loss Hessian exactly.
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=d)
            theta = rng.normal(size=(c - 1, d))
            p = predict_proba(x, theta)
            acc = np.zeros((d * (c - 1),) * 2)
            for y in range(1, c + 1):
                g = loss_gradient(x, y, theta).ravel()
                acc += p[y - 1] * np.outer(g, g)
            np.testing.assert_allclose(acc, point_fisher(x, theta), atol=1e-10)

    def test_matches_finite_difference_hessian(self):
        rng = np.random.default_rng(5)
        x, y, theta = random_instance(rng, 3, 3)
        F = point_fisher(x, theta)
        fd = fd_hessian(x, y, theta)
        assert np.abs(F - fd).max() / np.abs(fd).max() < 1e-5

    def test_label_independent(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=3)
        theta = rng.normal(size=(2, 3))
        for y in (1, 2, 3):
            fd = fd_hessian(x, y, theta)
            assert np.abs(point_fisher(x, theta) - fd).max() < 1e-4

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=4)
            theta = rng.normal(size=(3, 4))
            F = point_fisher(x, theta)
            w = np.linalg.eigvalsh(F)
            assert w[0] >= -1e-10 * max(np.abs(w).max(), 1.0)


class TestFitErm:
    def test_noise_labels_shrink_to_zero(self):
        # Uniform random labels over sign-symmetric features push the
        # population optimum to zero.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10_000, 2))
        y = rng.integers(1, 3, size=10_000)
        res = fit_erm(X, y, 2, ridge=1e-8)
        assert res.converged
        assert np.linalg.norm(res.theta) < 0.1

    def test_single_example_meets_tolerance(self):
        X = np.tile(np.array([[1.0, 2.0]]), (5, 1))
        y = np.ones(5, dtype=int)
        res = fit_erm(X, y, 2, ridge=1e-8)
        assert res.converged
        assert res.grad_norm <= FIT_TOL

    def test_recovers_scalar_parameter(self):
        # Monte-Carlo oracle: repeated fits of 1-d binary data generated
        # at theta = 1 should average to 1 within three standard errors.
        truth = np.array([[1.0]])
        fits = []
        for rep in range(24):
            rng = np.random.default_rng(100 + rep)
            X = rng.normal(size=(10_000, 1)) * 2.0
            p1 = class_probabilities(X, truth)[:, 0]
            y = np.where(rng.random(10_000) < p1, 1, 2)
            fits.append(fit_erm(X, y, 2, ridge=0.0).theta[0, 0])
        fits = np.array(fits)
        stderr = fits.std(ddof=1) / np.sqrt(len(fits))
        assert abs(fits.mean() - 1.0) <= 3 * stderr

    def test_objective_monotone(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 3))
        theta_true = rng.normal(size=(2, 3))
        p = class_probabilities(X, theta_true)
        y = 1 + (rng.random(200)[:, None] >= np.cumsum(p, axis=1)).sum(axis=1)
        # From theta = 0, the iterate after 1, 2, ... Newton steps never
        # raises the loss the fit minimizes (ridge 1e-8).  Every fit capped
        # short of convergence warns once; the full fit does not.
        n_steps = fit_erm(X, y, 3, ridge=1e-8).n_iter
        assert n_steps >= 3
        losses = [empirical_objective(X, y, np.zeros((2, 3)), 1e-8)[0]]
        for n in range(1, n_steps + 1):
            monkeypatch.setattr(model, "FIT_MAX_ITER", n)
            if n < n_steps:
                with pytest.warns(RuntimeWarning, match=f"after n_iter {n} ") as caught:
                    res = fit_erm(X, y, 3, ridge=1e-8)
                assert len(caught) == 1 and not res.converged
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = fit_erm(X, y, 3, ridge=1e-8)
                assert res.converged
            losses.append(empirical_objective(X, y, res.theta, 1e-8)[0])
        assert np.all(np.diff(losses) <= 1e-14)

    def test_one_softmax_per_loss_evaluation(self, monkeypatch):
        # The loss, its gradient and the next Hessian at an iterate share one
        # class_probabilities call, so no parameter is evaluated twice: there
        # is one call at the start and one per line-search trial.  This
        # heavy-tailed draw rejects some trials, so there are more calls
        # than Newton steps plus one.
        rng = np.random.default_rng(19)
        X = rng.standard_cauchy(size=(20, 2))
        y = rng.integers(1, 5, size=20)
        thetas, probabilities = [], model.class_probabilities

        def counting(X, theta):
            thetas.append(np.array(theta))
            return probabilities(X, theta)

        monkeypatch.setattr(model, "class_probabilities", counting)
        res = fit_erm(X, y, 4, ridge=1e-6)
        assert res.converged
        assert len({t.tobytes() for t in thetas}) == len(thetas) > res.n_iter + 1
        assert not thetas[0].any() and any(np.array_equal(t, res.theta) for t in thetas)

    def test_unconverged_fit_warns(self, monkeypatch):
        # The warning names the step count and the gradient norm the
        # result carries.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 3))
        y = rng.integers(1, 4, size=200)
        monkeypatch.setattr(model, "FIT_MAX_ITER", 1)
        with pytest.warns(RuntimeWarning, match="^fit_erm did not converge") as caught:
            res = fit_erm(X, y, 3, ridge=1e-8)
        assert not res.converged and res.n_iter == 1 and res.grad_norm > FIT_TOL
        assert len(caught) == 1
        assert f"grad_norm {res.grad_norm:.3e}" in str(caught[0].message)
        assert "n_iter 1 " in str(caught[0].message)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 2))
        y = rng.integers(1, 3, size=50)
        a = fit_erm(X, y, 2, ridge=1e-8)
        b = fit_erm(X, y, 2, ridge=1e-8)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_ridge_zero_still_runs(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(500, 2))
        y = rng.integers(1, 4, size=500)
        res = fit_erm(X, y, 3, ridge=0.0)
        assert np.all(np.isfinite(res.theta))

    @pytest.mark.parametrize("extra", ["duplicate", "zero"])
    def test_ridge_zero_singular_hessian(self, monkeypatch, extra):
        # A duplicated or zero feature column makes every Hessian exactly
        # singular at ridge 0, so each Newton system takes the floored
        # eigendecomposition; the fit still converges, to the loss of the
        # fit without that column.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 2))
        y = rng.integers(1, 4, size=300)
        column = X[:, :1] if extra == "duplicate" else np.zeros((300, 1))
        Xs = np.hstack([X, column])
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: eighs.append(1) or eigh(A))
        res = fit_erm(Xs, y, 3, ridge=0.0)
        assert res.converged and res.grad_norm <= FIT_TOL
        assert len(eighs) >= res.n_iter
        monkeypatch.undo()
        reduced = fit_erm(X, y, 3, ridge=0.0)
        assert empirical_objective(Xs, y, res.theta)[0] == pytest.approx(
            empirical_objective(X, y, reduced.theta)[0], rel=0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_erm(np.ones((3, 2)), np.array([1, 2, 5]), 3, ridge=1e-8)
        with pytest.raises(ValueError):
            fit_erm(np.array([[np.inf, 0.0]]), np.array([1]), 2, ridge=1e-8)
        for ridge in (-1e-8, np.nan, np.inf):
            with pytest.raises(ValueError, match="^ridge must"):
                fit_erm(np.ones((3, 2)), np.array([1, 2, 1]), 2, ridge=ridge)


class TestHelpers:
    def test_accuracy(self):
        X = np.array([[1.0], [-1.0]])
        theta = np.array([[5.0]])
        # Positive point scores class 1, negative point class 2.
        assert accuracy(X, np.array([1, 2]), theta) == 1.0
        assert accuracy(X, np.array([2, 1]), theta) == 0.0

    def test_empirical_loss_matches_mean_nll(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 2))
        y = rng.integers(1, 3, size=20)
        theta = rng.normal(size=(1, 2))
        direct = np.mean([nll_loss(x, yy, theta) for x, yy in zip(X, y)])
        assert empirical_objective(X, y, theta)[0] == pytest.approx(direct, rel=1e-12)

    def test_empirical_objective_gradient_and_probabilities(self):
        # The gradient is the mean per-point gradient plus the ridge term,
        # and P is the softmax the loss was taken from.
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 3))
        y = rng.integers(1, 4, size=20)
        theta = rng.normal(size=(2, 3))
        _, grad, P = empirical_objective(X, y, theta, ridge=0.5)
        direct = np.mean([loss_gradient(x, yy, theta) for x, yy in zip(X, y)], axis=0)
        np.testing.assert_allclose(grad, direct + 0.5 * theta, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(P, class_probabilities(X, theta))
