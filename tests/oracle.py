"""Per-point and dense references the tests check the package against.

Single-point probabilities, loss, gradient and the ``np.kron`` Fisher
matrix :func:`point_fisher`; the dense candidate stack built from it
point by point, independently of the factored
:class:`firal.model.KronFishers` the selectors read; the design objective
on such a stack; the per-candidate Woodbury score; the exact
relaxation gradient; the random round that the selection tests share,
built by :func:`firal.round_fishers` and taken through the relaxation and
the whitening; and the rounding at one rate that scores every candidate,
with its scalar trace-normalizing root, which the lockstep pass of
:func:`firal.sparsify.select_batch` must reproduce bit for bit; and the
three sampling layers of :mod:`firal.synth` computed on whole arrays, which
its row-block versions must reproduce byte for byte.
"""

import numpy as np

from firal import round_fishers, synth
from firal.fisher import fir, pool_hessian, whiten_factors
from firal.model import PROB_FLOOR, _as_theta, class_probabilities, row_sums
from firal.linalg import inv_psd
from firal.relax import _inverse_parts, relax_solve
from firal.sparsify import NU_MAX_ITER, NU_RESIDUAL_TOL, AuditReport, woodbury_scores


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


def nu_root(lam, d_tilde):
    """The offset root of ``sum_j (x + mu_j)^{-2} = 1`` for one spectrum, by
    the scalar Newton iteration that :func:`firal.sparsify._nu_root` runs on
    every row."""
    lam = np.maximum(np.asarray(lam, dtype=float), 0.0)
    if not np.all(np.isfinite(lam)):
        raise FloatingPointError("nu root: the cumulative loss has non-finite eigenvalues")
    lam_min = float(lam.min())
    mu = lam - lam_min
    hi = float(np.sqrt(d_tilde))
    r_hi = float(np.sum((hi + mu) ** -2)) - 1.0
    if not r_hi <= NU_RESIDUAL_TOL:
        raise FloatingPointError(f"nu root: upper bracket residual {r_hi:.3e} is not <= 0")
    if r_hi >= -NU_RESIDUAL_TOL:
        return hi
    x = 1.0
    for _ in range(NU_MAX_ITER):
        inv = 1.0 / (x + mu)
        s = float(np.sum(inv * inv))
        r = s - 1.0
        if r <= NU_RESIDUAL_TOL:
            if r < -NU_RESIDUAL_TOL:
                raise FloatingPointError(f"nu root: Newton overshot the root (residual {r:.3e})")
            return x
        x += s * (s**0.5 - 1.0) / float(np.sum(inv**3))
        if not 1.0 <= x <= hi:
            raise FloatingPointError(f"nu root: Newton iterate {x!r} left [1, {hi!r}]")
    raise FloatingPointError(f"nu root: no convergence in {NU_MAX_ITER} Newton steps")


def ftrl_action(cum_loss, eta):
    """``(A^{-1/2}, nu, Tr A^{1/2})`` for one cumulative loss and one rate."""
    cum_loss = np.asarray(cum_loss, dtype=float)
    d_tilde = cum_loss.shape[0]
    lam, V = np.linalg.eigh(0.5 * eta * (cum_loss + cum_loss.T))
    lam = np.maximum(lam, 0.0)
    lam_min = float(lam.min())
    x = nu_root(lam, d_tilde)
    shifted = x + (lam - lam_min)
    A_inv_sqrt = (V * shifted) @ V.T
    return 0.5 * (A_inv_sqrt + A_inv_sqrt.T), x - lam_min, float(np.sum(1.0 / shifted))


def select_batch_one_rate(budget, eta, factors, mask_selected=True):
    """The rounding at one rate, every candidate scored at every step and
    the pick taken by ``np.argmax``: ``(indices, report)`` as one entry of
    :func:`firal.sparsify.select_batch` gives them."""
    D = factors.shift_w
    P = factors.factors
    m, dt, _ = P.shape

    cum = np.zeros((dt, dt))
    chosen = np.empty(budget, dtype=int)
    min_eig = np.empty(budget)
    gain_chosen = np.empty(budget)
    gain_max = np.empty(budget)
    masked = np.zeros(m, dtype=bool)

    for t in range(budget):
        A_inv_sqrt, _, tr_a_sqrt = ftrl_action(cum, eta)
        B_sqrt = inv_psd(A_inv_sqrt + eta * D)

        scores = woodbury_scores(factors.by_class, B_sqrt, eta)
        tr_gap = tr_a_sqrt - float(np.trace(B_sqrt))
        gain_max[t] = tr_gap + eta * scores.max()

        cand = scores.copy()
        if mask_selected:
            cand[masked] = -np.inf
        i_t = int(np.argmax(cand))
        chosen[t] = i_t
        masked[i_t] = True

        gain_chosen[t] = tr_gap + eta * scores[i_t]

        cum = cum + D + P[i_t] @ P[i_t].T
        min_eig[t] = float(np.linalg.eigvalsh(0.5 * (cum + cum.T))[0])

    eta, root_d = float(eta), np.sqrt(dt)
    lower = -2.0 * root_d / eta + np.cumsum(gain_chosen) / eta
    margin_trace = None
    if not mask_selected:
        bound = (1.0 - eta / (2.0 * budget)) / (budget + eta * root_d)
        margin_trace = gain_max / eta - bound
    return chosen, AuditReport(min_eig - lower, margin_trace, float(min_eig[-1]))


def sample_pool(spec, n, seed):
    """The points of :func:`firal.synth.sample_pool`, each step taken on the
    whole ``(n, d)`` array."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, spec.dim))
    Y = g @ np.linalg.cholesky(spec.scale).T
    if spec.family == "laplace":
        Y = np.sqrt(rng.exponential(1.0, size=n))[:, None] * Y
    elif spec.family == "student_t":
        Y = Y / np.sqrt(rng.chisquare(spec.dof, size=n) / spec.dof)[:, None]
    return Y + spec.mean


def class_frequencies(theta, rng):
    """The balance check's class frequencies: the axis-0 mean of the
    probabilities of one ``(BALANCE_SAMPLES, d)`` reference draw."""
    X = np.sqrt(synth.BASE_VARIANCE) * rng.standard_normal((synth.BALANCE_SAMPLES, theta.shape[1]))
    return class_probabilities(X, theta).mean(axis=0)


def make_theta_star(n_classes, dim, seed):
    """:func:`firal.synth.make_theta_star` on :func:`class_frequencies`;
    None where no attempt balances."""
    c, k = n_classes, n_classes - 1
    logit_scale = np.sqrt(synth.BASE_VARIANCE)
    rng = np.random.default_rng(seed)
    gamma = 0.0
    if k > 1:
        w = rng.standard_normal((50_000, k))
        lo, hi = 0.0, 1.0 - 1e-6
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if synth._reference_share(mid, w, logit_scale) < 1.0 / c:
                lo = mid
            else:
                hi = mid
        gamma = 0.5 * (lo + hi)
    for _ in range(synth.BALANCE_ATTEMPTS):
        theta = synth._equicorrelated_rows(k, dim, gamma, rng)
        if np.abs(class_frequencies(theta, rng) - 1.0 / c).max() <= 0.25 / c:
            return theta
    return None


def mc_excess_risk(thetas, theta_star, spec_p, n_points, seed):
    """:func:`firal.synth.mc_excess_risk` for an integer seed, every
    parameter's per-point KL divergence computed over all the points at
    once."""
    X = sample_pool(spec_p, n_points, np.random.SeedSequence(seed, spawn_key=(0,)))
    P_star = class_probabilities(X, theta_star)
    log_star = np.log(np.maximum(P_star, 1e-300))
    risks = []
    for theta_n in thetas:
        log_n = np.log(np.maximum(class_probabilities(X, theta_n), 1e-300))
        kl = row_sums(P_star * (log_star - log_n))
        risks.append((float(kl.mean()), float(kl.std(ddof=1) / np.sqrt(n_points))))
    return risks
