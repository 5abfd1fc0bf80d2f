"""Synthetic data protocols: design distributions, ground-truth parameters,
label sampling, and Monte-Carlo excess risk.

The reference design is an isotropic Gaussian with variance 100 per
coordinate.  A sampling distribution is derived from it either by scaling
the covariance (dilation) or by shifting the mean along a fixed diagonal
direction (translation).  :func:`dilation_for_fir` and
:func:`translation_for_fir` calibrate those knobs so the information
ratio hits each target at the smallest knob that reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fisher import fir, pool_hessian, sigma_max
from .model import class_probabilities, fit_erm, reference_softmax, row_sums

FAMILIES = ("gaussian", "laplace", "student_t")
BASE_VARIANCE = 100.0
SWEEP_RIDGE = 1e-8  # the ridge of the sweep's fits; changing it changes its output
BALANCE_SAMPLES = 100_000
BALANCE_ATTEMPTS = 100
BLOCK = 8192  # rows per block of the sampling layers, a power of two; no output depends on it


@dataclass(frozen=True)
class DesignSpec:
    """A point distribution: family, mean, and PD scale matrix.

    ``family`` is one of ``gaussian``, ``laplace``, ``student_t``.  The
    Laplace family is the elliptical construction ``mean + sqrt(W) L g``
    with ``W ~ Exp(1)``, ``g`` standard normal, and ``L`` the Cholesky
    factor of ``scale``.  Student-t needs ``dof > 2`` (default 5).
    """

    family: str
    mean: np.ndarray
    scale: np.ndarray
    dof: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        scale = np.asarray(self.scale, dtype=float)
        if scale.shape != (mean.size, mean.size):
            raise ValueError("scale must be (d, d)")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError:
            raise ValueError("scale matrix must be positive definite") from None
        if self.family == "student_t":
            if self.dof is None:
                object.__setattr__(self, "dof", 5.0)
            elif self.dof <= 2:
                raise ValueError("student_t needs dof > 2")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self):
        return self.mean.size


def gaussian_design(dim, variance=BASE_VARIANCE, dilation=1.0):
    """Centred isotropic Gaussian spec, optionally dilated."""
    return DesignSpec("gaussian", np.zeros(dim), dilation * variance * np.eye(dim))


def translation_direction(dim):
    """Unit direction ``(1/sqrt(2), 1/sqrt(2), 0, ...)`` used by shifts."""
    if dim < 2:
        raise ValueError("translation direction needs dim >= 2")
    a = np.zeros(dim)
    a[0] = a[1] = 1.0 / np.sqrt(2.0)
    return a


def translated_design(dim, tau):
    """Reference Gaussian design shifted by ``tau`` along the diagonal
    direction."""
    return DesignSpec("gaussian", tau * translation_direction(dim),
                      BASE_VARIANCE * np.eye(dim))


def _row_blocks(n):
    """Slices that cover ``range(n)`` in blocks of about :data:`BLOCK` rows.

    A block's rows of a product with a fixed right operand equal those rows
    of the whole product only if BLAS treats them alike.  Its kernels work
    on groups of a few rows, with other code for the rows left over, and
    numpy sends a single row to ``gemv``; OpenBLAS also multiplies small
    products on a path of their own.  So every block starts at a multiple
    of ``BLOCK``, a power of two, and a remainder shorter than half a block
    joins the block before it.
    """
    starts = list(range(0, n, BLOCK))
    if len(starts) > 1 and n - starts[-1] < BLOCK // 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def sample_pool(spec: DesignSpec, n, seed):
    """Draw ``n`` i.i.d. points from a design spec, reproducibly.

    Holds one ``(n, d)`` array: the standard normals are drawn whole, then
    the family's per-row scalars, and each block of rows is mapped to its
    points in place (``@ L.T``, the scalar, ``+ mean``), the same values as
    the whole-array expressions.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(spec.scale)
    X = rng.standard_normal((n, spec.dim))
    if spec.family == "laplace":
        root = np.sqrt(rng.exponential(1.0, size=n))
    elif spec.family == "student_t":
        root = np.sqrt(rng.chisquare(spec.dof, size=n) / spec.dof)
    for rows in _row_blocks(n):
        block = X[rows]
        block[...] = block @ L.T
        if spec.family == "laplace":
            block *= root[rows, None]
        elif spec.family == "student_t":
            block /= root[rows, None]
        block += spec.mean
    return X


def sample_labels(X, theta_star, seed):
    """Draw one label per point from the model at ``theta_star``.

    A row's rounded cdf can end just below 1, so only the first ``c - 1``
    cdf columns are compared: a draw above the last one is class ``c``.
    """
    P = class_probabilities(X, theta_star)
    rng = np.random.default_rng(seed)
    u = rng.random(len(P))
    cdf = np.cumsum(P, axis=1)
    return 1 + (u[:, None] >= cdf[:, :-1]).sum(axis=1).astype(int)


def _equicorrelated_rows(n_rows, dim, gamma, rng):
    """Unit rows with common pairwise inner product ``gamma``."""
    G = (1.0 - gamma) * np.eye(n_rows) + gamma * np.ones((n_rows, n_rows))
    L = np.linalg.cholesky(G)
    # Random orientation: orthonormal rows from a QR factorization.
    Q, _ = np.linalg.qr(rng.standard_normal((dim, n_rows)))
    return L @ Q.T


def _reference_share(gamma, w, logit_scale):
    """Mean probability of the reference class for equicorrelated logits."""
    k = w.shape[1]
    G = (1.0 - gamma) * np.eye(k) + gamma * np.ones((k, k))
    p = reference_softmax(logit_scale * (w @ np.linalg.cholesky(G).T))
    return float(p[:, -1].mean())


def _class_frequencies(theta, rng):
    """Mean predicted probabilities over :data:`BALANCE_SAMPLES` draws of
    the reference design, drawn a block at a time.

    numpy sums an ``(n, c)`` array over axis 0 row after row, so stacking
    the running total on each block keeps the order, and the value, of one
    sum over all the draws.
    """
    k, dim = theta.shape
    total = np.zeros(k + 1)
    for rows in _row_blocks(BALANCE_SAMPLES):
        X = np.sqrt(BASE_VARIANCE) * rng.standard_normal((rows.stop - rows.start, dim))
        total = np.add.reduce(np.vstack([total, class_probabilities(X, theta)]), axis=0)
    return total / BALANCE_SAMPLES


def make_theta_star(n_classes, dim, seed):
    """Ground-truth parameter with unit rows and near-balanced classes.

    Rows are unit-norm with a common pairwise inner product chosen so the
    reference class captures roughly ``1/c`` of the mass under the
    isotropic variance-100 Gaussian; the remaining classes balance by
    exchangeability.  Each of up to :data:`BALANCE_ATTEMPTS` attempts
    redraws the row orientation, and the empirical class frequencies (mean
    predicted probabilities over :data:`BALANCE_SAMPLES` draws) must lie
    within ``0.25/c`` of ``1/c``.
    """
    c = int(n_classes)
    if c < 2 or dim < 2:
        raise ValueError("need n_classes >= 2 and dim >= 2")
    if c - 1 > dim:
        raise ValueError("need n_classes - 1 <= dim for unit rows")
    balance_tol = 0.25 / c
    k = c - 1
    logit_scale = np.sqrt(BASE_VARIANCE)
    rng = np.random.default_rng(seed)

    if k == 1:
        gamma = 0.0
    else:
        w = rng.standard_normal((50_000, k))
        lo, hi = 0.0, 1.0 - 1e-6
        # Reference share grows with the common correlation; bisect to 1/c.
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _reference_share(mid, w, logit_scale) < 1.0 / c:
                lo = mid
            else:
                hi = mid
        gamma = 0.5 * (lo + hi)

    best_theta, best_dev = None, np.inf
    for _ in range(BALANCE_ATTEMPTS):
        theta = _equicorrelated_rows(k, dim, gamma, rng)
        dev = float(np.abs(_class_frequencies(theta, rng) - 1.0 / c).max())
        if dev < best_dev:
            best_theta, best_dev = theta, dev
        if dev <= balance_tol:
            return theta
    raise ValueError(
        f"class balance not achieved: best deviation {best_dev:.4f} "
        f"exceeds tolerance {balance_tol:.4f} after {BALANCE_ATTEMPTS} attempts"
    )


def mc_excess_risk(thetas, theta_star, spec_p: DesignSpec, n_points=50_000, seed=0):
    """Monte-Carlo estimate of the population log-loss gap to the truth,
    for each fitted parameter in ``thetas``.

    Draws ``n_points`` points and enumerates the labels exactly: each
    point contributes the conditional expectation of the log-loss gap, a
    KL divergence, so the estimate carries no label noise.  The points and
    the truth's log-probabilities are computed once and shared by every
    parameter, so each pair is what a one-parameter call returns.  Holds
    the ``(n_points, d)`` points and one block of rows of their
    probabilities at a time.  Returns one ``(estimate, stderr)`` per
    parameter.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # ss.spawn(1)[0] of a fresh sequence, without advancing the caller's.
    X = sample_pool(spec_p, n_points,
                    np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (0,)))
    per_point = np.empty((len(thetas), n_points))
    for rows in _row_blocks(n_points):
        block = X[rows]
        P_star = class_probabilities(block, theta_star)
        log_star = np.log(np.maximum(P_star, 1e-300))
        for kl, theta_n in zip(per_point, thetas):
            log_n = np.log(np.maximum(class_probabilities(block, theta_n), 1e-300))
            kl[rows] = row_sums(P_star * (log_star - log_n))
    return [(float(kl.mean()), float(kl.std(ddof=1) / np.sqrt(n_points)))
            for kl in per_point]


# Bisection stops once a knob's ratio is within RATIO_TOL (relative) of its
# target, or after 60 steps.  Dilation walks NU_GRID, translation TAU_GRID.
RATIO_TOL = 1e-3
NU_GRID = np.logspace(-2.0, 3.0, 41)
TAU_GRID = np.concatenate([[0.0], 2.0 ** np.arange(20)])


def _bisect(ratio, target, lo, hi, mid, rising):
    """Knob in ``[lo, hi]`` whose ``ratio`` is within :data:`RATIO_TOL` of
    ``target``; ``mid(lo, hi)`` splits the bracket and ``rising`` says
    whether the ratio grows with the knob on it."""
    for _ in range(60):
        x = mid(lo, hi)
        v = ratio(x)
        if abs(v - target) <= RATIO_TOL * target:
            return float(x)
        if (v < target) if rising else (v > target):
            lo = x
        else:
            hi = x
    return float(mid(lo, hi))


def _calibrate(targets, theta_star, dim, n_mc, seed, grid, design, mid):
    """The smallest knob of ``grid``, per target, at which the ratio of
    ``design(base, knob)`` to one base draw of the reference design reaches it.

    The ratio is evaluated once per grid knob, in increasing order, until
    every target has a knob, the ratio rises past the largest target, or a
    knob's design Fisher matrix is singular, which ends the walk.  A
    target within :data:`RATIO_TOL` of the first ratio takes the first
    knob; any other is bisected, split by ``mid``, in the first grid
    interval whose end ratios straddle it (ends included).  Returns the
    knobs, None where a target is not reached, and the ratios walked.
    """
    base = np.sqrt(BASE_VARIANCE) * np.random.default_rng(seed).standard_normal((n_mc, dim))
    Hp = pool_hessian(base, theta_star)

    def ratio(knob):
        return fir(pool_hessian(design(base, knob), theta_star), Hp)

    vals = [ratio(grid[0])]
    knobs = [float(grid[0]) if abs(vals[0] - t) <= RATIO_TOL * t else None
             for t in targets]
    for lo, x in zip(grid, grid[1:]):
        if None not in knobs:
            break
        try:
            v = ratio(x)
        except np.linalg.LinAlgError:
            break  # the design saturates: no larger knob has a ratio
        for j, target in enumerate(targets):
            if knobs[j] is None and (vals[-1] - target) * (v - target) <= 0:
                knobs[j] = _bisect(ratio, target, lo, x, mid, rising=v > vals[-1])
        vals.append(v)
        if v > vals[-2] and v > max(targets):
            break
    return knobs, vals


def _reached(targets, knobs, vals):
    """``knobs``; raises ``ValueError`` for the first target without one."""
    for target, knob in zip(targets, knobs):
        if knob is None:
            raise ValueError(f"target ratio {target:.3g} not reached; the ratios "
                             f"on the grid span [{min(vals):.3g}, {max(vals):.3g}]")
    return knobs


def dilation_for_fir(targets, theta_star, dim, n_mc=100_000, seed=0):
    """Covariance multiplier, per target, whose sampling design hits it.

    The ratio is U-shaped in the multiplier: it falls from the shrinking
    branch down to a strictly positive floor, then rises again as
    saturation starves the boundary-normal curvature.  Each target is
    reached first on the falling branch of :data:`NU_GRID`, refined by
    geometric bisection.  Targets below the floor get the floor's
    multiplier; targets above every grid ratio raise ``ValueError``.
    """
    knobs, vals = _calibrate(targets, theta_star, dim, n_mc, seed, NU_GRID,
                             lambda base, nu: np.sqrt(nu) * base,
                             lambda lo, hi: np.sqrt(lo * hi))
    knobs = [float(NU_GRID[int(np.argmin(vals))]) if t < min(vals) else k
             for t, k in zip(targets, knobs)]
    return _reached(targets, knobs, vals)


def translation_for_fir(targets, theta_star, dim, n_mc=100_000, seed=0):
    """Mean shift magnitude, per target, whose sampling design hits it.

    The ratio is ``d(c-1)`` at zero shift but is not monotone in it: it
    first dips below ``d(c-1)`` and only then grows (at ``c = 2``,
    ``d = 8``: 8.0 at 0, 7.0 at 128, 7.9 at 2048, 11.3 at 4096).  Targets
    are refined by arithmetic bisection: ``d(c-1)`` itself gets 0, and a
    target inside the dip a shift on its falling side.  A target below the
    dip raises ``ValueError``; so does one above the ratios of
    :data:`TAU_GRID` that are walked before a shift saturates the design.
    """
    a = translation_direction(dim)
    return _reached(targets, *_calibrate(targets, theta_star, dim, n_mc, seed, TAU_GRID,
                                          lambda base, tau: base + tau * a,
                                          lambda lo, hi: 0.5 * (lo + hi)))


@dataclass
class SweepPoint:
    """One measured setting of the risk-versus-ratio sweep."""

    mode: str
    target_fir: float
    scale_param: float       # covariance multiplier or shift magnitude
    realized_fir: float
    sigma: float
    n: int
    seed: int
    excess_risk: float
    risk_stderr: float


def risk_ratio_sweep(n_classes, dim, targets, n, seeds, mode="dilation",
                     theta_seed=0, risk_points=50_000, n_mc=100_000):
    """Measure excess risk across sampling designs spanning a ratio range.

    The design knobs of all targets are calibrated in one call.  Then for
    each seed and target: draw ``n`` labeled samples from the design and
    fit them with ridge :data:`SWEEP_RIDGE`; and for each seed, estimate
    the excess risk of every target's fit on one reference-design draw.
    Returns a list of :class:`SweepPoint`, target by target, seeds in order.
    """
    theta_star = make_theta_star(n_classes, dim, theta_seed)
    if mode == "dilation":
        knobs = dilation_for_fir(targets, theta_star, dim, n_mc=n_mc)
        specs = [gaussian_design(dim, dilation=k) for k in knobs]
    elif mode == "translation":
        knobs = translation_for_fir(targets, theta_star, dim, n_mc=n_mc)
        specs = [translated_design(dim, k) for k in knobs]
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")

    spec_p = gaussian_design(dim)
    Hp = pool_hessian(sample_pool(spec_p, n_mc, 10_001), theta_star)
    designs = []  # the SweepPoint fields that all rows of a target share
    for target, knob, spec_q in zip(targets, knobs, specs):
        Hq = pool_hessian(sample_pool(spec_q, n_mc, 10_001), theta_star)
        designs.append(dict(mode=mode, target_fir=float(target), scale_param=float(knob),
                            realized_fir=float(fir(Hq, Hp)),
                            sigma=float(sigma_max(Hq, Hp)), n=int(n)))

    # Seeds outside targets, so every target shares one risk draw per seed.
    rows = [[] for _ in designs]
    for seed in seeds:
        ss = np.random.SeedSequence([int(seed), 7]).spawn(3)
        thetas = []
        for spec_q in specs:
            Xq = sample_pool(spec_q, n, ss[0])
            yq = sample_labels(Xq, theta_star, ss[1])
            thetas.append(fit_erm(Xq, yq, n_classes, ridge=SWEEP_RIDGE).theta)
        risks = mc_excess_risk(thetas, theta_star, spec_p,
                               n_points=risk_points, seed=ss[2])
        for design, target_rows, (risk, se) in zip(designs, rows, risks):
            target_rows.append(SweepPoint(**design, seed=int(seed),
                                          excess_risk=risk, risk_stderr=se))
    return [point for target_rows in rows for point in target_rows]
