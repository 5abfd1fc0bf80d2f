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

from .fisher import fir, sigma_max
from .model import (PROB_FLOOR, KronFishers, class_probabilities, fit_erm, row_sums,
                    shifted_exp)

FAMILIES = ("gaussian", "laplace", "student_t")
BASE_VARIANCE = 100.0
SWEEP_RIDGE = 1e-8  # the ridge of the sweep's fits; changing it changes its output
BALANCE_SAMPLES = 100_000
BALANCE_ATTEMPTS = 100
# Rows per block of the sampling layers and of the sweep's Fisher sums, a
# power of two; only the rounding of those sums depends on it.
BLOCK = 8192


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


def gaussian_design(dim, dilation=1.0):
    """Centred isotropic Gaussian spec, variance ``dilation * BASE_VARIANCE``."""
    return DesignSpec("gaussian", np.zeros(dim), dilation * BASE_VARIANCE * np.eye(dim))


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
    the family's per-row scalars, and :func:`_map_normals` turns them into
    the points in place.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, spec.dim))
    root = None
    if spec.family == "laplace":
        root = np.sqrt(rng.exponential(1.0, size=n))
    elif spec.family == "student_t":
        root = np.sqrt(rng.chisquare(spec.dof, size=n) / spec.dof)
    return _map_normals(X, spec, root)


def _map_normals(X, spec: DesignSpec, root=None):
    """Map standard normals ``X`` to points of ``spec`` in place and return
    ``X``; ``root`` holds the per-row scalars of a heavy-tailed family.

    Each block of rows is mapped in turn (``@ L.T``, the scalar, ``+
    mean``), the same values as the whole-array expressions.
    """
    L = np.linalg.cholesky(spec.scale)
    for rows in _row_blocks(len(X)):
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


def _reference_shares(w, logit_scale):
    """``share(gamma)``: the mean probability of the reference class at the
    logits ``logit_scale * (w @ cholesky(G).T)``, ``G`` the ``(k, k)``
    matrix with unit diagonal and ``gamma`` elsewhere, ``k`` the columns of
    ``w``.

    Every call writes into one ``(n, k + 1)`` buffer, which holds the
    logits and then their exps, and two ``(n,)`` ones, allocated here; only
    the reference column is divided by the row sum.  The buffer is in
    Fortran order, so each column is contiguous; the product written into
    it has the bits of ``w @ cholesky(G).T``.  The share equals, bit for
    bit, the mean of the last column of :func:`reference_softmax`.
    """
    n, k = w.shape
    p = np.empty((k + 1, n)).T
    top, total = np.empty(n), np.empty(n)

    def share(gamma):
        G = (1.0 - gamma) * np.eye(k) + gamma * np.ones((k, k))
        np.matmul(w, np.linalg.cholesky(G).T, out=p[:, :k])
        p[:, k] = 0.0
        np.multiply(logit_scale, p, out=p)
        shifted_exp(p, top)
        ref = p[:, k]
        np.divide(ref, row_sums(p, out=total), out=ref)
        return float(ref.mean())

    return share


def _balanced_gamma(c, rng):
    """Common correlation of the rows at which the reference class takes
    ``1/c`` of the mass of the isotropic variance-100 Gaussian: 40 steps of
    bisection on 50,000 standard normals of ``rng``, drawn only if
    ``c > 2``.  The share grows with the correlation; at ``c = 2`` it is
    ``1/2`` at any, and the correlation is 0."""
    k = c - 1
    if k == 1:
        return 0.0
    share = _reference_shares(rng.standard_normal((50_000, k)), np.sqrt(BASE_VARIANCE))
    lo, hi = 0.0, 1.0 - 1e-6
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if share(mid) < 1.0 / c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    rng = np.random.default_rng(seed)
    gamma = _balanced_gamma(c, rng)  # its buffers are freed before the attempts

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
        log_star = np.log(np.maximum(P_star, PROB_FLOOR))
        for kl, theta_n in zip(per_point, thetas):
            log_n = np.log(np.maximum(class_probabilities(block, theta_n), PROB_FLOOR))
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


def _blocked_fisher(base, theta_star, design=None, knob=None):
    """``pool_hessian`` of ``design(base, knob)``, or of ``base`` without a
    design, as a sum over the row blocks of ``base``: a block's design
    points, probabilities and weighted copy are all that is held at once.
    Over one block (fewer than 1.5 :data:`BLOCK` rows) the sum is the
    whole-array value bit for bit; over more it differs at rounding level.
    """
    n = len(base)
    H = 0.0
    for rows in _row_blocks(n):
        X = base[rows] if design is None else design(base[rows], knob)
        H += KronFishers.at(X, theta_star).aggregate(np.full(len(X), 1.0 / n))
    return H


def _calibrate(targets, theta_star, dim, n_mc, seed, grid, design, mid):
    """The smallest knob of ``grid``, per target, at which the ratio of
    ``design(base, knob)`` to one base draw of the reference design reaches it.

    The ratio is evaluated once per grid knob, in increasing order, until
    every target has a knob, the ratio rises past the largest target, or a
    knob's design Fisher matrix is singular, which ends the walk.  A
    target within :data:`RATIO_TOL` of the first ratio takes the first
    knob; any other is bisected, split by ``mid``, in the first grid
    interval whose end ratios straddle it (ends included).  Both Fisher
    matrices are :func:`_blocked_fisher` sums; the walk and the bisection
    read the ratios only through comparisons.  Returns the knobs, None
    where a target is not reached, and the ratios walked.
    """
    base = sample_pool(gaussian_design(dim), n_mc, seed)
    Hp = _blocked_fisher(base, theta_star)

    def ratio(knob):
        return fir(_blocked_fisher(base, theta_star, design, knob), Hp)

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
    The realized ratio and ``sigma`` of a target compare the
    :func:`_blocked_fisher` sums of its design and of the reference design
    over ``n_mc`` points.
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

    # sample_pool(spec, n_mc, 10_001) for every spec: the Gaussian specs
    # share their standard normals, so these are drawn once, and each block
    # is mapped from a copy.
    spec_p = gaussian_design(dim)
    normals = np.random.default_rng(10_001).standard_normal((n_mc, dim))
    Hp, *Hqs = [_blocked_fisher(normals, theta_star,
                                lambda block, spec: _map_normals(block.copy(), spec), spec)
                for spec in [spec_p] + specs]
    del normals  # freed before the fits and the risk draws
    designs = []  # the SweepPoint fields that all rows of a target share
    for target, knob, Hq in zip(targets, knobs, Hqs):
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
