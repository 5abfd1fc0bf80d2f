"""Continuous relaxation of the subset-design problem.

The budgeted 0/1 selection is relaxed to nonnegative weights summing to
the budget, ``z = budget * kappa`` with ``kappa`` on the simplex, and
``f(kappa) = tr(Sigma(kappa)^{-1} Hp0)`` is minimized to a certificate.

The solver is the active-set scheme of Yang, Biedermann & Tang (JASA
2013).  Projected Newton steps move the weights of a small support; one
full-pool gradient per outer round then adds the candidates whose
gradient is below ``<g, kappa>``, at most ``max(SUPPORT_BLOCK, half the
weighted points)`` of them, most negative first.  A support is solved
until its gradient spread is at most ``INNER_GAP_FRAC`` times the
full-pool gap the last round measured, or ``0.1 * GAP_TOL * f`` if that
is larger: an intermediate support need not be solved exactly, since the
next full gradient grows it.  Where a near-singular reduced Hessian
gives a Newton move that cannot descend, one pairwise Frank-Wolfe step
(Lacoste-Julien & Jaggi, NeurIPS 2015) moves weight from the weighted
point with the largest gradient to the point with the smallest.  The
solve stops when the Frank-Wolfe gap ``<g, kappa> - min_i g_i``, an
upper bound on ``f - f*`` for this convex objective (Jaggi 2013), is at
most ``GAP_TOL * f`` after a support solved to ``0.1 * GAP_TOL * f``;
a gap that certifies a looser solve gets one more round.  It raises
``FloatingPointError`` when it cannot get there within ``MAX_NEWTON_STEPS``,
and ``LinAlgError`` where the whole pool at uniform weights is singular.
The box ``z_i <= 1`` of the relaxed program is not imposed; entries above
it are counted on the result.

The candidates are read only through :class:`~firal.model.KronFishers`.
A support is the pool's ``take`` of its points, and ``sigma`` and the
gradient are its ``aggregate`` and ``-inner``, as over the whole pool;
the support's ``factors`` are formed only for a Newton step's Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import cholesky_pd, solve_psd, symmetrize

GAP_TOL = 1e-8
MAX_NEWTON_STEPS = 500
# The first support holds the max(2 ceil(d_tilde / k), SUPPORT_BLOCK)
# candidates with the most negative gradient at uniform weights; an outer
# round keeps the weighted points and adds at most max(SUPPORT_BLOCK,
# half of them): fewer entrants make a smaller reduced Hessian, and the
# next full gradient admits any that were left out.
SUPPORT_BLOCK = 20
# An intermediate support is solved until its gradient spread is at most
# this fraction of the full-pool gap the last outer round measured, since
# the next full gradient grows it anyway; only the support that certifies
# is solved to 0.1 * GAP_TOL * f.  On the 15 relaxations of al_wide_M
# seeds 0-4, 0.1 and 0.3 took times within 4%, and 0.01 and 0.5 about 15%
# longer; 0 (exact inner solves) took 45% longer.
INNER_GAP_FRAC = 0.1
ARMIJO = 1e-4
# A descent step whose predicted decrease is at most this fraction of f is
# below what f can resolve: it is taken up to its blocking point unchecked.
RESOLVE_REL = 1e-12


def _inverse_parts(sigma, Hp0):
    """``tr(sigma^{-1} Hp0)``, ``sigma^{-1} Hp0 sigma^{-1}`` and
    ``sigma^{-1}``, from the factor of :func:`~firal.linalg.cholesky_pd`,
    which raises ``LinAlgError`` where ``sigma`` is singular."""
    L_inv = np.linalg.inv(cholesky_pd(sigma, "relaxed aggregate"))
    S_inv = L_inv.T @ L_inv
    A = S_inv @ Hp0                               # sigma^{-1} Hp0
    M = A @ S_inv                                 # sigma^{-1} Hp0 sigma^{-1}
    return float(np.trace(A)), symmetrize(M), S_inv


def _inner_tol(f, gap):
    """Gradient spread at which a support's solve stops, after an outer
    round that measured the full-pool gap ``gap`` (infinite before the
    first)."""
    return max(0.1 * GAP_TOL * f, INNER_GAP_FRAC * gap)


def _gradient(fishers, M):
    g = -fishers.inner(M)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite relaxation gradient")
    return g


@dataclass
class RelaxResult:
    """Certified solution of the relaxed design problem.

    The simplex weights are ``z / budget``; ``objective * budget`` is ``f``
    at them.
    """

    z: np.ndarray            # weights, nonnegative, summing to budget
    objective: float         # f at z (the budget-scaled weights)
    gap: float               # Frank-Wolfe gap at z, in the units of objective
    n_iter: int              # Newton and pairwise steps tried
    best_iter: int           # the step that produced z; the last one
    box_violations: int      # number of entries with z_i > 1


class _Support:
    """The objective restricted to a support, from its
    :class:`~firal.model.KronFishers`."""

    def __init__(self, fishers, Hp0):
        self.fishers, self.Hp0 = fishers, Hp0
        self.last = None, None

    def value(self, w):
        """``f(w)``, or infinity where the aggregate is singular.  The
        inverse parts of the last finite value are kept, since a line
        search accepts the point it evaluated last."""
        try:
            parts = _inverse_parts(self.fishers.aggregate(w), self.Hp0)
        except np.linalg.LinAlgError:
            return np.inf
        self.last = w, parts
        return parts[0]

    def derivatives(self, w):
        """``(f, g, hessian, M)`` at ``w``: value, support gradient, a
        function that forms the support Hessian by :meth:`hessian` when
        called, and ``M = S^-1 Hp0 S^-1``."""
        last_w, parts = self.last
        f, M, S_inv = parts if last_w is w else _inverse_parts(self.fishers.aggregate(w), self.Hp0)
        return f, _gradient(self.fishers, M), lambda: self.hessian(S_inv, M), M

    def hessian(self, S_inv, M):
        """``H_ij = 2 sum_ab (G_i^T S^-1 G_j)_ab (G_i^T M G_j)_ab``, summed
        from ``k^2`` blocks of size ``(s, s)`` over the support's
        ``factors``.  On the simplex the shift drops out: it enters
        ``sigma`` as ``sum(w) * shift``, constant in directions summing to
        zero."""
        G = self.fishers.factors
        k, s, dt = G.shape
        flat = G.reshape(-1, dt)
        Y = (flat @ S_inv).reshape(k, s, dt)          # rows (S^-1 G_i)^T
        MG = (flat @ M).reshape(k, s, dt)             # rows (M G_i)^T, M symmetric
        H = np.zeros((s, s))
        for a in range(k):
            for b in range(a, k):
                E = (G[a] @ Y[b].T) * (G[a] @ MG[b].T)
                H += E if a == b else E + E.T
        return 2.0 * H


def _newton_direction(w, g, H):
    """Newton move on ``sum(d) = 0`` over the free points.

    A zero-weight point is held at zero when its gradient is at or above
    ``<g, w>``, or when its move is negative.  One coordinate, the
    heaviest, is eliminated by the constraint.
    """
    free = (w > 0) | (g < g @ w)
    while True:
        idx = np.flatnonzero(free)
        d = np.zeros_like(w)
        if len(idx) < 2:
            return d
        r = idx[np.argmax(w[idx])]
        rest = idx[idx != r]
        Hr = H[np.ix_(rest, rest)]
        Hr -= H[rest, r][:, None]
        Hr -= H[r, rest][None, :]
        Hr += H[r, r]
        d[rest] = solve_psd(Hr, g[r] - g[rest])
        d[r] = -d[rest].sum()
        enter = (w == 0) & (d < 0)
        if not enter.any():
            return d
        free &= ~enter


def _pairwise_direction(w, g):
    """Move the weight of the weighted point with the largest gradient to
    the point with the smallest."""
    away = np.flatnonzero(w > 0)[np.argmax(g[w > 0])]
    d = np.zeros_like(w)
    d[away], d[np.argmin(g)] = -w[away], w[away]
    return d


def _step(support, w, f, g, d):
    """Next support weights along ``d``, or ``None`` if no step decreases f.

    A direction that does not descend (``g @ d >= 0``, the zero direction
    included) gives ``None``.  A projected arc (clip, renormalize) is tried
    first; otherwise the step stops at the first point it drives to zero,
    which is dropped, and backtracks from there.
    """
    slope = float(g @ d)
    if slope >= 0:
        return None
    ratios = np.full_like(w, np.inf)
    ratios[d < 0] = w[d < 0] / -d[d < 0]
    block = int(np.argmin(ratios))
    t_max = min(1.0, ratios[block])

    def at(t):
        trial = np.maximum(w + t * d, 0.0)
        if t == ratios[block]:
            trial[block] = 0.0
        return trial / trial.sum()

    if -slope <= RESOLVE_REL * f:
        return at(t_max)
    arc = np.maximum(w + d, 0.0)
    arc /= arc.sum()
    if support.value(arc) < f:
        return arc
    t = t_max
    while t >= 2.0**-40:
        trial = at(t)
        if support.value(trial) <= f + ARMIJO * t * slope:
            return trial
        t *= 0.5
    return None


def relax_solve(budget, Hp0, fishers):
    """Minimize the relaxed design objective to a Frank-Wolfe certificate.

    ``fishers`` is a :class:`~firal.model.KronFishers`.  The gradient at
    uniform weights picks the first support.  Each outer round solves on
    the support by projected Newton, or a pairwise step where Newton
    cannot descend, until the gradient of every weighted point is within
    ``max(0.1 * GAP_TOL * f, INNER_GAP_FRAC * gap)`` of the support's
    least, ``gap`` being the last round's full-pool gap (infinite in the
    first round, which so takes no step).  It then checks the gap over
    all candidates, and adds at most ``max(SUPPORT_BLOCK, len(keep) // 2)``
    of those below ``<g, kappa>`` to the ``keep`` weighted points.  The
    solve returns only a gap at most ``GAP_TOL * f`` measured after a
    round whose tolerance was ``0.1 * GAP_TOL * f``, or whose spread
    reached it.  Returns the certified weights, scaled by the budget;
    raises ``ValueError`` on an empty pool or a budget outside ``(0, inf)``,
    and ``LinAlgError`` where the whole pool at uniform weights is singular.
    """
    Hp0 = np.asarray(Hp0, dtype=float)
    m = fishers.shape[0]
    if m < 1:
        raise ValueError("need at least one candidate")
    if not 0 < budget < np.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")

    _, g, _, _ = _Support(fishers, Hp0).derivatives(np.full(m, 1.0 / m))
    k, dt = fishers.W.shape[1], fishers.shape[1]
    order = np.argsort(g, kind="stable")
    size = min(m, max(2 * -(-dt // k), SUPPORT_BLOCK))
    while True:
        support = np.sort(order[:size])
        w = np.full(size, 1.0 / size)
        state = _Support(fishers.take(support), Hp0)
        # At size m the aggregate is the one just factored, bit for bit.
        if np.isfinite(state.value(w)):
            break
        size = min(m, 2 * size)

    steps, gap = 0, np.inf
    while True:
        start = support, w, gap
        while True:
            f, g_s, hessian, M = state.derivatives(w)
            spread = g_s[w > 0].max() - g_s.min()
            if spread <= _inner_tol(f, start[2]) or steps == MAX_NEWTON_STEPS:
                break
            steps += 1
            nxt = _step(state, w, f, g_s, _newton_direction(w, g_s, hessian()))
            if nxt is None and steps < MAX_NEWTON_STEPS:
                steps += 1
                nxt = _step(state, w, f, g_s, _pairwise_direction(w, g_s))
            if nxt is None:
                break
            w = nxt

        kappa = np.zeros(m)
        kappa[support] = w
        g = _gradient(fishers, M)
        g_kappa = float(g @ kappa)
        gap = g_kappa - float(g.min())
        # A gap that certifies a support solved more loosely than
        # 0.1 * GAP_TOL * f gets one more round, solved to that tolerance.
        exact = min(spread, _inner_tol(f, start[2])) <= 0.1 * GAP_TOL * f
        if gap <= GAP_TOL * f and (exact or steps >= MAX_NEWTON_STEPS):
            break
        if steps >= MAX_NEWTON_STEPS:
            raise FloatingPointError(
                f"relaxation not certified after {steps} Newton steps: "
                f"gap {gap:.3e} > {GAP_TOL:g} * f"
            )
        keep = support[w > 0]
        outside = np.ones(m, dtype=bool)
        outside[keep] = False
        entering = np.flatnonzero(outside & (g < g_kappa))
        entering = entering[np.argsort(g[entering], kind="stable")]
        support = np.sort(np.concatenate(
            [keep, entering[:max(SUPPORT_BLOCK, len(keep) // 2)]]))
        w = kappa[support]
        if (np.array_equal(support, start[0]) and np.array_equal(w, start[1])
                and _inner_tol(f, gap) == _inner_tol(f, start[2])):
            # The next round would repeat this one exactly.
            raise FloatingPointError(
                f"relaxation not certified: an outer round changed neither the "
                f"support nor the weights, gap {gap:.3e} > {GAP_TOL:g} * f"
            )
        state = _Support(fishers.take(support), Hp0)

    z = budget * kappa
    return RelaxResult(
        z=z,
        objective=f / budget,
        gap=gap / budget,
        n_iter=steps,
        best_iter=steps,
        box_violations=int(np.sum(z > 1.0 + 1e-12)),
    )
