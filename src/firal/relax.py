"""Continuous relaxation of the subset-design problem.

The budgeted 0/1 selection is relaxed to nonnegative weights summing to
the budget and solved by entropic mirror descent on the simplex with the
substitution ``z = budget * kappa``.  The box constraint ``z_i <= 1`` of
the relaxed program is not enforced by the multiplicative update; any
violations are counted and reported on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

KAPPA_FLOOR = 1e-300
STEP_SCALE = 1.0   # multiplier of the mirror-descent step size
# A stall window that improves the best objective by no more than this
# fraction of it ends the solve.
STALL_TOL = 1e-7


def _sigma_parts(kappa, fishers, Hp0):
    """Aggregate, its Cholesky inverse products, and the objective value.

    Saturated pools make the aggregate badly conditioned while still
    positive definite; the Cholesky factorization itself is the
    singularity test.
    """
    sigma = fishers.aggregate(kappa)
    try:
        c, low = scipy.linalg.cho_factor(sigma)
    except scipy.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "relaxed aggregate is singular; selection under-determined"
        ) from None
    A = scipy.linalg.cho_solve((c, low), Hp0)          # sigma^{-1} Hp0
    M = scipy.linalg.cho_solve((c, low), A.T).T        # sigma^{-1} Hp0 sigma^{-1}
    return float(np.trace(A)), 0.5 * (M + M.T)


def relax_gradient(kappa, fishers, Hp0):
    """Exact gradient of ``f(kappa) = <(sum kappa_i H_i)^{-1}, Hp0>``.

    Entry ``i`` equals ``-<H_i, sigma^{-1} Hp0 sigma^{-1}>``.
    """
    _, M = _sigma_parts(kappa, fishers, Hp0)
    return -fishers.inner(M)


@dataclass
class RelaxResult:
    """Best-iterate solution of the relaxed design problem."""

    z: np.ndarray            # weights, nonnegative, summing to budget
    budget: float
    objective: float         # f at z (the budget-scaled weights)
    kappa: np.ndarray        # simplex representation of z
    n_iter: int
    best_iter: int
    box_violations: int      # number of entries with z_i > 1
    objective_history: list  # f at each simplex iterate, unscaled by budget


def relax_solve(budget, Hp0, fishers, n_iter=200, stall_window=20):
    """Minimize the relaxed design objective by entropic mirror descent.

    Starts from the uniform simplex point and applies the multiplicative
    update ``kappa_i <- kappa_i * exp(-beta_t g_i)`` with step size
    ``beta_t = STEP_SCALE * sqrt(log m / t) / L_t``, where ``L_t`` is the
    sup-norm of the centered gradient (only deviations from the mean move
    a renormalized simplex point, and this keeps the exponent bounded in
    saturated regimes where raw gradients reach 1e10).  ``fishers`` is a
    :class:`~firal.model.KronFishers`; returns the best iterate, scaled by the budget.
    """
    Hp0 = np.asarray(Hp0, dtype=float)
    m = fishers.shape[0]
    if m < 1:
        raise ValueError("need at least one candidate")
    if budget <= 0:
        raise ValueError("budget must be positive")

    kappa = np.full(m, 1.0 / m)
    log_m = np.log(m)

    best_f = np.inf
    best_kappa = kappa.copy()
    best_iter = 0
    last_improvement_f = np.inf
    t_done = 0
    history = []

    for t in range(1, n_iter + 1):
        f_val, M = _sigma_parts(kappa, fishers, Hp0)
        history.append(f_val)
        if f_val < best_f:
            best_f = f_val
            best_kappa = kappa.copy()
            best_iter = t
        t_done = t

        # Stall check on the best objective over a trailing window.
        if t % stall_window == 0:
            if last_improvement_f - best_f <= STALL_TOL * max(abs(best_f), 1.0):
                break
            last_improvement_f = best_f

        g = -fishers.inner(M)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite mirror descent gradient")
        grad_scale = max(float(np.abs(g - g.mean()).max()), 1e-300)
        beta = STEP_SCALE * np.sqrt(log_m / t) / grad_scale
        # Shifting the gradient is free after renormalization and keeps
        # the exponentials bounded.
        kappa = kappa * np.exp(-beta * (g - g.min()))
        kappa = np.maximum(kappa, KAPPA_FLOOR)
        kappa /= kappa.sum()

    # The final iterate was never scored inside the loop body above.
    f_val, _ = _sigma_parts(kappa, fishers, Hp0)
    history.append(f_val)
    if f_val < best_f:
        best_f = f_val
        best_kappa = kappa.copy()
        best_iter = t_done + 1

    z = budget * best_kappa
    return RelaxResult(
        z=z,
        budget=float(budget),
        objective=best_f / budget,
        kappa=best_kappa,
        n_iter=t_done,
        best_iter=best_iter,
        box_violations=int(np.sum(z > 1.0 + 1e-12)),
        objective_history=history,
    )
