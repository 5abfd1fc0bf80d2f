"""Round relaxed design weights into concrete picks by regret minimization.

One point is chosen per step.  The regret player keeps a trace-one PSD
action ``A_t = (nu_t I + eta * sum_{l<t} C_l)^{-2}`` over the whitened
candidate matrices ``C_l``, and the next pick maximizes the trace gain
``Tr[A_t^{1/2} - (A_t^{-1/2} + eta C_i)^{-1}]``.  Because every whitened
candidate splits into a shared PSD shift plus a rank-``(c-1)`` factor,
the argmax reduces to small ``(c-1) x (c-1)`` solves per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fisher import WhitenedFactors
from .linalg import inv_psd

NU_RESIDUAL_TOL = 1e-13
NU_MAX_ITER = 200
# AuditReport.holds accepts margins down to this, for rounding in the sums.
AUDIT_SLACK = -1e-8


def _nu_root(lam, d_tilde):
    """The unique ``nu`` with ``sum_j (nu + lam_j)^{-2} = 1``, returned as
    the offset ``x = nu + min(lam)``.

    ``lam`` holds the (nonnegative) eigenvalues of the scaled cumulative
    loss.  In the offset, with ``mu = lam - min(lam)``, the root solves
    ``sum_j (x + mu_j)^{-2} = 1`` and lies in ``[1, sqrt(d_tilde)]``: the
    term of the smallest eigenvalue alone is 1 at ``x = 1``, and each of the
    ``d_tilde`` terms is at most ``1 / d_tilde`` at the upper end.  Working
    in ``x`` keeps the residual at full precision however large the
    eigenvalues are; ``nu = x - min(lam)`` would round the shift to the
    spacing of ``min(lam)``, so the caller builds ``x + mu``.  Newton's
    method runs on ``h(x) = (sum_j (x + mu_j)^{-2})^{-1/2} - 1`` from the
    lower end: ``h`` is concave and increasing, so the iterates rise
    monotonically to the root.  Raises ``FloatingPointError`` for
    non-finite eigenvalues, a failed upper bracket, or an iterate that
    leaves the bracket, overshoots the root or does not converge.
    """
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
        # A flat spectrum puts the root on the upper end, where one rounding
        # of a Newton step could land past it.
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
    """Compute the action root ``A_t^{-1/2}`` for a cumulative loss.

    Eigendecomposes ``eta * cum_loss``, finds the trace-normalizing shift
    ``nu`` by Newton's method (:func:`_nu_root`), and returns
    ``(A_inv_sqrt, nu, trace_a_sqrt)`` where ``A_inv_sqrt = V (nu I +
    Lambda) V^T`` and ``trace_a_sqrt = Tr A_t^{1/2} = sum_j 1 / (nu +
    lam_j)``.  The shifted eigenvalues ``nu + lam_j`` are formed as
    ``x + (lam_j - min(lam))`` from the root's offset ``x``, at full
    precision however large the eigenvalues are.  All are positive, so the
    implied action is PD with unit trace.
    """
    cum_loss = np.asarray(cum_loss, dtype=float)
    d_tilde = cum_loss.shape[0]
    lam, V = np.linalg.eigh(0.5 * eta * (cum_loss + cum_loss.T))
    lam = np.maximum(lam, 0.0)
    lam_min = float(lam.min())
    x = _nu_root(lam, d_tilde)
    shifted = x + (lam - lam_min)
    A_inv_sqrt = (V * shifted) @ V.T
    return 0.5 * (A_inv_sqrt + A_inv_sqrt.T), x - lam_min, float(np.sum(1.0 / shifted))


def _woodbury_terms(P, Y, Z, s):
    """``M = I + s P^T Y`` and ``U = Z^T Y`` of a Woodbury-reduced score,
    batch last as :func:`trace_solve` reads them, from class-major ``P``,
    ``Y`` and ``Z`` (``P[a, i]`` is column ``a`` of candidate ``i``'s tall
    factor).  Both are symmetric when ``Y`` and ``Z`` are ``P`` times
    symmetric matrices, so only the ``k(k+1)`` distinct entries are formed,
    each a length-``n`` row dot.
    """
    k, n, _ = P.shape
    M = np.empty((k, k, n))
    U = np.empty((k, k, n))
    for a in range(k):
        for b in range(a, k):
            M[a, b] = M[b, a] = s * np.einsum("ij,ij->i", P[a], Y[b])
            U[a, b] = U[b, a] = np.einsum("ij,ij->i", Z[a], Y[b])
        M[a, a] += 1.0
    return M, U


def _scores(B_sqrt, P, eta):
    """Woodbury-reduced selection scores ``<(I + eta P_i^T B^{1/2}
    P_i)^{-1}, P_i^T B P_i>``, whose argmax over candidates is the argmin of
    the direct trace objective, for class-major factors
    ``P (k, m, d_tilde)``.  ``Y = B^{1/2} P_i`` for all candidates is one
    flat GEMM (``B^{1/2}`` is symmetric), ``U = Y^T Y = P^T B P``, and
    ``B`` itself is never formed."""
    k, m, dt = P.shape
    Y = (P.reshape(k * m, dt) @ B_sqrt).reshape(k, m, dt)
    return trace_solve(*_woodbury_terms(P, Y, Y, eta))


def trace_solve(M, U):
    """``tr(M^{-1} U)`` for a batch of small square matrices stored batch
    last: ``M[a, b]`` and ``U[a, b]`` are length-``n`` vectors of entries.
    The last step of every Woodbury-reduced score.

    Gaussian elimination unrolled over the ``k x k`` entries, so every
    operation acts on whole length-``n`` vectors.  It does not pivot: every
    caller passes a positive definite ``M`` (``I + eta T`` with ``T``
    PSD, or ``I - T`` with ``T < I``), for which elimination in order is
    stable.
    """
    M = np.array(M, dtype=float)
    U = np.array(U, dtype=float)
    k = len(M)
    for p in range(k - 1):
        f = M[p + 1:, p] / M[p, p]
        M[p + 1:, p + 1:] -= f[:, None] * M[p, p + 1:]
        U[p + 1:] -= f[:, None] * U[p]
    X = np.empty_like(U)
    for r in range(k - 1, -1, -1):
        X[r] = (U[r] - np.sum(M[r, r + 1:, None] * X[r + 1:], axis=0)) / M[r, r]
    return np.einsum("jjn->n", X)


def select_batch(budget, eta, factors: WhitenedFactors, mask_selected=True):
    """Run ``budget`` regret-minimization steps over whitened candidates.

    With ``mask_selected`` (the labeling default) previously picked
    indices are excluded from the argmax; with it off a point may be
    picked repeatedly, which is the mode the step-wise lower bounds
    assume.  Ties break to the smallest index.

    Returns ``(indices, report)``, the picks with the
    :class:`AuditReport` of the regret guarantees of Allen-Zhu, Li, Singh
    & Wang (2017), for each step ``t``:

    1. ``lambda_min(sum_{l<=t} C_l) >= -2 sqrt(d)/eta
       + (1/eta) sum_{l<=t} gain_chosen[l]``
    2. ``gain_max[t]/eta >= (1 - eta/(2 budget)) / (budget + eta sqrt(d))``
       (repeats-allowed runs only)

    Here ``gain_*`` are the trace gains ``Tr[A_t^{1/2} - (A_t^{-1/2} +
    eta C)^{-1}]`` of the picked candidate and of the best one unmasked.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not 0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    D = factors.shift_w
    P = factors.factors
    m, dt, _ = P.shape
    P_batch = np.ascontiguousarray(P.transpose(2, 0, 1))
    if mask_selected and budget > m:
        raise ValueError("cannot pick more distinct points than the pool holds")

    cum = np.zeros((dt, dt))
    chosen = np.empty(budget, dtype=int)
    min_eig = np.empty(budget)
    gain_chosen = np.empty(budget)
    gain_max = np.empty(budget)
    masked = np.zeros(m, dtype=bool)

    for t in range(budget):
        A_inv_sqrt, _, tr_a_sqrt = ftrl_action(cum, eta)
        B_sqrt = inv_psd(A_inv_sqrt + eta * D)

        scores = _scores(B_sqrt, P_batch, eta)
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


@dataclass
class AuditReport:
    """Margins of the step-wise selection guarantees.

    ``margin_min_eig[t]`` is the slack of the cumulative minimum
    eigenvalue over its regret lower bound after ``t + 1`` steps.
    ``margin_trace[t]`` is the slack of the best candidate's trace gain
    over its per-step lower bound, and is only populated when repeats
    were allowed during selection.  ``min_eig`` is the smallest eigenvalue
    of the summed whitened picks, the score :func:`firal.round.tune_eta`
    maximizes.
    """

    margin_min_eig: np.ndarray
    margin_trace: np.ndarray | None
    min_eig: float = float("nan")

    @property
    def worst_min_eig(self):
        return float(self.margin_min_eig.min())

    @property
    def worst_trace(self):
        if self.margin_trace is None:
            return None
        return float(self.margin_trace.min())

    def holds(self):
        ok = self.worst_min_eig >= AUDIT_SLACK
        if self.margin_trace is not None:
            ok = ok and self.worst_trace >= AUDIT_SLACK
        return ok
