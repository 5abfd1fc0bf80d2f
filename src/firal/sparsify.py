"""Round relaxed design weights into concrete picks by regret minimization.

One point is chosen per step.  The regret player keeps a trace-one PSD
action ``A_t = (nu_t I + eta * sum_{l<t} C_l)^{-2}`` over the whitened
candidate matrices ``C_l``, and the next pick maximizes the trace gain
``Tr[A_t^{1/2} - (A_t^{-1/2} + eta C_i)^{-1}]``.  Because every whitened
candidate splits into a shared PSD shift plus a rank-``(c-1)`` factor,
the argmax reduces to small ``(c-1) x (c-1)`` solves per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fisher import WhitenedFactors, inv_psd

NU_RESIDUAL_TOL = 1e-13
NU_MAX_ITER = 200
# AuditReport.holds accepts margins down to this, for rounding in the sums.
AUDIT_SLACK = -1e-8


def _nu_root(lam, d_tilde):
    """The unique ``nu`` with ``sum_j (nu + lam_j)^{-2} = 1``.

    ``lam`` holds the (nonnegative) eigenvalues of the scaled cumulative
    loss.  The residual is strictly decreasing in ``nu`` on the bracket,
    which runs from just above ``-min(lam)`` (residual diverges) up to
    ``sqrt(d_tilde)`` (residual at most 1 for nonnegative ``lam``).
    Raises ``FloatingPointError`` for non-finite eigenvalues or a failed
    upper bracket.
    """
    lam = np.maximum(np.asarray(lam, dtype=float), 0.0)
    if not np.all(np.isfinite(lam)):
        raise FloatingPointError("nu root: the cumulative loss has non-finite eigenvalues")
    lam_min = float(lam.min())

    def residual(nu):
        return float(np.sum((nu + lam) ** -2)) - 1.0

    lo = -lam_min + 1e-14 * (1.0 + abs(lam_min))
    hi = float(np.sqrt(d_tilde))
    r_lo = residual(lo)
    r_hi = residual(hi)
    if not r_hi <= 1e-9:
        raise FloatingPointError(f"nu root: upper bracket residual {r_hi:.3e} is not <= 0")
    if r_lo < 0:
        # Only possible within the bracket slack; lo is already the root.
        return lo
    for _ in range(NU_MAX_ITER):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= NU_RESIDUAL_TOL:
            return mid
        if r > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ftrl_action(cum_loss, eta):
    """Compute the action root ``A_t^{-1/2}`` for a cumulative loss.

    Eigendecomposes ``eta * cum_loss``, finds the trace-normalizing shift
    ``nu`` by bisection, and returns ``(A_inv_sqrt, nu, trace_a_sqrt)``
    where ``A_inv_sqrt = V (nu I + Lambda) V^T`` and ``trace_a_sqrt =
    Tr A_t^{1/2} = sum_j 1 / (nu + lam_j)``.  All shifted eigenvalues are
    positive, so the implied action is PD with unit trace.
    """
    cum_loss = np.asarray(cum_loss, dtype=float)
    d_tilde = cum_loss.shape[0]
    lam, V = np.linalg.eigh(0.5 * eta * (cum_loss + cum_loss.T))
    lam = np.maximum(lam, 0.0)
    nu = _nu_root(lam, d_tilde)
    A_inv_sqrt = (V * (nu + lam)) @ V.T
    return 0.5 * (A_inv_sqrt + A_inv_sqrt.T), nu, float(np.sum(1.0 / (nu + lam)))


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


def _scores(B_sqrt, P, eta):
    """Vectorized :func:`score_candidate` over stacked factors.

    With ``Y_i = B^{1/2} P_i`` the two small matrices are ``T = P^T Y`` and
    ``U = Y^T Y = P^T B P``, so every product is a batched GEMM and ``B``
    itself is never formed.
    """
    k = P.shape[2]
    Y = np.matmul(B_sqrt, P)
    T = np.matmul(P.transpose(0, 2, 1), Y)
    U = np.matmul(Y.transpose(0, 2, 1), Y)
    return trace_solve(np.eye(k) + eta * T, U)


def trace_solve(M, U):
    """``tr(M_i^{-1} U_i)`` for stacks of small square matrices: the last
    step of every Woodbury-reduced score."""
    return np.einsum("ikk->i", np.linalg.solve(M, U))


@dataclass
class SelectionAudit:
    """Per-step quantities recorded during a selection run.

    ``gain_*`` entries are the trace gains
    ``Tr[A_t^{1/2} - (A_t^{-1/2} + eta C)^{-1}]``; ``gain_max`` scans all
    candidates unmasked while ``gain_chosen`` uses the picked one.
    ``min_eig_cum[t]`` is the smallest eigenvalue of the cumulative
    whitened selection after ``t + 1`` picks.
    """

    eta: float
    budget: int
    d_tilde: int
    mask_selected: bool
    chosen: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    min_eig_cum: np.ndarray = field(default_factory=lambda: np.array([]))
    trace_a_sqrt: np.ndarray = field(default_factory=lambda: np.array([]))
    gain_chosen: np.ndarray = field(default_factory=lambda: np.array([]))
    gain_max: np.ndarray = field(default_factory=lambda: np.array([]))


def select_batch(budget, eta, factors: WhitenedFactors, mask_selected=True):
    """Run ``budget`` regret-minimization steps over whitened candidates.

    With ``mask_selected`` (the labeling default) previously picked
    indices are excluded from the argmax; with it off a point may be
    picked repeatedly, which is the mode the step-wise lower bounds
    assume.  Ties break to the smallest index.

    Returns ``(indices, audit)``.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    D = factors.shift_w
    P = factors.factors
    m, dt, _ = P.shape
    if mask_selected and budget > m:
        raise ValueError("cannot pick more distinct points than the pool holds")

    cum = np.zeros((dt, dt))
    chosen = np.empty(budget, dtype=int)
    min_eig = np.empty(budget)
    tr_a_sqrt = np.empty(budget)
    gain_chosen = np.empty(budget)
    gain_max = np.empty(budget)
    masked = np.zeros(m, dtype=bool)

    for t in range(budget):
        A_inv_sqrt, _, tr_a_sqrt[t] = ftrl_action(cum, eta)
        B_sqrt = inv_psd(A_inv_sqrt + eta * D)

        scores = _scores(B_sqrt, P, eta)
        tr_gap = tr_a_sqrt[t] - float(np.trace(B_sqrt))
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

    audit = SelectionAudit(
        eta=float(eta),
        budget=int(budget),
        d_tilde=dt,
        mask_selected=bool(mask_selected),
        chosen=chosen,
        min_eig_cum=min_eig,
        trace_a_sqrt=tr_a_sqrt,
        gain_chosen=gain_chosen,
        gain_max=gain_max,
    )
    return chosen, audit


@dataclass
class AuditReport:
    """Margins of the step-wise selection guarantees.

    ``margin_min_eig[t]`` is the slack of the cumulative minimum
    eigenvalue over its regret lower bound after ``t + 1`` steps.
    ``margin_trace[t]`` is the slack of the best candidate's trace gain
    over its per-step lower bound, and is only populated when repeats
    were allowed during selection.
    """

    margin_min_eig: np.ndarray
    margin_trace: np.ndarray | None

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


def regret_audit(audit: SelectionAudit):
    """Check the regret guarantees on a completed selection run.

    Verifies, for each step ``t``:

    1. ``lambda_min(sum_{l<=t} C_l) >= -2 sqrt(d)/eta
       + (1/eta) sum_{l<=t} gain_chosen[l]``
    2. ``gain_max[t]/eta >= (1 - eta/(2 budget)) / (budget + eta sqrt(d))``
       (repeats-allowed runs only)

    Returns the per-step margins; nonnegative margins (up to a small
    numerical slack) mean the guarantees hold.
    """
    eta = audit.eta
    root_d = np.sqrt(audit.d_tilde)
    lower = -2.0 * root_d / eta + np.cumsum(audit.gain_chosen) / eta
    margin_min_eig = audit.min_eig_cum - lower

    margin_trace = None
    if not audit.mask_selected:
        bound = (1.0 - eta / (2.0 * audit.budget)) / (audit.budget + eta * root_d)
        margin_trace = audit.gain_max / eta - bound

    return AuditReport(margin_min_eig=margin_min_eig, margin_trace=margin_trace)
