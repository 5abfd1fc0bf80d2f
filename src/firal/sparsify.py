"""Round relaxed design weights into concrete picks by regret minimization.

One point is chosen per step.  The regret player keeps a trace-one PSD
action ``A_t = (nu_t I + eta * sum_{l<t} C_l)^{-2}`` over the whitened
candidate matrices ``C_l``, and the next pick maximizes the trace gain
``Tr[A_t^{1/2} - (A_t^{-1/2} + eta C_i)^{-1}]``.  Because every whitened
candidate splits into a shared PSD shift plus a rank-``(c-1)`` factor,
the argmax reduces to small ``(c-1) x (c-1)`` solves per candidate
(:func:`woodbury_scores`, which the greedy baseline shares).
:func:`select_batch` advances several rates in lockstep, and each step
solves only for the candidates that a norm bound cannot rule out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fisher import WhitenedFactors
from .linalg import inv_psd_eig, symmetrize

NU_RESIDUAL_TOL = 1e-13
NU_MAX_ITER = 200
# AuditReport.holds accepts margins down to this, for rounding in the sums.
AUDIT_SLACK = -1e-8
# Relative margin on the largest eigenvalue of B^{1/2} in the score bound,
# for the rounding in that eigenvalue and in the exact scores.
BOUND_SLACK = 1e-9
# The fewest candidates scored in one block.  A product of a few rows can
# take another BLAS kernel, whose rounding differs from that of the product
# over every candidate; blocks this large have kept the scores bit for bit.
FIRST_BLOCK = 64


def _nu_root(lam, d_tilde):
    """The unique ``nu`` with ``sum_j (nu + lam_j)^{-2} = 1``, returned as
    the offset ``x = nu + min(lam)``; for a stack of spectra, one root per
    row of ``lam``, each by the same arithmetic as a lone row.

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
    rows = lam.reshape(-1, lam.shape[-1])
    mu = rows - rows.min(axis=1, keepdims=True)
    hi = float(np.sqrt(d_tilde))
    r_hi = np.sum((hi + mu) ** -2, axis=1) - 1.0
    if not np.all(r_hi <= NU_RESIDUAL_TOL):
        bad = r_hi[~(r_hi <= NU_RESIDUAL_TOL)][0]
        raise FloatingPointError(f"nu root: upper bracket residual {bad:.3e} is not <= 0")
    # A flat spectrum puts the root on the upper end, where one rounding of
    # a Newton step could land past it.  Rows that have converged keep their
    # root while the others step.
    todo = r_hi < -NU_RESIDUAL_TOL
    x = np.where(todo, 1.0, hi)
    for _ in range(NU_MAX_ITER):
        inv = 1.0 / (x[:, None] + mu)
        s = np.sum(inv * inv, axis=1)
        r = s - 1.0
        done = todo & (r <= NU_RESIDUAL_TOL)
        if np.any(r[done] < -NU_RESIDUAL_TOL):
            bad = r[done][r[done] < -NU_RESIDUAL_TOL][0]
            raise FloatingPointError(f"nu root: Newton overshot the root (residual {bad:.3e})")
        todo &= ~done
        if not todo.any():
            return x.reshape(lam.shape[:-1])[()]
        # s ** 0.5 of a Python float is the C library's pow, as in a lone
        # row's scalar Newton step.
        root_s = np.array([v**0.5 for v in s.tolist()])
        x = np.where(todo, x + s * (root_s - 1.0) / np.sum(inv**3, axis=1), x)
        if not np.all((1.0 <= x) & (x <= hi)):
            bad = x[~((1.0 <= x) & (x <= hi))][0]
            raise FloatingPointError(f"nu root: Newton iterate {float(bad)!r} left [1, {hi!r}]")
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
    implied action is PD with unit trace.  A stack of losses with one rate
    each, ``cum_loss`` of shape ``(R, d_tilde, d_tilde)`` and ``eta`` of
    length ``R``, gives one action per rate.
    """
    cum_loss = np.asarray(cum_loss, dtype=float)
    d_tilde = cum_loss.shape[-1]
    scale = (0.5 * np.asarray(eta, dtype=float))[..., None, None]
    lam, V = np.linalg.eigh(scale * (cum_loss + np.swapaxes(cum_loss, -1, -2)))
    lam = np.maximum(lam, 0.0)
    lam_min = lam.min(axis=-1)
    x = _nu_root(lam, d_tilde)
    shifted = x[..., None] + (lam - lam_min[..., None])
    A_inv_sqrt = symmetrize((V * shifted[..., None, :]) @ np.swapaxes(V, -1, -2))
    return A_inv_sqrt, (x - lam_min)[()], np.sum(1.0 / shifted, axis=-1)[()]


def woodbury_scores(P, C, s, E=None):
    """``tr((I + s P_i^T C P_i)^{-1} P_i^T C E C P_i)`` for each factor
    ``P_i`` of ``P``, laid out as ``KronFishers.factors``, with ``C`` and
    ``E`` symmetric and ``E=None`` the identity: the Woodbury reduction of
    a rank-``(c-1)`` update that both search selectors score.  The FTRL
    rounding calls it at ``C = B^{1/2}``, ``s = eta``; the greedy at ``C =
    A^{-1}``, ``E = Hp``, ``s = +-1``.  A stack of ``R`` matrices ``C``
    with one ``s`` each gives ``(R, m)`` values.

    ``Y = C P_i`` for all candidates is one flat GEMM, and ``Z = E Y``
    another.  ``I + s P^T Y`` and ``Z^T Y`` are symmetric, so only their
    ``k(k+1)`` distinct entries are formed, each a length-``d_tilde`` row
    dot, stored batch last for :func:`trace_solve`.
    """
    k, m, dt = P.shape
    Y = P.reshape(k * m, dt) @ C
    Z = Y if E is None else Y @ E
    Y, Z = (V.reshape(C.shape[:-2] + (k, m, dt)) for V in (Y, Z))
    s = np.asarray(s, dtype=float)[..., None]
    r = "r" if Y.ndim == 4 else ""
    M = np.empty((k, k) + Y.shape[:-3] + (m,))
    U = np.empty_like(M)
    for a in range(k):
        for b in range(a, k):
            M[a, b] = M[b, a] = s * np.einsum(f"ij,{r}ij->{r}i", P[a], Y[..., b, :, :])
            U[a, b] = U[b, a] = np.einsum(f"{r}ij,{r}ij->{r}i", Z[..., a, :, :],
                                          Y[..., b, :, :])
        M[a, a] += 1.0
    del Y, Z  # the largest arrays here, not needed by the solve
    return trace_solve(M, U)


def trace_solve(M, U):
    """``tr(M^{-1} U)`` for a batch of small square matrices stored batch
    last: ``M[a, b]`` and ``U[a, b]`` are arrays of entries, of any shape.
    The last step of every Woodbury-reduced score.

    Gaussian elimination unrolled over the ``k x k`` entries, so every
    operation acts on whole arrays of entries.  It does not pivot: every
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
    return np.einsum("jj...->...", X)


def check_budget(budget, most=None):
    """Raise a ``ValueError`` naming ``budget`` unless it is an integer of
    at least 1 and, where ``most`` is given, at most ``most``."""
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ValueError(f"budget must be an integer of at least 1, got {budget!r}")
    if most is not None and budget > most:
        raise ValueError(f"budget {budget} outside 1..{most}")


def _norm_floor(lam, etas, k, best):
    """The least ``||P_i||_F^2`` at which a candidate's score can reach
    ``best``, one per rate, for ``lam`` at least ``lambda_max(B^{1/2})``.

    ``B <= lam B^{1/2}`` gives ``U_i <= lam T_i``, and ``sum_j tau_j / (1 +
    eta tau_j)`` over the ``k`` eigenvalues of ``T_i`` is at most ``x / (1
    + eta x / k)`` at ``x = tr T_i <= lam ||P_i||_F^2``, by concavity.  So a
    score is at most ``lam x / (1 + eta x / k)`` with ``x = lam
    ||P_i||_F^2``, a bound that grows with the norm; the floor solves it for
    ``best``.  It is ``-inf`` where ``best <= 0`` and ``inf`` where the
    bound's limit ``k lam / eta`` does not exceed ``best``.
    """
    gap = lam - etas / k * best
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = best / (lam * gap)
    return np.where(best <= 0, -np.inf, np.where(gap <= 0, np.inf, floor))


def _block_end(lo, want, m, rates):
    """End of the block of candidates scored from ``lo``: ``want``, but at
    least FIRST_BLOCK candidates, and for ``rates`` rates at most
    ``m // rates`` (one rate's full scoring holds no more); a remainder
    shorter than FIRST_BLOCK joins the block."""
    hi = lo + min(max(want - lo, FIRST_BLOCK), max(m // rates, FIRST_BLOCK))
    return m if m - hi < FIRST_BLOCK else hi


def _pruned_argmax(B_sqrt, etas, lam, P, order, neg_sq, masked, first):
    """Per rate, the unmasked candidate of largest exact score, the
    smallest index among ties, and that score.

    Candidates are scored exactly in blocks along ``order``, the
    candidates by decreasing ``||P_i||_F^2`` (``-neg_sq``, in that order),
    all rates still open in one call per block, the first block ``first``
    candidates long.  A rate is closed once the candidates after its
    scored prefix fall below the :func:`_norm_floor` of its best score;
    until then its prefix doubles, up to the length that floor admits.
    ``masked`` is ``(R, m)``, by candidate.
    Returns ``(picks, best, admitted)``, ``admitted`` the length of the
    prefix each rate's final best score admits.
    """
    R, m = len(etas), len(order)
    k = P.shape[0]
    best = np.full(R, -np.inf)
    picks = np.zeros(R, dtype=int)
    admitted = np.full(R, m)
    open_ = np.arange(R)
    lo, hi = 0, _block_end(0, first, m, R)
    while True:
        idx = order[lo:hi]
        s = woodbury_scores(np.take(P, idx, axis=1), B_sqrt[open_], etas[open_])
        s[masked[np.ix_(open_, idx)]] = -np.inf
        top = s.max(axis=1)
        at = np.where(s == top[:, None], idx, m).min(axis=1)
        was = best[open_]
        picks[open_] = np.where(top > was, at,
                                np.where(top == was, np.minimum(picks[open_], at), picks[open_]))
        best[open_] = np.maximum(was, top)
        floor = _norm_floor(lam[open_], etas[open_], k, best[open_])
        admitted[open_] = np.searchsorted(neg_sq, -floor, side="right")
        open_ = open_[admitted[open_] > hi]
        if not open_.size:
            return picks, best, admitted
        lo, hi = hi, _block_end(hi, min(2 * hi, int(admitted[open_].max())), m, open_.size)


def select_batch(budget, etas, factors: WhitenedFactors, mask_selected=True):
    """Run ``budget`` regret-minimization steps over whitened candidates,
    at each rate of ``etas`` in lockstep.

    With ``mask_selected`` (the labeling default) previously picked
    indices are excluded from the argmax; with it off a point may be
    picked repeatedly, which is the mode the step-wise lower bounds
    assume.  Ties break to the smallest index.  Each step scores exactly
    only the candidates a bound cannot rule out: candidates are ordered
    by ``||P_i||_F^2``, and a score is at most ``lam x / (1 + eta x / k)``
    with ``x = lam ||P_i||_F^2`` and ``lam`` the largest eigenvalue of
    ``B^{1/2}`` (:func:`_norm_floor`).  The picks are those of scoring
    every candidate.

    Returns one ``(indices, report)`` per rate, the picks with the
    :class:`AuditReport` of the regret guarantees of Allen-Zhu, Li, Singh
    & Wang (2017), for each step ``t``:

    1. ``lambda_min(sum_{l<=t} C_l) >= -2 sqrt(d)/eta
       + (1/eta) sum_{l<=t} gain_chosen[l]``
    2. ``gain_max[t]/eta >= (1 - eta/(2 budget)) / (budget + eta sqrt(d))``
       (repeats-allowed runs only)

    Here ``gain_*`` are the trace gains ``Tr[A_t^{1/2} - (A_t^{-1/2} +
    eta C)^{-1}]`` of the picked candidate and of the best one unmasked;
    with repeats nothing is masked, so the two are one.
    """
    D = factors.shift_w
    P = factors.by_class
    k, m, dt = P.shape
    check_budget(budget, m if mask_selected else None)
    etas = np.asarray(etas, dtype=float)
    if etas.ndim != 1 or not etas.size:
        raise ValueError(f"etas must be a nonempty 1-D sequence of rates, got shape {etas.shape}")
    if not np.all((0 < etas) & (etas < np.inf)):
        raise ValueError("eta must be positive and finite")
    R = len(etas)

    # The candidates by decreasing norm.
    neg_sq = -np.einsum("aij,aij->i", P, P)
    order = np.argsort(neg_sq)
    neg_sq = neg_sq[order]

    cum = np.zeros((R, dt, dt))
    chosen = np.empty((R, budget), dtype=int)
    min_eig = np.empty((R, budget))
    gain = np.empty((R, budget))
    masked = np.zeros((R, m), dtype=bool)
    first = FIRST_BLOCK

    for t in range(budget):
        A_inv_sqrt, _, tr_a_sqrt = ftrl_action(cum, etas)
        w, B_sqrt = inv_psd_eig(A_inv_sqrt + etas[:, None, None] * D)
        lam = (1.0 + BOUND_SLACK) / w[:, 0]
        picks, best, admitted = _pruned_argmax(B_sqrt, etas, lam, P, order, neg_sq, masked,
                                               first)
        # The next step's prefixes are about as long as this step's.
        first = max(FIRST_BLOCK, int(admitted.max()))

        gain[:, t] = tr_a_sqrt - np.trace(B_sqrt, axis1=1, axis2=2) + etas * best
        chosen[:, t] = picks
        if mask_selected:
            masked[np.arange(R), picks] = True
        for r, i in enumerate(picks):
            G = P[:, i]
            cum[r] = cum[r] + D + G.T @ G
        min_eig[:, t] = np.linalg.eigvalsh(symmetrize(cum))[:, 0]

    root_d = np.sqrt(dt)
    out = []
    for r, eta in enumerate(etas.tolist()):
        lower = -2.0 * root_d / eta + np.cumsum(gain[r]) / eta
        margin_trace = None
        if not mask_selected:
            bound = (1.0 - eta / (2.0 * budget)) / (budget + eta * root_d)
            margin_trace = gain[r] / eta - bound
        out.append((chosen[r], AuditReport(min_eig[r] - lower, margin_trace,
                                           float(min_eig[r, -1]))))
    return out


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
