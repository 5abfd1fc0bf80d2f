"""One FIRAL selection round: the round's input, the relaxation, whitening,
eta tuning, and regret-minimization rounding with its audit."""

from dataclasses import dataclass

import numpy as np

from .fisher import whiten_factors
from .model import KronFishers
from .relax import relax_solve
from .sparsify import AuditReport, check_budget, select_batch

DEFAULT_ETA_GRID_POWERS = range(-2, 6)
# A later rate whose set of picks differs must win by this relative margin,
# not by rounding.
ETA_TIE_REL = 1e-12


def eta_grid(d_tilde):
    """Default learning-rate grid ``{2^j sqrt(d_tilde), j = -2..5}``."""
    return [2.0**j * np.sqrt(d_tilde) for j in DEFAULT_ETA_GRID_POWERS]


def tune_eta(etas, factors, budget):
    """Pick the rate whose masked selection maximizes the smallest
    eigenvalue of the summed whitened picks.  All rates are rounded in one
    :func:`select_batch` pass.  A rate whose picks form a set that an
    earlier rate picked, in any order, is not scored again: the two score
    equally in exact arithmetic.  Ties among distinct sets, scores within a
    relative :data:`ETA_TIE_REL`, keep the earlier grid position.

    Returns ``(eta, picks, report)``, the winning rate with the
    :func:`select_batch` result it was scored on.
    """
    etas = [float(e) for e in etas]
    best = best_val = None
    seen = set()
    for e, (picks, report) in zip(etas, select_batch(budget, etas, factors)):
        val, key = report.min_eig, frozenset(picks.tolist())
        if key not in seen and (best is None or val > best_val + ETA_TIE_REL * abs(best_val)):
            best, best_val = (e, picks, report), val
        seen.add(key)
    return best


@dataclass
class Diagnostics:
    """What a FIRAL round reports besides its picks."""

    eta: float                 # the rounding rate used
    report: AuditReport        # regret-guarantee margins of the rounding
    relax_gap: float           # Frank-Wolfe gap of the relaxation / its objective (0 if f is 0)


def _pool_indices(idx, name, m):
    """``idx`` as a 1-D integer index array into a pool of ``m`` points; any
    other shape, any other dtype but an empty list's, or an index outside
    ``[0, m)``, is a ``ValueError`` naming ``name``."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError(f"{name} must hold a 1-D array of integer indices, "
                         f"got shape {idx.shape} and dtype {idx.dtype}")
    idx = idx.astype(int)
    if idx.size and not 0 <= idx.min() <= idx.max() < m:
        raise ValueError(f"{name} must lie in [0, {m}), got [{idx.min()}, {idx.max()}]")
    return idx


def round_fishers(X_pool, labeled, candidates, theta, budget, *, ridge):
    """The round's candidate Fishers, as both search selectors read them.

    Their shift is ``(sum_j H(x_j) + n ridge I) / budget`` over the ``n``
    labeled points, so ``budget * shift`` is the labeled curvature of the
    fit :func:`~firal.model.fit_erm` makes with the same ``ridge``.  Index
    arrays must be 1-D, integer and index ``X_pool`` (a point may be both
    labeled and a candidate), ``budget`` an integer of at least 1 and
    ``ridge`` finite and at least 0; each raises a ``ValueError`` naming
    the argument.
    """
    X_pool = np.asarray(X_pool, dtype=float)
    labeled = _pool_indices(labeled, "labeled", len(X_pool))
    candidates = _pool_indices(candidates, "candidates", len(X_pool))
    check_budget(budget)
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and at least 0, got {ridge!r}")
    n = len(labeled)
    shift = KronFishers.at(X_pool[np.sort(labeled)], theta).aggregate(np.full(n, 1.0 / budget))
    shift += n * ridge / budget * np.eye(len(shift))
    return KronFishers.at(X_pool[candidates], theta, shift)


def select_firal(budget, Hp, fishers, *, eta=None, repeats=False):
    """One FIRAL round on the round's input: relaxation, whitening, then
    FTRL rounding of ``budget`` picks.

    ``Hp`` is the pool Hessian and ``fishers`` the candidates' shifted
    Fishers, as :func:`round_fishers` builds them; the ``picks`` index
    ``fishers``.  With ``repeats`` a candidate may be picked again.
    ``eta=None`` tunes the rate over :func:`eta_grid`, or uses
    ``8 sqrt(d_tilde)`` with repeats.  ``budget`` must be an integer of at
    least 1 and ``Hp`` pass :func:`~firal.linalg.check_hp`; each raises
    a ``ValueError`` naming the argument.  Raises ``FloatingPointError``,
    naming both worst margins, when the rounding breaks its regret
    guarantees.
    """
    check_budget(budget)
    relaxed = relax_solve(budget, Hp, fishers)
    factors = whiten_factors(relaxed.z, fishers)
    if eta is None and not repeats:
        eta, picks, report = tune_eta(eta_grid(factors.d_tilde), factors, budget)
    else:
        if eta is None:
            eta = 8.0 * np.sqrt(factors.d_tilde)
        [(picks, report)] = select_batch(budget, [eta], factors, mask_selected=not repeats)
    if not report.holds():
        raise FloatingPointError(
            f"regret guarantee violated: worst_min_eig_margin={report.worst_min_eig:.6e} "
            f"worst_trace_margin={report.worst_trace}")
    # Hp = 0 makes every design optimal: the objective and its gap are both 0.
    gap = relaxed.gap / relaxed.objective if relaxed.objective > 0 else 0.0
    return picks, Diagnostics(float(eta), report, gap)
