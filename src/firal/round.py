"""One FIRAL selection round: the round's input, the relaxation, whitening,
eta tuning, and regret-minimization rounding with its audit."""

from dataclasses import dataclass

import numpy as np

from .fisher import labeled_shift, whiten_factors
from .model import KronFishers
from .relax import relax_solve
from .sparsify import AuditReport, select_batch

DEFAULT_ETA_GRID_POWERS = range(-2, 6)
# Rates that pick one set in different orders score equally in exact
# arithmetic; a later rate must win by this relative margin, not by rounding.
ETA_TIE_REL = 1e-12


def eta_grid(d_tilde):
    """Default learning-rate grid ``{2^j sqrt(d_tilde), j = -2..5}``."""
    return [2.0**j * np.sqrt(d_tilde) for j in DEFAULT_ETA_GRID_POWERS]


def tune_eta(etas, factors, budget):
    """Pick the rate whose masked selection maximizes the smallest
    eigenvalue of the summed whitened picks.  Ties, scores within a
    relative :data:`ETA_TIE_REL`, keep the earlier grid position, so a
    duplicate grid entry never replaces its first occurrence.

    Returns ``(eta, picks, report)``, the winning rate with the
    :func:`select_batch` result it was scored on.
    """
    best = best_val = None
    for e in map(float, etas):
        picks, report = select_batch(budget, e, factors)
        val = report.min_eig
        if best is None or val > best_val + ETA_TIE_REL * abs(best_val):
            best, best_val = (e, picks, report), val
    if best is None:
        raise ValueError("eta grid must be nonempty")
    return best


@dataclass
class Diagnostics:
    """What a FIRAL round reports besides its picks."""

    eta: float                 # the rounding rate used
    report: AuditReport        # regret-guarantee margins of the rounding
    relax_gap: float           # Frank-Wolfe gap of the relaxation / its objective


def round_fishers(X_pool, labeled, candidates, theta, budget):
    """The round's candidate Fishers with the labeled shift, as both search selectors read them."""
    X_pool = np.asarray(X_pool, dtype=float)
    shift = labeled_shift(X_pool[np.sort(np.asarray(labeled, dtype=int))], theta, budget)
    return KronFishers.at(X_pool[candidates], theta, shift)


def select_firal(budget, Hp, fishers, *, eta=None, repeats=False):
    """One FIRAL round on the round's input: relaxation, whitening, then
    FTRL rounding of ``budget`` picks.

    ``Hp`` is the pool Hessian and ``fishers`` the candidates' shifted
    Fishers, as :func:`round_fishers` builds them; the ``picks`` index
    ``fishers``.  With ``repeats`` a candidate may be picked again.
    ``eta=None`` tunes the rate over :func:`eta_grid`, or uses
    ``8 sqrt(d_tilde)`` with repeats.  Raises ``FloatingPointError``, naming
    both worst margins, when the rounding breaks its regret guarantees.
    """
    relaxed = relax_solve(budget, Hp, fishers)
    factors = whiten_factors(relaxed.z, fishers)
    if eta is None and not repeats:
        eta, picks, report = tune_eta(eta_grid(factors.d_tilde), factors, budget)
    else:
        if eta is None:
            eta = 8.0 * np.sqrt(factors.d_tilde)
        picks, report = select_batch(budget, eta, factors, mask_selected=not repeats)
    if not report.holds():
        raise FloatingPointError(
            f"regret guarantee violated: worst_min_eig_margin={report.worst_min_eig:.6e} "
            f"worst_trace_margin={report.worst_trace}")
    return picks, Diagnostics(float(eta), report, relaxed.gap / relaxed.objective)
