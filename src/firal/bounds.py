"""Computable quantities from the excess-risk analysis.

Exposes the two risk prefactor functions, the spectral constants that can
be evaluated from matrices, the finite-sample deviation terms for the
bounded-domain regime, and the simplified 9/5 upper envelope.
"""

from __future__ import annotations

import numpy as np

from .fisher import sigma_max

# Below this point the closed forms lose digits to cancellation; a short
# series expansion takes over.
_SERIES_CUTOFF = 1e-4


def _prefactor(alpha, sign):
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(a <= 0):
        raise ValueError("alpha must be positive")
    small = a < _SERIES_CUTOFF
    out = np.empty_like(a)
    big = a[~small]
    out[~small] = (np.expm1(sign * big) - sign * big) / big**2
    s = a[small]
    out[small] = 0.5 + sign * s / 6.0 + s**2 / 24.0 + sign * s**3 / 120.0
    if np.isscalar(alpha) or np.ndim(alpha) == 0:
        return float(out[0])
    return out


def prefactor_upper(alpha):
    """``(e^a - a - 1) / a^2``, the upper-bound risk prefactor."""
    return _prefactor(alpha, +1.0)


def prefactor_lower(alpha):
    """``(e^{-a} + a - 1) / a^2``, the lower-bound risk prefactor."""
    return _prefactor(alpha, -1.0)


def rho_spectral(Hp, Vp, n_classes):
    """Largest eigenvalue of ``Hp^{-1/2} (I_{c-1} kron Vp) Hp^{-1/2}``."""
    return sigma_max(Hp, np.kron(np.eye(n_classes - 1), Vp))


def heavy_epsilons(sigma, L1, L2, L3, n, delta, d, n_classes):
    """Finite-sample deviation pair ``(eps_p, eps_q)``.

    ``eps_p = 2 sigma^2 L1 L3 sqrt((2 + 8 log(1/delta)) / n)``;
    ``eps_q`` adds ``4 sigma L2 sqrt(log(2 d (c-1) / delta) / n)``.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    eps_p = 2.0 * sigma**2 * L1 * L3 * np.sqrt((2.0 + 8.0 * np.log(1.0 / delta)) / n)
    eps_q = 4.0 * sigma * L2 * np.sqrt(np.log(2.0 * d * (n_classes - 1) / delta) / n)
    return float(eps_p), float(eps_q + eps_p)


def nine_fifths_envelope(fir_value, n):
    """Simplified risk upper envelope ``(9/5) * ratio / n``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.8 * fir_value / n
