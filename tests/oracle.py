"""Dense reference for the candidate Fisher matrices, built point by point
from the ``np.kron`` oracle :func:`firal.model.point_fisher`, independently
of the factored :class:`firal.model.KronFishers` the selectors read."""

import numpy as np

from firal.model import point_fisher


def dense_fishers(X, theta, shift=0.0):
    """``point_fisher(x_i, theta) + shift`` for every row of ``X``, stacked
    as ``(m, d_tilde, d_tilde)``."""
    return np.array([point_fisher(x, theta) + shift for x in X])
