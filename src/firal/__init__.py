"""Information-ratio active learning for multinomial logistic regression.

Library layout:

- :mod:`firal.linalg` -- PSD inverses and solves under one near-singular rule
- :mod:`firal.model` -- the classifier, its loss, and Newton ERM
- :mod:`firal.fisher` -- information aggregation and the design objective
- :mod:`firal.relax` -- the relaxed design, solved to a certificate
- :mod:`firal.sparsify` -- regret-minimization rounding with audits
- :mod:`firal.round` -- one FIRAL round, ``round_fishers`` and ``select_firal``
- :mod:`firal.baselines` -- comparison selectors
- :mod:`firal.synth` -- synthetic protocols and Monte-Carlo risk
- :mod:`firal.embed` -- k-NN normalized-Laplacian spectral embedding
- :mod:`firal.bounds` -- computable quantities from the risk analysis
- :mod:`firal.cli` -- experiment harness and command line
"""

from .bounds import (
    heavy_epsilons,
    nine_fifths_envelope,
    prefactor_lower,
    prefactor_upper,
    rho_spectral,
)
from .fisher import (
    fir,
    pool_hessian,
    sigma_max,
    whiten_factors,
)
from .model import (
    FitResult,
    KronFishers,
    fit_erm,
)
from .relax import RelaxResult, relax_solve
from .round import round_fishers, select_firal
from .sparsify import ftrl_action, select_batch
from .synth import (
    DesignSpec,
    make_theta_star,
    mc_excess_risk,
    sample_labels,
    sample_pool,
)

__version__ = "0.1.0"

__all__ = [
    "DesignSpec",
    "FitResult",
    "KronFishers",
    "RelaxResult",
    "fir",
    "fit_erm",
    "ftrl_action",
    "heavy_epsilons",
    "make_theta_star",
    "mc_excess_risk",
    "nine_fifths_envelope",
    "pool_hessian",
    "prefactor_lower",
    "prefactor_upper",
    "relax_solve",
    "rho_spectral",
    "round_fishers",
    "sample_labels",
    "sample_pool",
    "select_batch",
    "select_firal",
    "sigma_max",
    "whiten_factors",
]
