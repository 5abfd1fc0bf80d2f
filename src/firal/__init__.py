"""Information-ratio active learning for multinomial logistic regression.

Library layout:

- :mod:`firal.model` -- the classifier, its derivatives, and Newton ERM
- :mod:`firal.fisher` -- information aggregation and the design objective
- :mod:`firal.relax` -- the relaxed design, solved to a certificate
- :mod:`firal.sparsify` -- regret-minimization rounding with audits
- :mod:`firal.baselines` -- comparison selectors
- :mod:`firal.synth` -- synthetic protocols and Monte-Carlo risk
- :mod:`firal.embed` -- k-NN normalized-Laplacian spectral embedding
- :mod:`firal.bounds` -- computable quantities from the risk analysis
- :mod:`firal.cli` -- ``select_firal`` (one round), harness and command line
"""

from .bounds import (
    heavy_epsilons,
    nine_fifths_envelope,
    prefactor_lower,
    prefactor_upper,
    rho_spectral,
)
from .fisher import (
    f_objective,
    fir,
    labeled_shift,
    pool_hessian,
    sigma_max,
    whiten_factors,
)
from .model import (
    FitResult,
    KronFishers,
    fit_erm,
    loss_gradient,
    nll_loss,
    point_fisher,
    predict_proba,
)
from .relax import RelaxResult, relax_gradient, relax_solve
from .sparsify import ftrl_action, score_candidate, select_batch
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
    "f_objective",
    "fir",
    "fit_erm",
    "ftrl_action",
    "heavy_epsilons",
    "labeled_shift",
    "loss_gradient",
    "make_theta_star",
    "mc_excess_risk",
    "nine_fifths_envelope",
    "nll_loss",
    "point_fisher",
    "pool_hessian",
    "predict_proba",
    "prefactor_lower",
    "prefactor_upper",
    "relax_gradient",
    "relax_solve",
    "rho_spectral",
    "sample_labels",
    "sample_pool",
    "score_candidate",
    "select_batch",
    "sigma_max",
    "whiten_factors",
]
