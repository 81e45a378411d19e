"""Kernel copula estimation with simultaneous confidence bands.

A transformation kernel estimator of bivariate copulas (Probit scale,
integrated Epanechnikov kernel), constant-half-width simultaneous
confidence bands derived from the iterated-logarithm normalization, a
pointwise normal-approximation baseline, Frank-copula ground truth, and a
deterministic Monte Carlo coverage harness.
"""

from . import bands, copula, estimator, montecarlo, specfun
from .bands import *  # noqa: F403
from .copula import *  # noqa: F403
from .estimator import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (bands, copula, estimator, montecarlo, specfun) for name in module.__all__
]
