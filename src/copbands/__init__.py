"""Kernel copula estimation with simultaneous confidence bands.

A transformation kernel estimator of bivariate copulas (Probit scale,
integrated Epanechnikov kernel), constant-half-width simultaneous
confidence bands derived from the iterated-logarithm normalization, a
pointwise normal-approximation baseline, Frank-copula ground truth, and a
deterministic Monte Carlo coverage harness.
"""

from .bands import (
    BandMethod,
    BandSpec,
    NumericError,
    covers,
    half_width,
    rn,
)
from .copula import (
    frank_cdf,
    frank_conditional_sample,
    frank_partials,
    frank_sigma2,
    frechet_lower,
    frechet_upper,
)
from .estimator import (
    PairedSample,
    default_bandwidth,
    estimate_grid,
    interior_grid,
    rank_estimate,
    rank_table,
)
from .montecarlo import (
    CoverageReport,
    CoverageRow,
    DeviationReport,
    DeviationRow,
    ExperimentConfig,
    run_bias_check,
    run_coverage,
    run_lil_check,
)
from .specfun import (
    epanechnikov_cdf,
    normal_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BandMethod",
    "BandSpec",
    "CoverageReport",
    "CoverageRow",
    "DeviationReport",
    "DeviationRow",
    "ExperimentConfig",
    "NumericError",
    "PairedSample",
    "covers",
    "default_bandwidth",
    "epanechnikov_cdf",
    "estimate_grid",
    "frank_cdf",
    "frank_conditional_sample",
    "frank_partials",
    "frank_sigma2",
    "frechet_lower",
    "frechet_upper",
    "half_width",
    "interior_grid",
    "normal_quantile",
    "rank_estimate",
    "rank_table",
    "rn",
    "run_bias_check",
    "run_coverage",
    "run_lil_check",
]
