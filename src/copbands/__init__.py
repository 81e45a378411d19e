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
    BandSurfaces,
    NumericError,
    covers,
    half_width,
    lil_bands,
    normal_bands,
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
    CopulaGrid,
    PairedSample,
    PseudoSample,
    default_bandwidth,
    estimate_grid,
    estimate_point,
    interior_grid,
    make_pseudo_sample,
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
    "BandSurfaces",
    "CopulaGrid",
    "CoverageReport",
    "CoverageRow",
    "DeviationReport",
    "DeviationRow",
    "ExperimentConfig",
    "NumericError",
    "PairedSample",
    "PseudoSample",
    "covers",
    "default_bandwidth",
    "epanechnikov_cdf",
    "estimate_grid",
    "estimate_point",
    "frank_cdf",
    "frank_conditional_sample",
    "frank_partials",
    "frank_sigma2",
    "frechet_lower",
    "frechet_upper",
    "half_width",
    "interior_grid",
    "lil_bands",
    "make_pseudo_sample",
    "normal_bands",
    "normal_quantile",
    "rank_estimate",
    "rank_table",
    "rn",
    "run_bias_check",
    "run_coverage",
    "run_lil_check",
]
