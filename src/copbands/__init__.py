"""Kernel copula estimation with simultaneous confidence bands.

A transformation kernel estimator of bivariate copulas (Probit scale,
integrated Epanechnikov kernel), constant-half-width simultaneous
confidence bands derived from the iterated-logarithm normalization, a
pointwise normal-approximation baseline, Frank-copula ground truth, and a
deterministic Monte Carlo coverage harness. ``estimate`` and ``bands`` load
neither the process pool nor ``copbands.montecarlo``, and the package loads
the engine on first use.
"""

from . import bands, copula, estimator, specfun
from .bands import *  # noqa: F403
from .copula import *  # noqa: F403
from .estimator import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

# montecarlo.__all__, imported from here so that the package can list it without the engine
_ENGINE = ("WORKERS_ENV", "REPLICATE_CHUNK", "ExperimentConfig", "CoverageRow", "CoverageReport",
           "DeviationRow", "DeviationReport", "run_coverage", "run_lil_check", "run_bias_check")
__all__ = ["__version__", *bands.__all__, *copula.__all__, *estimator.__all__, *_ENGINE,
           *specfun.__all__]


def __getattr__(name):
    """``montecarlo`` or a name of its ``__all__``, imported on first use and kept (PEP 562)."""
    if name != "montecarlo" and name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import copbands.montecarlo as engine  # the import binds copbands.montecarlo
    return engine if name == "montecarlo" else globals().setdefault(name, getattr(engine, name))


def __dir__():
    return sorted({*globals(), "montecarlo", *_ENGINE})
