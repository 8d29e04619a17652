"""Performance evaluation of cooperative sensing-and-communication networks.

Analytic coverage probability and radar information rate over Poisson
station deployments, cross-validated by a vectorized Monte Carlo simulator.
"""

from .approx import AlphaFit, fit_alpha, ks_distance, verify_conjecture1
from .coverage import (CoverageCurve, coverage_closed_form, coverage_curve,
                       coverage_integral)
from .montecarlo import (McConfig, McResult, mc_coverage, mc_coverage_sweep,
                         mc_radar_rate, mc_radar_rate_sweep)
from .params import SystemParams
from .radar import RateEstimate, radar_rate, radar_rate_single
from .specfun import ConvergenceError

__version__ = "0.1.0"

__all__ = [
    "AlphaFit", "fit_alpha", "ks_distance", "verify_conjecture1",
    "CoverageCurve", "coverage_closed_form", "coverage_curve",
    "coverage_integral",
    "McConfig", "McResult", "mc_coverage", "mc_coverage_sweep",
    "mc_radar_rate", "mc_radar_rate_sweep",
    "SystemParams",
    "RateEstimate", "radar_rate", "radar_rate_single",
    "ConvergenceError",
    "__version__",
]
