"""Analytic communication coverage probability for cooperative clusters.

The general path evaluates the cluster-size-L coverage integral: an
alternating binomial sum of out-of-cluster interference Laplace factors,
averaged over the joint law of the ordered nearest distances (gap
representation s_1 < ... < s_L, the law the simulator realizes).  After
substituting s_i = pi * lam * r_i^2 the deployment density drops out
exactly, which is why the closed form below carries no density argument
at all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .specfun import (INNER_QUAD, PHYSICAL_QUAD, beta_incomplete,
                      integrate_semi_infinite)

__all__ = [
    "CoverageCurve",
    "interference_exponent",
    "coverage_closed_form",
    "coverage_integral",
    "coverage_curve",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage estimates over a grid of linear SIR thresholds.

    Simulated curves also carry the per-threshold truncation-bias bounds
    and the simulator's bookkeeping (`montecarlo.McResult`).
    """

    thresholds: np.ndarray
    values: np.ndarray
    method: str
    uncertainty: np.ndarray
    bias_bounds: np.ndarray | None = None
    mc_result: object | None = None

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        v = np.asarray(self.values, dtype=float)
        u = np.asarray(self.uncertainty, dtype=float)
        if not (len(t) == len(v) == len(u)):
            raise ValueError("thresholds, values, uncertainty must align")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("coverage values must lie in [0, 1]")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "uncertainty", u)

    @property
    def thresholds_db(self):
        return 10.0 * np.log10(self.thresholds)


def _signed_binomials(q):
    return np.array([(-1) ** (n + 1) * math.comb(q, n) for n in range(1, q + 1)],
                    dtype=float)


def _h_core(pow_sum, pow_last, a, beta):
    """Interference Laplace exponent given power-law distance aggregates.

    pow_sum is sum_i d_i^(-beta) over the cluster in whatever length unit
    the caller works in, pow_last the same power of the cluster edge, and
    `a` the threshold-dependent scale of each binomial term.  Broadcasts
    (m,) aggregates against (q,) terms.
    """
    tb = 2.0 / beta
    pow_sum = np.asarray(pow_sum, dtype=float)[..., None]
    pow_last = np.asarray(pow_last, dtype=float)[..., None]
    a = np.asarray(a, dtype=float)
    edge = a * pow_last
    x = edge / (pow_sum + edge)       # complement of the edge Beta argument
    db = beta_incomplete(x, 1.0 - tb, tb)
    return tb * (a / pow_sum) ** tb * db


def interference_exponent(distances, n, threshold, params):
    """Laplace exponent of the out-of-cluster interference, given distances.

    `distances` are the ordered cluster distances in meters; term index n
    runs over 1..mt-1.  The conditional coverage integrand is
    exp(-pi * lam * H) with H the value returned here (units of area).
    Vanishes as the threshold does.
    """
    r = np.asarray(distances, dtype=float)
    if r.ndim != 1 or len(r) == 0:
        raise ValueError("distances must be a non-empty 1-D array")
    if np.any(r <= 0) or np.any(np.diff(r) < 0):
        raise ValueError("distances must be positive and ascending")
    q = params.q_shape
    if not 1 <= n <= q:
        raise ValueError(f"term index n must lie in 1..{q}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    a = params.alpha() * n * threshold * params.pt / (q * params.pc)
    pow_sum = np.sum(r ** -params.beta)
    pow_last = r[-1] ** -params.beta
    return float(_h_core(pow_sum, pow_last, np.array([a]), params.beta)[..., 0])


def coverage_closed_form(params, threshold):
    """Closed-form coverage for a single serving station at beta = 4.

    Density-free by construction: the deployment intensity cancels when the
    interference exponent is averaged over the serving-distance law.
    """
    if params.L != 1:
        raise ValueError("closed form requires a single-station cluster (L=1)")
    if not math.isclose(params.beta, 4.0):
        raise ValueError("closed form requires beta = 4")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    q = params.q_shape
    alpha = params.alpha()
    total = 0.0
    for n in range(1, q + 1):
        a = threshold * alpha * n * params.pt / (q * params.pc)
        u_edge = 1.0 / (1.0 + a)
        h = math.sqrt(a) * (math.pi / 2.0 - math.asin(math.sqrt(u_edge)))
        total += (-1) ** (n + 1) * math.comb(q, n) / (1.0 + h)
    return min(max(total, 0.0), 1.0)


def _integrand_factory(params, threshold):
    q = params.q_shape
    a_terms = (params.alpha() * np.arange(1, q + 1) * threshold * params.pt
               / (q * params.pc))
    signed = _signed_binomials(q)
    half_beta = params.beta / 2.0

    def survival(s_mat):
        """Alternating-sum integrand on rows of cluster s = pi lam r^2 values."""
        pow_terms = s_mat ** -half_beta
        h = _h_core(pow_terms.sum(axis=1), pow_terms[:, -1], a_terms,
                    params.beta)
        return (signed[None, :] * np.exp(-h)).sum(axis=1)

    return survival


def coverage_integral(params, threshold, quad=None, integration_samples=400_000,
                      seed=0):
    """Cluster-size-L coverage by averaging the interference Laplace sum.

    Deterministic nested quadrature for L <= 2; for L >= 3 the distance
    average is estimated by fixed-seed Monte Carlo integration over the
    distance law (this is integration of the analytic integrand, not a
    network simulation).  Out-of-range results are clamped to [0, 1] and
    logged.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    quad = quad or PHYSICAL_QUAD
    value, _ = _coverage_integral_impl(params, threshold, quad,
                                       integration_samples, seed)
    if value < -1e-9 or value > 1.0 + 1e-9:
        log.warning("coverage integral %.6g outside [0,1]; clamping", value)
    return min(max(value, 0.0), 1.0)


def _coverage_integral_impl(params, threshold, quad, integration_samples,
                            seed):
    survival = _integrand_factory(params, threshold)
    L = params.L

    if L == 1:
        def f(t):
            return survival(t[:, None]) * np.exp(-t)
        return integrate_semi_infinite(f, 0.0, quad, scale=1.0), 0.0

    if L == 2:
        # gaps: s1 = t1, s2 = t1 + t2, weight e^(-t1) e^(-t2)
        def outer(t1_arr):
            out = np.empty_like(t1_arr)
            for i, t1 in enumerate(t1_arr):
                def inner(t2):
                    s = np.column_stack([np.full_like(t2, t1), t1 + t2])
                    return survival(s) * np.exp(-t2)
                out[i] = integrate_semi_infinite(inner, 0.0, INNER_QUAD,
                                                 scale=1.0)
            return out * np.exp(-t1_arr)
        return integrate_semi_infinite(outer, 0.0, quad, scale=1.0), 0.0

    # L >= 3: Monte Carlo integration over the distance law
    rng = np.random.Generator(np.random.Philox(key=seed))
    s = np.cumsum(rng.standard_exponential((integration_samples, L)), axis=1)
    vals = survival(s)
    mean = float(vals.mean())
    half_width = 1.96 * float(vals.std(ddof=1)) / math.sqrt(integration_samples)
    return mean, half_width


def coverage_curve(params, thresholds, method="integral", quad=None,
                   integration_samples=400_000, seed=0):
    """Coverage over a threshold grid; method 'integral' or 'closed-form'."""
    thresholds = np.asarray(thresholds, dtype=float)
    values = np.empty_like(thresholds)
    unc = np.zeros_like(thresholds)
    for i, t in enumerate(thresholds):
        if method == "closed-form":
            values[i] = coverage_closed_form(params, t)
        elif method == "integral":
            if params.L >= 3:
                v, hw = _coverage_integral_impl(params, t, quad or PHYSICAL_QUAD,
                                                integration_samples, seed)
                values[i] = min(max(v, 0.0), 1.0)
                unc[i] = hw
            else:
                values[i] = coverage_integral(params, t, quad,
                                              integration_samples, seed)
        else:
            raise ValueError("method must be 'integral' or 'closed-form'")
    return CoverageCurve(thresholds=thresholds, values=values, method=method,
                         uncertainty=unc)
