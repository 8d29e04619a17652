"""Analytic communication coverage probability for cooperative clusters.

The general path evaluates the cluster-size-L coverage integral: an
alternating binomial sum of out-of-cluster interference Laplace factors,
averaged over the joint law of the ordered nearest distances (gap
representation s_1 < ... < s_L, the law the simulator realizes).  After
substituting s_i = pi * lam * r_i^2 the deployment density drops out
exactly, which is why the closed form below carries no density argument
at all.

The distance average is an adaptive integral at L = 1.  At L = 2 it is a
fixed composite Gauss-Kronrod rule in one variable, evaluated for every
threshold in one array pass: the exponent is homogeneous of degree one in
the s_i, so the integral over the nearest distance is exact and only the
distance ratio remains.  At L >= 3 it is a fixed-seed sample of the
distance law, drawn once per curve.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .specfun import (PHYSICAL_QUAD, beta_incomplete, check_bound, gk_rule,
                      gk_sum, integrate_semi_infinite, panel_edges)

__all__ = [
    "CoverageCurve",
    "interference_exponent",
    "coverage_closed_form",
    "coverage_integral",
    "coverage_curve",
]

log = logging.getLogger(__name__)

# Budget of the L = 2 fixed rule in ln rho: core panels, and how far (in
# decay lengths) the core reaches beyond the bend it covers.
_RHO_PANELS = 24
_MARGIN = 4.0


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage estimates over a grid of linear SIR thresholds.

    Analytic curves carry `quad_error`, the per-threshold error bound the
    quadrature achieved (0 where the value is exact or, at L >= 3, where
    the sampling error in `uncertainty` is the whole error).  Simulated
    curves carry the per-threshold truncation-bias bounds and the
    simulator's bookkeeping (`montecarlo.McResult`).
    """

    thresholds: np.ndarray
    values: np.ndarray
    method: str
    uncertainty: np.ndarray
    quad_error: np.ndarray | None = None
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
        if self.quad_error is not None:
            qe = np.asarray(self.quad_error, dtype=float)
            if len(qe) != len(t):
                raise ValueError("quad_error must align with thresholds")
            object.__setattr__(self, "quad_error", qe)

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


def _threshold_terms(params, thresholds):
    """Per-threshold scales a of the binomial terms n = 1..mt-1, (T, q)."""
    q = params.q_shape
    t = np.asarray(thresholds, dtype=float)[:, None]
    return params.alpha() * np.arange(1, q + 1) * t * params.pt / (q * params.pc)


def _survival(pow_sum, pow_last, a_terms, params):
    """Alternating-sum integrand given the cluster's power-law aggregates."""
    h = _h_core(pow_sum, pow_last, a_terms, params.beta)
    return (_signed_binomials(params.q_shape) * np.exp(-h)).sum(axis=-1)


def _l1_curve(params, a):
    """L = 1: adaptive integral over s1 ~ Exp(1) per threshold."""
    values, errors = [], []
    for a_terms in a:
        def f(t):
            p = t ** (-params.beta / 2.0)
            return _survival(p, p, a_terms, params) * np.exp(-t)
        v, e, _ = integrate_semi_infinite(f, 0.0, PHYSICAL_QUAD, scale=1.0,
                                          full_output=True)
        values.append(v)
        errors.append(e)
    return np.array(values), np.array(errors)


def _l2_curve(params, a):
    """L = 2 at every threshold at once: fixed rule in ln rho.

    The exponent h is homogeneous of degree one in the cluster's s values,
    so with the gaps written as t1 and t2 = rho * t1 the t1 integral is
    exact: the coverage is sum_n c_n int_0^inf (1 + rho + G_n(rho))^-2
    d rho with G_n the exponent at s = (1, 1 + rho).  The integrand lies
    in [0, (1 + rho)^-2], so it decays like rho at 0 and like 1/rho at
    infinity (rate 1 in ln rho on both sides), and it bends where the
    edge term a (1 + rho)^(-beta/2) crosses 1.
    """
    tb = 2.0 / params.beta
    hi = _MARGIN + max(tb * math.log(a.max()), 0.0)
    x, wk, wg = gk_rule(panel_edges(-_MARGIN, hi, _RHO_PANELS, 1.0, 1.0))
    rho = np.exp(x.ravel())
    pow_last = (1.0 + rho) ** (-params.beta / 2.0)
    g = _h_core(1.0 + pow_last, pow_last, a[:, None, :], params.beta)
    rho = rho[:, None]
    y = (_signed_binomials(params.q_shape) * rho / (1.0 + rho + g) ** 2).sum(axis=-1)
    return gk_sum(y.reshape((len(a),) + x.shape), wk, wg)


def _sampled_curve(params, a, integration_samples, seed):
    """L >= 3: one fixed-seed draw of the distance law for every threshold."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    s = np.cumsum(rng.standard_exponential((integration_samples, params.L)),
                  axis=1)
    pow_terms = s ** (-params.beta / 2.0)
    pow_sum = pow_terms.sum(axis=1)
    pow_last = pow_terms[:, -1]
    means, half_widths = [], []
    for a_terms in a:
        vals = _survival(pow_sum, pow_last, a_terms, params)
        means.append(float(vals.mean()))
        half_widths.append(1.96 * float(vals.std(ddof=1))
                           / math.sqrt(integration_samples))
    return np.array(means), np.array(half_widths)


def _integral_curve(params, thresholds, integration_samples, seed):
    """(values, uncertainty, quad_error) of the integral path, clamped."""
    if np.any(np.asarray(thresholds) <= 0):
        raise ValueError("threshold must be positive")
    a = _threshold_terms(params, thresholds)
    unc = np.zeros(len(a))
    if params.L == 1:
        values, quad_error = _l1_curve(params, a)
    elif params.L == 2:
        values, quad_error = _l2_curve(params, a)
        check_bound(values, quad_error, "L=2 coverage")
    else:
        values, unc = _sampled_curve(params, a, integration_samples, seed)
        quad_error = np.zeros(len(a))
    outside = (values < -1e-9) | (values > 1.0 + 1e-9)
    for v in values[outside]:
        log.warning("coverage integral %.6g outside [0,1]; clamping", v)
    return np.clip(values, 0.0, 1.0), unc, quad_error


def coverage_integral(params, threshold, integration_samples=400_000, seed=0):
    """Cluster-size-L coverage by averaging the interference Laplace sum.

    Deterministic quadrature for L <= 2: adaptive at L = 1, a fixed rule
    at L = 2.  For L >= 3 the distance average is estimated by fixed-seed
    Monte Carlo integration over the distance law (this is integration of
    the analytic integrand, not a network simulation).  Out-of-range
    results are clamped to [0, 1] and logged.
    """
    values, _, _ = _integral_curve(params, [threshold], integration_samples,
                                   seed)
    return float(values[0])


def coverage_curve(params, thresholds, method="integral",
                   integration_samples=400_000, seed=0):
    """Coverage over a threshold grid; method 'integral' or 'closed-form'.

    The integral path evaluates every threshold in one pass: one fixed
    rule at L = 2 and one draw of the distance law at L >= 3.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if method == "closed-form":
        values = np.array([coverage_closed_form(params, t) for t in thresholds])
        unc = np.zeros_like(thresholds)
        quad_error = np.zeros_like(thresholds)
    elif method == "integral":
        values, unc, quad_error = _integral_curve(params, thresholds,
                                                  integration_samples, seed)
    else:
        raise ValueError("method must be 'integral' or 'closed-form'")
    return CoverageCurve(thresholds=thresholds, values=values, method=method,
                         uncertainty=unc, quad_error=quad_error)
