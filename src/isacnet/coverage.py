"""Analytic communication coverage probability for cooperative clusters.

The general path evaluates the cluster-size-L coverage integral: an
alternating binomial sum of out-of-cluster interference Laplace factors,
averaged over the joint law of the ordered nearest distances (gap
representation s_1 < ... < s_L, the law the simulator realizes).  After
substituting s_i = pi * lam * r_i^2 the deployment density drops out
exactly, which is why the closed form below carries no density argument
at all.

The exponent is homogeneous of degree one in the s_i, so with
s = s_1 (1, x_2, ..., x_L) the integral over the nearest distance s_1 is
exact and only the distance ratios remain.  At L = 1 there are none and
the coverage is a finite sum.  At L >= 2 the ratios are integrated by a
fixed composite Gauss-Kronrod rule in ln(x_L - 1) times one GK15 rule per
intermediate station, evaluated as array passes per threshold; the
embedded 7-point Gauss sums give the error bound each value reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import factorial

from .specfun import (beta_incomplete, check_bound, gk_rule, gk_sum, in_chunks,
                      panel_edges)

__all__ = [
    "CoverageCurve",
    "interference_exponent",
    "coverage_closed_form",
    "coverage_integral",
    "coverage_curve",
]

log = logging.getLogger(__name__)

# Budget of the L >= 2 fixed rule: core panels in ln rho, how far (in decay
# lengths) the core reaches beyond the bend it covers, and GK15 panels per
# intermediate-station direction theta.
_RHO_PANELS = 24
_MARGIN = 4.0
_THETA_PANELS = 1


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage estimates over a grid of linear SIR thresholds.

    Analytic curves carry `quad_error`, the per-threshold error bound the
    fixed rule achieved (0 where the value is a closed form or, at L = 1,
    a finite sum), and an `uncertainty` of 0.  Simulated curves carry the
    95% half-widths in `uncertainty`, a `quad_error` of zeros (None is left
    to curves no library path writes), the per-threshold truncation-bias
    bounds and the simulator's bookkeeping (`montecarlo.McResult`).
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
        if not (len(t) == len(v) == len(self.uncertainty)):
            raise ValueError("thresholds, values, uncertainty must align")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be increasing, with no repeats")
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("coverage values must lie in [0, 1]")
        if self.quad_error is not None and len(self.quad_error) != len(t):
            raise ValueError("quad_error must align with thresholds")

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
    Vanishes as the threshold does.  Raises ValueError when pc = 0.
    """
    _require_comm_power(params)
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


def _require_comm_power(params):
    if params.pc == 0.0:
        raise ValueError("coverage is undefined without communication power "
                         "(pc = 0)")


def coverage_closed_form(params, threshold):
    """Closed-form coverage for a single serving station at beta = 4.

    Density-free by construction: the deployment intensity cancels when the
    interference exponent is averaged over the serving-distance law.
    """
    _require_comm_power(params)
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


def _theta_rule(m):
    """The m-fold tensor GK15 rule in theta on (0, 1), one term per multiset.

    The integrand it serves is symmetric in the theta_j, so the tensor
    nodes that are permutations of one multiset of node indices share one
    evaluation, weighted by the multinomial count.  Returns the nodes (n,),
    each multiset's node counts (K, n) and its K15 and G7 tensor weights
    (K,); at m = 0 the one empty multiset has weight 1.
    """
    theta, wk, wg = (r.ravel() for r in
                     gk_rule(panel_edges(0.0, 1.0, _THETA_PANELS)))
    idx = np.array(list(combinations_with_replacement(range(len(theta)), m)),
                   dtype=int)
    counts = (idx[..., None] == np.arange(len(theta))).sum(axis=1)
    multi = math.factorial(m) / factorial(counts).prod(axis=1)
    return (theta, counts, multi * wk[idx].prod(axis=1),
            multi * wg[idx].prod(axis=1))


def _theta_integrals(u, a_terms, params, rule):
    """K15 and G7 theta integrals of the L >= 2 integrand at u = ln rho.

    With c = ln x_L = ln(1 + rho) the integrand in (ln rho, theta) is
    J * F, J = (L-1) rho c^(L-2) exp(c (sum_j theta_j - L)) and
    F = sum_n c_n (1 + G_n / x_L)^-L.  F is split into F at theta = 1
    (every intermediate station at the cluster edge), whose theta integral
    is exact because that of J is (L-1) rho^(L-1) x_L^-L, and the rest,
    which vanishes where the rule's exponential weight exp(c theta_j) is
    hard to resolve.  At L = 2 there is no theta and the exact part is the
    whole integral.  Returns the two (rho,) arrays.
    """
    L, beta = params.L, params.beta
    theta, counts, w_k, w_g = rule
    signed = _signed_binomials(params.q_shape)
    rho = np.exp(u)[:, None]
    c = np.log1p(rho)
    pow_last = np.exp(-0.5 * beta * c)

    def survival(pow_sum):
        g = _h_core(pow_sum, pow_last, a_terms, beta)
        return (signed * (1.0 + g / (1.0 + rho)[..., None]) ** -L).sum(axis=-1)

    f_edge = survival(1.0 + (L - 1) * pow_last)
    f = survival(1.0 + pow_last + np.exp(-0.5 * beta * c * theta) @ counts.T)
    jac = (L - 1) * rho * c ** (L - 2) * np.exp(c * (counts @ theta - L))
    y = (f - f_edge) * jac
    exact = (L - 1) * np.exp((L - 1) * u - L * c[:, 0]) * f_edge[:, 0]
    return y @ w_k + exact, y @ w_g + exact


def _cluster_curve(params, a):
    """L >= 2, each threshold on its own fixed rule in ln rho and theta.

    Write s = s_1 (1, x_2, ..., x_L).  The exponent is homogeneous of
    degree one in s, so the s_1 integral is exact: the coverage is
    sum_n c_n (L-1)! int (x_L + G_n(x))^-L dx over 1 < x_2 < ... < x_L,
    with G_n the exponent at s = (1, x_2, ..., x_L).  The intermediate
    x_j enter only through their power sum, so they may be unordered (a
    factor 1/(L-2)!), and with x_L = 1 + rho and x_j = x_L^theta_j,
    theta_j in (0, 1), the coverage is
        sum_n c_n int_0^inf (L-1) int_(0,1)^(L-2) prod_j (x_j ln x_L)
                  (x_L + G_n)^-L d theta d rho.
    In ln rho the integrand decays like rho^(L-1) at 0 and like 1/rho at
    infinity (rates L-1 and 1), and it bends where the edge term
    a x_L^(-beta/2) crosses 1; the rule's range depends on the threshold
    alone, so a curve and single-threshold calls give equal values.  The
    bound is the ln rho K15 - G7 bound plus |K15 - G7| in theta.
    Returns (values, bounds).
    """
    tb = 2.0 / params.beta
    rule = _theta_rule(params.L - 2)
    cost = len(rule[2]) * params.q_shape      # temporaries per rho node
    values, bounds = np.empty(len(a)), np.empty(len(a))
    for i, a_terms in enumerate(a):
        hi = _MARGIN + max(tb * math.log(a_terms[-1]), 0.0)
        u, wk, wg = gk_rule(panel_edges(-_MARGIN, hi, _RHO_PANELS,
                                        params.L - 1.0, 1.0))
        y_k, y_g = in_chunks(
            lambda uc: _theta_integrals(uc, a_terms, params, rule),
            u.ravel(), cost)
        values[i], bounds[i] = gk_sum(y_k.reshape(u.shape), wk, wg)
        bounds[i] += abs(np.sum((y_k - y_g).reshape(u.shape) * wk))
    return values, bounds


def _integral_curve(params, thresholds):
    """(values, quad_error) of the integral path, clamped to [0, 1]."""
    _require_comm_power(params)
    if np.any(np.asarray(thresholds) <= 0):
        raise ValueError("threshold must be positive")
    a = _threshold_terms(params, thresholds)
    if params.L == 1:
        # s_1 ~ Exp(1) alone: E[exp(-s_1 G_n)] = 1 / (1 + G_n)
        g = _h_core(1.0, 1.0, a, params.beta)
        values = (_signed_binomials(params.q_shape) / (1.0 + g)).sum(axis=-1)
        quad_error = np.zeros(len(a))
    else:
        values, quad_error = _cluster_curve(params, a)
        check_bound(values, quad_error, f"L={params.L} coverage")
    outside = (values < -1e-9) | (values > 1.0 + 1e-9)
    for v in values[outside]:
        log.warning("coverage integral %.6g outside [0,1]; clamping", v)
    return np.clip(values, 0.0, 1.0), quad_error


def coverage_integral(params, threshold):
    """Cluster-size-L coverage by averaging the interference Laplace sum.

    A finite sum at L = 1 and, at L >= 2, a fixed rule whose error bound
    must meet PHYSICAL_QUAD (ConvergenceError otherwise).  Out-of-range
    results are clamped to [0, 1] and logged.  Raises ValueError when
    pc = 0, where coverage is undefined.
    """
    values, _ = _integral_curve(params, [threshold])
    return float(values[0])


def coverage_curve(params, thresholds, method="integral"):
    """Coverage over a threshold grid; method 'integral' or 'closed-form'.

    The integral path gives each threshold the value and error bound of a
    single `coverage_integral` call.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if method == "closed-form":
        values = np.array([coverage_closed_form(params, t) for t in thresholds])
        quad_error = np.zeros_like(thresholds)
    elif method == "integral":
        values, quad_error = _integral_curve(params, thresholds)
    else:
        raise ValueError("method must be 'integral' or 'closed-form'")
    return CoverageCurve(thresholds=thresholds, values=values, method=method,
                         uncertainty=np.zeros_like(thresholds),
                         quad_error=quad_error)
