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
fixed composite Gauss-Kronrod rule over the law of x_L - 1 in ln(x_L - 1)
(`_ratio_rule`) times one GK15 rule per intermediate station, evaluated
as array passes per threshold; the embedded 7-point Gauss sums give the
error bound each value reports.

Every value, closed form included, is one alternating binomial sum over
the mt - 1 antenna terms (`_antenna_sum`).  It cancels more digits the
more antennas there are, so every value also reports a bound on its
rounding error; a bound that misses PHYSICAL_QUAD (at beta = 4 from
mt = 34 at L = 1 and -10 dB), or a value farther outside [0, 1] than its
bound, raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import factorial

from .specfun import (ConvergenceError, beta_incomplete, check_bound, gk_rule,
                      gk_sum, in_chunks, panel_edges)

__all__ = [
    "CoverageCurve",
    "coverage_closed_form",
    "coverage_integral",
    "coverage_curve",
]

# Budget of the ratio-law rule: core panels in ln rho, how far (in decay
# lengths) the core reaches beyond the bend it covers (the radar rates'
# outer cores reach as far); and GK15 panels per intermediate-station
# direction theta.
_RHO_PANELS = 24
_MARGIN = 4.0
_THETA_PANELS = 1

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage estimates over a grid of linear SIR thresholds.

    Analytic curves, closed form included, carry `quad_error`, the
    per-threshold error bound (the rounding bound of the alternating
    binomial sum, plus at L >= 2 the bound the fixed rule achieved), and an
    `uncertainty` of 0.  Simulated curves carry the 95% half-widths in
    `uncertainty`, a `quad_error` of zeros, the per-threshold
    truncation-bias bounds and the simulator's bookkeeping
    (`montecarlo.McResult`).
    """

    thresholds: np.ndarray
    values: np.ndarray
    method: str
    uncertainty: np.ndarray
    quad_error: np.ndarray
    bias_bounds: np.ndarray | None = None
    mc_result: object | None = None

    def __post_init__(self):
        t = _threshold_grid(self.thresholds)
        v = np.asarray(self.values, dtype=float)
        if not (len(t) == len(v) == len(self.uncertainty)):
            raise ValueError("thresholds, values, uncertainty must align")
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("coverage values must lie in [0, 1]")
        if len(self.quad_error) != len(t):
            raise ValueError("quad_error must align with thresholds")

    @property
    def thresholds_db(self):
        return 10.0 * np.log10(self.thresholds)


def _signed_binomials(q):
    try:
        return np.array([(-1) ** (n + 1) * math.comb(q, n)
                         for n in range(1, q + 1)], dtype=float)
    except OverflowError:
        raise ConvergenceError(
            f"coverage: the binomial coefficients C({q}, n) overflow a "
            f"double (error bound inf)", error_bound=math.inf) from None


def _amplify(r, cond, L):
    """Rounding error of each term c_n (1 + r_n)^-L, r_n = G_n / x_L, in
    units of eps |term|; cond is r_n times G_n's Beta-argument condition
    number (below).

    An error model: G_n carries three eps, for the five roundings of
    a_n = alpha n t pt / (q pc), which G passes on at most one for one,
    and its own; plus one for the rounding of its Beta argument x, which
    B(x; 1 - 2/beta, 2/beta) amplifies by x B'(x) / B.  A term passes
    L r_n / (1 + r_n) of G_n's relative error on, and it and the sum add
    one eps more.  At L = 1, against the sum at 50-digit mpmath from exact
    a_n, eps sum_n |term| times this was 3.2x the error or more over beta
    in {2.5, 4, 6}, mt 4-40 and -10..40 dB.
    """
    return 1.0 + L * (3.0 * r + cond) / (1.0 + r)


def _antenna_sum(g, cond, x_L, L):
    """The binomial sum over the last axis of the exponents g = G_n and its
    rounding bound: sum_n c_n (1 + G_n / x_L)^-L, with cond as `_amplify`
    reads it.  Returns (sum, bound), each of shape g.shape[:-1].
    """
    signed = _signed_binomials(g.shape[-1])
    r = g / x_L
    damp = (1.0 + r) ** -L
    return ((signed * damp).sum(axis=-1),
            _EPS * ((damp * _amplify(r, cond, L)) @ np.abs(signed)))


def _h_core(pow_sum, pow_last, a, beta):
    """Interference Laplace exponent given power-law distance aggregates.

    pow_sum is sum_i d_i^(-beta) over the cluster in whatever length unit
    the caller works in, pow_last the same power of the cluster edge, and
    `a` the threshold-dependent scale of each binomial term.  Broadcasts
    (m,) aggregates against (q,) terms.  It matches
    `radar.interference_laplace_kernel` minus the complement branch for
    zeta = a pow_last / pow_sum > 1: here zeta <= a stays moderate, and the
    branch slowed 16-threshold L = 5 curves from about 4 s to 6-7 s.
    """
    tb = 2.0 / beta
    pow_sum = np.asarray(pow_sum, dtype=float)[..., None]
    pow_last = np.asarray(pow_last, dtype=float)[..., None]
    a = np.asarray(a, dtype=float)
    edge = a * pow_last
    x = edge / (pow_sum + edge)       # complement of the edge Beta argument
    db = beta_incomplete(x, 1.0 - tb, tb)
    return tb * (a / pow_sum) ** tb * db


def _require_comm_power(params):
    if params.pc == 0.0:
        raise ValueError("coverage is undefined without communication power "
                         "(pc = 0)")


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


def _ratio_rule(m, bend):
    """Composite GK15 rule in u = ln rho over the law of rho = s_m / s_1 - 1.

    The law, (m-1) rho^(m-1) (1+rho)^-m du, decays at rates m-1 and 1 at
    the two ends.  The core runs from -_MARGIN to _MARGIN beyond max(bend,
    0), where the caller's integrand last bends; `bend` broadcasts, one
    core per element.  Returns u and the K15 and G7 weights times the law.
    """
    u, wk, wg = gk_rule(panel_edges(-_MARGIN, _MARGIN + np.maximum(bend, 0.0),
                                    _RHO_PANELS, m - 1.0, 1.0))
    density = (m - 1) * np.exp((m - 1) * u - m * np.log1p(np.exp(u)))
    return u, wk * density, wg * density


def _theta_integrals(u, a_terms, params, rule):
    """K15 and G7 averages over theta of the L >= 2 integrand given rho.

    With c = ln x_L = ln(1 + rho) the intermediate stations have density
    prod_j (x_j c / rho) in theta, and the integrand is F = sum_n c_n
    (1 + G_n / x_L)^-L.  Only F - F(theta = 1) goes through the theta rule:
    it vanishes where the density's factor exp(c theta_j) is hard to
    resolve.  Returns the two (rho,) arrays and the rounding bound of the
    K15 average (the rounding of F(theta = 1) cancels to first order).
    """
    L, beta = params.L, params.beta
    theta, counts, w_k, w_g = rule
    rho = np.exp(u)[:, None]
    c = np.log1p(rho)
    pow_last = np.exp(-0.5 * beta * c)
    x_last = (1.0 + rho)[..., None]
    # r_n times G_n's condition number (`_amplify`) is
    # (2/beta) a_n pow_last^(1 - 2/beta) / (pow_sum x_L)
    cond_last = (2.0 / beta * a_terms
                 * pow_last[..., None] ** (1.0 - 2.0 / beta) / x_last)

    edge = 1.0 + (L - 1) * pow_last
    f_edge, edge_round = _antenna_sum(_h_core(edge, pow_last, a_terms, beta),
                                      cond_last / edge[..., None], x_last, L)
    if L == 2:      # no intermediate stations: theta's one node is the edge
        return f_edge[:, 0], f_edge[:, 0], edge_round[:, 0]
    pow_sum = 1.0 + pow_last + np.exp(-0.5 * beta * c * theta) @ counts.T
    f, f_round = _antenna_sum(_h_core(pow_sum, pow_last, a_terms, beta),
                              cond_last / pow_sum[..., None], x_last, L)
    density = np.exp(c * (counts @ theta) + (L - 2) * np.log(c / rho))
    y = (f - f_edge) * density
    return (y @ w_k + f_edge[:, 0], y @ w_g + f_edge[:, 0],
            (f_round * density) @ w_k)


def _cluster_curve(params, a):
    """L >= 2, each threshold on its own fixed rule in ln rho and theta.

    Write s = s_1 (1, x_2, ..., x_L).  The exponent is homogeneous of
    degree one in s, so the s_1 integral is exact: the coverage is
    sum_n c_n (L-1)! int (x_L + G_n(x))^-L dx over 1 < x_2 < ... < x_L,
    with G_n the exponent at s = (1, x_2, ..., x_L).  The x_j (j < L) enter
    only through their power sum, so they may be unordered (a factor
    1/(L-2)!); with x_L = 1 + rho and x_j = x_L^theta_j the coverage is the
    average of `_theta_integrals` over the law of rho (`_ratio_rule`).  The
    integrand bends where a x_L^(-beta/2) crosses 1, so the rule's range
    depends on the threshold alone and a curve equals single-threshold
    calls.  The bound is the ln rho K15 - G7 bound plus |K15 - G7| in
    theta plus the rounding bound of the binomial sum.  Returns (values,
    bounds).
    """
    rule = _theta_rule(params.L - 2)
    cost = len(rule[2]) * params.q_shape      # temporaries per rho node
    u, wk, wg = _ratio_rule(params.L, 2.0 / params.beta * np.log(a[:, -1]))
    values, bounds = np.empty(len(a)), np.empty(len(a))
    for i, a_terms in enumerate(a):
        y_k, y_g, y_round = in_chunks(
            lambda uc: _theta_integrals(uc, a_terms, params, rule),
            u[i].ravel(), cost)
        values[i], bounds[i] = gk_sum(y_k.reshape(u[i].shape), wk[i], wg[i])
        bounds[i] += abs(np.sum((y_k - y_g).reshape(u[i].shape) * wk[i]))
        bounds[i] += np.sum(y_round.reshape(u[i].shape) * wk[i])
    return values, bounds


def _threshold_grid(thresholds):
    """The linear SIR thresholds as a float array, checked."""
    t = np.asarray(thresholds, dtype=float)
    if t.ndim != 1 or len(t) == 0 or np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("thresholds must be non-empty, 1-D, positive, increasing")
    return t


def _curve(params, thresholds, method):
    """(values, quad_error) of either method on a checked threshold grid."""
    _require_comm_power(params)
    a = _threshold_terms(params, thresholds)
    if method == "closed-form":
        if params.L != 1:
            raise ValueError("closed form requires a single-station cluster (L=1)")
        if not math.isclose(params.beta, 4.0):
            raise ValueError("closed form requires beta = 4")
        # the beta = 4 exponent in arcsine form, independent of _h_core
        g = np.sqrt(a) * (math.pi / 2.0 - np.arcsin(np.sqrt(1.0 / (1.0 + a))))
        values, bound = _antenna_sum(g, 0.5 * a, 1.0, 1)
    elif method != "integral":
        raise ValueError("method must be 'integral' or 'closed-form'")
    elif params.L == 1:
        # s_1 ~ Exp(1) alone: E[exp(-s_1 G_n)] = 1 / (1 + G_n)
        values, bound = _antenna_sum(_h_core(1.0, 1.0, a, params.beta),
                                     2.0 / params.beta * a, 1.0, 1)
    else:
        values, bound = _cluster_curve(params, a)
    what = f"L={params.L} {method} coverage"
    check_bound(values, bound, what)
    excess = np.maximum(values - 1.0, -values)
    if np.any(excess > bound):
        i = int(np.argmax(excess - bound))
        raise ConvergenceError(
            f"{what}: estimate {values[i]:.17g} lies outside [0, 1] by more "
            f"than its error bound {bound[i]:.3g}",
            estimate=values, error_bound=bound)
    return np.clip(values, 0.0, 1.0), bound


def coverage_closed_form(params, threshold):
    """Closed-form coverage for a single serving station at beta = 4.

    Density-free by construction: the deployment intensity cancels when the
    interference exponent is averaged over the serving-distance law.  Its
    exponent is the arcsine form, not `_h_core`, so it checks the integral
    path.  Raises ConvergenceError as `coverage_curve` does.
    """
    values, _ = _curve(params, _threshold_grid([threshold]), "closed-form")
    return float(values[0])


def coverage_integral(params, threshold):
    """Cluster-size-L coverage by averaging the interference Laplace sum.

    A finite sum at L = 1 and, at L >= 2, a fixed rule; raises
    ConvergenceError as `coverage_curve` does, and ValueError when pc = 0,
    where coverage is undefined.
    """
    values, _ = _curve(params, _threshold_grid([threshold]), "integral")
    return float(values[0])


def coverage_curve(params, thresholds, method="integral"):
    """Coverage over a threshold grid; method 'integral' or 'closed-form'.

    The grid must be non-empty, 1-D, positive and increasing.  Each
    threshold gets the value and error bound of a single-threshold call.
    A bound that misses PHYSICAL_QUAD, or a value farther outside [0, 1]
    than its bound (the bound is then wrong), raises ConvergenceError;
    otherwise the values are clipped to [0, 1].
    """
    thresholds = _threshold_grid(thresholds)
    values, quad_error = _curve(params, thresholds, method)
    return CoverageCurve(thresholds=thresholds, values=values, method=method,
                         uncertainty=np.zeros_like(thresholds),
                         quad_error=quad_error)
