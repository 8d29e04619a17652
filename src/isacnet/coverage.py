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
the coverage is a finite sum.  Each antenna term reads its exponent
ratio G_n / x_L as K(a_n Z), twice `radar.interference_laplace_kernel`,
the radar rates' own kernel (`_exponent_ratios`); Z = 1 at L = 1.  At
L >= 2 it reads the ratios only through that one scalar, Z = p_L / S
with p_j = x_j^(-beta/2) and S = 1 + sum_(j>=2) p_j.  Given s_L the
other arrivals are i.i.d. uniform on (0, s_L), so Z = 1/(1 + W) for W a
sum of L - 1 i.i.d. Pareto variables, P(Y > y) = y^(-2/beta) on y >= 1.
Z's law depends on beta and L alone: it has a closed form at L = 2, a
closed form times one 1-D integral at L = 3, and at L >= 4 a Laplace
inversion; each is evaluated on a lattice shared by every node of a call
(`_z_rule`).  So every L >= 2 is one fixed composite Gauss-Kronrod rule
over that law, one array pass per curve, and its embedded 7-point Gauss
sums give the error bound each value reports.

Every value, closed form included, is one alternating binomial sum over
the mt - 1 antenna terms (`_antenna_sum`).  It cancels more digits the
more antennas there are, so every value also reports a bound on its
rounding error; a bound that misses PHYSICAL_QUAD (at beta = 4 from
mt = 33 at L = 1, 2 and 3 and -10 dB), or a value farther outside [0, 1]
than its bound, raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, hyp1f1

from .radar import interference_laplace_kernel
from .specfun import (_MARGIN, ConvergenceError, check_bound, gk_rule, gk_sum,
                      in_chunks, panel_edges)

__all__ = [
    "CoverageCurve",
    "coverage_closed_form",
    "coverage_integral",
    "coverage_curve",
]

# Budget of the cluster rules: core panels of the rule over the law of Z,
# whose cores reach _MARGIN decay lengths beyond the bend they cover.
_RHO_PANELS = 24
# The lattice of the Laplace inversion behind Z's law at L >= 4: panels
# _SIGMA_STEP wide in sigma = ln u below a top edge at u = 64, where its
# integrand has fallen below e^-64, and by how much (e^-36) the integrand
# has fallen where each node's window of panels starts.
_SIGMA_STEP = 1.0
_SIGMA_TOP = math.log(64.0)
_SIGMA_DEPTH = 36.0

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
    """Rounding error of each term c_n (1 + r_n)^-L, r_n = G_n / x_L (x_L = 1
    at L = 1), in units of eps |term|; cond is r_n times the factor by
    which G_n amplifies the one rounding of its Beta argument (below).

    An error model: G_n carries three eps, for the five roundings of
    a_n = alpha n t pt / (q pc), which G passes on at most one for one,
    and its own; plus cond for its Beta argument (`_exponent_ratios`).  A
    term passes L r_n / (1 + r_n) of G_n's relative error on, and it and
    the sum add one eps more.  At L = 1, against the sum at 50-digit
    mpmath from exact a_n, eps sum_n |term| times this was 1.97x the
    error or more over beta in {2.5, 4, 6}, mt 4-40 and -10..40 dB.
    """
    return 1.0 + L * (3.0 * r + cond) / (1.0 + r)


def _antenna_sum(r, cond, L):
    """The binomial sum over the last axis of the ratios r = G_n / x_L and
    its rounding bound: sum_n c_n (1 + r_n)^-L, with cond as `_amplify`
    reads it.  Returns (sum, bound), each of shape r.shape[:-1].
    """
    signed = _signed_binomials(r.shape[-1])
    damp = (1.0 + r) ** -L
    return ((signed * damp).sum(axis=-1),
            _EPS * ((damp * _amplify(r, cond, L)) @ np.abs(signed)))


def _exponent_ratios(zeta, params):
    """The ratios r = G_n / x_L = K(zeta) at zeta = a_n Z, and the cond
    `_amplify` reads for them.

    K is twice `radar.interference_laplace_kernel` at eta = 1.  Its Beta
    function rounds x = zeta/(1 + zeta) up to zeta* = (1 - 2/beta)/(2/beta)
    and the exact complement 1 - x beyond (`specfun.beta_incomplete`);
    that one rounding moves K by (2/beta) zeta eps up to zeta* and by
    (2/beta) eps beyond, which is cond.
    """
    tb = 2.0 / params.beta
    cond = np.where(zeta * tb > 1.0 - tb, tb, tb * zeta)
    return 2.0 * interference_laplace_kernel(zeta, 1.0, params), cond


def _require_comm_power(params):
    if params.pc == 0.0:
        raise ValueError("coverage is undefined without communication power "
                         "(pc = 0)")


def _threshold_terms(params, thresholds):
    """Per-threshold scales a of the binomial terms n = 1..mt-1, (T, q)."""
    q = params.q_shape
    t = np.asarray(thresholds, dtype=float)[:, None]
    return params.alpha() * np.arange(1, q + 1) * t * params.pt / (q * params.pc)


def _r_panels(lo, width, beta):
    """K15 value and |K15 - G7| bound of R's integrand, ((1 +
    e^(-beta t/2))^(4/beta) - 1) e^t, on each panel [lo, lo + width] of
    1-D arrays (`_power_sum_integral`).  The nodes run along the first
    axis: there is a panel per node of Z's rule, and numpy broadcasts a
    short last axis several times slower.
    """
    x, wk, wg = (r.ravel() for r in gk_rule(np.array([0.0, 1.0])))
    t = lo + width * x[:, None]
    g = np.expm1(4.0 / beta * np.log1p(np.exp(-0.5 * beta * t))) * np.exp(t)
    k15 = width * (wk @ g)
    return k15, np.abs(k15 - width * (wg @ g))


def _power_sum_integral(ln_x, beta):
    """J(X) = int_1^X (1 + x^(-beta/2))^(4/beta) dx at ln X = ln_x > 0, and
    its bound.

    J = (X - 1) + R(ln X), where R(T) = int_0^T ((1 + e^(-beta t/2))^(4/beta)
    - 1) e^t dt needs no Beta function.  R runs on one lattice of GK15
    panels in t that every point shares: cumulative K15 sums give R at
    each whole panel's end, and one GK15 panel from the last such end up
    to ln X adds the rest.  The bound adds |K15 - G7| over the panels used.
    R's integrand is singular 2 pi / beta off the real axis, so panels are
    min(1, 4/beta) wide: unit panels left a K15 - G7 bound of 1.6e-7 on R
    at beta = 20, these 1e-14.
    """
    step = min(1.0, 4.0 / beta)
    flat = np.ravel(ln_x)
    i = np.floor(flat / step)
    r, r_err = (np.concatenate([[0.0], np.cumsum(v)]) for v in
                _r_panels(step * np.arange(np.max(i)), step, beta))
    part, part_err = _r_panels(step * i, flat - step * i, beta)
    i = i.astype(int)
    return (np.reshape(np.expm1(flat) + (r[i] + part), np.shape(ln_x)),
            np.reshape(r_err[i] + part_err, np.shape(ln_x)))


def _pareto_sum_density(ln_v, m, beta):
    """Density of ln(W - m), W a sum of m i.i.d. Pareto variables, and its
    bound, at an array ln_v = ln(W - m) of any shape.

    With c = 2/beta, P(Y > y) = y^-c on y >= 1 and E e^(-sY) =
    c s^c Gamma(-c, s).  Across its branch cut that transform is
    c Gamma(-c) u^c e^(-i pi c) + 1F1(-c; 1 - c; u) at s = u e^(-i pi), and
    with psi(u) = e^-u times it, inverting W's transform gives

        (v/pi) int_0^inf e^(-u v) Im[psi(u)^m] u dsigma,  v = W - m,

    in sigma = ln u.  Im[psi^m] falls like e^-u above u ~ 1 and like
    u^c below, so the integrand peaks near u ~ 1/W and decays at rate
    1 + c in sigma below it.  The rule is one lattice of GK15 panels
    _SIGMA_STEP wide with its top edge at u = 64, on which psi runs once
    per node; each point integrates the same number of panels from
    _SIGMA_DEPTH / (1 + c) below -ln W, so its value depends on ln_v alone.
    The bound is `gk_sum`'s.  Where v is small the integral cancels to
    O(v^m), and gk_sum's floor covers the rounding.
    """
    c = 2.0 / beta
    depth = _SIGMA_DEPTH / (1.0 + c)
    # panels from a window's start to where e^(-u (1 + v)) < e^-64, since
    # W / (1 + v) <= m
    count = math.ceil((_SIGMA_TOP + math.log(m) + depth) / _SIGMA_STEP) + 1
    flat = np.ravel(ln_v)
    start = np.minimum(np.floor((-np.logaddexp(math.log(m), flat) - depth
                                 - _SIGMA_TOP) / _SIGMA_STEP), -count)
    t, wk, wg = gk_rule(np.array([0.0, _SIGMA_STEP]))
    sigma = _SIGMA_TOP + _SIGMA_STEP * np.arange(start.min(), 0.0)[:, None] + t
    u = np.exp(sigma)
    psi = (c * gamma(-c) * np.exp(c * sigma - u - 1j * math.pi * c)
           + np.exp(-u) * hyp1f1(-c, 1.0 - c, u))
    g = (psi ** m).imag / math.pi
    # u v on a window, relative to its lower edge
    rel = np.exp(_SIGMA_STEP * np.arange(count)[:, None] + t)
    first = (start - start.min()).astype(int)
    scale = np.exp(flat + _SIGMA_TOP + _SIGMA_STEP * start)

    def window(i):
        x = scale[i, None, None] * rel
        return gk_sum(x * np.exp(-x) * g[first[i, None] + np.arange(count)],
                      wk, wg)

    density, bound = in_chunks(window, np.arange(flat.size), rel.size)
    return density.reshape(np.shape(ln_v)), bound.reshape(np.shape(ln_v))


def _z_rule(L, beta, ln_a):
    """Composite GK15 rule over the law of Z = p_L / S = 1/(1 + W).

    It runs in y = ln(1/(L Z) - 1) = ln((W - m)/L), m = L - 1, so Z =
    1/(L (1 + e^y)) falls from 1/L to 0 as y rises.  W is a sum of m
    i.i.d. Pareto variables, P(Y > y) = y^(-2/beta) on y >= 1.  With
    p = 1/(1 + 2 e^y) at L = 2 and X = (1 + 3 e^y)^(2/beta) at L = 3, the
    density of y is

        L = 2:  (2/beta) p^(2/beta) (1 - p),
        L = 3:  Z (1 - 3Z) (4/beta) Z^(4/beta - 1) (1 - Z)^(-1 - 4/beta) J(X)

    (`_power_sum_integral`), and at L >= 4 a Laplace inversion
    (`_pareto_sum_density`).  It decays at rate L - 1 below and 2/beta
    above.  The core runs from -_MARGIN to _MARGIN decay lengths (beta/2
    each) beyond max(ln_a, 0), where a Z crosses 1 for the largest term a;
    ln_a broadcasts, one core per element.  At steep path loss the tail
    reaches y ~ 700, so Z and the density are formed in logs.  Returns Z,
    the K15 and G7 weights times the density, and the K15 weights times
    the density's bound (0 at L = 2).
    """
    tb = 2.0 / beta
    y, wk, wg = gk_rule(panel_edges(-_MARGIN, _MARGIN / tb + np.maximum(ln_a, 0.0),
                                    _RHO_PANELS, L - 1.0, tb))
    ln_z = -math.log(L) - np.logaddexp(0.0, y)
    if L == 2:
        density = np.exp(math.log(tb) - tb * np.logaddexp(0.0, y + math.log(2.0))
                         - np.logaddexp(0.0, -y - math.log(2.0)))
        return np.exp(ln_z), wk * density, wg * density, np.zeros_like(wk)
    if L == 3:
        j, j_err = _power_sum_integral(tb * np.logaddexp(0.0, y + math.log(3.0)),
                                       beta)
        density = np.exp(math.log(2.0 * tb) + 2.0 * tb * ln_z
                         - np.logaddexp(0.0, -y)
                         - (1.0 + 2.0 * tb) * np.log1p(-np.exp(ln_z)) + np.log(j))
        return (np.exp(ln_z), wk * density, wg * density,
                wk * density * (j_err / j))
    density, bound = _pareto_sum_density(math.log(L) + y, L - 1, beta)
    return np.exp(ln_z), wk * density, wg * density, wk * bound


def _cluster_curve(params, a):
    """L >= 2, each threshold on its own fixed rule.  Returns (values, bounds).

    Write s = s_1 (1, x_2, ..., x_L).  The exponent is homogeneous of
    degree one in s, so the s_1 integral is exact: the coverage is
    sum_n c_n (L-1)! int (x_L + G_n(x))^-L dx over 1 < x_2 < ... < x_L,
    with G_n the exponent at s = (1, x_2, ..., x_L).  The ratio G_n / x_L
    is K(a_n Z), K(zeta) = (2/beta) zeta^(2/beta) B(zeta/(1 + zeta);
    1 - 2/beta, 2/beta) (`_exponent_ratios`).  So the coverage is the
    average of sum_n c_n (1 + K(a_n Z))^-L over the law of Z (`_z_rule`).
    The integrand bends where the largest a_n Z crosses 1, so each rule's
    range depends on its threshold alone and a curve equals
    single-threshold calls.  The bound is the outer K15 - G7 bound, plus
    the density's bound times |integrand|, plus the rounding bound of the
    binomial sum (`_amplify`).
    """
    L, beta = params.L, params.beta
    z, wk, wg, w_err = _z_rule(L, beta, np.log(a[:, -1]))

    def terms(i):
        za = z[i, ..., None] * a[i, None, None, :]
        return _antenna_sum(*_exponent_ratios(za, params), L)

    h, h_round = in_chunks(terms, np.arange(len(a)), z[0].size * params.q_shape)
    values, bounds = gk_sum(h, wk, wg)
    bounds += (np.abs(h) * w_err + h_round * wk).sum(axis=(-2, -1))
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
        # the beta = 4 exponent in arcsine form, independent of the Beta
        # kernel; cond is the x form's (2/beta) a_n
        g = np.sqrt(a) * (math.pi / 2.0 - np.arcsin(np.sqrt(1.0 / (1.0 + a))))
        values, bound = _antenna_sum(g, 0.5 * a, 1)
    elif method != "integral":
        raise ValueError("method must be 'integral' or 'closed-form'")
    elif params.L == 1:
        # s_1 ~ Exp(1) alone: E[exp(-s_1 G_n)] = 1 / (1 + G_n)
        values, bound = _antenna_sum(*_exponent_ratios(a, params), 1)
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
    exponent is the arcsine form, not the Beta kernel, so it checks the
    integral path.  Raises ConvergenceError as `coverage_curve` does.
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
