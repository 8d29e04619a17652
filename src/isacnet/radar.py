"""Analytic radar information rate for cooperative sensing clusters.

The rate E[ln(1 + SIR)] is written as an outer integral over the Laplace
transforms of the echo power and of the interference power.  For clusters
of two or more stations both transforms are the closed kernels below
(`echo_laplace_exponent`, `interference_laplace_kernel`: one incomplete
Beta term each) marginalized over the cluster distance laws, multiplied as
if echo and interference were independent.  For a single sensing station
the transform pair is exact and includes the interference-free disk around
the target (the station-free region implied by conditioning on the
nearest-station distance), whose neglect underestimates the rate.

Both rates are fixed composite Gauss-Kronrod 7-15 rules in log variables,
evaluated as array expressions over all outer nodes (in slices of bounded
size): ln z outside, ln s for the distance laws of the cluster edge and of
the single station, and `coverage._ratio_rule` for the distance ratio.
Each rule's range follows from its integrand's tail decay rates and
transition points; the embedded 7-point Gauss sums bound its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, gammainccinv, gammaincinv, roots_legendre

from . import coverage
from .specfun import (beta_complete, beta_incomplete, check_bound, gk_rule,
                      gk_sum, in_chunks, panel_edges)

__all__ = [
    "RateEstimate",
    "echo_laplace_exponent",
    "interference_laplace_kernel",
    "echo_power_laplace",
    "interference_laplace_factor",
    "hole_exclusion_integral",
    "radar_rate",
    "radar_rate_single",
]

# Budget of the fixed rules.  Outer rules run in u = ln z with core panels
# _Z_STEP decay lengths wide; the inner rules have fixed panel counts.
# Cores reach _MARGIN decay lengths beyond the transitions they cover.
_Z_STEP = 2.0
_MARGIN = 4.0
_S_PANELS = 16          # ln s, Gamma(N) cluster-edge law
_HOLE_S_PANELS = 12     # ln s, single-station law with the exclusion disk
_GAMMA_TAIL = 1e-16     # Gamma(N) mass left outside each end of the ln s rule
_DEPTH = 36.0           # e-folds below its scale at which a core may stop


@dataclass(frozen=True)
class RateEstimate:
    """Radar information rate in nats with its method tag and error.

    Analytic rates carry `quad_error`, the error bound the fixed rule
    achieved, and an `uncertainty` of 0.  Simulated rates carry the 95%
    half-width in `uncertainty`, a `quad_error` of 0 and the simulator's
    bookkeeping (`montecarlo.McResult`).
    """

    value: float
    method: str
    uncertainty: float = 0.0
    quad_error: float = 0.0
    mc_result: object | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate must be nonnegative")
        if self.uncertainty < 0 or self.quad_error < 0:
            raise ValueError("uncertainty and quad_error must be nonnegative")


def echo_laplace_exponent(z, r_far, params):
    """Laplace exponent kernel of the echo power, given the cluster edge.

    The conditional echo-power transform is exp(-(2 pi lam / beta) * H) with
    H the value returned here; r_far is the distance to the farthest cluster
    station.  Zero at z = 0 and increasing, never flat, in z.  Broadcasts over z
    and r_far.  By the binomial theorem, H = (c0 z)^tb sum_(i=1..q) C(q, i)
    B(u; q-i+tb, i-tb) (tb = 2/beta, c0 = sigma2 mr ps, u = 1/(1 + c0 z
    r_far^-beta)) is (r_far^2 (1 - u^q) + q (c0 z)^tb B(u; q+tb, 1-tb)) / tb.
    """
    z = np.asarray(z, dtype=float)
    r_far_a = np.asarray(r_far, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    if np.any(r_far_a <= 0):
        raise ValueError("r_far must be positive")
    scalar = z.ndim == 0 and r_far_a.ndim == 0
    q = params.q_shape
    tb = 2.0 / params.beta
    c0z = params.sigma2 * params.mr * params.ps * z
    x = c0z * r_far_a ** -params.beta       # u = 1 / (1 + x)
    out = (r_far_a ** 2 * -np.expm1(-q * np.log1p(x))
           + q * c0z ** tb * _beta_ratio(1.0, x, q + tb, 1.0 - tb)) / tb
    return float(out) if scalar else out


def interference_laplace_kernel(z, eta, params):
    """Laplace exponent kernel of the interference power, per unit pi lam r1^2.

    eta is the nearest-to-farthest cluster distance ratio; the conditional
    interference transform is exp(-2 pi lam r1^2 * H4) with H4 returned
    here.  Zero at z = 0, increasing in z and in eta.
    """
    z = np.asarray(z, dtype=float)
    eta_a = np.asarray(eta, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    if np.any(eta_a <= 0) or np.any(eta_a > 1):
        raise ValueError("eta must lie in (0, 1]")
    scalar = z.ndim == 0 and eta_a.ndim == 0
    z, eta_a = np.broadcast_arrays(z, eta_a)
    tb = 2.0 / params.beta
    zeta = z * eta_a ** params.beta
    out = z ** tb / params.beta * _beta_ratio(zeta, 1.0, 1.0 - tb, tb)
    return float(out) if scalar else out


def _beta_ratio(num, den, a, b):
    """B(x; a, b) at x = num / (num + den).  Near x = 1, x keeps few digits
    of 1 - x, on which B depends like (1 - x)^b, so there B(x; a, b) =
    B(a, b) - B(1 - x; b, a) with 1 - x = den / (num + den) exact."""
    low = num <= den
    part = beta_incomplete(np.where(low, num, den) / (num + den),
                           np.where(low, a, b), np.where(low, b, a))
    return np.where(low, part, beta_complete(a, b) - part)


def _echo_transform(z, params, complement):
    """Echo-power transform over the Gamma(N) cluster-edge law, vectorized.

    z is a 1-D array of positive arguments.  The rule runs in ln s over
    the central 1 - 2 * _GAMMA_TAIL of the law s = pi lam r_far^2 ~
    Gamma(N).  Returns (values, error bounds).
    """
    n = params.N
    lam = params.lam
    sig, wk, wg = gk_rule(np.linspace(math.log(gammaincinv(n, _GAMMA_TAIL)),
                                      math.log(gammainccinv(n, _GAMMA_TAIL)),
                                      _S_PANELS + 1))
    s = np.exp(sig)
    weight = np.exp(n * sig - s - math.lgamma(n))   # density times ds/dsig
    r_far = np.sqrt(s / (math.pi * lam))
    w = (2.0 * math.pi * lam / params.beta
         * echo_laplace_exponent(z[:, None, None], r_far, params))
    core = -np.expm1(-w) if complement else np.exp(-w)
    return gk_sum(core * weight, wk, wg)


def _interference_factor(z, params):
    """Interference transform over the distance-ratio law, vectorized.

    z is a 1-D array of positive arguments.  The rule is
    `coverage._ratio_rule` in ln rho, rho = eta^-2 - 1.  Its core reaches
    beyond where the integrand bends: zeta = z eta^beta = 1, and h4 = 1/2
    on the small-zeta branch, where h4 ~ z eta^(beta-2)/(beta-2); it stops
    where the law has fallen by e^-_DEPTH below the scale z^(-2/beta).
    Returns (values, error bounds).
    """
    beta = params.beta
    tb = 2.0 / beta
    lz = np.log(z)
    bend_h4 = 2.0 * (lz - math.log((beta - 2.0) / 2.0)) / (beta - 2.0)
    bend = np.minimum(np.maximum(tb * lz, bend_h4),
                      _DEPTH - coverage._MARGIN + np.maximum(tb * lz, 0.0))
    u, wk, wg = coverage._ratio_rule(params.N, bend)
    eta = np.exp(-0.5 * np.log1p(np.exp(u)))
    h4 = interference_laplace_kernel(z[:, None, None], eta, params)
    return gk_sum(1.0 / (1.0 + 2.0 * h4), wk, wg)


def echo_power_laplace(z, params, complement=False):
    """Echo-power Laplace transform marginalized over the cluster-edge law.

    Returns E[exp(-z X)] for the echo power X of an N-station cluster; with
    complement=True returns E[1 - exp(-z X)] evaluated without cancellation.
    At z = 0 the transform is exactly 1.  The in-disk treatment of the
    cluster keeps a nonzero large-z limit of 2^-N (the weight of an empty
    equivalent disk), so the transform decreases toward that floor rather
    than to 0.  Scalar form of the fixed rule `radar_rate` uses.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0:
        return 0.0 if complement else 1.0
    value, bound = _echo_transform(np.array([float(z)]), params, complement)
    check_bound(value, bound, "echo_power_laplace")
    return float(value[0])


def interference_laplace_factor(z, params):
    """Interference Laplace transform marginalized over the distance-ratio law.

    Only defined for clusters of two or more stations; the single-station
    case is handled exactly by `radar_rate_single`.  Scalar form of the
    fixed rule `radar_rate` uses.
    """
    if params.N < 2:
        raise ValueError("distance-ratio law degenerates for N=1; "
                         "use radar_rate_single")
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0:
        return 1.0
    value, bound = _interference_factor(np.array([float(z)]), params)
    check_bound(value, bound, "interference_laplace_factor")
    return float(value[0])


# fixed Gauss-Legendre rule for the exclusion-disk integral after the
# substitution t = 2 - v^2, which removes the arccos endpoint singularity
_GL_V, _GL_W = roots_legendre(96)
_HV = (_GL_V + 1.0) * (math.sqrt(2.0) / 2.0)
_HW = _GL_W * (math.sqrt(2.0) / 2.0)
_HT = 2.0 - _HV * _HV
_HKERNEL = 2.0 * np.arccos(_HT / 2.0) * _HT * 2.0 * _HV


def hole_exclusion_integral(c, beta=4.0):
    """Station-free-disk correction integral as a function of c = z p_t r1^beta.

    Evaluates int_0^2 2 arccos(t/2) * t / (1 + t^beta / c) dt, vectorized
    over c.  Tends to 0 as c -> 0 and to pi (the normalized disk area) as
    c -> inf; writing the saturating ratio as 1/(1 + t^beta/c) keeps the
    t -> 0 endpoint finite without a separate limit branch.
    """
    c_arr = np.asarray(c, dtype=float)
    scalar = c_arr.ndim == 0
    c_arr = np.atleast_1d(c_arr)
    if np.any(c_arr < 0):
        raise ValueError("c must be nonnegative")
    out = np.zeros_like(c_arr)
    pos = c_arr > 0
    if pos.any():
        with np.errstate(divide="ignore", over="ignore"):
            ratio = 1.0 / (1.0 + _HT[None, :] ** beta / c_arr[pos, None])
        out[pos] = (ratio * (_HKERNEL * _HW)[None, :]).sum(axis=1)
    return float(out[0]) if scalar else out


def radar_rate(params):
    """Cooperative radar information rate (cluster of N >= 2 stations).

    Outer integral over u = ln z of (1 - echo transform) times the
    interference factor.  The echo factor bends where c0 z (pi lam)^(beta/2)
    = 1 and the interference factor near z = 1; beyond both, the integrand
    decays like z^(+-2/beta), so the rule's tails are sized by that rate.
    Raises ConvergenceError when the achieved bound (outer K15 - G7 plus
    the propagated inner bounds) exceeds PHYSICAL_QUAD.  The
    echo/interference independence baked into the factorization
    underestimates the rate in regimes dominated by rare near-target
    deployments; the Monte Carlo estimator is the reference.
    """
    if params.N < 2:
        raise ValueError("cooperative rate needs N >= 2; "
                         "use radar_rate_single for N=1")
    if params.ps == 0.0:
        return RateEstimate(value=0.0, method="cooperative-integral")

    tb = 2.0 / params.beta
    c0 = params.sigma2 * params.mr * params.ps
    u_echo = -math.log(c0) - math.log(math.pi * params.lam) / tb
    lo = min(u_echo, 0.0) - _MARGIN / tb
    hi = max(u_echo, 0.0) + _MARGIN / tb
    u, wk, wg = gk_rule(panel_edges(lo, hi, math.ceil(tb * (hi - lo) / _Z_STEP),
                                    tb, tb))
    z = np.exp(u.ravel())
    comp, comp_err = in_chunks(
        lambda zc: _echo_transform(zc, params, complement=True), z,
        _S_PANELS * 15)
    factor, factor_err = in_chunks(      # core plus two six-panel tails
        lambda zc: _interference_factor(zc, params), z,
        (coverage._RHO_PANELS + 12) * 15)
    value, err = gk_sum((comp * factor).reshape(u.shape), wk, wg)
    err += np.sum((comp_err * factor + comp * factor_err).reshape(u.shape) * wk)
    check_bound(value, err, "radar_rate")
    return RateEstimate(value=max(float(value), 0.0),
                        method="cooperative-integral", quad_error=float(err))


def _hole_transform(omega, params, k):
    """Single-station interference transform with the exclusion disk.

    omega = (z pt)^(2/beta) / (pi lam) is a 1-D array.  Over s = pi lam
    r1^2 the no-hole exponent is -s - k omega s^2 and the hole adds
    (s/pi) * hole(c), c = (omega s)^(beta/2).  The rule runs in ln s; its
    core starts below the hole's bend at s = 1/omega and ends where
    exp(-s) or exp(-k omega s^2) has fallen by e^-_DEPTH.
    Returns (values, error bounds).
    """
    beta = params.beta
    ln_hi = np.log(np.minimum(_DEPTH, np.sqrt(_DEPTH / (k * omega))))
    ln_lo = np.minimum(0.0, -np.log(omega)) - _MARGIN
    sig, wk, wg = gk_rule(panel_edges(ln_lo, ln_hi, _HOLE_S_PANELS, 1.0))
    s = np.exp(sig)
    om = omega[:, None, None]
    c = (om * s) ** (beta / 2.0)
    expo = -s - k * om * s * s + s / math.pi * hole_exclusion_integral(c, beta)
    return gk_sum(np.exp(expo) * s, wk, wg)


def radar_rate_single(params, include_hole=True):
    """Radar information rate for a single sensing station (N = 1), exact.

    With include_hole=True the interference transform accounts for the
    station-free disk of radius r1 around the target; with False that
    correction is dropped, which overestimates interference and lowers the
    rate (the shortfall grows with the normalized deployment density).
    The no-hole transform is closed form (a scaled complementary error
    function); with the hole it is a fixed rule in ln s.  The outer rule
    runs in u = ln z: the echo factor bends at z = 1/(sigma2 mr ps) and
    decays like z below it; the interference transform bends at omega = 1
    and decays like omega^(-1/2) = z^(-1/beta) above it.  Raises
    ConvergenceError when the achieved bound exceeds PHYSICAL_QUAD.
    """
    if params.N != 1:
        raise ValueError("single-station rate requires N = 1")
    method = "single-bs-hole" if include_hole else "single-bs-no-hole"
    if params.ps == 0.0:
        return RateEstimate(value=0.0, method=method)

    q = params.q_shape
    lam = params.lam
    beta = params.beta
    tb = 2.0 / beta
    k = tb * beta_complete(tb, 1.0 - tb)
    c_echo = params.sigma2 * params.mr * params.ps
    u_echo = -math.log(c_echo)
    u_hole = math.log(math.pi * lam) / tb - math.log(params.pt)   # omega = 1
    lo = min(u_echo, u_hole) - _MARGIN
    hi = max(u_echo, u_hole) + _MARGIN
    u, wk, wg = gk_rule(panel_edges(lo, hi, math.ceil((hi - lo) / _Z_STEP),
                                    1.0, 1.0 / beta))
    z = np.exp(u.ravel())
    echo = -np.expm1(-q * np.log1p(z * c_echo))
    omega = (z * params.pt) ** tb / (math.pi * lam)
    if include_hole:
        transform, transform_err = in_chunks(   # core, one tail, disk rule
            lambda om: _hole_transform(om, params, k), omega,
            (_HOLE_S_PANELS + 6) * 15 * len(_HKERNEL))
    else:
        # int_0^inf exp(-s - k omega s^2) ds
        r = 0.5 / np.sqrt(k * omega)
        transform = math.sqrt(math.pi) * r * erfcx(r)
        transform_err = np.zeros_like(transform)
    value, err = gk_sum((echo * transform).reshape(u.shape), wk, wg)
    err += np.sum((echo * transform_err).reshape(u.shape) * wk)
    check_bound(value, err, method)
    return RateEstimate(value=max(float(value), 0.0), method=method,
                        quad_error=float(err))
