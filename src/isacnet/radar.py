"""Analytic radar information rate for cooperative sensing clusters.

The rate E[ln(1 + SIR)] is written as an outer integral over the Laplace
transforms of the echo power and of the interference power.  For clusters
of two or more stations both transforms are the closed kernels below
(`echo_laplace_exponent`, `interference_laplace_kernel`) marginalized over
the cluster distance laws, multiplied as if echo and interference were
independent.  For a single sensing station the transform pair is exact and
includes the interference-free disk around the target (the station-free
region implied by conditioning on the nearest-station distance), whose
neglect underestimates the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .specfun import (INNER_QUAD, PHYSICAL_QUAD, beta_complete,
                      beta_incomplete, integrate_finite,
                      integrate_semi_infinite)

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


@dataclass(frozen=True)
class RateEstimate:
    """Radar information rate in nats with its method tag and uncertainty.

    Simulated rates also carry the simulator's bookkeeping
    (`montecarlo.McResult`).
    """

    value: float
    method: str
    uncertainty: float = 0.0
    mc_result: object | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("rate must be nonnegative")
        if self.uncertainty < 0:
            raise ValueError("uncertainty must be nonnegative")


def echo_laplace_exponent(z, r_far, params):
    """Laplace exponent kernel of the echo power, given the cluster edge.

    The conditional echo-power transform is exp(-(2 pi lam / beta) * H) with
    H the value returned here; r_far is the distance to the farthest cluster
    station.  Zero at z = 0, strictly increasing in z.  Broadcasts over z
    and r_far.
    """
    z = np.asarray(z, dtype=float)
    r_far_a = np.asarray(r_far, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    if np.any(r_far_a <= 0):
        raise ValueError("r_far must be positive")
    scalar = z.ndim == 0 and r_far_a.ndim == 0
    z, r_far_a = np.broadcast_arrays(z, r_far_a)
    q = params.q_shape
    tb = 2.0 / params.beta
    c0 = params.sigma2 * params.mr * params.ps
    u_edge = 1.0 / (1.0 + c0 * z * r_far_a ** -params.beta)
    i = np.arange(1, q + 1, dtype=float)
    binom = np.array([math.comb(q, int(k)) for k in i])
    terms = beta_incomplete(u_edge[..., None], q - i + tb, i - tb)
    out = (c0 * z) ** tb * (binom * terms).sum(axis=-1)
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
    x = zeta / (1.0 + zeta)          # complement of the Beta argument
    out = z ** tb / params.beta * beta_incomplete(x, 1.0 - tb, tb)
    return float(out) if scalar else out


def echo_power_laplace(z, params, quad=None, complement=False):
    """Echo-power Laplace transform marginalized over the cluster-edge law.

    Returns E[exp(-z X)] for the echo power X of an N-station cluster; with
    complement=True returns E[1 - exp(-z X)] evaluated without cancellation.
    At z = 0 the transform is exactly 1.  The in-disk treatment of the
    cluster keeps a nonzero large-z limit of 2^-N (the weight of an empty
    equivalent disk), so the transform decreases toward that floor rather
    than to 0.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0:
        return 0.0 if complement else 1.0
    quad = quad or INNER_QUAD
    n = params.N
    lam = params.lam
    pref = 2.0 * math.pi * lam / params.beta
    lgn = math.lgamma(n)

    def f(s):
        r_far = np.sqrt(s / (math.pi * lam))
        w = pref * echo_laplace_exponent(z, r_far, params)
        density = np.exp((n - 1) * np.log(s) - s - lgn)
        core = -np.expm1(-w) if complement else np.exp(-w)
        return core * density

    return integrate_semi_infinite(f, 0.0, quad, scale=float(n))


def interference_laplace_factor(z, params, quad=None):
    """Interference Laplace transform marginalized over the distance-ratio law.

    Only defined for clusters of two or more stations; the single-station
    case is handled exactly by `radar_rate_single`.
    """
    if params.N < 2:
        raise ValueError("distance-ratio law degenerates for N=1; "
                         "use radar_rate_single")
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0:
        return 1.0
    quad = quad or INNER_QUAD
    n = params.N

    def f(eta):
        h4 = interference_laplace_kernel(z, eta, params)
        density = 2.0 * (n - 1) * eta * (1.0 - eta * eta) ** (n - 2)
        return density / (1.0 + 2.0 * h4)

    return integrate_finite(f, 0.0, 1.0, quad)


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


def radar_rate(params, quad=None):
    """Cooperative radar information rate (cluster of N >= 2 stations).

    Outer integral of (1 - echo transform) times the interference factor
    over log-spaced z.  The echo/interference independence baked into the
    factorization underestimates the rate in regimes dominated by rare
    near-target deployments; the Monte Carlo estimator is the reference.
    """
    if params.N < 2:
        raise ValueError("cooperative rate needs N >= 2; "
                         "use radar_rate_single for N=1")
    quad = quad or PHYSICAL_QUAD
    if params.ps == 0.0:
        return RateEstimate(value=0.0, method="cooperative-integral")

    def f(z_arr):
        out = np.empty_like(z_arr)
        for i, z in enumerate(z_arr):
            comp = echo_power_laplace(z, params, complement=True)
            factor = interference_laplace_factor(z, params)
            out[i] = comp * factor / z
        return out

    value, err, _ = integrate_semi_infinite(f, 0.0, quad, full_output=True)
    return RateEstimate(value=max(value, 0.0), method="cooperative-integral",
                        uncertainty=err)


def radar_rate_single(params, include_hole=True, quad=None):
    """Radar information rate for a single sensing station (N = 1), exact.

    With include_hole=True the interference transform accounts for the
    station-free disk of radius r1 around the target; with False that
    correction is dropped, which overestimates interference and lowers the
    rate (the shortfall grows with the normalized deployment density).
    """
    if params.N != 1:
        raise ValueError("single-station rate requires N = 1")
    quad = quad or PHYSICAL_QUAD
    if params.ps == 0.0:
        method = "single-bs-hole" if include_hole else "single-bs-no-hole"
        return RateEstimate(value=0.0, method=method)

    q = params.q_shape
    lam = params.lam
    beta = params.beta
    tb = 2.0 / beta
    bc = beta_complete(tb, 1.0 - tb)
    c_echo = params.sigma2 * params.mr * params.ps

    def interference_transform(z):
        # s = pi lam r1^2; the no-hole exponent is -s - A s^2, and the hole
        # correction adds +(s/pi) * hole(c) with c = z p_t r1^beta
        a_quad = tb * (z * params.pt) ** tb * bc / (math.pi * lam)

        def f(s):
            expo = -s - a_quad * s * s
            if include_hole:
                c = z * params.pt * (s / (math.pi * lam)) ** (beta / 2.0)
                expo = expo + s / math.pi * hole_exclusion_integral(c, beta)
            return np.exp(expo)

        scale = 1.0 / (1.0 + math.sqrt(a_quad))
        return integrate_semi_infinite(f, 0.0, INNER_QUAD, scale=scale)

    def outer(z_arr):
        out = np.empty_like(z_arr)
        for i, z in enumerate(z_arr):
            echo = -np.expm1(-q * np.log1p(z * c_echo))
            out[i] = echo * interference_transform(z) / z
        return out

    value, err, _ = integrate_semi_infinite(outer, 0.0, quad, full_output=True)
    method = "single-bs-hole" if include_hole else "single-bs-no-hole"
    return RateEstimate(value=max(value, 0.0), method=method, uncertainty=err)
