"""Analytic radar information rate of an N-station sensing cluster.

The rate E[ln(1 + SIR)] is written as an outer integral over the Laplace
transforms of the echo power and of the interference power.  For clusters
of two or more stations both transforms are the closed kernels below
(`echo_laplace_exponent`, `interference_laplace_kernel`: one incomplete
Beta term each, `specfun.beta_incomplete`; coverage reads the second one
too) marginalized over the cluster distance laws, multiplied as
if echo and interference were independent.  For a single sensing station
the transform pair is exact and includes the interference-free disk around
the target (the station-free region implied by conditioning on the
nearest-station distance), whose neglect underestimates the rate.

Both rates are fixed composite Gauss-Kronrod 7-15 rules in log variables,
evaluated as array expressions over all outer nodes (in slices of bounded
size), with ln z outside.  Each inner transform runs in a variable where
its kernel no longer depends on the outer node: tau = ln(c0 z r_far^-beta)
for the echo and t = ln(z eta^beta) for the interference of a cluster, and
ln(omega s) for the single station.  So each kernel runs once per rate, on
a lattice of panels that every outer node shares.  In the cluster's two
lattices, which are uniform, an outer node's window starts at a lattice
edge, so its inner variable at each slot is its offset from that edge plus
one table per rate; the exponentials of that table are taken once, and
each outer node multiplies them by one of its own.  Each rule's range
follows from its integrand's tail decay rates and transition points; the
embedded 7-point Gauss sums bound its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import erfcx, gammainccinv, gammaincinv

from .specfun import (_MARGIN, _TAIL_EDGES, beta_incomplete, check_bound,
                      gk_rule, gk_sum, in_chunks, panel_edges)

__all__ = [
    "RateEstimate",
    "echo_power_laplace",
    "interference_laplace_factor",
    "radar_rate",
    "radar_rate_single",
]

# Budget of the fixed rules.  Outer rules run in u = ln z with core panels
# _Z_STEP decay lengths wide; the inner rules run on lattices of panels of
# fixed width that every outer node of a rate shares.  Cores reach
# _MARGIN decay lengths beyond the transitions they cover.
# np.exp overflows past u = 709.78, so the outer rules stop at |u| = _U_MAX
# and bound the tails they cut off (`_outer_rate`).
_Z_STEP = 2.0
_U_MAX = 700.0
_ECHO_STEP = 2.0        # panel width in tau = ln(c0 z r_far^-beta), echo
_ECHO_SPAN = 10.3       # sigma span of the Gamma(N) window below which
                        # echo panels narrow with it; Gamma(5)'s is 10.31
_RATIO_STEP = 2.0       # panel width in t = ln(z eta^beta), interference
_HOLE_V_STEP = 1.0      # panel width in ln(omega s), single station with the disk
_HOLE_LEFT = 40.0       # decay lengths its core reaches below the hole's bend
_GAMMA_TAIL = 1e-16     # Gamma(N) mass left outside each end of the echo window
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
    station.  Zero at z = 0 and increasing, never flat, in z.  Broadcasts over
    z >= 0 and r_far > 0, unchecked.  By the binomial theorem, H = (c0 z)^tb
    sum_(i=1..q) C(q, i) B(u; q-i+tb, i-tb) (tb = 2/beta, c0 = sigma2 mr ps,
    u = 1/(1 + c0 z r_far^-beta)) is (r_far^2 (1 - u^q) + q (c0 z)^tb
    B(u; q+tb, 1-tb)) / tb.
    """
    q = params.q_shape
    tb = 2.0 / params.beta
    c0z = params.sigma2 * params.mr * params.ps * z
    with np.errstate(over="ignore"):        # x = inf is u = 0
        x = c0z * r_far ** -params.beta     # u = 1 / (1 + x)
    return (r_far ** 2 * -np.expm1(-q * np.log1p(x))
            + q * c0z ** tb * beta_incomplete(1.0, x, q + tb, 1.0 - tb)) / tb


def interference_laplace_kernel(z, eta, params):
    """Laplace exponent kernel of the interference power, per unit pi lam r1^2.

    eta is the nearest-to-farthest cluster distance ratio; the conditional
    interference transform is exp(-2 pi lam r1^2 * H4) with H4 returned
    here.  Zero at z = 0, increasing in z and in eta.  Broadcasts over
    z >= 0 and 0 < eta <= 1, unchecked.  Twice its value at eta = 1 is
    K(z) = (2/beta) z^(2/beta) B(z/(1 + z); 1 - 2/beta, 2/beta), the
    exponent ratio every coverage term reads (`coverage`).
    """
    tb = 2.0 / params.beta
    zeta = z * eta ** params.beta
    return z ** tb / params.beta * beta_incomplete(zeta, 1.0, 1.0 - tb, tb)


def _echo_transform(u_ends, params, complement):
    """Echo-power transform over the Gamma(N) cluster-edge law.

    Over s = pi lam r_far^2 ~ Gamma(N) the exponent is s phi(tau), with
    phi(tau) = (2/beta) `echo_laplace_exponent` at c0 z = e^tau and
    r_far = 1, and tau = ln z + C - (beta/2) sigma, sigma = ln s,
    C = ln c0 + (beta/2) ln(pi lam): z and s enter phi only through tau.
    In tau the transform at ln z is the integral of (2/beta) core(e^sigma
    phi(tau)) e^(N sigma - e^sigma) / Gamma(N), sigma = (2/beta)(ln z + C
    - tau), over the window that maps the central 1 - 2 * _GAMMA_TAIL of
    the law in sigma.

    Builds one lattice of GK15 panels in tau over the windows of every
    ln z in [u_ends], evaluates phi on it once, and returns (transform,
    cost).  transform(ln_z), for a 1-D array, integrates each ln z over the
    panels that cover its window and returns (values, error bounds); cost
    is the lattice nodes one window spans.  Panels are _ECHO_STEP wide, or
    _ECHO_STEP / 2 units of sigma where that is narrower, times the
    window's span in sigma over _ECHO_SPAN where that is below 1: the law
    narrows like 1/sqrt(N), and so a window holds a number of panels that
    does not grow with N.

    A window starts at a lattice edge, so sigma at its slot (k, m) is
    delta + S[k, m], with delta in [0, (2/beta) width) the offset of ln z
    above that edge and S one table for every ln z; s is e^delta e^S.
    """
    n = params.N
    tb = 2.0 / params.beta
    sig_lo = math.log(gammaincinv(n, _GAMMA_TAIL))
    sig_hi = math.log(gammainccinv(n, _GAMMA_TAIL))
    width = (_ECHO_STEP * min(params.beta / 4.0, 1.0)
             * min((sig_hi - sig_lo) / _ECHO_SPAN, 1.0))
    shift = (math.log(params.sigma2 * params.mr * params.ps)
             + math.log(math.pi * params.lam) / tb)
    panels = math.ceil((sig_hi - sig_lo) / tb / width) + 1
    # the lattice starts at the window of u_ends[0]; that of ln z lies
    # ln z - u_ends[0] higher
    edges = (u_ends[0] + shift - sig_hi / tb) + width * np.arange(
        math.ceil((u_ends[1] - u_ends[0]) / width) + panels + 1)
    tau = gk_rule(edges)[0]
    _, wk, wg = gk_rule(edges[:2])      # every panel has the same weights
    # phi reads c0 only through c0 z; from tau = _U_MAX on, where e^tau
    # nears overflow, exp(-e^sigma phi) is 0 at every sigma of the window
    unit = params.with_(sigma2=1.0, mr=1, ps=1.0, pc=0.0)
    phi = tb * echo_laplace_exponent(np.exp(np.minimum(tau, _U_MAX)), 1.0,
                                     unit)
    log_norm = math.log(tb) - math.lgamma(n)
    sig_rel = tb * (u_ends[0] + shift - tau[:panels])
    s_rel = np.exp(sig_rel)

    def transform(ln_z):
        first = np.floor((ln_z - u_ends[0]) / width)
        delta = (tb * (ln_z - u_ends[0] - width * first))[:, None, None]
        idx = first.astype(int)[:, None] + np.arange(panels)
        s = np.exp(delta) * s_rel
        w = s * phi[idx]
        core = -np.expm1(-w) if complement else np.exp(-w)
        return gk_sum(core * np.exp(n * (delta + sig_rel) - s + log_norm),
                      wk, wg)

    return transform, 15 * panels


def _interference_factor(u_ends, params):
    """Interference transform over the distance-ratio law.

    With x = -2 ln eta = ln(1 + rho) the kernel is h4 = e^x psi(t), with
    psi(t) `interference_laplace_kernel` at z = e^t and eta = 1, and
    t = ln z - (beta/2) x: z and eta enter psi only through t.  In t the
    factor at ln z is the integral below t = ln z of (2/beta) law(x) /
    (1 + 2 e^x psi(t)), law(x) = (N-1) (1 - e^-x)^(N-2) e^-x the law of x,
    which is regular at x = 0.  In E = e^-x the integrand is the rational
    (N-1) (1 - E)^(N-2) E^2 / (E + 2 psi).

    Builds one lattice of GK15 panels in t below every ln z in [u_ends],
    evaluates psi on it once, and returns (transform, cost).
    transform(ln_z), for a 1-D array, integrates each ln z over the lattice
    panels below it down past x = x_cut = _DEPTH + ln(N-1), and over one
    GK15 panel of its own from the last lattice edge up to ln z, where psi
    is evaluated per ln z; it returns (values, error bounds).  The
    integrand is at most the law, so the bound adds the law's mass beyond
    x_cut.  cost is the nodes one ln z spans.  Panels are _RATIO_STEP
    wide, or _RATIO_STEP / 2 units of x where that is narrower.

    The lattice panels of ln z end at the last lattice edge below it, so
    x at its slot (k, m) is delta + D[k, m], with delta in
    [0, (2/beta) width) the offset of ln z above that edge and D one table
    for every ln z; E is e^-delta e^-D, one exp per ln z.
    """
    n = params.N
    tb = 2.0 / params.beta
    width = _RATIO_STEP * min(params.beta / 4.0, 1.0)
    x_cut = _DEPTH + math.log(n - 1)
    panels = math.ceil(x_cut / tb / width)
    t_lo = u_ends[0] - (panels + 1) * width
    edges = t_lo + width * np.arange(
        math.ceil((u_ends[1] - t_lo) / width) + 1)
    t = gk_rule(edges)[0]
    _, wk, wg = gk_rule(tb * edges[:2])     # in x, for every panel
    two_psi = 2.0 * interference_laplace_kernel(np.exp(t), 1.0, params)
    e_rel = np.exp(-tb * (edges[panels] - t[:panels]))
    unit_x, unit_wk, unit_wg = gk_rule(np.array([0.0, 1.0]))
    cut_mass = -math.expm1((n - 1) * math.log1p(-math.exp(-x_cut)))

    def integrand(e, one_minus_e, two_psi):
        return (n - 1) * one_minus_e ** (n - 2) * e * e / (e + two_psi)

    def transform(ln_z):
        last = np.floor((ln_z - t_lo) / width)
        delta = (tb * (ln_z - t_lo - width * last))[:, None, None]
        idx = last.astype(int)[:, None] + np.arange(-panels, 0)
        e = np.exp(-delta) * e_rel
        value, err = gk_sum(integrand(e, 1.0 - e, two_psi[idx]), wk, wg)
        # the end panel, x in [0, delta]
        x = delta * unit_x
        end_psi = 2.0 * interference_laplace_kernel(
            np.exp(ln_z[:, None, None] - x / tb), 1.0, params)
        end_value, end_err = gk_sum(
            integrand(np.exp(-x), -np.expm1(-x), end_psi),
            delta * unit_wk, delta * unit_wg)
        return value + end_value, err + end_err + cut_mass

    return transform, 15 * (panels + 1)


def echo_power_laplace(z, params, complement=False):
    """Echo-power Laplace transform marginalized over the cluster-edge law.

    Returns E[exp(-z X)] for the echo power X of an N-station cluster; with
    complement=True returns E[1 - exp(-z X)] evaluated without cancellation.
    At z = 0, and at ps = 0 (no echo), the transform is exactly 1.  The
    in-disk treatment of the cluster keeps a nonzero large-z limit of 2^-N
    (the weight of an empty equivalent disk), so the transform decreases
    toward that floor rather than to 0.  Evaluated on the lattice
    `radar_rate` builds, for this one z.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0 or params.ps == 0.0:
        return 0.0 if complement else 1.0
    ln_z = math.log(z)
    transform, _ = _echo_transform((ln_z, ln_z), params, complement)
    value, bound = transform(np.array([ln_z]))
    check_bound(value, bound, "echo_power_laplace")
    return float(value[0])


def interference_laplace_factor(z, params):
    """Interference Laplace transform marginalized over the distance-ratio law.

    Only defined for clusters of two or more stations; the single-station
    case is handled exactly by `radar_rate_single`.  Evaluated on the
    lattice `radar_rate` builds, for this one z.
    """
    if params.N < 2:
        raise ValueError("distance-ratio law degenerates for N=1; "
                         "use radar_rate_single")
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0:
        return 1.0
    ln_z = math.log(z)
    transform, _ = _interference_factor((ln_z, ln_z), params)
    value, bound = transform(np.array([ln_z]))
    check_bound(value, bound, "interference_laplace_factor")
    return float(value[0])


# the positive nodes and their weights of the 96-point Gauss-Legendre rule
# on [-1, 1], the bits of scipy.special.roots_legendre(96) (which loads
# scipy.linalg), for the exclusion-disk integral; the rule is symmetric
_HOLE_HALF = (
    ("0x1.0aad9db41ed22p-6", "0x1.0aa79616b36f6p-5"),
    ("0x1.8fe03fd8f166cp-5", "0x1.0a5f3e4f01659p-5"),
    ("0x1.4cfe9a44433dep-4", "0x1.09cea25ffee30p-5"),
    ("0x1.d1b2bd5ea8deep-4", "0x1.08f5e9851bf0bp-5"),
    ("0x1.2af4445425b87p-3", "0x1.07d54e8a324a4p-5"),
    ("0x1.6cbe0eea4ecf1p-3", "0x1.066d1fbb91d63p-5"),
    ("0x1.ae24e54c8365bp-3", "0x1.04bdbed0c2ae3p-5"),
    ("0x1.ef17092e0b4abp-3", "0x1.02c7a0d202757p-5"),
    ("0x1.17c16df589d1cp-2", "0x1.008b4df88432ap-5"),
    ("0x1.37ab71a834a7fp-2", "0x1.fc12c312f6982p-6"),
    ("0x1.5740e72ca83cap-2", "0x1.f6851357f7649p-6"),
    ("0x1.76793cf117fdfp-2", "0x1.f06f0e737512ep-6"),
    ("0x1.954bfaa76531ap-2", "0x1.e9d25b1578b53p-6"),
    ("0x1.b3b0c39160c9ap-2", "0x1.e2b0c477fd75fp-6"),
    ("0x1.d19f58c592f54p-2", "0x1.db0c39e25a800p-6"),
    ("0x1.ef0f9b6beae32p-2", "0x1.d2e6ce22e4bbap-6"),
    ("0x1.05fcc778dda8cp-1", "0x1.ca42b6feed50bp-6"),
    ("0x1.142aad9a3576ap-1", "0x1.c1224c9943c5cp-6"),
    ("0x1.220da75121028p-1", "0x1.b78808cf6574ep-6"),
    ("0x1.2fa1f02860e0bp-1", "0x1.ad76868d864b1p-6"),
    ("0x1.3ce3d903f9f6ep-1", "0x1.a2f08119a2179p-6"),
    ("0x1.49cfc92112ad0p-1", "0x1.97f8d355c6cdcp-6"),
    ("0x1.56623f0fc0010p-1", "0x1.8c9276f9cbc21p-6"),
    ("0x1.6297d1a67ebb0p-1", "0x1.80c083c4ab897p-6"),
    ("0x1.6e6d30ef16b46p-1", "0x1.74862ea5b8b58p-6"),
    ("0x1.79df270ca7f30p-1", "0x1.67e6c8dde7b4fp-6"),
    ("0x1.84ea991aa3314p-1", "0x1.5ae5bf196aac4p-6"),
    ("0x1.8f8c8804715d4p-1", "0x1.4d869881dde58p-6"),
    ("0x1.99c211558f960p-1", "0x1.3fccf5c945f24p-6"),
    ("0x1.a3887001e73f4p-1", "0x1.31bc902e22a85p-6"),
    ("0x1.acdcfd262be7cp-1", "0x1.23593878dc81ap-6"),
    ("0x1.b5bd30c00af2ep-1", "0x1.14a6d5f2d424fp-6"),
    ("0x1.be26a25dfb412p-1", "0x1.05a965575fb47p-6"),
    ("0x1.c61709c67d7d8p-1", "0x1.ecc9ef7e07c25p-7"),
    ("0x1.cd8c3f96a03d6p-1", "0x1.cdbb630a7cb8cp-7"),
    ("0x1.d4843dd79deb4p-1", "0x1.ae2f92527e501p-7"),
    ("0x1.dafd208b6da2ap-1", "0x1.8e2f0c53ffc87p-7"),
    ("0x1.e0f5263024178p-1", "0x1.6dc27fbc991a8p-7"),
    ("0x1.e66ab03a073fap-1", "0x1.4cf2b89333e10p-7"),
    ("0x1.eb5c438440c02p-1", "0x1.2bc89dde79095p-7"),
    ("0x1.efc888b82da16p-1", "0x1.0a4d2f4ea77c2p-7"),
    ("0x1.f3ae4cab74f04p-1", "0x1.d11305f70bebep-8"),
    ("0x1.f70c80b584621p-1", "0x1.8d0d86cd514f7p-8"),
    ("0x1.f9e23afe86f4dp-1", "0x1.489c5ccbe0a2cp-8"),
    ("0x1.fc2eb6cf783d8p-1", "0x1.03d22f3a11fb1p-8"),
    ("0x1.fdf155061469fp-1", "0x1.7d83f3ee4f7cdp-9"),
    ("0x1.ff299d8fa5cb6p-1", "0x1.e60133d38b42ep-10"),
    ("0x1.ffd74d7aaa774p-1", "0x1.a1bf9ee7f5802p-11"),
)
_HOLE_NODES = 2 * len(_HOLE_HALF)


@cache
def _hole_rule():
    """The exclusion-disk rule after the substitution t = 2 - v^2, which
    removes the arccos endpoint singularity: its nodes t and its weights
    times the kernel."""
    v_pos, w_pos = np.array([[float.fromhex(h) for h in pair]
                             for pair in _HOLE_HALF]).T
    v = np.concatenate((-v_pos[::-1], v_pos))
    w = np.concatenate((w_pos[::-1], w_pos))
    hv = (v + 1.0) * (math.sqrt(2.0) / 2.0)
    hw = w * (math.sqrt(2.0) / 2.0)
    ht = 2.0 - hv * hv
    kernel = 2.0 * np.arccos(ht / 2.0) * ht * 2.0 * hv
    weights = kernel * hw
    ht.setflags(write=False)        # every caller shares the cached arrays
    weights.setflags(write=False)
    return ht, weights


def hole_exclusion_integral(c, beta):
    """Station-free-disk correction integral as a function of c = z p_t r1^beta.

    Evaluates int_0^2 2 arccos(t/2) * t / (1 + t^beta / c) dt, vectorized
    over c.  Tends to 0 as c -> 0 and to pi (the normalized disk area) as
    c -> inf; writing the saturating ratio as 1/(1 + t^beta/c) keeps the
    t -> 0 endpoint finite without a separate limit branch.

    The rule is a fixed 96-point one and reports no error.  At small c, where
    the integrand lives on t below about c^(1/beta), it is far off: at
    c = 1e-12 it reads +25% at beta=4 and -72% at beta=2.5 (-0.33% at
    beta=8), against 1.9e-3 relative at c = 1e-6 and beta=2.5.  Inside
    `radar_rate_single` such c carry little weight, so there the rule moves
    the rate by at most 4e-4 of that rate's own bound
    (`tests/test_radar.py::TestHoleRuleInTheBound`); a direct caller gets no
    such guarantee, nor a check that c >= 0.
    """
    t, weights = _hole_rule()
    with np.errstate(divide="ignore", over="ignore"):   # c = 0 gives 0
        ratio = 1.0 / (1.0 + t ** beta / np.expand_dims(c, -1))
    return (ratio * weights).sum(axis=-1)


def _outer_rate(lo, hi, panels, rate_lo, rate_hi, integrand, cost, what):
    """A radar rate's outer integral over u = ln z and its error bound.

    `panels` core panels on [lo, hi], then tails where the integrand decays
    at least at rate_lo and rate_hi per unit u, cut at |u| = _U_MAX.
    integrand(z) returns (values, inner error bounds); it runs in slices
    holding `cost` temporaries per z.  The bound adds K15 - G7, the inner
    bounds and each cut tail's outermost value / rate; a bound that misses
    PHYSICAL_QUAD raises ConvergenceError.
    """
    edges = panel_edges(lo, hi, panels, rate_lo, rate_hi)
    u, wk, wg = gk_rule(np.clip(edges, -_U_MAX, _U_MAX))
    y, inner_err = in_chunks(integrand, np.exp(u.ravel()), cost)
    value, err = gk_sum(y.reshape(u.shape), wk, wg)
    err += np.sum(inner_err.reshape(u.shape) * wk)
    err += ((abs(y[0]) / rate_lo if edges[0] < -_U_MAX else 0.0)
            + (abs(y[-1]) / rate_hi if edges[-1] > _U_MAX else 0.0))
    check_bound(value, err, what)
    return max(float(value), 0.0), float(err)


def radar_rate(params):
    """Radar information rate of an N-station sensing cluster, in nats.

    At N = 1 it is `radar_rate_single(params)`, exact with the exclusion
    disk.  At N >= 2 it is the outer integral over u = ln z of (1 - echo
    transform) times the interference factor.  The echo factor bends where
    c0 z (pi lam)^(beta/2) = 1 and the interference factor near z = 1;
    beyond both, the integrand decays like z^(+-2/beta), so the rule's
    tails are sized by that rate.  Both inner transforms run on lattices
    built once per rate (`_echo_transform`, `_interference_factor`).  The
    echo/interference independence baked into the factorization
    underestimates the rate in regimes dominated by rare near-target
    deployments; the Monte Carlo estimator is the reference.
    """
    if params.N == 1:
        return radar_rate_single(params)
    if params.ps == 0.0:
        return RateEstimate(value=0.0, method="cooperative-integral")

    tb = 2.0 / params.beta
    c0 = params.sigma2 * params.mr * params.ps
    u_echo = -math.log(c0) - math.log(math.pi * params.lam) / tb
    lo = min(u_echo, 0.0) - _MARGIN / tb
    hi = max(u_echo, 0.0) + _MARGIN / tb

    # ln z at the outermost nodes `_outer_rate` will place
    u_ends = np.clip((lo - _TAIL_EDGES[-1] / tb, hi + _TAIL_EDGES[-1] / tb),
                     -_U_MAX, _U_MAX)
    echo, echo_cost = _echo_transform(u_ends, params, complement=True)
    factor, factor_cost = _interference_factor(u_ends, params)

    def integrand(z):
        ln_z = np.log(z)
        comp, comp_err = echo(ln_z)
        f, f_err = factor(ln_z)
        return comp * f, comp_err * f + comp * f_err

    # at most 4 _Z_STEP wide in ln z: the integrand's bends do not widen
    # with beta, and at N = 2 wider panels miss the tolerance from beta = 15
    step = _Z_STEP * min(1.0, 8.0 / params.beta)
    value, err = _outer_rate(lo, hi, math.ceil(tb * (hi - lo) / step),
                             tb, tb, integrand, echo_cost + factor_cost,
                             "radar_rate")
    return RateEstimate(value=value, method="cooperative-integral",
                        quad_error=err)


def _hole_window(ln_omega, k):
    """Ends in v = ln(omega s) of the core of the hole rule at ln omega.

    It starts _MARGIN + _HOLE_LEFT decay lengths below both the
    hole's bend at v = 0 and the law's scale s = 1 (v = ln omega), and ends
    where exp(-s) or exp(-k omega s^2) has fallen by e^-_DEPTH; both ends
    grow with ln omega.
    """
    lo = np.minimum(ln_omega, 0.0) - _MARGIN - _HOLE_LEFT
    hi = ln_omega + np.minimum(math.log(_DEPTH),
                               0.5 * (math.log(_DEPTH / k) - ln_omega))
    return lo, hi


def _hole_transform(ln_omega_ends, beta, k):
    """Single-station interference transform with the exclusion disk.

    omega = (z pt)^(2/beta) / (pi lam).  Over s = pi lam r1^2 the no-hole
    exponent is -s - k omega s^2 and the hole adds (s/pi) * hole(c),
    c = (omega s)^(beta/2).  In y = omega s the exponent is -(y/omega) g(y)
    with g(y) = 1 + k y - hole(y^(beta/2))/pi, so in v = ln y the transform
    is int exp(x - e^(x + ln g(v))) dv with x = v - ln omega, and the hole
    enters only through ln g(v), which no omega changes.

    Builds one lattice of GK15 panels _HOLE_V_STEP wide in v over the cores
    (`_hole_window`) of every ln omega in [ln_omega_ends], evaluates ln g
    on it once, and returns (transform, cost).  transform(ln_omega), for a
    1-D ascending array, integrates every ln omega over the panels that
    cover the cores of the whole array and returns (values, error bounds);
    as g >= 0 the integrand is at most e^x, so the bound adds
    e^(v_cut - ln omega) for the tail cut below the first panel.  cost is
    the lattice nodes one core spans.
    """
    (v_lo, first_hi), (last_lo, v_hi) = (_hole_window(e, k)
                                         for e in ln_omega_ends)
    edges = v_lo + _HOLE_V_STEP * np.arange(
        math.ceil((v_hi - v_lo) / _HOLE_V_STEP) + 1)
    v, wk, wg = gk_rule(edges)
    with np.errstate(over="ignore"):        # c = inf is hole(c) = pi
        c = np.exp(0.5 * beta * v.ravel())
    hole, = in_chunks(lambda c: (hole_exclusion_integral(c, beta),), c,
                      _HOLE_NODES)
    ln_g = np.log1p(k * np.exp(v) - hole.reshape(v.shape) / math.pi)

    def transform(ln_omega):
        lo, hi = _hole_window(ln_omega, k)
        first = max(int((lo.min() - v_lo) // _HOLE_V_STEP), 0)
        last = math.ceil((hi.max() - v_lo) / _HOLE_V_STEP)
        x = v[first:last] - ln_omega[:, None, None]
        with np.errstate(over="ignore"):    # e^(x + ln g) = inf adds 0
            f = np.exp(x - np.exp(x + ln_g[first:last]))
        value, err = gk_sum(f, wk[first:last], wg[first:last])
        return value, err + np.exp(edges[first] - ln_omega)

    # the widest core is at one end: it narrows with ln omega below 0
    widest = max(first_hi - v_lo, v_hi - last_lo)
    return transform, 15 * (math.ceil(widest / _HOLE_V_STEP) + 1)


def radar_rate_single(params, include_hole=True):
    """Radar information rate for a single sensing station (N = 1), exact.

    With include_hole=True the interference transform accounts for the
    station-free disk of radius r1 around the target; with False that
    correction is dropped, which overestimates interference and lowers the
    rate (the shortfall grows with the normalized deployment density).
    The no-hole transform is closed form (a scaled complementary error
    function); with the hole it is a fixed rule in v = ln(omega s), where
    the exclusion-disk integral depends on v alone, so it runs once per rate
    on a lattice every outer node shares (`_hole_transform`).  The outer rule
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

    tb = 2.0 / params.beta
    k = tb * beta_fn(tb, 1.0 - tb)
    c_echo = params.sigma2 * params.mr * params.ps
    u_echo = -math.log(c_echo)
    u_hole = math.log(math.pi * params.lam) / tb - math.log(params.pt)
    lo = min(u_echo, u_hole) - _MARGIN
    hi = max(u_echo, u_hole) + _MARGIN

    rate_hi = 1.0 / params.beta
    ln_omega_1 = tb * math.log(params.pt) - math.log(math.pi * params.lam)
    cost = 1
    if include_hole:
        # ln omega at the outermost nodes `_outer_rate` will place
        u_ends = np.clip((lo - _TAIL_EDGES[-1], hi + _TAIL_EDGES[-1] / rate_hi),
                         -_U_MAX, _U_MAX)
        transform, cost = _hole_transform(tb * u_ends + ln_omega_1,
                                          params.beta, k)

    def integrand(z):
        echo = -np.expm1(-params.q_shape * np.log1p(z * c_echo))
        if include_hole:
            t, t_err = transform(tb * np.log(z) + ln_omega_1)
        else:   # closed form: int_0^inf exp(-s - k omega s^2) ds
            omega = (z * params.pt) ** tb / (math.pi * params.lam)
            r = 0.5 / np.sqrt(k * omega)
            t, t_err = math.sqrt(math.pi) * r * erfcx(r), 0.0
        return echo * t, echo * t_err

    value, err = _outer_rate(lo, hi, math.ceil((hi - lo) / _Z_STEP), 1.0,
                             rate_hi, integrand, cost, method)
    return RateEstimate(value=value, method=method, quad_error=err)
