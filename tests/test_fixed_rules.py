"""Fixed composite Gauss-Kronrod rules against the nested adaptive oracle.

The oracle is the evaluation the library used before the fixed rules: every
outer node of a semi-infinite adaptive integral starts its own adaptive
inner integral.  It shares the closed kernels with the library, so these
tests check the integration alone; the kernels have their own quadrature
oracles in test_radar.py and test_coverage.py.  Coverage at L >= 3 is
checked against a large fixed-seed draw of the ordered-distance law, which
shares nothing with the rule's reduction to distance ratios.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from isacnet import SystemParams, coverage, radar
from isacnet.coverage import (_h_core, _signed_binomials, _threshold_terms,
                              coverage_closed_form, coverage_curve)
from isacnet.radar import (echo_laplace_exponent, hole_exclusion_integral,
                           interference_laplace_factor,
                           interference_laplace_kernel, radar_rate,
                           radar_rate_single)
from isacnet.specfun import (PHYSICAL_QUAD, ConvergenceError, QuadratureSpec,
                             beta_incomplete, integrate_finite,
                             integrate_semi_infinite)

# the tighter spec the oracle gives the integrals nested inside its
# PHYSICAL_QUAD outer integrals
INNER_QUAD = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14, max_subdivisions=4000)


# ---------------------------------------------------------------- the oracle

def oracle_echo_complement(z, params):
    """E[1 - exp(-z X)] over the cluster-edge law, adaptive in s."""
    n, lam = params.N, params.lam
    pref = 2.0 * math.pi * lam / params.beta

    def f(s):
        r_far = np.sqrt(s / (math.pi * lam))
        w = pref * echo_laplace_exponent(z, r_far, params)
        return -np.expm1(-w) * np.exp((n - 1) * np.log(s) - s - math.lgamma(n))

    return integrate_semi_infinite(f, 0.0, INNER_QUAD, scale=float(n))


def oracle_interference_factor(z, params):
    """Interference factor over the distance-ratio law, adaptive in eta."""
    n = params.N

    def f(eta):
        h4 = interference_laplace_kernel(z, eta, params)
        return 2.0 * (n - 1) * eta * (1.0 - eta * eta) ** (n - 2) / (1.0 + 2.0 * h4)

    return integrate_finite(f, 0.0, 1.0, INNER_QUAD)


def oracle_radar_rate(params):
    def f(z_arr):
        return np.array([oracle_echo_complement(z, params)
                         * oracle_interference_factor(z, params) / z
                         for z in z_arr])

    return integrate_semi_infinite(f, 0.0, PHYSICAL_QUAD)


def oracle_radar_rate_single(params, include_hole):
    q, lam, beta = params.q_shape, params.lam, params.beta
    tb = 2.0 / beta
    bc = special.beta(tb, 1.0 - tb)
    c_echo = params.sigma2 * params.mr * params.ps

    def transform(z):
        a_quad = tb * (z * params.pt) ** tb * bc / (math.pi * lam)

        def f(s):
            expo = -s - a_quad * s * s
            if include_hole:
                c = z * params.pt * (s / (math.pi * lam)) ** (beta / 2.0)
                expo = expo + s / math.pi * hole_exclusion_integral(c, beta)
            return np.exp(expo)

        return integrate_semi_infinite(f, 0.0, INNER_QUAD,
                                       scale=1.0 / (1.0 + math.sqrt(a_quad)))

    def f(z_arr):
        return np.array([-math.expm1(-q * math.log1p(z * c_echo))
                         * transform(z) / z for z in z_arr])

    return integrate_semi_infinite(f, 0.0, PHYSICAL_QUAD)


def oracle_coverage_l2(params, threshold):
    """L=2 coverage, adaptive over the gaps t1 and t2 (s1 = t1, s2 = t1 + t2)."""
    q = params.q_shape
    a = params.alpha() * np.arange(1, q + 1) * threshold * params.pt / (q * params.pc)
    signed = _signed_binomials(q)

    def survival(s):
        p = s ** (-params.beta / 2.0)
        h = _h_core(p.sum(axis=1), p[:, -1], a, params.beta)
        return (signed * np.exp(-h)).sum(axis=1)

    def outer(t1_arr):
        out = np.empty_like(t1_arr)
        for i, t1 in enumerate(t1_arr):
            def inner(t2):
                s = np.column_stack([np.full_like(t2, t1), t1 + t2])
                return survival(s) * np.exp(-t2)
            out[i] = integrate_semi_infinite(inner, 0.0, INNER_QUAD, scale=1.0)
        return out * np.exp(-t1_arr)

    return integrate_semi_infinite(outer, 0.0, PHYSICAL_QUAD, scale=1.0)


def quad_coverage_l2(params, threshold):
    """The one-dimensional L=2 form the library integrates, by scipy.

    P = sum_n c_n int_0^inf (1 + rho + G_n(rho))^-2 d rho, taken in ln rho
    at a tight tolerance: an independent integrator on the same formula.
    """
    q = params.q_shape
    a = params.alpha() * np.arange(1, q + 1) * threshold * params.pt / (q * params.pc)
    signed = _signed_binomials(q)

    def f(x):
        rho = math.exp(x)
        p = (1.0 + rho) ** (-params.beta / 2.0)
        g = _h_core(np.array([1.0 + p]), np.array([p]), a, params.beta)[0]
        return float((signed * rho / (1.0 + rho + g) ** 2).sum())

    val, _ = integrate.quad(f, -60.0, 60.0, limit=1000, epsabs=0.0,
                            epsrel=1e-13)
    return val


def sampled_coverage(params, thresholds, samples=1_000_000, seed=0,
                     chunk=100_000):
    """Coverage by a fixed-seed draw of the ordered distances s_1 < ... < s_L.

    The squared distances scaled by pi*lam are cumulative sums of Exp(1)
    gaps; the survival sum is averaged over the draw.  Returns the means
    and their 95% half-widths.  Drawn and evaluated in chunks so that the
    working set stays small.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = _threshold_terms(params, thresholds)
    signed = _signed_binomials(params.q_shape)
    vals = np.empty((len(a), samples))
    for i in range(0, samples, chunk):
        s = np.cumsum(rng.standard_exponential((chunk, params.L)), axis=1)
        pow_terms = s ** (-params.beta / 2.0)
        for j, a_terms in enumerate(a):
            h = _h_core(pow_terms.sum(axis=1), pow_terms[:, -1], a_terms,
                        params.beta)
            vals[j, i:i + chunk] = (signed * np.exp(-h)).sum(axis=-1)
    return (vals.mean(axis=1),
            1.96 * vals.std(axis=1, ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------- wider-range rule

WIDE = {(radar, "_Z_STEP"): 1.0,
        (radar, "_ECHO_STEP"): 1.0, (radar, "_RATIO_STEP"): 1.0,
        (radar, "_HOLE_V_STEP"): 0.5, (radar, "_DEPTH"): 45.0,
        # the core margin, which the radar rates share with coverage
        (coverage, "_MARGIN"): 8.0}


def wide_rule(monkeypatch, f, *args):
    """f evaluated with every rule the radar rates use at twice its panels
    and wider cores."""
    with monkeypatch.context() as m:
        for (module, name), value in WIDE.items():
            m.setattr(module, name, value)
        return f(*args)


# ------------------------------------------------------------- the grid

BETAS = (2.05, 3.5, 4.0, 6.0)
LAMS = (1e-6, 1e-4, 1e-1, 1.0)
MTS = (2, 10, 16)
NS = (2, 4, 6)
REL = 1e-7

# every (beta, lambda) pair once, with the antenna counts and cluster sizes
# rotated so that each level of each factor appears several times
COOP_GRID = [(b, lam, MTS[(i + j) % 3], NS[(i + 2 * j) % 3])
             for i, b in enumerate(BETAS) for j, lam in enumerate(LAMS)]
# half of the (beta, lambda) pairs: each level of each factor twice
SINGLE_GRID = [(b, lam, MTS[(i + j) % 3])
               for i, b in enumerate(BETAS) for j, lam in enumerate(LAMS)
               if (i + j) % 2 == 0]
L2_THRESHOLDS_DB = (-10.0, 5.0, 20.0)


@pytest.mark.parametrize("beta,lam,mt,n", COOP_GRID)
def test_cooperative_rate_matches_oracle(monkeypatch, beta, lam, mt, n):
    params = SystemParams(beta=beta, lam=lam, mt=mt, N=n)
    est = radar_rate(params)
    if beta == 6.0:
        # the oracle's outer engine stops its tail early on the slow
        # z^(-1/3) decay (or exhausts its budget), so the reference is the
        # same rule with twice the panels over wider ranges
        ref = wide_rule(monkeypatch, radar_rate, params)
        assert abs(est.value - ref.value) <= est.quad_error + ref.quad_error
        ref = ref.value
    else:
        ref = oracle_radar_rate(params)
    assert est.value == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("beta,lam,mt", SINGLE_GRID)
@pytest.mark.parametrize("hole", (True, False))
def test_single_station_rate_matches_oracle(beta, lam, mt, hole):
    params = SystemParams(beta=beta, lam=lam, mt=mt, N=1)
    est = radar_rate_single(params, include_hole=hole)
    assert est.value == pytest.approx(oracle_radar_rate_single(params, hole),
                                      rel=REL)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("mt", MTS)
def test_l2_coverage_matches_oracle(beta, mt):
    params = SystemParams(beta=beta, mt=mt, L=2)
    t = 10.0 ** (np.array(L2_THRESHOLDS_DB) / 10.0)
    curve = coverage_curve(params, t)
    ref = [oracle_coverage_l2(params, x) for x in t]
    assert curve.values == pytest.approx(ref, rel=REL)


def test_beta_six_cooperative_rate_converges():
    # the linear-eta adaptive integral could not resolve the bend of the
    # eta integrand at eta = z^(-1/6) and raised ConvergenceError here
    est = radar_rate(SystemParams(beta=6.0, N=3))
    assert est.value == pytest.approx(0.0413015, rel=1e-5)


@pytest.mark.parametrize("beta,lam", [(12.0, 0.1), (20.0, 1e-4)])
def test_steep_two_station_rate_converges(monkeypatch, beta, lam):
    # both lattices keep their share of the bound small at steep path loss
    params = SystemParams(beta=beta, lam=lam, N=2)
    est = radar_rate(params)
    ref = wide_rule(monkeypatch, radar_rate, params)
    assert abs(est.value - ref.value) <= est.quad_error + ref.quad_error


@pytest.mark.parametrize("z", (1e-6, 1.0, 1e6, 1e18))
def test_interference_factor_against_log_eta_quad(z):
    params = SystemParams(beta=6.0, N=3)
    n, beta = params.N, params.beta

    def f(y):
        eta = math.exp(y)
        h4 = interference_laplace_kernel(z, eta, params)
        return 2.0 * (n - 1) * eta * eta * (1.0 - eta * eta) ** (n - 2) / (1.0 + 2.0 * h4)

    # the integrand bends where z eta^beta = 1 and where h4 = 1/2
    bends = [-math.log(z) / beta,
             (math.log((beta - 2.0) / 2.0) - math.log(z)) / (beta - 2.0)]
    ref, _ = integrate.quad(f, -60.0, 0.0,
                            points=[y for y in bends if -60.0 < y < 0.0],
                            limit=1000, epsabs=0.0, epsrel=1e-13)
    assert interference_laplace_factor(z, params) == pytest.approx(ref, rel=1e-8)


def test_analytic_coverage_rows_carry_the_rule_bound(tmp_path):
    from isacnet.config import build_experiment, parse_config_file
    from isacnet.harness import run_experiment

    path = tmp_path / "l2.cfg"
    path.write_text("metric = coverage\nmethod = analytic\nt_db = -10:20:10\n"
                    "params.l = 2\nparams.beta = 3.5\n")
    cfg = build_experiment(parse_config_file(str(path)))
    rows = run_experiment(cfg)
    assert len(rows) == 4
    for row in rows:
        t = 10.0 ** (row.extra["t_db"] / 10.0)
        assert row.quad_error != 1e-6 * row.value
        assert 0.0 < row.quad_error < 1e-6 * row.value
        assert abs(row.value - quad_coverage_l2(cfg.params, t)) <= row.quad_error


def test_sampled_curve_equals_single_threshold_calls():
    params = SystemParams(L=3, beta=3.5)
    t = 10.0 ** (np.array([-10.0, 0.0, 10.0, 20.0]) / 10.0)
    curve = coverage_curve(params, t)
    single = [coverage.coverage_integral(params, x) for x in t]
    assert curve.values.tolist() == single
    assert np.all(curve.uncertainty == 0.0)
    assert np.all(curve.quad_error > 0.0)
    assert np.all(curve.quad_error <= PHYSICAL_QUAD.rel_tol * curve.values)


@pytest.mark.parametrize("L", (3, 4, 5))
@pytest.mark.parametrize("mt", (4, 10))
def test_cluster_coverage_matches_sampled_distances(L, mt):
    params = SystemParams(L=L, beta=3.5, mt=mt)
    t = 10.0 ** (np.array([-10.0, 5.0, 20.0]) / 10.0)
    curve = coverage_curve(params, t)
    mean, ci = sampled_coverage(params, t, seed=L + mt)
    assert np.all(np.abs(curve.values - mean) <= 4.0 * ci + curve.quad_error)


@pytest.mark.parametrize("beta", (3.2, 4.0))
def test_single_station_coverage_is_the_finite_sum(beta):
    # with one station the distance average is E[exp(-s h0)] = 1/(1 + h0)
    params = SystemParams(beta=beta, L=1)
    q, tb = params.q_shape, 2.0 / beta
    for t in (0.1, 2.0, 100.0):
        total = 0.0
        for n in range(1, q + 1):
            a = params.alpha() * n * t * params.pt / (q * params.pc)
            h0 = tb * a ** tb * beta_incomplete(a / (1.0 + a), 1.0 - tb, tb)
            total += (-1) ** (n + 1) * math.comb(q, n) / (1.0 + h0)
        value = coverage.coverage_integral(params, t)
        assert value == pytest.approx(total, rel=1e-12)
        if beta == 4.0:
            assert value == pytest.approx(coverage_closed_form(params, t),
                                          rel=1e-12)


@pytest.mark.parametrize("f,params", [
    (radar_rate, SystemParams(beta=2.05, lam=1e-6, mt=16, N=6)),
    (radar_rate_single, SystemParams(beta=6.0, lam=1e-6, mt=16, N=1)),
    (lambda p: coverage_curve(p, 10.0 ** (np.arange(-10.0, 21.0, 2.0) / 10.0)),
     SystemParams(beta=4.0, mt=16, L=5)),
])
def test_peak_traced_allocation(f, params):
    tracemalloc.start()
    try:
        f(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("module,name,call", [
    (radar, "_ECHO_STEP", lambda: radar_rate(SystemParams(N=3))),
    (radar, "_RATIO_STEP", lambda: radar_rate(SystemParams(N=3))),
    (radar, "_HOLE_V_STEP", lambda: radar_rate_single(SystemParams())),
    (radar, "_Z_STEP", lambda: radar_rate_single(SystemParams(), False)),
    (coverage, "_RHO_PANELS",
     lambda: coverage_curve(SystemParams(L=2), [0.1, 1.0, 10.0])),
])
def test_starved_rule_raises(monkeypatch, module, name, call):
    # step constants starve when wide, panel counts when 1
    monkeypatch.setattr(module, name,
                        {"_Z_STEP": 40.0, "_HOLE_V_STEP": 6.0,
                         "_ECHO_STEP": 20.0, "_RATIO_STEP": 40.0}.get(name, 1))
    with pytest.raises(ConvergenceError):
        call()


@pytest.mark.parametrize("L", (3, 5))
def test_starved_rho_rule_raises_for_clusters(monkeypatch, L):
    monkeypatch.setattr(coverage, "_RHO_PANELS", 1)
    with pytest.raises(ConvergenceError):
        coverage_curve(SystemParams(L=L), [0.1, 10.0])


def test_theta_rule_bound_is_checked(monkeypatch):
    # steep path loss and a very high threshold put structure into the
    # theta direction that one GK15 panel resolves only to ~2.4e-6
    # relative by its K15 - G7 bound; two panels meet the tolerance
    params = SystemParams(L=3, beta=20.0, mt=2)
    t = [10.0 ** 12.0]
    with pytest.raises(ConvergenceError):
        coverage_curve(params, t)
    monkeypatch.setattr(coverage, "_THETA_PANELS", 2)
    curve = coverage_curve(params, t)
    assert 0.0 < curve.quad_error[0] <= PHYSICAL_QUAD.rel_tol * curve.values[0]
