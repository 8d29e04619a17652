"""Analytic radar rate: transform kernels, marginalized factors, rates."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special
from scipy.special import roots_legendre

from isacnet import radar
from isacnet.radar import (RateEstimate, echo_laplace_exponent,
                           echo_power_laplace, hole_exclusion_integral,
                           interference_laplace_factor,
                           interference_laplace_kernel, radar_rate,
                           radar_rate_single)

# frozen before the build from an independent scipy-based evaluation of the
# single-station rate integrals (see decisions log)
SINGLE_RATE_ORACLE = {
    (1e-4, True): 0.13848, (1e-4, False): 0.13679,
    (0.1, True): 3.48683, (0.1, False): 3.18243,
}


def quad_echo_oracle(z, r_far, params):
    """beta * int_0^r_far (1 - (c x^-beta + 1)^-(mt-1)) x dx, c = ps z s2 mr."""
    c = params.ps * z * params.sigma2 * params.mr
    q = params.q_shape

    def f(x):
        return -np.expm1(-q * np.log1p(c * x ** -params.beta)) * x

    val, _ = integrate.quad(f, 0.0, r_far, limit=400, epsabs=1e-300,
                            epsrel=1e-11)
    return params.beta * val


def quad_interference_oracle(z, eta, params):
    """Pre-substitution integral int_{r_far}^inf (1 - 1/(1+z y^-b r1^b)) y dy,
    normalized by r1^2 (with r1 = eta * r_far)."""
    r1 = 1.0
    r_far = r1 / eta

    def f(y):
        s = z * y ** -params.beta * r1 ** params.beta
        return s / (1.0 + s) * y

    val, _ = integrate.quad(f, r_far, np.inf, limit=400, epsabs=1e-300,
                            epsrel=1e-11)
    return val / r1 ** 2


class TestEchoExponent:
    def test_zero_argument(self, paper_params):
        assert echo_laplace_exponent(0.0, 50.0, paper_params) == 0.0

    def test_increasing_in_z(self, paper_params):
        z = 10 ** np.linspace(-3.0, 6.0, 30)
        vals = echo_laplace_exponent(z, 70.0, paper_params)
        assert np.all(np.diff(vals) > 0)

    def test_far_edge_saturates(self, paper_params):
        # r_far -> inf turns every incomplete Beta into the complete one
        from scipy.special import beta as beta_fn
        q = paper_params.q_shape
        tb = 2.0 / paper_params.beta
        c0 = paper_params.sigma2 * paper_params.mr * paper_params.ps
        full = (c0 * 1.0) ** tb * sum(
            math.comb(q, i) * beta_fn(q - i + tb, i - tb)
            for i in range(1, q + 1))
        far = echo_laplace_exponent(1.0, 1e9, paper_params)
        assert far == pytest.approx(full, rel=1e-9)
        assert echo_laplace_exponent(1.0, 1e3, paper_params) < far

    @pytest.mark.parametrize("beta", (2.05, 4.0, 6.0))
    @pytest.mark.parametrize("mt", (2, 10, 16))
    @pytest.mark.parametrize("z", (1e-6, 1.0, 1e6))
    def test_against_quadrature_oracle(self, paper_params, beta, mt, z):
        # includes the u = 1/2 point: r_far chosen so ps z s2 mr r^-b = 1
        params = paper_params.with_(beta=beta, mt=mt)
        c = params.ps * z * params.sigma2 * params.mr
        r_half = c ** (1.0 / params.beta)
        for r_far in (r_half, 20.0, 90.0):
            ours = echo_laplace_exponent(z, r_far, params)
            ref = quad_echo_oracle(z, r_far, params)
            assert ours == pytest.approx(ref, rel=1e-8)


class TestInterferenceKernel:
    def test_zero_argument(self, paper_params):
        assert interference_laplace_kernel(0.0, 0.5, paper_params) == 0.0

    def test_increasing_in_z_and_eta(self, paper_params):
        z = 10 ** np.linspace(-2.0, 4.0, 25)
        vals = interference_laplace_kernel(z, 0.5, paper_params)
        assert np.all(np.diff(vals) > 0)
        eta = np.linspace(0.05, 1.0, 25)
        vals = interference_laplace_kernel(3.0, eta, paper_params)
        assert np.all(np.diff(vals) > 0)

    def test_vanishing_ratio(self, paper_params):
        assert interference_laplace_kernel(5.0, 1e-8, paper_params) == \
            pytest.approx(0.0, abs=1e-12)

    def test_against_pre_substitution_oracle(self, paper_params, rng):
        for _ in range(10):
            z = float(10 ** rng.uniform(-1.5, 3.0))
            eta = float(rng.uniform(0.05, 0.95))
            ours = interference_laplace_kernel(z, eta, paper_params)
            ref = quad_interference_oracle(z, eta, paper_params)
            assert ours == pytest.approx(ref, rel=1e-8)

    def test_corrected_ratio_space_form(self, paper_params):
        # same kernel written in the t = r1/y variable:
        # int_0^eta z t^(beta-3) / (1 + z t^beta) dt
        z, eta = 1.0, 0.5
        val, _ = integrate.quad(
            lambda t: z * t ** (paper_params.beta - 3.0)
            / (1.0 + z * t ** paper_params.beta), 0.0, eta,
            epsabs=1e-300, epsrel=1e-11)
        ours = interference_laplace_kernel(z, eta, paper_params)
        assert ours == pytest.approx(val, rel=1e-9)


class TestEchoPowerLaplace:
    def test_unity_at_origin(self, paper_params):
        assert echo_power_laplace(0.0, paper_params.with_(N=3)) == 1.0

    def test_unity_without_sensing_power(self, paper_params):
        params = paper_params.with_(N=3, ps=0.0, pc=1.0)
        assert echo_power_laplace(5.0, params) == 1.0
        assert echo_power_laplace(5.0, params, complement=True) == 0.0

    def test_decreasing(self, paper_params):
        params = paper_params.with_(N=3)
        z = [1e3, 1e4, 1e5, 1e6, 1e7]
        vals = [echo_power_laplace(x, params) for x in z]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_z_floor_is_two_to_minus_n(self, paper_params):
        # the equivalent-disk treatment leaves weight 2^-N on an empty disk,
        # so the transform floors there instead of reaching 0
        for n in (2, 3, 4):
            params = paper_params.with_(N=n)
            assert echo_power_laplace(1e10, params) == \
                pytest.approx(2.0 ** -n, abs=1e-6)

    def test_complement_form(self, paper_params):
        params = paper_params.with_(N=2)
        z = 1e4
        lx = echo_power_laplace(z, params)
        comp = echo_power_laplace(z, params, complement=True)
        assert comp == pytest.approx(1.0 - lx, abs=1e-10)

    def test_against_simulated_transform(self, paper_params):
        # empirical mean of exp(-z X) over 1e5 deployments at z = 1
        params = paper_params.with_(N=3)
        rng = np.random.Generator(np.random.Philox(key=77))
        n = 100_000
        u = np.cumsum(rng.standard_exponential((n, 3)), axis=1)
        rb = (u / (math.pi * params.lam)) ** (-params.beta / 2.0)
        f = rng.gamma(float(params.q_shape), 1.0, (n, 3))
        x = params.sigma2 * params.mr * params.ps * (f * rb).sum(axis=1)
        empirical = np.exp(-1.0 * x).mean()
        ours = echo_power_laplace(1.0, params)
        assert ours == pytest.approx(empirical, rel=0.01)


class TestInterferenceFactor:
    def test_unity_at_origin(self, paper_params):
        assert interference_laplace_factor(0.0, paper_params.with_(N=2)) == 1.0

    def test_single_station_degenerate(self, paper_params):
        with pytest.raises(ValueError):
            interference_laplace_factor(1.0, paper_params.with_(N=1))

    def test_against_dense_trapezoid(self, paper_params):
        params = paper_params.with_(N=2)
        z = 1.0
        eta = np.linspace(1e-9, 1.0, 1_000_001)
        h4 = interference_laplace_kernel(z, eta, params)
        integrand = 2.0 * eta / (1.0 + 2.0 * h4)
        ref = np.trapezoid(integrand, eta)
        ours = interference_laplace_factor(z, params)
        assert ours == pytest.approx(ref, abs=1e-6)

    def test_monotone(self, paper_params):
        params = paper_params.with_(N=2)
        assert interference_laplace_factor(10.0, params) < \
            interference_laplace_factor(1.0, params)


class TestHoleIntegral:
    def test_limits(self):
        assert hole_exclusion_integral(0.0, 4.0) == 0.0
        assert hole_exclusion_integral(1e300, 4.0) == \
            pytest.approx(math.pi, rel=1e-9)

    def test_against_quadrature(self, rng):
        for c in 10.0 ** rng.uniform(-4, 6, 12):
            ref, _ = integrate.quad(
                lambda t: 2.0 * np.arccos(t / 2.0) * t / (1.0 + t ** 4 / c),
                0.0, 2.0, limit=200, epsabs=1e-300, epsrel=1e-10)
            assert hole_exclusion_integral(c, 4.0) == \
                pytest.approx(ref, rel=1e-8)

    def test_general_beta(self):
        c, beta = 3.0, 3.1
        ref, _ = integrate.quad(
            lambda t: 2.0 * np.arccos(t / 2.0) * t / (1.0 + t ** beta / c),
            0.0, 2.0, limit=200, epsabs=1e-300, epsrel=1e-10)
        assert hole_exclusion_integral(c, beta) == pytest.approx(ref, rel=1e-8)

    def test_nan_is_not_read_as_zero(self):
        # a NaN c reaches the caller's bound check
        assert np.isnan(hole_exclusion_integral(np.array([0.0, np.nan]),
                                                4.0)[1])

    def test_monotone_in_c(self):
        c = 10 ** np.linspace(-3, 5, 40)
        vals = hole_exclusion_integral(c, 4.0)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("beta", [2.5, 4.0, 8.0])
    def test_bitwise_the_legendre_rule(self, beta):
        # the rule built on first use is the 96-point one, to the bit
        v, w = roots_legendre(96)
        hv = (v + 1.0) * (math.sqrt(2.0) / 2.0)
        hw = w * (math.sqrt(2.0) / 2.0)
        t = 2.0 - hv * hv
        kernel = 2.0 * np.arccos(t / 2.0) * t * 2.0 * hv
        c = np.logspace(-12.0, 12.0, 97)
        ref = (1.0 / (1.0 + t ** beta / c[:, None]) * (kernel * hw)).sum(axis=-1)
        assert np.array_equal(hole_exclusion_integral(c, beta), ref)


class TestCooperativeRate:
    def test_zero_sensing_power(self, paper_params):
        est = radar_rate(paper_params.with_(N=2, ps=0.0, pc=1.0))
        assert est.value == 0.0

    @pytest.mark.parametrize("lam", (1e-4, 0.1))
    @pytest.mark.parametrize("ps", (0.0, 0.5))
    def test_single_station_is_the_exact_rate(self, paper_params, lam, ps):
        params = paper_params.with_(N=1, lam=lam, ps=ps, pc=1.0 - ps)
        assert radar_rate(params) == radar_rate_single(params)

    def test_grows_with_cluster(self, paper_params):
        r2 = radar_rate(paper_params.with_(N=2)).value
        r4 = radar_rate(paper_params.with_(N=4)).value
        assert r4 > r2

    def test_grows_with_density(self, paper_params):
        vals = [radar_rate(paper_params.with_(N=2, lam=lam)).value
                for lam in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_grows_with_sensing_power(self, paper_params):
        vals = [radar_rate(paper_params.with_(N=2, ps=ps, pc=1.0 - ps)).value
                for ps in np.arange(0.1, 0.95, 0.1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_method_tag(self, paper_params):
        est = radar_rate(paper_params.with_(N=2))
        assert est.method == "cooperative-integral"
        assert est.value > 0

    @pytest.mark.parametrize("n", (3, 32))
    def test_bitwise_repeatable_and_thread_safe(self, paper_params, n):
        # gk_sum's contractions must not depend on call order or threads
        params = paper_params.with_(N=n)
        first = radar_rate(params)
        assert radar_rate(params) == first
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(lambda _: radar_rate(params), range(6)))
        assert all(r.value == first.value and r.quad_error == first.quad_error
                   for r in results)


class TestSingleStationRate:
    def test_zero_sensing_power(self, paper_params):
        est = radar_rate_single(paper_params.with_(ps=0.0, pc=1.0))
        assert est.value == 0.0

    def test_cluster_guard(self, paper_params):
        with pytest.raises(ValueError):
            radar_rate_single(paper_params.with_(N=2))

    @pytest.mark.parametrize("lam,hole", sorted(SINGLE_RATE_ORACLE))
    def test_frozen_oracle_values(self, paper_params, lam, hole):
        est = radar_rate_single(paper_params.with_(lam=lam), include_hole=hole)
        assert est.value == pytest.approx(SINGLE_RATE_ORACLE[(lam, hole)],
                                          rel=5e-4)

    def test_hole_correction_raises_rate(self, paper_params):
        with_hole = radar_rate_single(paper_params, include_hole=True).value
        without = radar_rate_single(paper_params, include_hole=False).value
        assert with_hole > without

    def test_hole_shortfall_grows_with_density(self, paper_params):
        gaps = []
        for lam in (1e-4, 1e-2, 1e-1):
            h = radar_rate_single(paper_params.with_(lam=lam), True).value
            n = radar_rate_single(paper_params.with_(lam=lam), False).value
            gaps.append((h - n) / h)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_grows_with_sensing_power(self, paper_params):
        vals = [radar_rate_single(
            paper_params.with_(ps=ps, pc=1.0 - ps)).value
            for ps in np.arange(0.1, 0.95, 0.1)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _gl_panels(lo, hi, n, nodes=20):
    """Composite Gauss-Legendre nodes and weights, n equal panels."""
    x, w = roots_legendre(nodes)
    edges = np.linspace(lo, hi, n + 1)
    half = np.diff(edges)[:, None] / 2.0
    return ((edges[:-1, None] + half) + half * x).ravel(), (half * w).ravel()


def composite_hole_oracle():
    """An accurate stand-in for `hole_exclusion_integral`: 20-point panels
    of width 1/2 in ln t on (0, 1], cut at t = e^-20 where the integrand's
    remaining mass is below pi e^-40 / 2, and eight panels in v on [1, 2]
    through t = 2 - v^2.  The panels are narrow against the pole of
    1/(1 + t^beta/c) at ln t + i pi/beta, so the rule is good to a few
    eps at beta <= 8."""
    s, ws = _gl_panels(-20.0, 0.0, 40)
    v, wv = _gl_panels(0.0, 1.0, 8)
    t = np.concatenate([np.exp(s), 2.0 - v * v])
    kernel = 2.0 * np.arccos(t / 2.0) * t * np.concatenate(
        [np.exp(s) * ws, 2.0 * v * wv])

    def oracle(c, beta=4.0):
        c = np.asarray(c, dtype=float)
        flat, out = c.ravel(), np.empty(c.size)
        t_beta = t ** beta
        for i in range(0, flat.size, 2000):     # bounded temporaries
            with np.errstate(divide="ignore"):
                out[i:i + 2000] = (1.0 / (1.0 + t_beta / flat[i:i + 2000, None])
                                   ) @ kernel
        return out.reshape(c.shape)

    return oracle


HOLE_ORACLE = composite_hole_oracle()


class TestHoleRuleInTheBound:
    """`radar_rate_single`'s quad_error omits the error of the fixed 96-point
    rule inside `hole_exclusion_integral`; that is honest only while the
    rule's share of the rate's error is far below the stated bound."""

    @pytest.mark.parametrize("beta", (2.5, 8.0))
    @pytest.mark.parametrize("c", (1e-3, 1.0, 30.0, 1e6))
    def test_oracle_against_quad(self, beta, c):
        ref, _ = integrate.quad(
            lambda t: 2.0 * np.arccos(t / 2.0) * t / (1.0 + t ** beta / c),
            0.0, 2.0, limit=400, epsabs=1e-300, epsrel=1e-13)
        assert HOLE_ORACLE(np.array([c]), beta)[0] == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("beta", (2.5, 4.0, 8.0))
    @pytest.mark.parametrize("lam", (1e-4, 10.0))
    def test_rule_error_within_bound(self, paper_params, monkeypatch, beta,
                                     lam):
        params = paper_params.with_(beta=beta, lam=lam)
        est = radar_rate_single(params)
        monkeypatch.setattr(radar, "hole_exclusion_integral", HOLE_ORACLE)
        accurate = radar_rate_single(params).value
        assert abs(est.value - accurate) <= 0.1 * est.quad_error


class TestHoleLattice:
    """The single-station hole transform in v = ln(omega s) on its shared
    lattice, against the s-form integral it substitutes."""

    @pytest.mark.parametrize("beta", (2.5, 4.0, 8.0))
    @pytest.mark.parametrize("omega", (1e-8, 1e-3, 1.0, 1e3, 1e8))
    def test_against_quad_over_s(self, monkeypatch, beta, omega):
        monkeypatch.setattr(radar, "hole_exclusion_integral", HOLE_ORACLE)
        tb = 2.0 / beta
        k = tb * special.beta(tb, 1.0 - tb)

        def f(s):
            c = (omega * s) ** (beta / 2.0)
            return math.exp(-s - k * omega * s * s
                            + s / math.pi * HOLE_ORACLE(np.array([c]), beta)[0])

        # the mass lies below the scale of exp(-s) or of exp(-k omega s^2)
        scale = min(1.0, 1.0 / math.sqrt(k * omega))
        ref = sum(integrate.quad(f, a * scale, b * scale, limit=200,
                                 epsabs=0.0, epsrel=1e-12)[0]
                  for a, b in ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0)))
        ln_omega = math.log(omega)
        transform, _ = radar._hole_transform((ln_omega, ln_omega), beta, k)
        value, err = transform(np.array([ln_omega]))
        assert value[0] == pytest.approx(ref, rel=1e-9)
        assert abs(value[0] - ref) <= err[0]

    def test_disk_integral_runs_on_the_lattice_only(self, paper_params,
                                                    monkeypatch):
        # once per rate on the shared lattice, not once per outer node
        points = []

        def counted(c, beta):
            points.append(np.size(c))
            return hole_exclusion_integral(c, beta)

        monkeypatch.setattr(radar, "hole_exclusion_integral", counted)
        radar_rate_single(paper_params, include_hole=True)
        assert 0 < sum(points) <= 5000

    @pytest.mark.parametrize("beta,lam", [(4.0, 1e-4), (20.0, 1e-9),
                                          (2.05, 1e3)])
    def test_peak_traced_allocation(self, paper_params, beta, lam):
        params = paper_params.with_(beta=beta, lam=lam)
        tracemalloc.start()
        try:
            radar_rate_single(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestCooperativeLattice:
    """The cooperative rate's echo transform in tau and interference factor
    in t, each on its shared lattice, against quad in the variables they
    substitute: ln s and ln eta."""

    @pytest.mark.parametrize("complement", (True, False))
    @pytest.mark.parametrize("n", (2, 5))
    @pytest.mark.parametrize("beta", (2.5, 4.0, 12.0))
    @pytest.mark.parametrize("z", (1e-6, 1.0, 1e6, 1e18))
    def test_echo_against_quad_over_ln_s(self, paper_params, z, beta, n,
                                         complement):
        params = paper_params.with_(beta=beta, N=n)
        lam = params.lam

        def f(sig):
            s = math.exp(sig)
            w = 2.0 * math.pi * lam / beta * echo_laplace_exponent(
                z, math.sqrt(s / (math.pi * lam)), params)
            core = -math.expm1(-w) if complement else math.exp(-w)
            return core * math.exp(n * sig - s - math.lgamma(n))

        # Gamma(n) has no mass in double precision outside e^-80 < s < e^8
        edges = np.arange(-80.0, 9.0, 2.0)
        ref = sum(integrate.quad(f, a, b, limit=200, epsabs=0.0,
                                 epsrel=1e-13)[0]
                  for a, b in zip(edges[:-1], edges[1:]))
        ln_z = math.log(z)
        transform, _ = radar._echo_transform((ln_z, ln_z), params, complement)
        value, err = transform(np.array([ln_z]))
        assert value[0] == pytest.approx(ref, rel=1e-9)
        assert abs(value[0] - ref) <= err[0]

    @pytest.mark.parametrize("n", (2, 5))
    @pytest.mark.parametrize("beta", (2.5, 4.0, 12.0))
    @pytest.mark.parametrize("z", (1e-6, 1.0, 1e6, 1e18))
    def test_interference_against_quad_over_ln_eta(self, paper_params, z,
                                                   beta, n):
        params = paper_params.with_(beta=beta, N=n)

        def f(y):
            eta = math.exp(y)
            h4 = interference_laplace_kernel(z, eta, params)
            return (2.0 * (n - 1) * eta * eta * (1.0 - eta * eta) ** (n - 2)
                    / (1.0 + 2.0 * h4))

        # the integrand bends where z eta^beta = 1 and where h4 = 1/2
        bends = [-math.log(z) / beta,
                 (math.log((beta - 2.0) / 2.0) - math.log(z)) / (beta - 2.0)]
        ref, _ = integrate.quad(f, -60.0, 0.0,
                                points=[y for y in bends if -60.0 < y < 0.0],
                                limit=1000, epsabs=0.0, epsrel=1e-13)
        ln_z = math.log(z)
        transform, _ = radar._interference_factor((ln_z, ln_z), params)
        value, err = transform(np.array([ln_z]))
        assert value[0] == pytest.approx(ref, rel=1e-9)
        assert abs(value[0] - ref) <= err[0]

    def test_beta_kernels_run_on_the_lattices(self, paper_params,
                                              monkeypatch):
        # once per lattice node and 15 times per outer node, not once per
        # pair of outer and inner node
        points = []

        original = radar.beta_incomplete

        def counted(num, den, a, b):
            points.append(np.broadcast(num, den, a).size)
            return original(num, den, a, b)

        monkeypatch.setattr(radar, "beta_incomplete", counted)
        radar_rate(paper_params.with_(N=3))
        assert 0 < sum(points) <= 15_000

    @pytest.mark.parametrize("beta,lam,n", [(4.0, 1e-4, 3), (20.0, 0.1, 4),
                                            (2.05, 1e-6, 6)])
    def test_peak_traced_allocation(self, paper_params, beta, lam, n):
        params = paper_params.with_(beta=beta, lam=lam, N=n)
        tracemalloc.start()
        try:
            radar_rate(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestRateEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateEstimate(value=-1.0, method="x")
        with pytest.raises(ValueError):
            RateEstimate(value=1.0, method="x", uncertainty=-0.1)
        with pytest.raises(ValueError):
            RateEstimate(value=1.0, method="x", quad_error=-0.1)
