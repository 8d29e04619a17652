"""Analytic radar rate: transform kernels, marginalized factors, rates."""

import math

import numpy as np
import pytest
from scipy import integrate

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
        from isacnet.specfun import beta_complete
        q = paper_params.q_shape
        tb = 2.0 / paper_params.beta
        c0 = paper_params.sigma2 * paper_params.mr * paper_params.ps
        full = (c0 * 1.0) ** tb * sum(
            math.comb(q, i) * beta_complete(q - i + tb, i - tb)
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

    def test_domain(self, paper_params):
        with pytest.raises(ValueError):
            echo_laplace_exponent(-1.0, 10.0, paper_params)
        with pytest.raises(ValueError):
            echo_laplace_exponent(1.0, 0.0, paper_params)


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
        assert hole_exclusion_integral(0.0) == 0.0
        assert hole_exclusion_integral(1e300) == pytest.approx(math.pi, rel=1e-9)

    def test_against_quadrature(self, rng):
        for c in 10.0 ** rng.uniform(-4, 6, 12):
            ref, _ = integrate.quad(
                lambda t: 2.0 * np.arccos(t / 2.0) * t / (1.0 + t ** 4 / c),
                0.0, 2.0, limit=200, epsabs=1e-300, epsrel=1e-10)
            assert hole_exclusion_integral(c) == pytest.approx(ref, rel=1e-8)

    def test_general_beta(self):
        c, beta = 3.0, 3.1
        ref, _ = integrate.quad(
            lambda t: 2.0 * np.arccos(t / 2.0) * t / (1.0 + t ** beta / c),
            0.0, 2.0, limit=200, epsabs=1e-300, epsrel=1e-10)
        assert hole_exclusion_integral(c, beta) == pytest.approx(ref, rel=1e-8)

    def test_monotone_in_c(self):
        c = 10 ** np.linspace(-3, 5, 40)
        vals = hole_exclusion_integral(c)
        assert np.all(np.diff(vals) > 0)


class TestCooperativeRate:
    def test_zero_sensing_power(self, paper_params):
        est = radar_rate(paper_params.with_(N=2, ps=0.0, pc=1.0))
        assert est.value == 0.0

    def test_single_station_rejected(self, paper_params):
        with pytest.raises(ValueError):
            radar_rate(paper_params.with_(N=1))

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


class TestRateEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateEstimate(value=-1.0, method="x")
        with pytest.raises(ValueError):
            RateEstimate(value=1.0, method="x", uncertainty=-0.1)
        with pytest.raises(ValueError):
            RateEstimate(value=1.0, method="x", quad_error=-0.1)
