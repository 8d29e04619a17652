"""Special-function and quadrature kernels against independent oracles."""

import math
import signal

import numpy as np
import pytest
from scipy import integrate, special

from isacnet.specfun import (ConvergenceError, QuadratureSpec, beta_incomplete,
                             gamma_reg_lower, gk_rule, gk_sum,
                             integrate_finite, integrate_semi_infinite)

# frozen before the build from a quadrature oracle of t^8 e^-t / Gamma(9)
P_9_9 = 0.5443473956775813
# frozen composite-Simpson (1e6 panels) value of 2 arccos(t/2) t on (0, 2)
ARC_KERNEL_INTEGRAL = 3.1415926526712936
# frozen from mpmath.betainc at 40 digits (mpmath is not a dependency):
# (x, a, b, B(x; a, b)) on the library's two shape families,
# (1 - 2/beta, 2/beta) and (q - i + 2/beta, i - 2/beta), at
# beta in {2.0001, 2.5, 4, 6}
BETA_INCOMPLETE_ORACLE = [
    (1e-12, 4.999750012513182e-05, 0.9999500024998749, 19973.388055921843),
    (0.001, 4.999750012513182e-05, 0.9999500024998749, 19994.09343744589),
    (0.5, 4.999750012513182e-05, 0.9999500024998749, 20000.306893883248),
    (0.5, 8.999950002499874, 4.999750012513182e-05, 0.00039699830551664211),
    (0.999, 8.999950002499874, 4.999750012513182e-05, 4.1969169207920146),
    (1.0, 8.999950002499874, 4.999750012513182e-05, 19998.282371504965),
    (0.001, 0.19999999999999996, 0.8, 1.2559850942367598),
    (0.5, 0.19999999999999996, 0.8, 4.4415678632589443),
    (0.999, 0.19999999999999996, 0.8, 5.3398185505564467),
    (0.999, 4.8, 4.2, 0.0034316160062711445),
    (1.0, 4.8, 4.2, 0.003431616006330768),
    (1e-12, 4.8, 4.2, 5.2330967322977919e-59),
    (0.5, 0.5, 0.5, 1.5707963267948966),
    (0.999, 0.5, 0.5, 3.0783365547146499),
    (1.0, 0.5, 0.5, 3.1415926535897932),
    (1.0, 0.5, 8.5, 0.61694789812775633),
    (1e-12, 0.5, 8.5, 1.999999999995e-6),
    (0.001, 0.5, 8.5, 0.063087747239029024),
    (0.999, 0.6666666666666667, 0.3333333333333333, 3.3275737189394375),
    (1.0, 0.6666666666666667, 0.3333333333333333, 3.6275987284684357),
    (1e-12, 0.6666666666666667, 0.3333333333333333, 1.5000000000003967e-8),
    (1e-12, 1.3333333333333333, 1.6666666666666667, 7.4999999999971584e-17),
    (0.001, 1.3333333333333333, 1.6666666666666667, 7.4971425236955141e-5),
    (0.5, 1.3333333333333333, 1.6666666666666667, 0.23688294942157371),
]


class TestBetaIncomplete:
    def test_empty_interval(self):
        assert beta_incomplete(0.0, 1.0, 2.0, 3.0) == 0.0

    def test_full_interval_is_complete(self):
        assert (beta_incomplete(1.0, 0.0, 0.5, 0.5)
                == pytest.approx(math.pi, rel=1e-12))

    def test_arcsine_identity_midpoint(self):
        assert (beta_incomplete(0.5, 0.5, 0.5, 0.5)
                == pytest.approx(math.pi / 2, rel=1e-10))

    def test_arcsine_identity_grid(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        ours = beta_incomplete(x, 1.0 - x, 0.5, 0.5)
        ref = 2.0 * np.arcsin(np.sqrt(x))
        assert np.max(np.abs(ours / ref - 1.0)) < 1e-9

    def test_monotone_and_bounded(self, rng):
        for _ in range(20):
            a = rng.uniform(0.1, 8.0)
            b = rng.uniform(0.1, 8.0)
            x = np.sort(rng.uniform(0.0, 1.0, 50))
            vals = beta_incomplete(x, 1.0 - x, a, b)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[-1] <= special.beta(a, b) * (1 + 1e-12)

    def test_against_scipy(self, rng):
        x = rng.uniform(0.0, 1.0, 500)
        a = rng.uniform(0.05, 15.0, 500)
        b = rng.uniform(0.05, 15.0, 500)
        ours = beta_incomplete(x, 1.0 - x, a, b)
        ref = special.betainc(a, b, x) * special.beta(a, b)
        assert np.allclose(ours, ref, rtol=2e-11, atol=1e-300)

    def test_frozen_oracle_values(self):
        x, a, b, ref = np.array(BETA_INCOMPLETE_ORACLE).T
        assert np.allclose(beta_incomplete(x, 1.0 - x, a, b), ref, rtol=1e-13,
                           atol=0.0)


class TestGammaRegLower:
    def test_exponential_cdf(self):
        assert gamma_reg_lower(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_zero(self):
        assert gamma_reg_lower(3.7, 0.0) == 0.0

    def test_frozen_oracle_value(self):
        assert gamma_reg_lower(9.0, 9.0) == pytest.approx(P_9_9, rel=1e-12)

    def test_is_cdf(self):
        x = np.linspace(0.0, 60.0, 400)
        for s in (0.3, 1.0, 4.5, 9.0, 20.0):
            vals = gamma_reg_lower(s, x)
            assert np.all(np.diff(vals) >= -1e-13)
            assert vals[0] == 0.0
            assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_against_scipy(self, rng):
        s = rng.uniform(0.1, 30.0, 400)
        x = rng.uniform(0.0, 60.0, 400)
        assert np.allclose(gamma_reg_lower(s, x), special.gammainc(s, x),
                           rtol=1e-11, atol=1e-300)


class TestGkSum:
    """The panel sums, contracted over the nodes, against the elementwise
    products they replace, panel by panel (one panel per group of the
    last two axes)."""

    EPS = np.finfo(float).eps

    @staticmethod
    def weights(rng, shared):
        edges = np.cumsum(rng.uniform(0.01, 3.0, size=(7, 40)), axis=-1)
        _, wk, wg = gk_rule(edges)
        if shared:
            return wk[0, :1], wg[0, :1]
        return wk[..., None, :], wg[..., None, :]

    @pytest.mark.parametrize("shared", (True, False))
    def test_value_and_bound_match_the_products(self, rng, shared):
        wk, wg = self.weights(rng, shared)
        y = np.exp(rng.uniform(-30.0, 30.0, size=(7, 39, 1, 15)))
        value, bound = gk_sum(y, wk, wg)
        vk = (y * wk).sum(axis=-1)[..., 0]
        vg = (y * wg).sum(axis=-1)[..., 0]
        assert np.all(np.abs(value - vk) <= 4.0 * self.EPS * vk)
        # K15 - G7 cancels, so its rounding is measured against the sums
        assert np.all(np.abs(bound - np.abs(vk - vg))
                      <= 4.0 * self.EPS * (vk + vg))

    @pytest.mark.parametrize("shared", (True, False))
    def test_floor_matches_the_products(self, rng, shared):
        # both rules integrate a constant, so the floor is the bound
        wk, wg = self.weights(rng, shared)
        y = np.broadcast_to(np.exp(rng.uniform(-30.0, 30.0,
                                               size=(7, 39, 1, 1))),
                            (7, 39, 1, 15))
        _, bound = gk_sum(y, wk, wg)
        floor = 50.0 * self.EPS * (np.abs(y) * np.abs(wk)).sum(axis=-1)[..., 0]
        assert np.all(np.abs(bound - floor) <= 4.0 * self.EPS * floor)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestIntegrateFinite:
    def test_unit(self):
        assert integrate_finite(lambda t: np.ones_like(t), 0.0, 1.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_arcsine_singular_endpoints(self):
        val = integrate_finite(lambda t: t ** -0.5 * (1 - t) ** -0.5, 0.0, 1.0)
        assert val == pytest.approx(math.pi, rel=5e-8)

    def test_arccos_kernel_vs_simpson_oracle(self):
        val = integrate_finite(lambda t: 2 * np.arccos(t / 2) * t, 0.0, 2.0)
        assert val == pytest.approx(ARC_KERNEL_INTEGRAL, rel=1e-8)

    def test_error_bound_contract(self):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
        val, err, _ = integrate_finite(np.exp, 0.0, 3.0, spec, full_output=True)
        truth = math.exp(3.0) - 1.0
        assert err <= max(spec.abs_tol, spec.rel_tol * abs(val))
        assert abs(val - truth) <= 10 * err + 1e-14

    def test_refinement_monotone_in_tolerance(self):
        # halving rel_tol never increases the returned error bound
        f = lambda t: np.exp(-t * t) * np.cos(3 * t)
        prev = None
        for rel in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-8):
            _, err, _ = integrate_finite(f, 0.0, 4.0,
                                         QuadratureSpec(rel_tol=rel,
                                                        abs_tol=1e-15),
                                         full_output=True)
            if prev is not None:
                assert err <= prev * (1 + 1e-12)
            prev = err

    def test_nan_integrand_raises(self):
        # NaN errors never select a panel for refinement, so the integrator
        # has to stop at once; the alarm turns a hang into a failure
        def hang(signum, frame):
            raise TimeoutError("integrate_finite did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            with pytest.raises(ConvergenceError):
                integrate_finite(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_budget_exhaustion(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
        with pytest.raises(ConvergenceError) as exc:
            integrate_finite(lambda t: t ** -0.5, 0.0, 1.0, spec)
        assert exc.value.estimate is not None
        assert exc.value.error_bound is not None

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_finite(np.exp, 1.0, 0.0)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda z: np.exp(-z), 0.0) == \
            pytest.approx(1.0, rel=1e-9)

    def test_gaussian_moment(self):
        assert integrate_semi_infinite(lambda z: z * np.exp(-z * z), 0.0) == \
            pytest.approx(0.5, rel=1e-9)

    def test_power_law_tail(self):
        assert integrate_semi_infinite(lambda z: (1 + z) ** -2.0, 0.0) == \
            pytest.approx(1.0, rel=1e-8)

    def test_shifted_lower_limit(self):
        assert integrate_semi_infinite(lambda z: np.exp(-z), 2.0) == \
            pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_far_displaced_support_is_found(self):
        # mass near z = e^15; the probe has to locate it
        f = lambda z: np.exp(-(np.log(z) - 15.0) ** 2) / z
        assert integrate_semi_infinite(f, 0.0) == \
            pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_scale_hint(self):
        f = lambda z: np.exp(-(np.log(z) - 15.0) ** 2) / z
        val = integrate_semi_infinite(f, 0.0, scale=math.exp(15.0))
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_divergent_tail_raises(self):
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda z: 1.0 / (1.0 + z), 0.0)

    def test_against_scipy_random_kernels(self, rng):
        for _ in range(10):
            a = rng.uniform(0.3, 3.0)
            p = rng.uniform(0.2, 1.8)
            f = lambda z: z ** p * np.exp(-a * z)
            ours = integrate_semi_infinite(f, 0.0)
            ref = special.gamma(p + 1) / a ** (p + 1)
            assert ours == pytest.approx(ref, rel=1e-8)
