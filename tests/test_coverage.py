"""Analytic coverage: kernel identities, closed form, integral paths."""

import math

import numpy as np
import pytest
from scipy import integrate

from isacnet import McConfig, SystemParams, mc_coverage
from isacnet.coverage import (CoverageCurve, coverage_closed_form,
                              coverage_curve, coverage_integral,
                              interference_exponent)


def quad_exponent_oracle(distances, n, threshold, params):
    """Direct quadrature of the pre-simplification interference integral:
    2 * int_{r_L}^inf (1 - 1/(1 + c x^-beta)) x dx with c = a / sum r^-beta."""
    r = np.asarray(distances, dtype=float)
    q = params.q_shape
    a = params.alpha() * n * threshold * params.pt / (q * params.pc)
    c = a / np.sum(r ** -params.beta)

    def f(x):
        s = c * x ** -params.beta
        return s / (1.0 + s) * x   # = (1 - 1/(1+s)) x without cancellation

    val, _ = integrate.quad(f, r[-1], np.inf, limit=400, epsabs=1e-300,
                            epsrel=1e-11)
    return 2.0 * val


class TestInterferenceExponent:
    def test_vanishing_threshold(self, paper_params):
        h = interference_exponent(np.array([1.0]), 1, 1e-12, paper_params)
        assert 0.0 <= h < 1e-9

    def test_single_station_reduction(self, paper_params):
        # at L=1, beta=4 the kernel collapses to the arcsine form
        r1 = 40.0
        for n in (1, 4, 9):
            h = interference_exponent(np.array([r1]), n, 2.0, paper_params)
            a = paper_params.alpha() * n * 2.0 * paper_params.pt / (
                paper_params.q_shape * paper_params.pc)
            ref = r1 ** 2 * math.sqrt(a) * (
                math.pi / 2 - math.asin(math.sqrt(1.0 / (1.0 + a))))
            assert h == pytest.approx(ref, rel=1e-12)

    def test_against_quadrature_oracle(self, paper_params, rng):
        params = paper_params.with_(L=2)
        for _ in range(10):
            r = np.sort(rng.uniform(10.0, 200.0, 2))
            n = int(rng.integers(1, 10))
            t = float(rng.uniform(0.1, 10.0))
            ours = interference_exponent(r, n, t, params)
            ref = quad_exponent_oracle(r, n, t, params)
            assert ours == pytest.approx(ref, rel=1e-8)

    def test_validation(self, paper_params):
        with pytest.raises(ValueError):
            interference_exponent(np.array([2.0, 1.0]), 1, 1.0, paper_params)
        with pytest.raises(ValueError):
            interference_exponent(np.array([1.0]), 10, 1.0, paper_params)
        with pytest.raises(ValueError):
            interference_exponent(np.array([1.0]), 1, 0.0, paper_params)


class TestClosedForm:
    def test_vanishing_threshold(self, paper_params):
        assert coverage_closed_form(paper_params, 1e-12) == \
            pytest.approx(1.0, abs=1e-9)

    def test_huge_threshold(self, paper_params):
        assert coverage_closed_form(paper_params, 1e12) == \
            pytest.approx(0.0, abs=1e-5)

    def test_non_increasing_in_threshold(self, paper_params):
        t = 10 ** np.linspace(-2.0, 3.0, 40)
        vals = [coverage_closed_form(paper_params, x) for x in t]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_more_comm_power_helps(self, paper_params):
        lo = coverage_closed_form(paper_params.with_(ps=0.7, pc=0.3), 1.0)
        hi = coverage_closed_form(paper_params.with_(ps=0.3, pc=0.7), 1.0)
        assert hi > lo

    def test_requires_single_station_beta_four(self, paper_params):
        with pytest.raises(ValueError):
            coverage_closed_form(paper_params.with_(L=2), 1.0)
        with pytest.raises(ValueError):
            coverage_closed_form(paper_params.with_(beta=3.5), 1.0)

    def test_antenna_returns_diminish(self, paper_params):
        cov = {mt: coverage_closed_form(paper_params.with_(mt=mt), 1.0)
               for mt in (4, 6, 8, 10)}
        assert cov[6] - cov[4] > cov[10] - cov[8] > 0


class TestCoverageIntegral:
    def test_matches_closed_form(self, paper_params):
        for t in (0.1, 1.0, 10.0, 100.0):
            ci = coverage_integral(paper_params, t)
            cf = coverage_closed_form(paper_params, t)
            assert ci == pytest.approx(cf, abs=1e-6)

    def test_vanishing_threshold(self, paper_params):
        assert coverage_integral(paper_params, 1e-12) == \
            pytest.approx(1.0, abs=1e-6)

    def test_density_free(self, paper_params):
        lo = coverage_integral(paper_params.with_(lam=1e-5), 1.0)
        hi = coverage_integral(paper_params.with_(lam=1e-3), 1.0)
        assert lo == hi   # the substitution removes the density exactly

    def test_general_beta_single_station(self, paper_params):
        # independent check at beta=3.2: with one station the distance
        # average has a closed form, E[exp(-s h0)] = 1/(1 + h0)
        params = paper_params.with_(beta=3.2)
        t = 2.0
        q = params.q_shape
        total = 0.0
        from isacnet.specfun import beta_incomplete
        tb = 2.0 / params.beta
        for n in range(1, q + 1):
            a = params.alpha() * n * t * params.pt / (q * params.pc)
            x = a / (1.0 + a)
            h0 = tb * a ** tb * beta_incomplete(x, 1.0 - tb, tb)
            total += (-1) ** (n + 1) * math.comb(q, n) / (1.0 + h0)
        assert coverage_integral(params, t) == pytest.approx(total, rel=1e-6)

    def test_monte_carlo_integration_path(self, paper_params):
        # L = 3 integrates over the distance ratios with a fixed rule:
        # repeated calls give identical values
        params = paper_params.with_(L=3)
        v1 = coverage_integral(params, 1.0)
        v2 = coverage_integral(params, 1.0)
        assert v1 == v2
        assert 0.9 < v1 <= 1.0

    @pytest.mark.parametrize("L", (1, 2, 3))
    def test_no_comm_power_rejected(self, L):
        # pc = 0 leaves no desired signal: coverage is undefined
        params = SystemParams(ps=1.0, pc=0.0, L=L, beta=3.5)
        with pytest.raises(ValueError):
            coverage_integral(params, 1.0)
        with pytest.raises(ValueError):
            coverage_curve(params, [0.1, 1.0])
        with pytest.raises(ValueError):
            mc_coverage(params, np.array([0.1, 1.0]), McConfig(trials=100))
        with pytest.raises(ValueError):
            coverage_closed_form(params.with_(L=1, beta=4.0), 1.0)
        with pytest.raises(ValueError):
            interference_exponent(np.arange(1.0, L + 1.0), 1, 1.0, params)

    def test_non_increasing_in_threshold(self, paper_params):
        params = paper_params.with_(L=2)
        t = 10 ** np.linspace(-1.0, 2.0, 8)
        vals = [coverage_integral(params, x) for x in t]
        assert np.all(np.diff(vals) <= 1e-9)

    def test_more_comm_power_helps_integral(self, paper_params):
        params = paper_params.with_(L=2)
        lo = coverage_integral(params.with_(ps=0.7, pc=0.3), 2.0)
        hi = coverage_integral(params.with_(ps=0.3, pc=0.7), 2.0)
        assert hi > lo


class TestCoverageCurve:
    def test_closed_form_curve(self, paper_params):
        t = 10 ** (np.arange(-10.0, 21.0, 2.0) / 10.0)
        curve = coverage_curve(paper_params, t, method="closed-form")
        assert curve.method == "closed-form"
        assert np.all(np.diff(curve.values) <= 1e-12)
        assert np.allclose(curve.uncertainty, 0.0)
        assert np.allclose(curve.thresholds_db, np.arange(-10.0, 21.0, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageCurve(thresholds=np.array([1.0, 1.0]),
                          values=np.array([0.5, 0.4]),
                          method="x", uncertainty=np.zeros(2))
        with pytest.raises(ValueError):
            CoverageCurve(thresholds=np.array([1.0, 2.0]),
                          values=np.array([0.5, 1.4]),
                          method="x", uncertainty=np.zeros(2))
        # a threshold grid is non-empty, 1-D, positive and increasing,
        # checked before any integral or draw
        params = SystemParams(L=2, beta=4.0)
        curves = [lambda t: coverage_curve(params, t),
                  lambda t: coverage_curve(params.with_(L=1), t,
                                           method="closed-form"),
                  lambda t: mc_coverage(params, t, McConfig(trials=100))]
        for grid in (5.0, [], [[1.0, 2.0], [3.0, 4.0]], [2.0, 1.0],
                     [0.0, 1.0]):
            for curve in curves:
                with pytest.raises(ValueError, match="thresholds must be"):
                    curve(grid)


class TestSystemParams:
    def test_power_normalization(self):
        with pytest.raises(ValueError):
            SystemParams(ps=0.6, pc=0.6)

    def test_beta_bound(self):
        with pytest.raises(ValueError):
            SystemParams(beta=2.0)

    def test_antenna_bound(self):
        with pytest.raises(ValueError):
            SystemParams(mt=1)

    def test_alpha_defaults_to_fit(self, paper_params):
        assert paper_params.alpha() == pytest.approx(2.752, abs=2e-3)

    def test_pt(self, paper_params):
        assert paper_params.pt == 1.0
