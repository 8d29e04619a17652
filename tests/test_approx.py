"""Gamma-CDF surrogate fitting and the fading-collapse diagnostic."""

import math

import numpy as np
import pytest

from isacnet import SystemParams, approx
from isacnet.approx import (AlphaFit, fit_alpha, fitted_alpha, ks_distance,
                            verify_conjecture1)
from isacnet.specfun import gamma_reg_lower

# frozen before the build by an exhaustive grid oracle: alpha step 1e-3
# (refined to 1e-4 at the optimum), sup-gap grid of 2e6 log-spaced points
ORACLE_N9_ALPHA = 2.7520
ORACLE_N9_D = 0.057233
ORACLE_N9_D_AT_ONE = 0.8195939038


def exhaustive_fit(n):
    """fit_alpha with ks_distance evaluated at every coarse-grid point."""
    if n == 1:
        return AlphaFit(1, 1.0, 0.0, approx._ALPHA_TOL)
    coarse = list(np.linspace(0.2, 6.0, 121))
    dvals = [ks_distance(a, n) for a in coarse]
    step = coarse[1] - coarse[0]
    while int(np.argmin(dvals)) == len(dvals) - 1:
        coarse.append(coarse[-1] + step)
        dvals.append(ks_distance(coarse[-1], n))
    i = int(np.argmin(dvals))
    a, b = coarse[i - 1], coarse[i + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = ks_distance(x1, n), ks_distance(x2, n)
    while b - a > approx._ALPHA_TOL:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = ks_distance(x1, n)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = ks_distance(x2, n)
    alpha_star = 0.5 * (a + b)
    return AlphaFit(n, float(alpha_star), ks_distance(alpha_star, n),
                    approx._ALPHA_TOL)


class TestKsDistance:
    def test_shape_one_exact(self):
        assert ks_distance(1.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_tiny_alpha_saturates(self):
        assert ks_distance(1e-6, 5) > 0.999

    def test_frozen_grid_oracle(self):
        assert ks_distance(1.0, 9) == pytest.approx(ORACLE_N9_D_AT_ONE, abs=1e-4)

    def test_bounded(self):
        for alpha in (0.3, 1.0, 2.5, 5.0):
            for n in (1, 2, 5, 9):
                d = ks_distance(alpha, n)
                assert 0.0 <= d <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ks_distance(0.0, 3)
        with pytest.raises(ValueError):
            ks_distance(1.0, 0)


class TestFitAlpha:
    def test_shape_one_identity(self):
        fit = fit_alpha(1)
        assert fit.alpha_star == 1.0
        assert fit.ks_distance == 0.0

    def test_shape_nine_matches_oracle(self):
        fit = fit_alpha(9)
        assert fit.alpha_star == pytest.approx(ORACLE_N9_ALPHA, abs=2e-3)
        assert fit.ks_distance == pytest.approx(ORACLE_N9_D, abs=2e-4)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_beats_unit_alpha(self, n):
        fit = fit_alpha(n)
        assert fit.ks_distance <= ks_distance(1.0, n)

    def test_local_optimality(self):
        fit = fit_alpha(9)
        step = 50 * fit.grid_resolution
        assert ks_distance(fit.alpha_star + step, 9) >= fit.ks_distance - 1e-9
        assert ks_distance(fit.alpha_star - step, 9) >= fit.ks_distance - 1e-9

    def test_deterministic(self):
        assert fit_alpha(7) == fit_alpha(7)

    def test_optimum_beyond_the_first_grid(self):
        # the optimum for shape 999 lies above the first grid's end, 6.0;
        # the grid is extended until it brackets it
        fit = fit_alpha(999)
        assert fit.alpha_star > 6.0
        step = 50 * fit.grid_resolution
        assert ks_distance(fit.alpha_star + step, 999) > fit.ks_distance
        assert ks_distance(fit.alpha_star - step, 999) > fit.ks_distance

    @pytest.mark.parametrize("n", [*range(1, 41), 263, 999])
    def test_pruned_scan_matches_exhaustive(self, n):
        # 263 is the first shape whose grid is extended
        assert fit_alpha(n) == exhaustive_fit(n)

    @pytest.mark.parametrize("n", [2, 9, 263, 999])
    def test_coarse_bounds_are_lower_bounds(self, n):
        alphas = np.linspace(0.2, 12.0, 60)
        exact = [ks_distance(a, n) for a in alphas]
        assert np.all(approx._coarse_bounds(alphas, n) <= exact)

    def test_gap_at_matches_the_wrapper(self, rng):
        # scipy's kernel called directly gives the wrapper's bits
        for _ in range(10_000):
            alpha = rng.uniform(0.1, 12.0)
            n = int(rng.integers(2, 1000))
            g = 10.0 ** rng.uniform(-12.0, 2.0)
            wrapped = abs((-np.expm1(-alpha * g)) ** n
                          - gamma_reg_lower(float(n), n * g))
            assert approx._gap_at(alpha, n, g) == wrapped

    def test_cached_helper(self):
        assert fitted_alpha(9) == fit_alpha(9).alpha_star


class TestConjecture1:
    def test_single_link_is_noise_floor(self):
        # identical laws; the statistic sits at the two-sample noise level
        ks = verify_conjecture1(SystemParams(L=1), trials=50_000, seed=11)
        assert ks < 0.015

    def test_two_station_cluster_close(self):
        ks = verify_conjecture1(SystemParams(L=2), trials=100_000, seed=12)
        assert ks < 0.05

    def test_four_station_cluster_reported(self):
        ks = verify_conjecture1(SystemParams(L=4), trials=100_000, seed=13)
        assert 0.0 <= ks < 0.1

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            verify_conjecture1(SystemParams(L=2), trials=100, seed=0)
