"""Simulator: determinism, confidence scaling, agreement with exact laws."""

import numpy as np
import pytest

from isacnet import SystemParams
from isacnet.coverage import coverage_closed_form, coverage_curve
from isacnet.montecarlo import (McConfig, SimulationWindowError,
                                _draw_in_window, mc_coverage, mc_radar_rate)
from isacnet.radar import radar_rate_single

T_GRID = 10 ** (np.arange(-10.0, 21.0, 5.0) / 10.0)


class TestDeterminism:
    def test_coverage_bitwise(self, paper_params):
        cfg = McConfig(trials=50_000, seed=42)
        a = mc_coverage(paper_params, T_GRID, cfg)
        b = mc_coverage(paper_params, T_GRID, cfg)
        assert np.array_equal(a.values, b.values)

    def test_coverage_worker_invariance(self, paper_params):
        a = mc_coverage(paper_params, T_GRID, McConfig(trials=60_000, seed=7,
                                                       workers=1))
        b = mc_coverage(paper_params, T_GRID, McConfig(trials=60_000, seed=7,
                                                       workers=2))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.uncertainty, b.uncertainty)

    def test_radar_worker_invariance(self, paper_params):
        params = paper_params.with_(N=2)
        a = mc_radar_rate(params, McConfig(trials=60_000, seed=7, workers=1))
        b = mc_radar_rate(params, McConfig(trials=60_000, seed=7, workers=2))
        assert a.value == b.value
        assert a.uncertainty == b.uncertainty

    def test_seed_changes_result(self, paper_params):
        a = mc_coverage(paper_params, T_GRID, McConfig(trials=50_000, seed=1))
        b = mc_coverage(paper_params, T_GRID, McConfig(trials=50_000, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_scale_free_sir(self, paper_params):
        # the radial sampler makes the coverage draw exactly density-free
        a = mc_coverage(paper_params.with_(lam=1e-5), T_GRID,
                        McConfig(trials=40_000, seed=3))
        b = mc_coverage(paper_params.with_(lam=1e-3), T_GRID,
                        McConfig(trials=40_000, seed=3))
        assert np.array_equal(a.values, b.values)


class TestConfidence:
    def test_ci_scaling(self, paper_params):
        small = mc_coverage(paper_params, T_GRID,
                            McConfig(trials=50_000, seed=9))
        big = mc_coverage(paper_params, T_GRID,
                          McConfig(trials=200_000, seed=9))
        i = 3   # mid-curve point, well away from 0/1
        ratio = big.uncertainty[i] / small.uncertainty[i]
        assert 0.4 < ratio < 0.6

    def test_radar_ci_scaling(self, paper_params):
        params = paper_params.with_(N=2)
        small = mc_radar_rate(params, McConfig(trials=50_000, seed=9))
        big = mc_radar_rate(params, McConfig(trials=200_000, seed=9))
        assert 0.35 < big.uncertainty / small.uncertainty < 0.65

    def test_grid_monotone_by_construction(self, paper_params):
        curve = mc_coverage(paper_params, T_GRID,
                            McConfig(trials=30_000, seed=5))
        assert np.all(np.diff(curve.values) <= 0.0)

    def test_truncation_bias_below_ci(self, paper_params):
        cfg = McConfig(trials=200_000, seed=21)
        curve = mc_coverage(paper_params, T_GRID, cfg)
        assert np.all(curve.bias_bounds <= 0.1 * np.maximum(curve.uncertainty,
                                                            1e-12))
        est = mc_radar_rate(paper_params.with_(N=2),
                            McConfig(trials=200_000, seed=22))
        assert est.mc_result.truncation_bias_bound <= 0.1 * est.uncertainty


class TestAgainstExactLaws:
    def test_coverage_against_closed_form(self, paper_params):
        cfg = McConfig(trials=200_000, seed=31, workers=2)
        curve = mc_coverage(paper_params, T_GRID, cfg)
        ref = np.array([coverage_closed_form(paper_params, t) for t in T_GRID])
        assert np.max(np.abs(curve.values - ref)) < 0.01

    def test_radar_against_exact_single_station(self, paper_params):
        # the single-station rate with the exclusion disk is exact, so this
        # pins the whole simulator chain (geometry, fading, windowing)
        est = mc_radar_rate(paper_params, McConfig(trials=400_000, seed=32,
                                                   workers=2))
        exact = radar_rate_single(paper_params, include_hole=True).value
        assert est.value == pytest.approx(exact, rel=0.015)

    @pytest.mark.parametrize("beta, seed", ((2.5, 41), (3.0, 42), (4.0, 43)))
    def test_coverage_against_exact_gain_law(self, paper_params, beta, seed):
        # at mt = 2 the gain surrogate is exact (alpha = 1), so the L = 1
        # analytic curve is the true coverage at every beta; shallow path
        # loss leaves the most interference beyond the window, so this pins
        # the tail compensation where it matters most
        params = paper_params.with_(mt=2, beta=beta)
        curve = mc_coverage(params, T_GRID,
                            McConfig(trials=200_000, seed=seed, workers=2))
        exact = coverage_curve(params, T_GRID).values
        slack = 3.0 * curve.uncertainty + curve.bias_bounds
        assert np.all(np.abs(curve.values - exact) <= slack)


class TestWindowPolicy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(workers=0)

    def test_retry_exhaustion_raises(self):
        # a window far too small for the cluster must fail loudly, not hang
        rng = np.random.default_rng(0)

        def draw(n):
            return (np.cumsum(rng.standard_exponential((n, 8)), axis=1),)

        with pytest.raises(SimulationWindowError):
            _draw_in_window(draw, 64, 4, 2.0)

    def test_zero_sensing_power_rate_is_zero(self, paper_params):
        est = mc_radar_rate(paper_params.with_(ps=0.0, pc=1.0),
                            McConfig(trials=5_000, seed=2))
        assert est.value == 0.0
