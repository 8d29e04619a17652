"""Simulator: determinism, confidence scaling, agreement with exact laws."""

import numpy as np
import pytest

from isacnet import SystemParams
from isacnet.coverage import coverage_closed_form
from isacnet.montecarlo import (McConfig, SimulationWindowError,
                                _coverage_batch, mc_coverage, mc_radar_rate)
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

    def test_record_half_width_is_widest(self, paper_params):
        # like the bias bound next to it, the record's half-width describes
        # the worst threshold of the grid, not the first one
        curve = mc_coverage(paper_params, T_GRID,
                            McConfig(trials=20_000, seed=9))
        assert curve.mc_result.ci_half_width == curve.uncertainty.max()
        assert curve.mc_result.ci_half_width > curve.uncertainty[0]

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
        res = est.mc_result
        assert res.truncation_bias_bound <= 0.1 * res.ci_half_width


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

    def test_strict_window_agrees(self, paper_params):
        loose = mc_coverage(paper_params, T_GRID,
                            McConfig(trials=60_000, seed=41))
        strict = mc_coverage(paper_params, T_GRID,
                             McConfig(trials=60_000, seed=41, window="strict"))
        assert strict.mc_result.window_mean_count > 9_000
        slack = 3.0 * np.hypot(loose.uncertainty, strict.uncertainty) + 1e-3
        assert np.all(np.abs(loose.values - strict.values) <= slack)


class TestWindowPolicy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(window="open")
        with pytest.raises(ValueError):
            McConfig(workers=0)

    def test_retry_exhaustion_raises(self):
        # a window far too small for the cluster must fail loudly, not hang
        job = (0, 64, 0, 8, 2.0, 4, 9, 4.0, 0.0, 0.5, 1.0,
               np.array([1.0]), 2)
        with pytest.raises(SimulationWindowError):
            _coverage_batch(job)

    def test_zero_sensing_power_rate_is_zero(self, paper_params):
        est = mc_radar_rate(paper_params.with_(ps=0.0, pc=1.0),
                            McConfig(trials=5_000, seed=2))
        assert est.value == 0.0

    def test_min_points_override_grows_window(self, paper_params):
        a = mc_coverage(paper_params, T_GRID,
                        McConfig(trials=5_000, seed=1, min_points=900))
        assert a.mc_result.window_mean_count >= 901.0
