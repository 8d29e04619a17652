"""The analytic metrics at the edges of the parameter space.

Each either returns finite values in range with a finite error bound, or
raises ConvergenceError with a finite bound; none returns NaN or clamps
silently.  The edges: path-loss exponents just above 2 and up to 20, up to
64 transmit antennas, sensing shares 0 and 1, densities from 1e-9 to 1e3
stations per square meter, and clusters of up to 8 (coverage) or 4 (radar)
stations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacnet import (ConvergenceError, McConfig, SystemParams, coverage_curve,
                     mc_radar_rate, radar_rate, radar_rate_single)
from isacnet.cli import main

T_LIN = 10.0 ** (np.array([-10.0, 0.0, 10.0, 20.0]) / 10.0)

EDGES = settings(derandomize=True, database=None, deadline=None,
                 max_examples=30)


def log_uniform(lo, hi, exclude_min=False):
    return st.floats(math.log(lo), math.log(hi),
                     exclude_min=exclude_min).map(math.exp)


betas = st.one_of(st.sampled_from([2.0005, 20.0]),
                  log_uniform(2.0, 20.0, exclude_min=True)
                  .filter(lambda b: b > 2.0))
antennas = st.integers(2, 64)
lams = log_uniform(1e-9, 1e3)
interior_ps = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def finite_or_clean_failure(estimate):
    """The estimate, or None where it raised ConvergenceError with a
    finite bound."""
    try:
        return estimate()
    except ConvergenceError as exc:
        assert np.all(np.isfinite(exc.error_bound)), str(exc)
        return None


@EDGES
@given(beta=betas, mt=antennas, lam=lams, L=st.integers(1, 8),
       ps=st.one_of(st.just(0.0), interior_ps))
def test_coverage_at_the_edges(beta, mt, lam, L, ps):
    params = SystemParams(beta=beta, mt=mt, lam=lam, L=L, ps=ps, pc=1.0 - ps)
    curve = finite_or_clean_failure(lambda: coverage_curve(params, T_LIN))
    if curve is not None:
        assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))
        assert np.all(np.isfinite(curve.quad_error))


@EDGES
@given(beta=betas, mt=antennas, lam=lams, N=st.integers(1, 4),
       ps=st.one_of(st.sampled_from([0.0, 1.0]), interior_ps))
def test_radar_rate_at_the_edges(beta, mt, lam, N, ps):
    params = SystemParams(beta=beta, mt=mt, lam=lam, N=N, ps=ps, pc=1.0 - ps)
    est = finite_or_clean_failure(lambda: radar_rate(params))
    if est is not None:
        assert math.isfinite(est.value) and est.value >= 0.0
        assert math.isfinite(est.quad_error)


@pytest.mark.parametrize("beta,lam", [(12.0, 1e-4), (16.0, 1e-4), (20.0, 0.1)])
def test_steep_single_station_rate_matches_simulation(beta, lam):
    # here the outer rule's upper tail would reach past exp's overflow
    params = SystemParams(beta=beta, lam=lam, N=1)
    est = radar_rate_single(params)
    sim = mc_radar_rate(params, McConfig(trials=200_000, seed=7))
    assert est.quad_error <= 1e-6 * est.value
    assert abs(est.value - sim.value) <= 3.0 * sim.uncertainty


@pytest.mark.parametrize("beta", (12.0, 16.0, 20.0))
@pytest.mark.parametrize("lam", (1e-4, 0.1, 10.0))
def test_steep_cooperative_rate_is_finite_or_fails_cleanly(beta, lam):
    for n in (2, 4):
        est = finite_or_clean_failure(
            lambda: radar_rate(SystemParams(beta=beta, lam=lam, N=n)))
        if est is not None:
            assert math.isfinite(est.value) and est.value > 0.0


class TestCliEdges:
    def test_fit_alpha_many_antennas(self, tmp_path):
        assert main(["fit-alpha", "--mt", "1000",
                     "--out", str(tmp_path / "fit.csv")]) == 0

    def test_coverage_many_antennas_is_a_convergence_error(self, tmp_path):
        assert main(["coverage", "--mt", "1000", "--l", "1", "--method",
                     "analytic", "--out", str(tmp_path / "c.csv")]) == 3

    def test_rounding_failure_names_its_bound(self, tmp_path, capsys):
        assert main(["coverage", "--mt", "64", "--l", "1", "--method",
                     "analytic", "--out", str(tmp_path / "c.csv")]) == 3
        assert "error bound" in capsys.readouterr().err

    def test_steep_single_station_rate(self, tmp_path):
        assert main(["radar-rate", "--beta", "12", "--n", "1", "--method",
                     "analytic", "--out", str(tmp_path / "r.csv")]) == 0
