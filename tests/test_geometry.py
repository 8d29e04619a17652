"""Distance laws of a PPP.

The simulator draws ordered distances as a unit-rate arrival process in
pi*lam*r^2.  The sampler here instead places a Poisson number of uniform
points in a disk, independently of that representation, and checks the
laws the radial sampler relies on.  The ordered-distance densities below
also check that the library's quadrature rules normalize them.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from isacnet import (McConfig, SystemParams, coverage_curve, mc_coverage,
                     mc_radar_rate)
from isacnet.specfun import integrate_finite, integrate_semi_infinite


def sample_hppp(lam, window_radius, seed):
    """Points of a homogeneous PPP of intensity lam in a disk, shape (n, 2).

    Philox(key=seed) draws the Poisson count, then the radii, then the angles.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = rng.poisson(lam * math.pi * window_radius ** 2)
    radius = window_radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def sample_hppp_trials(lam, window_radius, trials, rng):
    """Origin distances and angles of `trials` PPPs in a disk, in meters.

    Returns (r, phi), each (trials, n_max): each row's distances ascending,
    padded with inf past its Poisson count; angles are i.i.d. uniform, so
    they may be drawn after the sort.
    """
    n = rng.poisson(lam * math.pi * window_radius ** 2, trials)
    keep = np.arange(n.max()) < n[:, None]
    r = np.sort(np.where(keep, window_radius * np.sqrt(rng.random(keep.shape)),
                         np.inf), axis=1)
    return r, rng.uniform(0.0, 2.0 * math.pi, r.shape)


def nearest_k(points, k):
    """The k smallest origin distances of a point set, ascending."""
    d = np.hypot(points[:, 0], points[:, 1])
    sel = np.partition(d, k - 1)[:k]
    sel.sort()
    return sel


def pdf_kth_distance(r, k, lam):
    """PDF of the distance from the origin to the k-th nearest point.

    f(r) = 2 (lam pi r^2)^k exp(-lam pi r^2) / (Gamma(k) r).
    """
    r = np.asarray(r, dtype=float)
    u = lam * math.pi * r ** 2
    return 2.0 * np.exp(k * np.log(u) - u - gammaln(k)) / r


def pdf_eta(eta, n_cluster):
    """PDF of the nearest-to-farthest distance ratio in an n-point cluster.

    f(eta) = 2 (n-1) eta (1 - eta^2)^(n-2) on [0, 1]; the ratio is
    degenerate for a single-point cluster.
    """
    if n_cluster < 2:
        raise ValueError("distance ratio is degenerate for a 1-point cluster")
    eta = np.asarray(eta, dtype=float)
    return 2.0 * (n_cluster - 1) * eta * (1.0 - eta ** 2) ** (n_cluster - 2)


def ks_gap(sorted_draws, cdf):
    """One-sample K-S statistic of sorted draws against cdf(sorted_draws)."""
    n = len(sorted_draws)
    return np.max(np.maximum(np.arange(1, n + 1) / n - cdf,
                             cdf - np.arange(0, n) / n))


class TestSampleHppp:
    def test_deterministic_per_seed(self):
        a = sample_hppp(1e-4, 2000.0, seed=7)
        b = sample_hppp(1e-4, 2000.0, seed=7)
        assert np.array_equal(a, b)

    def test_vanishing_intensity(self):
        assert len(sample_hppp(1e-12, 1.0, seed=0)) == 0

    def test_points_inside_window(self):
        pts = sample_hppp(1e-3, 500.0, seed=3)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 500.0)

    def test_mean_count(self):
        # lam pi R^2 = 2827.43; the empirical mean over seeds sits within 1%
        lam, radius = 1e-4, 3000.0
        expect = lam * math.pi * radius ** 2
        counts = [len(sample_hppp(lam, radius, seed=s)) for s in range(2000)]
        assert abs(np.mean(counts) / expect - 1.0) < 0.01

    def test_subdisk_counts_are_poisson(self):
        # chi^2 goodness of fit for the count in an off-center sub-disk
        lam, radius = 2e-3, 120.0
        center = np.array([30.0, -20.0])
        sub_r = 40.0
        mean = lam * math.pi * sub_r ** 2
        counts = []
        for s in range(10_000):
            pts = sample_hppp(lam, radius, seed=s)
            inside = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) <= sub_r
            counts.append(int(inside.sum()))
        counts = np.asarray(counts)
        kmax = int(counts.max())
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        expected = np.array([stats.poisson.pmf(k, mean) for k in range(kmax + 1)])
        expected[-1] = 1.0 - expected[:-1].sum()   # fold the tail
        expected *= len(counts)
        keep = expected >= 5.0
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        _, p = stats.chisquare(observed, expected)
        assert p > 0.01


class TestNearestK:
    def test_sorting(self):
        pts = np.array([[3.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert np.allclose(nearest_k(pts, 2), [1.0, 2.0])

    def test_all_points(self):
        pts = np.array([[3.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert len(nearest_k(pts, 3)) == 3

    def test_nearest_distance_law(self):
        # empirical r_1 against the k=1 law, one-sample K-S on 1e5 draws
        lam, radius = 1e-3, 80.0   # mean count ~ 20, empty windows negligible
        r1 = np.empty(100_000)
        for s in range(len(r1)):
            r1[s] = nearest_k(sample_hppp(lam, radius, seed=s), 1)[0]
        r1.sort()
        assert ks_gap(r1, 1.0 - np.exp(-lam * math.pi * r1 ** 2)) < 0.01


class TestDistancePdfs:
    def test_nearest_normalizes(self):
        val = integrate_semi_infinite(lambda r: pdf_kth_distance(r, 1, 1e-4), 0.0)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_nearest_mean(self):
        lam = 3e-4
        mean = integrate_semi_infinite(
            lambda r: r * pdf_kth_distance(r, 1, lam), 0.0)
        assert mean == pytest.approx(1.0 / (2.0 * math.sqrt(lam)), rel=1e-9)

    def test_third_normalizes(self):
        val = integrate_semi_infinite(lambda r: pdf_kth_distance(r, 3, 1e-4), 0.0)
        assert val == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_normalization_through_order_eight(self, k):
        val = integrate_semi_infinite(lambda r: pdf_kth_distance(r, k, 2e-4), 0.0)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_k1_closed_form(self):
        r = np.linspace(1.0, 200.0, 50)
        lam = 1e-4
        ref = 2 * math.pi * lam * r * np.exp(-math.pi * lam * r ** 2)
        assert np.allclose(pdf_kth_distance(r, 1, lam), ref, rtol=1e-12)


class TestEtaPdf:
    def test_two_station_cluster_is_linear(self):
        eta = np.linspace(0.0, 1.0, 11)
        assert np.allclose(pdf_eta(eta, 2), 2.0 * eta)
        val = integrate_finite(lambda e: pdf_eta(e, 2), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_five_station_normalizes(self):
        val = integrate_finite(lambda e: pdf_eta(e, 5), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_single_station_degenerate(self):
        with pytest.raises(ValueError):
            pdf_eta(0.5, 1)

    def test_empirical_ratio_law(self):
        # r_1 / r_N from sampled deployments against the closed-form law:
        # eta^2 ~ Beta(1, N-1), so F(e) = 1 - (1 - e^2)^(N-1)
        lam, radius, n_cl = 1e-3, 120.0, 3
        draws = np.empty(100_000)
        for s in range(len(draws)):
            d = nearest_k(sample_hppp(lam, radius, seed=10_000_000 + s), n_cl)
            draws[s] = d[0] / d[n_cl - 1]
        draws.sort()
        assert ks_gap(draws, 1.0 - (1.0 - draws ** 2) ** (n_cl - 1)) < 0.01



class TestSimulatorInMeters:
    """The radial simulator against deployments drawn in meters.

    Stations fill a disk holding about 400 on average at lam = 1e-4; the
    SIR laws mirror `mc_coverage` (Gamma(mt-1) gains from the L nearest,
    exp(1) from the rest) and `mc_radar_rate` (echo from the N nearest,
    received at the nearest, interferers at their distance from it).  With
    the disk radius scaled as lam^(-1/2), two densities at one seed give
    the same deployment up to scale, so this checks the radial
    representation, not density invariance.
    """

    PARAMS = SystemParams(L=2, N=2)
    T_LIN = 10.0 ** (np.arange(-5.0, 15.5, 1.0) / 10.0)

    @pytest.fixture(scope="class")
    def sirs(self):
        p = self.PARAMS
        rng = np.random.Generator(np.random.Philox(key=2024))
        radius = math.sqrt(400.0 / (math.pi * p.lam))
        cov, rad = [], []
        for _ in range(20):
            r, phi = sample_hppp_trials(p.lam, radius, 1000, rng)
            w = r ** -p.beta
            gains = rng.gamma(float(p.q_shape), 1.0, (len(r), 2))
            fades = rng.standard_exponential(w.shape)
            cov.append(p.pc * np.sum(gains * w[:, :p.L], axis=1)
                       / (p.pt * np.sum(fades[:, p.L:] * w[:, p.L:], axis=1)))
            x, y = r * np.cos(phi), r * np.sin(phi)
            d = np.hypot(x[:, p.N:] - x[:, :1], y[:, p.N:] - y[:, :1])
            echo = (p.sigma2 * p.mr * p.ps / p.pt * w[:, 0]
                    * np.sum(gains * w[:, :p.N], axis=1))
            rad.append(echo / np.sum(fades[:, p.N:] * d ** -p.beta, axis=1))
        return np.concatenate(cov), np.concatenate(rad)

    def test_cluster_coverage(self, sirs):
        n = len(sirs[0])
        hits = (sirs[0][:, None] >= self.T_LIN).sum(axis=0)
        smooth = (hits + 1.0) / (n + 2.0)
        ci = 1.96 * np.sqrt(smooth * (1.0 - smooth) / n)
        sim = mc_coverage(self.PARAMS, self.T_LIN,
                          McConfig(trials=200_000, seed=5))
        gap = np.abs(hits / n - sim.values)
        assert np.all(gap <= 3.0 * np.hypot(ci, sim.uncertainty))

    def test_cooperative_rate(self, sirs):
        vals = np.log1p(sirs[1])
        ci = 1.96 * vals.std() / math.sqrt(len(vals))
        sim = mc_radar_rate(self.PARAMS, McConfig(trials=200_000, seed=5))
        assert abs(vals.mean() - sim.value) <= 3.0 * math.hypot(ci, sim.uncertainty)


class TestDensityInvarianceInMeters:
    """L = 1 coverage at two densities, drawn in meters in one fixed disk.

    The disk holds about 400 stations on average at lam = 1e-4 and 4,000 at
    lam = 1e-3, so the denser deployment is not a scaled copy of the
    sparser one.  At mt = 2 the desired gain is exponential, the alpha
    surrogate is exact (alpha = 1) and `coverage_curve` is the true,
    density-free coverage; each density's curve must lie within 3 CI of it.
    """

    PARAMS = SystemParams(L=1, mt=2)
    T_LIN = 10.0 ** (np.arange(-10.0, 20.5, 5.0) / 10.0)
    TRIALS = 20_000
    BATCH = 250             # about 8 MB per (BATCH, stations) array at 1e-3

    @pytest.mark.parametrize("lam", [1e-4, 1e-3])
    def test_coverage_is_the_exact_law(self, lam):
        p = self.PARAMS.with_(lam=lam)
        radius = math.sqrt(400.0 / (math.pi * 1e-4))
        rng = np.random.Generator(np.random.Philox(key=2025))
        hits = np.zeros(len(self.T_LIN))
        for _ in range(self.TRIALS // self.BATCH):
            r = sample_hppp_trials(lam, radius, self.BATCH, rng)[0]
            w = r ** -p.beta
            gain = rng.gamma(float(p.q_shape), 1.0, len(r))
            fades = rng.standard_exponential(w.shape)
            sir = (p.pc * gain * w[:, 0]
                   / (p.pt * np.sum(fades[:, 1:] * w[:, 1:], axis=1)))
            hits += (sir[:, None] >= self.T_LIN).sum(axis=0)
        n = self.TRIALS
        smooth = (hits + 1.0) / (n + 2.0)
        ci = 1.96 * np.sqrt(smooth * (1.0 - smooth) / n)
        dev = np.abs(hits / n - coverage_curve(p, self.T_LIN).values)
        assert np.all(dev <= 3.0 * ci), (dev / ci).max()
