"""Analytic coverage: kernel identities, closed form, integral paths."""

import math

import numpy as np
import pytest
from scipy import integrate

from isacnet import (ConvergenceError, McConfig, SystemParams, coverage,
                     mc_coverage, radar, radar_rate, specfun)
from isacnet.coverage import (CoverageCurve, _exponent_ratios,
                              _pareto_sum_density, _power_sum_integral,
                              _z_rule, coverage_closed_form, coverage_curve,
                              coverage_integral)
from isacnet.radar import interference_laplace_kernel
from isacnet.specfun import gk_rule, gk_sum, panel_edges


def exponent(distances, n, threshold, params):
    """The interference Laplace exponent H (units of area) of
    exp(-pi lam H) at ordered distances in meters and term index n: twice
    `interference_laplace_kernel` at z = a / sum r^-beta, eta = 1 / r_L."""
    r = np.asarray(distances, dtype=float)
    a = params.alpha() * n * threshold * params.pt / (params.q_shape * params.pc)
    return float(2.0 * interference_laplace_kernel(
        a / np.sum(r ** -params.beta), 1.0 / r[-1], params))


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


# K(zeta) = (2/beta) zeta^(2/beta) B(zeta/(1 + zeta); 1 - 2/beta, 2/beta) at
# 50-digit mpmath (mpmath.betainc) at the zeta of `k_oracle_zeta`
K_ORACLE = {
    2.5: [
        3.999999333333697e-06, 3.9999933333696964e-05, 0.0003999933336969447,
        0.003999333696719887, 0.03993369448859202, 0.39367373249441956,
        0.4902378070040683, 0.9631935253800836, 1.8674174165252817,
        3.5532542906071547, 26.02049209428095, 169.2285661400075,
        1073.042221029623, 6775.745518392729, 42757.37328906822,
        269786.0966200352, 1702240.5005812275, 10740416.76870683,
        67767453.73951142, 427583731.846238, 2697870965.1959076,
        17022415004.811829],
    4.0: [
        9.999996666668667e-07, 9.999966666866664e-06, 9.999666686665239e-05,
        0.0009996668665239205, 0.009966865249116203, 0.09685340823403893,
        0.4352098756835516, 0.7853981633974483, 0.7853981633974483,
        1.35102171771208, 3.9987600505576615, 14.711276743037345,
        48.67327446245658, 156.07966601082313, 495.72941662311837,
        1569.7963271282297, 4966.2941329313835, 15706.9632679523,
        49671.941328980836, 157078.6326794897, 496728.41328980506,
        1570795.3267948965],
    20.0: [
        1.1111105847956664e-07, 1.1111058479876988e-06,
        1.1110584829801833e-05, 0.00011105851398930173, 0.0011058821815887493,
        0.010616902443177112, 0.07854645143016714, 0.19980367802031856,
        0.2760147791855871, 0.28851957895123254, 0.3622679422407547,
        0.6121713465891659, 1.0285558148215554, 1.5536951670981527,
        2.2149012047449403, 3.0473197694984795, 4.095273602121751,
        5.41456940721939, 7.075464431412369, 9.16640738463961,
        11.798748603164148, 15.112669855687395],
}


def k_oracle_zeta(beta):
    """zeta = 10^-6 .. 10^12 by decades, and zeta* / 2, zeta* and 2 zeta*
    with zeta* = (1 - 2/beta)/(2/beta), where the Beta function turns to
    its complement."""
    cut = (1.0 - 2.0 / beta) / (2.0 / beta)
    return np.sort(np.concatenate([10.0 ** np.arange(-6.0, 13.0),
                                   [cut / 2, cut, 2 * cut]]))


class TestInterferenceExponent:
    @pytest.mark.parametrize("beta", sorted(K_ORACLE))
    def test_ratio_against_mpmath(self, beta):
        # the x form, B at x = zeta/(1 + zeta) throughout, lost 1e9 eps at
        # beta = 20
        k, _ = _exponent_ratios(k_oracle_zeta(beta), SystemParams(beta=beta))
        assert np.all(np.abs(k / K_ORACLE[beta] - 1.0)
                      <= 16.0 * np.finfo(float).eps)

    def test_vanishing_threshold(self, paper_params):
        h = exponent(np.array([1.0]), 1, 1e-12, paper_params)
        assert 0.0 <= h < 1e-9

    def test_single_station_reduction(self, paper_params):
        # at L=1, beta=4 the kernel collapses to the arcsine form
        r1 = 40.0
        for n in (1, 4, 9):
            h = exponent(np.array([r1]), n, 2.0, paper_params)
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
            ours = exponent(r, n, t, params)
            ref = quad_exponent_oracle(r, n, t, params)
            assert ours == pytest.approx(ref, rel=1e-8)


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
        tb = 2.0 / params.beta
        for n in range(1, q + 1):
            a = params.alpha() * n * t * params.pt / (q * params.pc)
            h0 = tb * a ** tb * specfun.beta_incomplete(a, 1.0, 1.0 - tb, tb)
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


# L=1 coverage at beta=4 and -10, 0, 10, 20 dB (default powers): the finite
# sum at 60-digit mpmath (mpmath.betainc, mpmath.binomial), from exact
# a_n = alpha n t pt / (q pc) with the fitted alpha below.  The
# double-precision sum loses digits to its alternating binomial terms as
# mt grows; at mt=64 the exact sum is [1.0, 0.9999999, 0.923, 0.399].
ROUNDING_ORACLE = {
    16: (3.222772150314815, [0.99999999817877332, 0.99019967991212833,
                             0.58374202612156571, 0.1958617695748539]),
    24: (3.624565958436202, [0.99999999999985636, 0.99871849427244901,
                             0.69447521080539167, 0.24295784730662083]),
    32: (3.908163609940397, [0.99999999999999998, 0.99982004931445599,
                             0.77175284178395301, 0.28197236991972896]),
}
ORACLE_T = 10.0 ** (np.array([-10.0, 0.0, 10.0, 20.0]) / 10.0)


class TestRoundingBound:
    @pytest.mark.parametrize("mt", sorted(ROUNDING_ORACLE))
    def test_error_within_reported_bound(self, mt):
        alpha, ref = ROUNDING_ORACLE[mt]
        params = SystemParams(mt=mt, beta=4.0)
        assert params.alpha() == alpha    # the oracle's surrogate
        curve = coverage_curve(params, ORACLE_T)
        assert np.all(curve.quad_error > 0.0)
        assert np.all(np.abs(curve.values - ref) <= curve.quad_error)
        closed = coverage_curve(params, ORACLE_T, method="closed-form")
        assert np.all(closed.quad_error > 0.0)
        assert np.all(np.abs(closed.values - ref) <= closed.quad_error)

    def test_lost_digits_raise(self):
        # the double-precision sum clamps to [0, 1, 0, 1] here
        params = SystemParams(mt=64, beta=4.0)
        with pytest.raises(ConvergenceError):
            coverage_curve(params, ORACLE_T)
        with pytest.raises(ConvergenceError):
            coverage_closed_form(params, 1.0)

    def test_binomial_overflow_raises(self):
        with pytest.raises(ConvergenceError):
            coverage_curve(SystemParams(mt=1100), ORACLE_T)

    def test_value_within_its_bound_of_one(self, caplog):
        # the sum is 1 + 3.1e-8 here, inside its own bound: clipped, not logged
        curve = coverage_curve(SystemParams(mt=32), [0.1])
        assert curve.values[0] == 1.0
        assert curve.quad_error[0] == pytest.approx(6.8e-7, rel=0.01)
        assert caplog.records == []

    def test_value_beyond_its_bound_raises(self, monkeypatch):
        # a negative exponent puts the sum near 2, far beyond its bound
        monkeypatch.setattr(coverage, "interference_laplace_kernel",
                            lambda z, eta, params: -0.25 + 0.0 * z)
        with pytest.raises(ConvergenceError, match="outside"):
            coverage_curve(SystemParams(mt=4), ORACLE_T)


class TestCoverageCurve:
    @pytest.mark.parametrize("L", (2, 3, 4, 5, pytest.param(None,
                                                           id="radar_rate")))
    def test_one_beta_point_per_node_and_term(self, monkeypatch, L):
        # every L reads the ratios through Z alone: one Beta point per node
        # of Z's rule and antenna term, none for Z's law itself.  Coverage
        # reaches the Beta function through radar's kernel, and the radar
        # rates call the one in specfun, so a wrapper of it sees them all.
        points = []
        original = radar.beta_incomplete
        assert original is specfun.beta_incomplete

        def counted(num, den, a, b):
            points.append(np.broadcast(num, den, a).size)
            return original(num, den, a, b)

        monkeypatch.setattr(radar, "beta_incomplete", counted)
        if L is None:
            # the nodes of the echo and interference lattices plus one GK15
            # panel per outer node
            radar_rate(SystemParams(N=3))
            assert sum(points) == 9585
            return
        params = SystemParams(L=L, mt=10)
        t = 10 ** (np.arange(-10.0, 21.0, 2.0) / 10.0)
        coverage_curve(params, t)
        nodes = _z_rule(L, params.beta, 0.0)[0].size
        assert sum(points) == len(t) * nodes * params.q_shape

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
                          method="x", uncertainty=np.zeros(2),
                          quad_error=np.zeros(2))
        with pytest.raises(ValueError):
            CoverageCurve(thresholds=np.array([1.0, 2.0]),
                          values=np.array([0.5, 1.4]),
                          method="x", uncertainty=np.zeros(2),
                          quad_error=np.zeros(2))
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


BETAS = (2.05, 4.0, 20.0)


def z_rule_nodes(L, beta, ln_a):
    """The nodes y of `_z_rule`, and the density there."""
    tb = 2.0 / beta
    y, wk, _ = gk_rule(panel_edges(-coverage._MARGIN,
                                   coverage._MARGIN / tb + ln_a,
                                   coverage._RHO_PANELS, L - 1.0, tb))
    return y, _z_rule(L, beta, ln_a)[1] / wk


class TestLawOfZ:
    """The law of Z = p_L / S = 1/(1 + W) that coverage at every L >= 2
    averages over; W is a sum of L - 1 i.i.d. Pareto variables."""

    @pytest.mark.parametrize("L", (2, 3, 4, 5, 8))
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("ln_a", (0.0, 30.0))
    def test_density_integrates_to_one(self, L, beta, ln_a):
        z, wk, wg, w_err = _z_rule(L, beta, ln_a)
        assert np.all((z > 0.0) & (z <= 1.0 / L))
        total, bound = gk_sum(np.ones_like(z), wk, wg)
        bound += w_err.sum()
        assert abs(total - 1.0) <= bound

    @pytest.mark.parametrize("beta", BETAS)
    def test_power_sum_integral_against_quad(self, beta):
        x = np.array([1.5, 10.0, 1e6, 1e30])
        j, err = _power_sum_integral(np.log(x), beta)
        for xi, ji, ei in zip(x, j, err):
            # int_1^X (1 + x^(-beta/2))^(4/beta) dx in t = ln x
            ref, _ = integrate.quad(
                lambda t: (1.0 + math.exp(-0.5 * beta * t)) ** (4.0 / beta)
                * math.exp(t), 0.0, math.log(xi), limit=400, epsabs=0.0,
                epsrel=1e-13)
            assert ji == pytest.approx(ref, rel=1e-12)
            assert 0.0 <= ei <= 1e-12 * ji

    @pytest.mark.parametrize("L", (2, 3))
    @pytest.mark.parametrize("beta", (2.5, 8.0))
    def test_mean_against_the_ratio_measure(self, L, beta):
        # E[Z] straight from (L-1)! x_L^-L dx on 1 < x_2 < ... < x_L
        p = lambda x: x ** (-0.5 * beta)
        if L == 2:
            ref, _ = integrate.quad(lambda x: x ** -2 * p(x) / (1.0 + p(x)),
                                    1.0, np.inf, epsabs=0.0, epsrel=1e-12)
        else:
            ref, _ = integrate.dblquad(
                lambda x3, x2: 2.0 * x3 ** -3 * p(x3) / (1.0 + p(x2) + p(x3)),
                1.0, np.inf, lambda x2: x2, np.inf, epsabs=0.0, epsrel=1e-12)
        z, wk, wg, _ = _z_rule(L, beta, 0.0)
        assert gk_sum(z, wk, wg)[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("beta", (2.05, 2.5, 4.0, 8.0, 20.0))
    @pytest.mark.parametrize("ln_a", (0.0, 30.0))
    def test_inversion_matches_the_closed_forms(self, beta, ln_a):
        # one Pareto term has no cancellation; for two, where W nears 2 the
        # inversion cancels to O((W - 2)^2) and its bound covers the rest
        y, ref = z_rule_nodes(2, beta, ln_a)
        density, _ = _pareto_sum_density(math.log(2.0) + y, 1, beta)
        assert np.all(np.abs(density - ref) <= 1e-12 * ref)
        y, ref = z_rule_nodes(3, beta, ln_a)
        density, bound = _pareto_sum_density(math.log(3.0) + y, 2, beta)
        assert np.all(np.abs(density - ref) <= 1e-12 * ref + bound)
        assert np.all(np.abs(density - ref)[y > -4.0] <= 1e-12 * ref[y > -4.0])

    @pytest.mark.parametrize("L", (4, 6, 8))
    @pytest.mark.parametrize("beta", (2.5, 8.0))
    def test_mean_against_a_pareto_sum_sampler(self, L, beta):
        # Z = 1/(1 + Y_1 + ... + Y_(L-1)), Y_j = U_j^(-beta/2)
        rng = np.random.Generator(np.random.Philox(key=L))
        draws = np.concatenate([
            1.0 / (1.0 + ((1.0 - rng.random((250_000, L - 1)))
                          ** (-0.5 * beta)).sum(axis=1))
            for _ in range(8)])
        ci = 1.96 * draws.std(ddof=1) / math.sqrt(draws.size)
        z, wk, wg, _ = _z_rule(L, beta, 0.0)
        assert abs(gk_sum(z, wk, wg)[0] - draws.mean()) <= 3.0 * ci
