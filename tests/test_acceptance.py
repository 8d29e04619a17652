"""Acceptance gate.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them inline).
Shared Monte Carlo runs are session-scoped fixtures so sweep criteria reuse
the same simulations.

One criterion is expected to fail at the stated operating point and is
left failing on purpose rather than loosened:

* C4 - the cooperative-rate integral multiplies the echo and interference
  Laplace transforms as if independent (Hamdi's lemma).  Both are driven
  by the same nearest-station distance.  At density 1e-4 /m^2 the metric
  is dominated by rare near-target deployments that make echo large
  exactly when interference is small; the factorized integral suppresses
  those events and lands 82.6%, 82.6% and 82.4% below the simulation for
  N = 2, 3 and 4.  The cause has been measured: a simulation that draws
  the echo and the interference from independent deployments matches
  `radar_rate` within its CI (400k trials, CI about +-3%: +1.3%, -0.8%
  and -1.8% for N = 2, 3 and 4; at normalized density 0.1, 200k trials:
  within 0.1%), so the integral is a faithful evaluation of the factorized
  model and the gap is the independence assumption itself.  At normalized
  density 0.1 the gap to the simulation shrinks but stays: -10.3%, -2.2%
  and +0.3% for N = 2, 3 and 4 (200k simulated trials), so moving the
  operating point does not help.

C5 checks the exclusion-disk shortfall of the single-station rate where
it is documented.  The shortfall is density-dependent: about 1.2% at
1e-4 /m^2, reaching the 8-10% (+-2) band only near normalized density
0.1.  The criterion therefore asserts the band at density 0.1 (against
both the hole-corrected expression and a simulation there), asserts that
at 1e-4 both shortfalls lie below the band, and asserts at both densities
that the hole-corrected expression agrees with the simulator within 5%.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from isacnet import SystemParams
from isacnet.approx import fit_alpha, ks_distance
from isacnet.coverage import coverage_closed_form, coverage_curve
from isacnet.montecarlo import McConfig, mc_coverage, mc_radar_rate
from isacnet.radar import (echo_laplace_exponent, interference_laplace_kernel,
                           radar_rate, radar_rate_single)
from isacnet.specfun import beta_incomplete

T_DB = np.arange(-10.0, 21.0, 2.0)
T_LIN = 10.0 ** (T_DB / 10.0)
WORKERS = 2

# derived before the build by the exhaustive grid oracle (alpha step 1e-3,
# 2e6-point sup grid); supersedes the provisional 0.05 figure for shape 9
N9_KS_THRESHOLD = 0.0573


def report(cid, ok, detail):
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    return f"[{cid}] {detail}"


@pytest.fixture(scope="session")
def comm_params():
    return SystemParams(lam=1e-4, mt=10, mr=6, beta=4.0, ps=0.5, pc=0.5, L=1)


@pytest.fixture(scope="session")
def radar_mc(comm_params):
    """Simulated radar rates for N = 1..4 at the stated operating point."""
    runs = {}
    for n in (1, 2, 3, 4):
        params = comm_params.with_(N=n)
        trials = 1_000_000 if n == 1 else 500_000
        runs[n] = mc_radar_rate(params, McConfig(trials=trials, seed=400 + n,
                                                 workers=WORKERS))
    return runs


@pytest.fixture(scope="session")
def radar_mc_dense(comm_params):
    """Simulated single-station radar rate at normalized density 0.1."""
    return mc_radar_rate(comm_params.with_(lam=0.1, N=1),
                         McConfig(trials=200_000, seed=405, workers=WORKERS))


@pytest.fixture(scope="session")
def coverage_mc_by_l(comm_params):
    """Simulated coverage curves for cluster sizes 1..5 on the dB grid."""
    runs = {}
    for L in range(1, 6):
        runs[L] = mc_coverage(comm_params.with_(L=L), T_LIN,
                              McConfig(trials=300_000, seed=500 + L,
                                       workers=WORKERS))
    return runs


def test_c01_closed_form_vs_simulation(comm_params):
    t0 = time.time()
    analytic = np.array([coverage_closed_form(comm_params, t) for t in T_LIN])
    curve = mc_coverage(comm_params, T_LIN,
                        McConfig(trials=1_000_000, seed=101, workers=WORKERS))
    elapsed = time.time() - t0
    gap = float(np.max(np.abs(analytic - curve.values)))
    ok = gap <= 0.02 and elapsed < 300.0
    msg = report("C1", ok,
                 f"closed form vs 1e6-trial simulation, L=1 beta=4: "
                 f"max|diff| = {gap:.4f} (tol 0.02), {elapsed:.0f}s (cap 300s)")
    assert ok, msg


def test_c02_general_integral_vs_simulation(comm_params):
    params = comm_params.with_(L=2)
    analytic = coverage_curve(params, T_LIN, method="integral").values
    curve = mc_coverage(params, T_LIN,
                        McConfig(trials=1_000_000, seed=102, workers=WORKERS))
    gap = float(np.max(np.abs(analytic - curve.values)))
    ok = gap <= 0.03
    msg = report("C2", ok,
                 f"coverage integral vs simulation, L=2: "
                 f"max|diff| = {gap:.4f} (tol 0.03)")
    assert ok, msg


def test_c03_density_invariance(comm_params):
    lo = mc_coverage(comm_params.with_(lam=1e-5), T_LIN,
                     McConfig(trials=500_000, seed=301, workers=WORKERS))
    hi = mc_coverage(comm_params.with_(lam=1e-3), T_LIN,
                     McConfig(trials=500_000, seed=302, workers=WORKERS))
    gap = float(np.max(np.abs(lo.values - hi.values)))
    ok = gap <= 0.02
    msg = report("C3", ok,
                 f"simulated coverage at densities 1e-5 vs 1e-3: "
                 f"max|diff| = {gap:.4f} (tol 0.02); closed form is "
                 f"density-free by construction")
    assert ok, msg


def test_c04_cooperative_rate_vs_simulation(comm_params, radar_mc):
    rels = {}
    for n in (2, 3, 4):
        analytic = radar_rate(comm_params.with_(N=n)).value
        mc = radar_mc[n]
        rels[n] = (analytic - mc.value) / mc.value
    ok = all(abs(r) <= 0.05 for r in rels.values())
    detail = ", ".join(
        f"N={n}: {rels[n]:+.1%} (mc +-{radar_mc[n].uncertainty / radar_mc[n].value:.1%})"
        for n in rels)
    msg = report("C4", ok,
                 f"cooperative rate integral vs simulation at density 1e-4 "
                 f"(tol 5% rel): {detail}")
    assert ok, msg


def hole_shortfalls(params, mc):
    """Shortfall of the no-hole rate below the hole-corrected rate and
    below the simulation, and the hole-corrected rate's gap to the latter."""
    hole = radar_rate_single(params, include_hole=True).value
    no_hole = radar_rate_single(params, include_hole=False).value
    return ((hole - no_hole) / hole, (mc.value - no_hole) / mc.value,
            abs(hole - mc.value) / mc.value)


def test_c05_interference_hole(comm_params, radar_mc, radar_mc_dense):
    sparse = hole_shortfalls(comm_params, radar_mc[1])
    dense = hole_shortfalls(comm_params.with_(lam=0.1), radar_mc_dense)
    ok_sparse = sparse[0] < 0.06 and sparse[1] < 0.06
    ok_band = 0.06 <= dense[0] <= 0.12 and 0.06 <= dense[1] <= 0.12
    ok_agree = sparse[2] <= 0.05 and dense[2] <= 0.05
    ok = ok_sparse and ok_band and ok_agree

    def figures(lam, f):
        return (f"density {lam:g}: shortfall of plain rate {f[0]:.2%} below "
                f"corrected / {f[1]:.2%} below mc, hole-corrected vs mc "
                f"{f[2]:.2%}")

    msg = report("C5", ok,
                 f"exclusion-disk criterion; {figures(1e-4, sparse)}; "
                 f"{figures(0.1, dense)}; shortfalls below the band at 1e-4 "
                 f"(< 6%): {'PASS' if ok_sparse else 'FAIL'}; in the band at "
                 f"0.1 (8-10% +-2): {'PASS' if ok_band else 'FAIL'}; "
                 f"agreement at both (tol 5%): "
                 f"{'PASS' if ok_agree else 'FAIL'}")
    assert ok, msg


def test_c06_monotonicity_suite(comm_params, coverage_mc_by_l, radar_mc):
    problems = []

    # coverage non-decreasing in cluster size at every grid threshold
    for L in range(1, 5):
        a, b = coverage_mc_by_l[L], coverage_mc_by_l[L + 1]
        slack = 3.0 * np.hypot(a.uncertainty, b.uncertainty)
        if not np.all(b.values - a.values >= -slack):
            worst = float(np.min(b.values - a.values))
            problems.append(f"coverage L{L}->L{L + 1} dropped by {-worst:.4f}")

    # radar rate non-decreasing in cluster size, non-overlapping CIs
    lo, hi = radar_mc[2], radar_mc[4]
    if not lo.value + lo.uncertainty < hi.value - hi.uncertainty:
        problems.append("radar rate CIs overlap between N=2 and N=4")

    # ... in density
    d_lo = mc_radar_rate(comm_params.with_(N=2, lam=1e-5),
                         McConfig(trials=300_000, seed=601, workers=WORKERS))
    d_hi = mc_radar_rate(comm_params.with_(N=2, lam=1e-3),
                         McConfig(trials=300_000, seed=602, workers=WORKERS))
    if not d_lo.value + d_lo.uncertainty < d_hi.value - d_hi.uncertainty:
        problems.append("radar rate CIs overlap between densities 1e-5 and 1e-3")

    # ... in sensing power share
    p_lo = mc_radar_rate(comm_params.with_(N=2, ps=0.1, pc=0.9),
                         McConfig(trials=300_000, seed=603, workers=WORKERS))
    p_hi = mc_radar_rate(comm_params.with_(N=2, ps=0.9, pc=0.1),
                         McConfig(trials=300_000, seed=604, workers=WORKERS))
    if not p_lo.value + p_lo.uncertainty < p_hi.value - p_hi.uncertainty:
        problems.append("radar rate CIs overlap between ps=0.1 and ps=0.9")

    ok = not problems
    msg = report("C6", ok,
                 "monotonicity suite (coverage in L; radar rate in N, "
                 "density, sensing power): "
                 + ("all orderings hold" if ok else "; ".join(problems)))
    assert ok, msg


def test_c07_diminishing_antenna_returns(comm_params):
    cov = {mt: coverage_closed_form(comm_params.with_(mt=mt), 1.0)
           for mt in (4, 6, 8, 10)}
    gain_lo = cov[6] - cov[4]
    gain_hi = cov[10] - cov[8]
    ok = gain_hi < gain_lo
    msg = report("C7", ok,
                 f"coverage gain 4->6 antennas = {gain_lo:.4f} exceeds "
                 f"8->10 antennas = {gain_hi:.4f} at T = 0 dB")
    assert ok, msg


def test_c08_surrogate_fits():
    unit = fit_alpha(1)
    fit9 = fit_alpha(9)
    d_at_one = ks_distance(1.0, 9)
    ok = (unit.alpha_star == 1.0 and unit.ks_distance == 0.0
          and fit9.ks_distance <= d_at_one
          and fit9.ks_distance <= N9_KS_THRESHOLD)
    msg = report("C8", ok,
                 f"surrogate fit: shape 1 exact (alpha=1, D=0); shape 9: "
                 f"D* = {fit9.ks_distance:.5f} <= derived threshold "
                 f"{N9_KS_THRESHOLD} and <= D(alpha=1) = {d_at_one:.4f} "
                 f"(alpha* = {fit9.alpha_star:.4f})")
    assert ok, msg


def test_c09_special_function_identities(rng):
    a = rng.uniform(0.05, 12.0, 100)
    b = rng.uniform(0.05, 12.0, 100)
    full = beta_incomplete(np.ones_like(a), np.zeros_like(a), a, b)
    ident1 = np.max(np.abs(full / special.beta(a, b) - 1.0))
    x = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    ident2 = np.max(np.abs(beta_incomplete(x, 1.0 - x, 0.5, 0.5)
                           / (2.0 * np.arcsin(np.sqrt(x))) - 1.0))
    ok = ident1 < 1e-9 and ident2 < 1e-9
    msg = report("C9", ok,
                 f"Beta identities: completeness gap {ident1:.1e}, arcsine "
                 f"grid gap {ident2:.1e} (tol 1e-9)")
    assert ok, msg


def test_c10_kernel_quadrature_oracles(comm_params, rng):
    worst = 0.0
    for _ in range(50):
        beta = float(rng.uniform(2.5, 6.0))
        params = comm_params.with_(beta=beta, L=2,
                                   mt=int(rng.integers(3, 12)),
                                   N=2)
        t = float(10.0 ** rng.uniform(-1.0, 1.5))
        n = int(rng.integers(1, params.q_shape + 1))
        r = np.sort(rng.uniform(10.0, 300.0, 2))

        # coverage interference exponent vs its defining integral
        q = params.q_shape
        a_n = params.alpha() * n * t * params.pt / (q * params.pc)
        c = a_n / np.sum(r ** -beta)
        val, _ = integrate.quad(
            lambda x: (c * x ** -beta) / (1.0 + c * x ** -beta) * x,
            r[-1], np.inf, limit=400, epsabs=1e-300, epsrel=1e-10)
        ref = 2.0 * val
        ours = 2.0 * interference_laplace_kernel(c, 1.0 / r[-1], params)
        worst = max(worst, abs(ours / ref - 1.0))

        # echo exponent vs its defining integral
        z = float(10.0 ** rng.uniform(-2.0, 4.0))
        r_far = float(rng.uniform(20.0, 200.0))
        c0 = params.ps * z * params.sigma2 * params.mr
        val, _ = integrate.quad(
            lambda x: -np.expm1(-q * np.log1p(c0 * x ** -beta)) * x,
            0.0, r_far, limit=400, epsabs=1e-300, epsrel=1e-10)
        ref = beta * val
        ours = echo_laplace_exponent(z, r_far, params)
        worst = max(worst, abs(ours / ref - 1.0))

        # interference kernel vs its pre-substitution integral
        eta = float(rng.uniform(0.05, 0.95))
        r1 = 1.0
        val, _ = integrate.quad(
            lambda y: (z * y ** -beta) / (1.0 + z * y ** -beta) * y,
            r1 / eta, np.inf, limit=400, epsabs=1e-300, epsrel=1e-10)
        ref = val / r1 ** 2
        ours = interference_laplace_kernel(z, eta, params)
        worst = max(worst, abs(ours / ref - 1.0))

    ok = worst <= 1e-6
    msg = report("C10", ok,
                 f"kernel-vs-quadrature oracle equivalence over 50 random "
                 f"draws: worst relative gap {worst:.2e} (tol 1e-6)")
    assert ok, msg
