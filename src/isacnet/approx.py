"""The two approximation devices behind the coverage analysis.

1. A tunable CDF surrogate for a normalized Gamma variable,
   F(g) = (1 - exp(-alpha g))^N, with alpha chosen to minimize the
   Kolmogorov-Smirnov distance to the exact Gamma(N, 1/N) CDF.
2. A diagnostic for the fading-sum collapse: the weighted sum of i.i.d.
   Gamma gains over cluster distances is approximated by a single shared
   gain times the distance sum; `verify_conjecture1` measures the
   two-sample K-S distance between the two constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc

from .specfun import gamma_reg_lower

__all__ = [
    "AlphaFit",
    "ks_distance",
    "fit_alpha",
    "fitted_alpha",
    "verify_conjecture1",
]

# sup-norm evaluation grid: both CDFs are flat outside this range
_GRID = np.logspace(-4.0, 2.0, 10_000)
# every _BOUND_STRIDE-th grid point carries fit_alpha's lower bounds
_BOUND_STRIDE = 10

# the golden-section bracket width at which fit_alpha stops
_ALPHA_TOL = 1e-4

# fewer trials give no stable two-sample K-S estimate in verify_conjecture1
MIN_KS_TRIALS = 10_000


@dataclass(frozen=True)
class AlphaFit:
    shape_n: int
    alpha_star: float
    ks_distance: float
    grid_resolution: float


def _gap_max(alpha, n):
    approx = -np.expm1(-alpha * _GRID)
    approx = approx ** n
    gaps = np.abs(approx - _exact_cdf_on_grid(n))
    i = int(np.argmax(gaps))
    best = float(gaps[i])
    # local refinement: a few Newton steps on the stationarity of the gap
    g = float(_GRID[i])
    for _ in range(3):
        h = 1e-5 * g
        f0 = _gap_at(alpha, n, g - h)
        f1 = _gap_at(alpha, n, g)
        f2 = _gap_at(alpha, n, g + h)
        d1 = (f2 - f0) / (2 * h)
        d2 = (f2 - 2 * f1 + f0) / (h * h)
        if d2 == 0.0 or not math.isfinite(d2):
            break
        step = d1 / d2
        if not math.isfinite(step) or abs(step) > g:
            break
        g = max(g - step, 1e-12)
    best = max(best, _gap_at(alpha, n, g))
    return best


def _gap_at(alpha, n, g):
    # scipy's kernel directly, as `gamma_reg_lower` calls it (same bits):
    # this runs per Newton probe, where a wrapper call would only cost time
    exact = gammainc(float(n), n * g)
    approx = (-np.expm1(-alpha * g)) ** n
    return abs(approx - exact)


@lru_cache(maxsize=64)
def _exact_cdf_on_grid(n):
    return gamma_reg_lower(float(n), n * _GRID)


def ks_distance(alpha, n):
    """sup_g |(1 - e^(-alpha g))^n - P(n, n g)| for the Gamma(n, 1/n) CDF."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _gap_max(float(alpha), int(n))


def _coarse_bounds(alphas, n):
    """Lower bounds on ks_distance(alpha, n) for each alpha: the gap max on
    every _BOUND_STRIDE-th point of _GRID, elementwise the values
    `_gap_max` computes there."""
    sub = slice(None, None, _BOUND_STRIDE)
    approx = -np.expm1(-np.asarray(alphas)[:, None] * _GRID[sub])
    approx = approx ** n
    return np.abs(approx - _exact_cdf_on_grid(n)[sub]).max(axis=1)


def fit_alpha(n):
    """Minimize the K-S distance over alpha by coarse grid + golden section.

    The discrepancy is unimodal in alpha.  A 121-point grid on [0.2, 6]
    locates the basin (the optimum grows with n, from 1.48 at n = 2; the
    grid is extended upward in its own step while the minimum sits on its
    last point, as from n = 263), and golden section polishes it to
    _ALPHA_TOL.

    The grid's minimum is found without evaluating ks_distance at every
    point.  The gap max over a sub-grid of _GRID is at most the max over
    _GRID, which is at most the Newton-refined ks_distance, so
    `_coarse_bounds` bounds every point from below in one array pass.
    Points are evaluated in ascending bound order until the next bound
    exceeds the best value found: each point skipped is strictly worse, so
    the minimum and its first index (as np.argmin picks) are those of the
    exhaustive scan.
    """
    n = int(n)
    if n == 1:
        # (1 - e^(-g)) is already the exact exponential CDF
        return AlphaFit(shape_n=1, alpha_star=1.0, ks_distance=0.0,
                        grid_resolution=_ALPHA_TOL)

    coarse = list(np.linspace(0.2, 6.0, 121))
    bounds = _coarse_bounds(coarse, n)
    i, best = 0, math.inf
    for j in np.argsort(bounds, kind="stable"):
        if bounds[j] > best:
            break
        d = ks_distance(coarse[j], n)
        if d < best or (d == best and j < i):
            i, best = int(j), d
    step = coarse[1] - coarse[0]
    while i == len(coarse) - 1:
        coarse.append(coarse[-1] + step)
        d = ks_distance(coarse[-1], n)
        if d < best:
            i, best = len(coarse) - 1, d

    a, b = coarse[i - 1], coarse[i + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = ks_distance(x1, n), ks_distance(x2, n)
    while b - a > _ALPHA_TOL:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = ks_distance(x1, n)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = ks_distance(x2, n)
    alpha_star = 0.5 * (a + b)
    return AlphaFit(shape_n=n, alpha_star=float(alpha_star),
                    ks_distance=ks_distance(alpha_star, n),
                    grid_resolution=_ALPHA_TOL)


@lru_cache(maxsize=32)
def fitted_alpha(shape_n):
    """Cached optimal alpha for a given Gamma shape (used by the coverage laws)."""
    return fit_alpha(shape_n).alpha_star


def _ks_two_sample(x, y):
    both = np.sort(np.concatenate([x, y]))
    cx = np.searchsorted(np.sort(x), both, side="right") / len(x)
    cy = np.searchsorted(np.sort(y), both, side="right") / len(y)
    return float(np.abs(cx - cy).max())


def verify_conjecture1(params, trials, seed):
    """Two-sample K-S distance between the exact and collapsed fading sums.

    Per trial both constructions share the ordered distances r_1..r_L of
    one cluster (L, lam and beta from `params`): the exact sum uses i.i.d.
    Gamma(mt - 1, 1) gains per link, the collapsed one reuses a single
    fresh Gamma gain for the whole cluster.  Small values mean the collapse
    is statistically benign.  This is a diagnostic, not a gate.
    """
    if trials < MIN_KS_TRIALS:
        raise ValueError("need at least 1e4 trials for a stable K-S estimate")
    rng = np.random.Generator(np.random.Philox(key=seed))
    gaps = rng.standard_exponential((trials, params.L))
    u = np.cumsum(gaps, axis=1)
    # pi*lam*r^2 is a unit-rate arrival process, so r^(-b) = (u/(pi lam))^(-b/2)
    w = (u / (math.pi * params.lam)) ** (-params.beta / 2.0)
    per_link = rng.gamma(params.q_shape, 1.0, (trials, params.L))
    exact = (per_link * w).sum(axis=1)
    shared = rng.gamma(params.q_shape, 1.0, trials) * w.sum(axis=1)
    return _ks_two_sample(exact, shared)
