"""Ground-truth Monte Carlo simulator for coverage and radar rate.

The simulator samples the deployment in radial form: squared origin
distances scaled by pi*lam form a unit-rate arrival process, so ordered
distances come straight out of a cumulative sum of exponential gaps and
the nearest-cluster selection is free.  Interferer positions relative to
the receiving station only need the radial pair plus a uniform relative
angle (rotation invariance), which is exactly the 2-D geometry - the
station-free disk around the sensing target emerges naturally, with no
correction term.

Windowing: the deployment is truncated at a mean in-window count set by
the window policy.  In the default "compensated" mode the truncated
interference tail is replaced by its exact mean and the residual bias is
tracked per estimate; "strict" mode instead sizes the window from
`required_radius` below so the neglected tail is below the ratio policy
outright (much larger windows, no compensation term).

Reproducibility: trials are processed in fixed-size batches; batch k draws
from Philox(key=seed) jumped k times.  Batch statistics are reduced in
batch order, so results are bitwise identical for a given config no matter
how many workers process the batches.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import pdtr

from .coverage import CoverageCurve, _require_comm_power
from .radar import RateEstimate

__all__ = ["McConfig", "McResult", "SimulationWindowError",
           "mc_coverage", "mc_radar_rate", "required_radius"]


class SimulationWindowError(RuntimeError):
    """Window repeatedly failed to realize enough stations (configuration)."""


@dataclass(frozen=True)
class McConfig:
    """Trial count, seeding, window policy and batching for the simulator."""

    trials: int = 1_000_000
    seed: int = 0
    min_points: int | None = None      # default: cluster size of the metric
    tail_prob: float = 1e-6
    mean_count_floor: float = 500.0
    window: str = "compensated"        # or "strict"
    batch_size: int = 8192
    max_retry_rounds: int = 8
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.window not in ("compensated", "strict"):
            raise ValueError("window must be 'compensated' or 'strict'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McResult:
    """Trial bookkeeping of one simulator run.

    `ci_half_width` is the normal-approximation half-width of the rate, or
    the widest half-width over a coverage curve's thresholds;
    `truncation_bias_bound` is the largest bias bound over the estimates.
    """

    ci_half_width: float
    trials_used: int
    truncation_bias_bound: float = 0.0
    window_mean_count: float = 0.0


def required_radius(lam, min_points, tail_prob, *, beta=4.0,
                    interference_ratio=1e-4, mean_count_floor=500.0,
                    count_margin=10.0):
    """Smallest window radius satisfying the truncation policy.

    Three constraints, the max wins:
      * P[Poisson(lam pi R^2) < min_points] <= tail_prob,
      * mean count lam pi R^2 >= max(mean_count_floor,
        count_margin * min_points),
      * expected interference from beyond R (integral of 2 pi lam r^(1-beta),
        closed form for beta > 2) below `interference_ratio` times the
        expected in-window interference seen from the cluster edge.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if min_points < 0:
        raise ValueError("min_points must be >= 0")
    if not 0 < tail_prob < 1:
        raise ValueError("tail_prob must be in (0, 1)")
    if beta <= 2:
        raise ValueError("beta must exceed 2 for a finite interference tail")

    mean_floor = max(mean_count_floor, count_margin * min_points)

    mean_tail = 0.0
    if min_points > 0:
        # invert the Poisson tail P[count <= min_points - 1] by bisection
        # on the mean
        lo_m, hi_m = float(min_points), float(min_points)
        while pdtr(min_points - 1, hi_m) > tail_prob:
            hi_m *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo_m + hi_m)
            if pdtr(min_points - 1, mid) > tail_prob:
                lo_m = mid
            else:
                hi_m = mid
            if hi_m - lo_m <= 1e-9 * hi_m:
                break
        mean_tail = hi_m

    # interference floor: tail/in-window ratio rho gives R = rbar * ((1+rho)/rho)^(1/(beta-2))
    rbar = math.sqrt(max(min_points, 1) / (math.pi * lam))
    r_interf = rbar * ((1.0 + interference_ratio) / interference_ratio) ** (1.0 / (beta - 2.0))

    mean_needed = max(mean_floor, mean_tail)
    r_count = math.sqrt(mean_needed / (math.pi * lam))
    return max(r_count, r_interf)


def _window_mean_count(params, cfg, cluster_size):
    min_pts = cfg.min_points if cfg.min_points is not None else cluster_size
    if cfg.window == "strict":
        radius = required_radius(params.lam, min_pts, cfg.tail_prob,
                                 beta=params.beta,
                                 mean_count_floor=cfg.mean_count_floor)
        return params.lam * math.pi * radius ** 2
    return max(cfg.mean_count_floor, 10.0 * (params.L + params.N),
               float(min_pts) + 1.0)


def _capped_batch(batch_size, kmax):
    # keep per-batch arrays near or below ~16M doubles even for wide windows
    return max(1, min(batch_size, (1 << 24) // kmax))


def _batch_rng(seed, batch_index):
    return np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))


def _pow_neg_half_beta(u, beta, out=None):
    if beta == 4.0:
        return np.power(u, -2.0, out=out)
    return np.power(u, -beta / 2.0, out=out)


def _tail_mean(u_max, beta):
    # unit-intensity arrival process: E[sum_{u > u_max} u^(-beta/2)]
    return u_max ** (1.0 - beta / 2.0) / (beta / 2.0 - 1.0)


def _tail_std(u_max, beta):
    # exp(1) gains have second moment 2
    return math.sqrt(2.0 * u_max ** (1.0 - beta) / (beta - 1.0))


def _batch_plan(cfg, kmax):
    batch = _capped_batch(cfg.batch_size, kmax)
    n_batches = (cfg.trials + batch - 1) // batch
    sizes = [batch] * (n_batches - 1) + [cfg.trials - batch * (n_batches - 1)]
    return sizes


def _run_batches(worker, args, cfg, kmax):
    """Run per-batch workers and reduce their stats in batch order."""
    sizes = _batch_plan(cfg, kmax)
    jobs = [(b, rows) + args for b, rows in enumerate(sizes)]
    if cfg.workers == 1 or len(jobs) == 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(worker, jobs, chunksize=max(1, len(jobs) // (4 * cfg.workers))))


# ----------------------------------------------------------------- coverage

def _coverage_batch(job):
    (b, rows, seed, kmax, u_max, L, q, beta, tail, pc, pt, thresholds,
     max_retry_rounds) = job
    rng = _batch_rng(seed, b)

    def draw(n):
        u = rng.standard_exponential((n, kmax))
        np.cumsum(u, axis=1, out=u)
        g_des = rng.gamma(float(q), 1.0, (n, L))
        g_int = rng.standard_exponential((n, kmax - L))
        return u, g_des, g_int

    u, g_des, g_int = draw(rows)
    for _ in range(max_retry_rounds):
        bad = (u[:, L - 1] > u_max) | (u[:, -1] < u_max)
        if not bad.any():
            break
        u[bad], g_des[bad], g_int[bad] = draw(int(bad.sum()))
    else:
        raise SimulationWindowError(
            f"window mean count {u_max:.1f} cannot hold the cluster "
            f"(L={L}) after {max_retry_rounds} retry rounds")

    in_window = u[:, L:] <= u_max
    w = _pow_neg_half_beta(u, beta, out=u)      # u is consumed here
    desired = pc * np.einsum("ij,ij->i", g_des, w[:, :L])
    w_int = w[:, L:]
    np.multiply(w_int, in_window, out=w_int)
    interf = np.einsum("ij,ij->i", g_int, w_int)
    interf += tail
    interf *= pt
    sir = desired
    sir /= interf
    hits = (sir[:, None] >= thresholds[None, :]).sum(axis=0).astype(np.int64)
    return hits, float((1.0 / interf).sum())


def mc_coverage(params, thresholds, cfg):
    """Simulated coverage over a threshold grid (linear SIR units).

    Per trial the nearest L stations transmit the desired signal with
    i.i.d. Gamma(mt-1, 1) gains; every other in-window station interferes
    at full power with an exp(1) gain.  One SIR draw per trial is compared
    against the whole grid, which guarantees the curve is non-increasing
    in the threshold.  Returns a CoverageCurve whose `bias_bounds` hold the
    per-threshold truncation-bias estimates and whose `mc_result` carries
    the trial bookkeeping.  Raises ValueError when pc = 0, where coverage
    is undefined.
    """
    _require_comm_power(params)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1 or len(thresholds) == 0:
        raise ValueError("thresholds must be a non-empty 1-D array")
    if np.any(thresholds <= 0):
        raise ValueError("thresholds must be positive (linear units)")
    if np.any(np.diff(thresholds) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    L = params.L
    u_max = _window_mean_count(params, cfg, L)
    kmax = int(u_max + 8.0 * math.sqrt(u_max) + 16.0)
    compensate = cfg.window == "compensated"
    tail = _tail_mean(u_max, params.beta) if compensate else 0.0

    parts = _run_batches(
        _coverage_batch,
        (cfg.seed, kmax, u_max, L, params.q_shape, params.beta, tail,
         params.pc, params.pt, thresholds, cfg.max_retry_rounds),
        cfg, kmax)
    hits = np.zeros(len(thresholds), dtype=np.int64)
    inv_interf_sum = 0.0
    for h, inv in parts:
        hits += h
        inv_interf_sum += inv

    done = cfg.trials
    values = hits / float(done)
    # add-one smoothing keeps the half-width positive at p-hat in {0, 1}
    smooth = (hits + 1.0) / (done + 2.0)
    ci = 1.96 * np.sqrt(smooth * (1.0 - smooth) / done)

    # first-order truncation bias per point: local curve slope in ln T times
    # the relative interference perturbation left after windowing
    slopes = _local_slopes(values, thresholds)
    mean_inv = inv_interf_sum / done
    if compensate:
        perturb = params.pt * _tail_std(u_max, params.beta) * mean_inv
    else:
        perturb = params.pt * _tail_mean(u_max, params.beta) * mean_inv
    bias = slopes * perturb

    return CoverageCurve(
        thresholds=thresholds, values=values, method="monte-carlo",
        uncertainty=ci, bias_bounds=bias,
        mc_result=McResult(ci_half_width=float(ci.max()), trials_used=done,
                           truncation_bias_bound=float(bias.max()),
                           window_mean_count=u_max))


def _local_slopes(values, thresholds):
    if len(thresholds) < 2:
        return np.array([0.25])
    s = np.abs(np.diff(values) / np.diff(np.log(thresholds)))
    out = np.empty_like(values)
    out[0] = s[0]
    out[-1] = s[-1]
    out[1:-1] = np.maximum(s[:-1], s[1:])
    return out


# -------------------------------------------------------------- radar rate

def _radar_batch(job):
    (b, rows, seed, kmax, u_max, N, q, beta, tail, echo_scale,
     max_retry_rounds) = job
    rng = _batch_rng(seed, b)
    two_pi = 2.0 * math.pi

    def draw(n):
        u = rng.standard_exponential((n, kmax))
        np.cumsum(u, axis=1, out=u)
        f_des = rng.gamma(float(q), 1.0, (n, N))
        f_int = rng.standard_exponential((n, kmax - N))
        ang = rng.uniform(0.0, two_pi, (n, kmax - N))
        return u, f_des, f_int, np.cos(ang, out=ang)

    u, f_des, f_int, cosang = draw(rows)
    for _ in range(max_retry_rounds):
        bad = (u[:, N - 1] > u_max) | (u[:, -1] < u_max)
        if not bad.any():
            break
        u[bad], f_des[bad], f_int[bad], cosang[bad] = draw(int(bad.sum()))
    else:
        raise SimulationWindowError(
            f"window mean count {u_max:.1f} cannot hold the cluster "
            f"(N={N}) after {max_retry_rounds} retry rounds")

    w_des = _pow_neg_half_beta(u[:, :N], beta)
    echo = np.einsum("ij,ij->i", f_des, w_des)
    echo *= echo_scale * w_des[:, 0]

    # squared receiver-to-interferer distance in u units:
    # u_1 + u_j - 2 sqrt(u_1 u_j) cos(phi); phi uniform by rotation symmetry
    in_window = u[:, N:] <= u_max
    su = np.sqrt(u)
    d2 = cosang
    np.multiply(d2, su[:, N:], out=d2)
    np.multiply(d2, -2.0 * su[:, :1], out=d2)
    d2 += u[:, N:]
    d2 += u[:, :1]
    np.maximum(d2, 1e-30, out=d2)   # cancellation guard; d2 > 0 a.s.
    _pow_neg_half_beta(d2, beta, out=d2)
    np.multiply(d2, in_window, out=d2)
    interf = np.einsum("ij,ij->i", f_int, d2)
    interf += tail

    sir = echo
    sir /= interf
    vals = np.log1p(sir)
    sens = sir / (interf * (1.0 + sir))
    return (float(vals.sum()), float((vals * vals).sum()), float(sens.sum()))


def mc_radar_rate(params, cfg):
    """Simulated radar information rate, E[ln(1 + SIR)] in nats.

    Per trial the N nearest stations illuminate the origin target with
    Gamma(mt-1, 1) gains; the nearest one receives the echo, and every
    in-window station outside the cluster interferes at its true 2-D
    distance from that receiver with an exp(1) gain.  Returns a
    RateEstimate whose `mc_result` carries trial bookkeeping and the
    truncation-bias estimate.
    """
    N = params.N
    u_max = _window_mean_count(params, cfg, N)
    kmax = int(u_max + 8.0 * math.sqrt(u_max) + 16.0)
    compensate = cfg.window == "compensated"
    tail = _tail_mean(u_max, params.beta) if compensate else 0.0
    echo_scale = (params.sigma2 * params.mr * params.ps / params.pt
                  * (math.pi * params.lam) ** (params.beta / 2.0))

    parts = _run_batches(
        _radar_batch,
        (cfg.seed, kmax, u_max, N, params.q_shape, params.beta, tail,
         echo_scale, cfg.max_retry_rounds),
        cfg, kmax)
    total = total_sq = sens_sum = 0.0
    for t, t2, s in parts:
        total += t
        total_sq += t2
        sens_sum += s

    done = cfg.trials
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    ci = 1.96 * math.sqrt(var / done)
    spread = _tail_std(u_max, params.beta) if compensate \
        else _tail_mean(u_max, params.beta)
    bias = spread * (sens_sum / done)

    return RateEstimate(
        value=max(mean, 0.0), method="monte-carlo", uncertainty=ci,
        mc_result=McResult(ci_half_width=ci, trials_used=done,
                           truncation_bias_bound=bias,
                           window_mean_count=u_max))
