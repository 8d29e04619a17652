"""Ground-truth Monte Carlo simulator for coverage and radar rate.

The simulator samples the deployment in radial form: squared origin
distances scaled by pi*lam form a unit-rate arrival process, so ordered
distances come straight out of a cumulative sum of exponential gaps and
the nearest-cluster selection is free.  Interferer positions relative to
the receiving station only need the radial pair plus a uniform relative
angle (rotation invariance), which is exactly the 2-D geometry - the
station-free disk around the sensing target emerges naturally, with no
correction term.

Windowing: the deployment is truncated at a mean in-window count of
max(500, 10(L+N)).  The interference from beyond the window is replaced by
its exact mean, and every estimate carries a first-order bound on the bias
left by the tail's fluctuation about that mean.  A trial whose window
misses the cluster or fails to reach the window edge is redrawn; a window
that keeps failing raises SimulationWindowError.

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

from .coverage import CoverageCurve, _require_comm_power
from .radar import RateEstimate

__all__ = ["McConfig", "McResult", "SimulationWindowError",
           "mc_coverage", "mc_radar_rate"]

_MEAN_COUNT_FLOOR = 500.0
_BATCH_SIZE = 8192
_RETRY_ROUNDS = 8


class SimulationWindowError(RuntimeError):
    """Window repeatedly failed to realize enough stations (configuration)."""


@dataclass(frozen=True)
class McConfig:
    """Trial count, seeding and worker processes for the simulator."""

    trials: int = 1_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McResult:
    """Trial bookkeeping of one simulator run.

    `truncation_bias_bound` is the largest bias bound over the estimates;
    the half-widths are the estimate's own `uncertainty`.
    """

    trials_used: int
    truncation_bias_bound: float = 0.0
    window_mean_count: float = 0.0


def _window(params):
    """Mean in-window count, column count, and the tail's mean and spread."""
    u_max = max(_MEAN_COUNT_FLOOR, 10.0 * (params.L + params.N))
    kmax = int(u_max + 8.0 * math.sqrt(u_max) + 16.0)
    beta = params.beta
    # unit-intensity arrival process: E[sum_{u > u_max} u^(-beta/2)]
    tail_mean = u_max ** (1.0 - beta / 2.0) / (beta / 2.0 - 1.0)
    # exp(1) gains have second moment 2
    tail_std = math.sqrt(2.0 * u_max ** (1.0 - beta) / (beta - 1.0))
    return u_max, kmax, tail_mean, tail_std


def _batch_rng(seed, batch_index):
    return np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))


def _batch_plan(cfg, kmax):
    # keep per-batch arrays near or below ~16M doubles even for wide windows
    batch = max(1, min(_BATCH_SIZE, (1 << 24) // kmax))
    n_batches = (cfg.trials + batch - 1) // batch
    return [batch] * (n_batches - 1) + [cfg.trials - batch * (n_batches - 1)]


def _run_batches(worker, args, cfg, kmax):
    """Run per-batch workers and reduce their stats in batch order."""
    sizes = _batch_plan(cfg, kmax)
    jobs = [(b, rows) + args for b, rows in enumerate(sizes)]
    if cfg.workers == 1 or len(jobs) == 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(worker, jobs, chunksize=max(1, len(jobs) // (4 * cfg.workers))))


def _draw_in_window(draw, rows, cluster, u_max):
    """Draw `rows` trials, redrawing those whose window cannot be used.

    `draw(n)` returns a tuple of arrays with n rows, the first holding the
    cumulative arrivals; a trial is redrawn while its cluster reaches past
    the window or its arrivals stop short of the window edge.
    """
    arrays = draw(rows)
    for _ in range(_RETRY_ROUNDS):
        u = arrays[0]
        bad = (u[:, cluster - 1] > u_max) | (u[:, -1] < u_max)
        if not bad.any():
            return arrays
        for a, fresh in zip(arrays, draw(int(bad.sum()))):
            a[bad] = fresh
    raise SimulationWindowError(
        f"window mean count {u_max:.1f} cannot hold a cluster of {cluster} "
        f"after {_RETRY_ROUNDS} retry rounds")


# ----------------------------------------------------------------- coverage

def _coverage_batch(job):
    b, rows, seed, kmax, u_max, L, q, beta, tail, pc, pt, thresholds = job
    rng = _batch_rng(seed, b)

    def draw(n):
        u = rng.standard_exponential((n, kmax))
        np.cumsum(u, axis=1, out=u)
        g_des = rng.gamma(float(q), 1.0, (n, L))
        g_int = rng.standard_exponential((n, kmax - L))
        return u, g_des, g_int

    u, g_des, g_int = _draw_in_window(draw, rows, L, u_max)
    in_window = u[:, L:] <= u_max
    w = np.power(u, -beta / 2.0, out=u)      # u is consumed here
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
        raise ValueError("thresholds must be increasing, with no repeats")
    u_max, kmax, tail, spread = _window(params)

    parts = _run_batches(
        _coverage_batch,
        (cfg.seed, kmax, u_max, params.L, params.q_shape, params.beta, tail,
         params.pc, params.pt, thresholds),
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
    bias = slopes * (params.pt * spread * (inv_interf_sum / done))

    return CoverageCurve(
        thresholds=thresholds, values=values, method="monte-carlo",
        uncertainty=ci, bias_bounds=bias,
        mc_result=McResult(trials_used=done,
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
    b, rows, seed, kmax, u_max, N, q, beta, tail, echo_scale = job
    rng = _batch_rng(seed, b)
    two_pi = 2.0 * math.pi

    def draw(n):
        u = rng.standard_exponential((n, kmax))
        np.cumsum(u, axis=1, out=u)
        f_des = rng.gamma(float(q), 1.0, (n, N))
        f_int = rng.standard_exponential((n, kmax - N))
        ang = rng.uniform(0.0, two_pi, (n, kmax - N))
        return u, f_des, f_int, np.cos(ang, out=ang)

    u, f_des, f_int, cosang = _draw_in_window(draw, rows, N, u_max)
    w_des = np.power(u[:, :N], -beta / 2.0)
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
    np.power(d2, -beta / 2.0, out=d2)
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
    u_max, kmax, tail, spread = _window(params)
    echo_scale = (params.sigma2 * params.mr * params.ps / params.pt
                  * (math.pi * params.lam) ** (params.beta / 2.0))

    parts = _run_batches(
        _radar_batch,
        (cfg.seed, kmax, u_max, params.N, params.q_shape, params.beta, tail,
         echo_scale),
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
    bias = spread * (sens_sum / done)

    return RateEstimate(
        value=max(mean, 0.0), method="monte-carlo", uncertainty=ci,
        mc_result=McResult(trials_used=done, truncation_bias_bound=bias,
                           window_mean_count=u_max))
