"""Ground-truth Monte Carlo simulator for coverage and radar rate.

The simulator samples the deployment in radial form: squared origin
distances scaled by pi*lam form a unit-rate arrival process.  The m
nearest stations (m = L or N) come in order from a cumulative sum of
exponential gaps, u_K is u_m plus a Gamma(K - m) gap, and the K - m - 1
stations between, i.i.d. uniform on (u_m, u_K) given both, are drawn
unordered.  Interferer positions relative to the receiving station only
need the radial pair plus a uniform relative angle, whose cosine is
cos(pi U) by symmetry; this is exactly the 2-D geometry - the station-free
disk around the sensing target emerges naturally, with no correction term.

Window: every trial draws exactly the K nearest stations.  By the strong
Markov property of the arrival process, the stations beyond the K-th
arrival u_K form a fresh unit-rate process on (u_K, inf), so the
interference they add is replaced by its exact conditional mean given the
trial's own u_K: u_K^(1-b)/(b-1) at the origin (b = beta/2), and at the
radar receiver, which sits at u_1, u_K^(1-b) 2F1(b, b-1; 1; u_1/u_K)/(b-1),
evaluated by scipy.special.hyp2f1.  The tail's conditional spread about
that mean enters a first-order bound on the bias the replacement leaves.

K is chosen per run: a pilot of _PILOT_TRIALS trials at K = _PILOT_K
predicts the worst bias bound over the 95% half-width the full trial count
will give, the spread's power law u_K^((1-beta)/2) scales the prediction to
other K, and K is the smallest count predicted to reach _BIAS_TO_CI, half
the CI/10 rule (_BIAS_RULE) the tests hold every estimate to.  A run whose
own ratio breaks the rule is repeated at the K its own statistics call
for.  K never drops below max(16, 2(m+1)) and never exceeds _MAX_K; past
that cap, reached only with path loss near beta = 2 and many trials, the
rule is reported (`McResult.bias_to_ci`), not met.

Reproducibility: trials are processed in batches, closures
batch(rng, rows, k) over the point; batch k draws from PCG64(seed) jumped
k times and the pilot from the stream jumped _PILOT_STREAM times, which no
batch reaches.  Batches run on a pool of `workers` threads (numpy's draws
and array passes release the GIL) and their statistics are reduced in
batch order, so K and every result are a pure function of the parameters
and the config, bitwise identical for any number of workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from .coverage import CoverageCurve, _require_comm_power, _threshold_grid
from .radar import RateEstimate

__all__ = ["McConfig", "McResult", "mc_coverage", "mc_radar_rate"]

_BATCH_SIZE = 8192
_BATCH_DOUBLES = 1 << 22        # bound on one (rows, K) array of a batch
_PILOT_STREAM = 1 << 40
_PILOT_TRIALS = 2048
_PILOT_K = 64
_BIAS_TO_CI = 0.05
_BIAS_RULE = 0.1
_MAX_K = 1 << 15


@dataclass(frozen=True)
class McConfig:
    """Trial count, seeding and worker threads for the simulator."""

    trials: int = 1_000_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("trials must be >= 2 (a half-width needs two)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McResult:
    """Trial bookkeeping of one simulator run.

    `truncation_bias_bound` is the largest bias bound over the estimates
    and `bias_to_ci` the largest ratio of a bias bound to its estimate's
    95% half-width (the estimate's own `uncertainty`).
    `window_mean_count` is K, the stations drawn per trial.
    """

    trials_used: int
    truncation_bias_bound: float = 0.0
    window_mean_count: int = 0
    bias_to_ci: float = 0.0


def _tail_mean(u_k, b, u_1=None):
    """E[sum d^(-2b)] over a unit-rate arrival process on (u_K, inf), b > 1.

    d^2 is the squared distance in arrival units from the origin, or from
    a receiver at u_1 < u_K when u_1 is given.  From the origin the mean is
    the closed integral u_K^(1-b)/(b-1).  From the receiver, the angular
    mean of |x - y|^(-2b) is sum_k ((b)_k/k!)^2 |y|^(2k) |x|^(-2b-2k) for
    |y| < |x|, so with r = u_1/u_K the mean is
    u_K^(1-b) sum_k ((b)_k/k!)^2 r^k/(b+k-1), and since
    (b)_k/(b+k-1) = (b-1)_k/(b-1) that sum is 2F1(b, b-1; 1; r)/(b-1).
    """
    scale = u_k ** (1.0 - b) / (b - 1.0)
    if u_1 is None:
        return scale
    return scale * hyp2f1(b, b - 1.0, 1.0, u_1 / u_k)


def _batch_rng(seed, stream):
    return np.random.Generator(np.random.PCG64(seed).jumped(stream))


def _batch_plan(cfg, k):
    batch = max(1, min(_BATCH_SIZE, _BATCH_DOUBLES // k))
    n_batches = (cfg.trials + batch - 1) // batch
    return [batch] * (n_batches - 1) + [cfg.trials - batch * (n_batches - 1)]


def _run_batches(batch, cfg, k):
    """Run the batches of one run at window K; reduce in batch order."""
    sizes = _batch_plan(cfg, k)

    def run(stream, rows):
        return batch(_batch_rng(cfg.seed, stream), rows, k)

    if cfg.workers == 1 or len(sizes) == 1:
        # a pool thread's own malloc arena would add ~20 MB to the peak RSS
        parts = list(map(run, range(len(sizes)), sizes))
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(run, range(len(sizes)), sizes))
    return [sum(stat) for stat in zip(*parts)]


def _simulate(batch, summary, params, cfg, m):
    """Choose K, run the batches, and return (estimate, CI, bias, McResult).

    `batch(rng, rows, k)` returns the stats of `rows` trials at window K;
    `summary(stats, n)` turns the stats of n trials into (estimate, CI,
    bias bound), with the CI taken at the run's full trial count.  The
    tail's spread, and with it the bias bound, scales as u_K^((1-beta)/2),
    so a run at K0 with bias/CI ratio r calls for
    K = K0 (r/_BIAS_TO_CI)^(2/(beta-1)).  The pilot gives the first K; a
    run whose own ratio still exceeds _BIAS_RULE (the pilot cannot see how
    small a half-width will be where it drew no miss) is repeated at the K
    its own statistics call for.  The McResult holds the accepted run's K,
    its largest bias bound and the ratio that accepted it.  K stays above
    the m stations drawn in order.
    """
    floor = max(16, 2 * (m + 1))

    def assess(stats, n, k_run):
        estimate, ci, bias = summary(stats, n)
        ratio = float(np.max(bias / np.maximum(ci, 1e-300)))
        k = min(k_run * (ratio / _BIAS_TO_CI) ** (2.0 / (params.beta - 1.0)),
                _MAX_K)
        return (estimate, ci, bias), ratio, max(math.ceil(k), floor)

    k0 = max(_PILOT_K, floor)
    pilot = batch(_batch_rng(cfg.seed, _PILOT_STREAM), _PILOT_TRIALS, k0)
    _, _, k = assess(pilot, _PILOT_TRIALS, k0)
    while True:
        (estimate, ci, bias), ratio, k_next = assess(
            _run_batches(batch, cfg, k), cfg.trials, k)
        if ratio <= _BIAS_RULE or k == _MAX_K:
            return estimate, ci, bias, McResult(
                trials_used=cfg.trials, truncation_bias_bound=float(np.max(bias)),
                window_mean_count=k, bias_to_ci=ratio)
        k = k_next


def _draw_window(rng, rows, k, m):
    """The K nearest arrivals per row: the m nearest in order (rows, m), the
    other K - m unordered but for u_K in the last column, and u_K itself."""
    near = rng.standard_exponential((rows, m))
    np.cumsum(near, axis=1, out=near)
    u_m = near[:, -1:]
    u_k = u_m[:, 0] + rng.standard_gamma(k - m, rows)
    far = rng.random((rows, k - m))
    far *= u_k[:, None] - u_m
    far += u_m
    far[:, -1] = u_k
    return near, far, u_k


# ----------------------------------------------------------------- coverage

def mc_coverage(params, thresholds, cfg):
    """Simulated coverage over a threshold grid (linear SIR units).

    Per trial the nearest L stations, drawn in order, transmit the desired
    signal with i.i.d. Gamma(mt-1, 1) gains; the other K-L drawn stations
    (unordered between u_L and u_K, and u_K itself) interfere at full power
    with exp(1) gains, and those beyond them through their exact
    conditional mean.  One SIR draw per trial is compared against
    the whole grid, which guarantees the curve is non-increasing in the
    threshold.  Returns a CoverageCurve whose `bias_bounds` hold the
    per-threshold truncation-bias estimates and whose `mc_result` carries
    the trial bookkeeping.  Raises ValueError when pc = 0, where coverage
    is undefined.
    """
    _require_comm_power(params)
    thresholds = _threshold_grid(thresholds)
    beta = params.beta

    def batch(rng, rows, k):
        near, far, u_k = _draw_window(rng, rows, k, params.L)
        g_des = rng.gamma(float(params.q_shape), 1.0, (rows, params.L))
        g_int = rng.standard_exponential((rows, k - params.L))
        desired = params.pc * np.einsum("ij,ij->i", g_des, near ** (-beta / 2.0))
        interf = np.einsum("ij,ij->i", g_int, np.power(far, -beta / 2.0, out=far))
        interf += _tail_mean(u_k, beta / 2.0)
        interf *= params.pt
        # exp(1) gains have second moment 2
        spread = params.pt * np.sqrt(2.0 * _tail_mean(u_k, beta))
        sir = desired
        sir /= interf
        hits = (sir[:, None] >= thresholds[None, :]).sum(axis=0).astype(np.int64)
        return hits, float((spread / interf).sum())

    def summary(stats, n):
        hits, rel_spread = stats
        values = hits / float(n)
        # add-one smoothing keeps the half-width positive at p-hat in {0, 1}
        smooth = (hits + 1.0) / (n + 2.0)
        ci = 1.96 * np.sqrt(smooth * (1.0 - smooth) / cfg.trials)
        # first-order truncation bias per point: local curve slope in ln T
        # times the relative interference perturbation left by the tail
        bias = _local_slopes(values, thresholds) * (rel_spread / n)
        return values, ci, bias

    values, ci, bias, result = _simulate(batch, summary, params, cfg, params.L)
    return CoverageCurve(
        thresholds=thresholds, values=values, method="monte-carlo",
        uncertainty=ci, quad_error=np.zeros_like(thresholds), bias_bounds=bias,
        mc_result=result)


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

def _receiver_d2(rng, u_1, u):
    """Squared distances, in u units, from a receiver at arrival u_1 to
    stations at arrivals u: u_1 + u - 2 sqrt(u_1 u) cos(phi), with phi
    uniform by rotation symmetry, so cos(phi) has the law of cos(pi U)."""
    d2 = rng.random(u.shape)
    d2 *= math.pi
    np.cos(d2, out=d2)
    d2 *= np.sqrt(u)
    d2 *= -2.0 * np.sqrt(u_1)
    d2 += u
    d2 += u_1
    return np.maximum(d2, 1e-30, out=d2)   # cancellation guard; d2 > 0 a.s.


def mc_radar_rate(params, cfg):
    """Simulated radar information rate, E[ln(1 + SIR)] in nats.

    Per trial the N nearest stations, drawn in order, illuminate the
    origin target with Gamma(mt-1, 1) gains; the nearest one receives the
    echo, and the other K-N drawn stations (unordered between u_N and u_K,
    and u_K itself) interfere at their true 2-D distance from that receiver
    with exp(1) gains, those beyond them through their exact conditional
    mean at the receiver.  Returns a RateEstimate whose
    `mc_result` carries trial bookkeeping and the truncation-bias estimate.
    """
    echo_scale = (params.sigma2 * params.mr * params.ps / params.pt
                  * (math.pi * params.lam) ** (params.beta / 2.0))
    beta = params.beta

    def batch(rng, rows, k):
        near, far, u_k = _draw_window(rng, rows, k, params.N)
        f_des = rng.gamma(float(params.q_shape), 1.0, (rows, params.N))
        f_int = rng.standard_exponential((rows, k - params.N))

        w_des = near ** (-beta / 2.0)
        echo = np.einsum("ij,ij->i", f_des, w_des)
        echo *= echo_scale * w_des[:, 0]

        u_1 = near[:, 0]
        d2 = _receiver_d2(rng, u_1[:, None], far)
        interf = np.einsum("ij,ij->i", f_int, np.power(d2, -beta / 2.0, out=d2))
        interf += _tail_mean(u_k, beta / 2.0, u_1)
        # exp(1) gains have second moment 2
        spread = np.sqrt(2.0 * _tail_mean(u_k, beta, u_1))

        sir = echo
        sir /= interf
        vals = np.log1p(sir)
        sens = sir / (interf * (1.0 + sir))
        return (float(vals.sum()), float((vals * vals).sum()),
                float((spread * sens).sum()))

    def summary(stats, n):
        total, total_sq, sens_sum = stats
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0)
        return mean, 1.96 * math.sqrt(var / cfg.trials), sens_sum / n

    mean, ci, _, result = _simulate(batch, summary, params, cfg, params.N)
    return RateEstimate(value=max(mean, 0.0), method="monte-carlo",
                        uncertainty=ci, mc_result=result)
