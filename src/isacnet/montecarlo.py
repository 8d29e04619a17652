"""Ground-truth Monte Carlo simulator for coverage and radar rate.

The simulator samples the deployment in radial form: squared origin
distances scaled by pi*lam form a unit-rate arrival process.  The m
nearest stations (m the largest L or N of a sweep) come in order from a
cumulative sum of exponential gaps, u_K is u_m plus a Gamma(K - m) gap, and
the K - m - 1 stations between, i.i.d. uniform on (u_m, u_K) given both, are
drawn unordered, in column blocks (see Batches).  Interferer positions
relative to the receiving station only need the radial pair plus a uniform
relative angle, whose cosine is cos(pi U) by symmetry; this is exactly the
2-D geometry - the station-free disk around the sensing target emerges
naturally, with no correction term.

Window: every trial draws exactly the K nearest stations.  By the strong
Markov property of the arrival process, the stations beyond the K-th
arrival u_K form a fresh unit-rate process on (u_K, inf), so the
interference they add is replaced by its exact conditional mean given the
trial's own u_K: u_K^(1-b)/(b-1) at the origin (b = beta/2), and at the
radar receiver, which sits at u_1, u_K^(1-b) 2F1(b, b-1; 1; u_1/u_K)/(b-1),
evaluated by scipy.special.hyp2f1.

Bias bound: given u_K and the drawn stations, the tail T has mean mu and
a variance Var(T | u_K) that is twice that mean taken at 2b in place of b
(exp(1) gains have second moment 2), and an estimate f(mu) of E f(T) is
off by at most (1/2) sup|f''| Var, the sup over every value T can take:
the first-order term averages out, as E[T - mu | u_K, drawn] = 0.  Since a
hit count has the bias of its conditional expectation given the drawn
stations, the bound covers the estimates the simulator reports.  The
interference only grows from its drawn part D (the tail adds to it), so
the sup runs over I >= D.  For coverage, with the nearest station's
Gamma(q) gain integrated out (q = mt - 1), P[SIR >= T | rest] =
Q(q, T a - b), where a = interference/(pc w_1) and
b = sum_{i>=2} g_i w_i / w_1 (w_i the path gains); so f'' is
(T pt/(pc w_1))^2 times -f_q', f_q the Gamma(q) density, and |f_q'| has a
closed-form sup over x >= x_D, the x at the drawn interference
(`_density_slope_sup`), read per trial and threshold from a step table
per q that bounds it from above (`_density_slope_table`).  At q = 1 and
L >= 2, f_q jumps where T a = b and f'' is unbounded; such a point keeps a
first-order bound: the slope of P[SIR >= T] in ln T, the mean of
d = T a f_q(T a - b) (d = 0 where T a <= b), times the mean relative
spread of the tail.  For the radar rate f = ln(1 + E/I), E the echo, whose
f'' = 1/I^2 - 1/(I + E)^2 falls in I, so its sup sits at D.  Each bound
takes the upper 95% limit of its per-trial mean, mean + 1.96 standard
errors; it depends on no threshold grid.

K is chosen per run: a pilot of _PILOT_TRIALS trials at K = _PILOT_K
predicts the worst bias bound over the 95% half-width the full trial count
will give, the bound's power law u_K^(1-beta) (u_K^((1-beta)/2) for the
first-order bound) scales the prediction to other K, and K is the smallest
count predicted to reach _BIAS_TO_CI, half the CI/10 rule (_BIAS_RULE) the
tests hold every estimate to.  A run whose own ratio breaks the rule is
repeated at the K its own statistics call for.  K never drops below
max(16, 2(m+1)) and never exceeds _MAX_K; past that cap, reached only with
path loss near beta = 2 and many trials, the rule is reported
(`McResult.bias_to_ci`), not met.

Sweeps: `mc_coverage_sweep` and `mc_radar_rate_sweep` run every point of a
sweep on one draw set (common random numbers).  The window is ordered to
the sweep's largest cluster size m; each trial draws one Gamma(q) gain
column set per distinct mt, and exp(1) gains (for the rate, also relative
angles) for the far stations and for the near ones that interfere at some
point.  K is the largest that any point's own bias/CI ratio calls for, so
a larger K than a point alone would draw only lowers its bias.  Each point
keeps its own estimate, CI, bias bound and bias/CI ratio; errors along a
sweep are correlated.  `mc_coverage` and `mc_radar_rate` are one-point
sweeps.

Batches: trials are processed in batches of _BATCH_SIZE rows (the last one
holds the remainder), closures batch(rng, rows, k) over the sweep.  A batch
draws, in this order: the m ordered arrivals (gaps, then u_K's Gamma gap);
one Gamma(q) gain set (rows, m) per distinct mt; the exp(1) gains of the
near stations past the smallest cluster (for the rate, then their relative
angles); then the K - m far stations in column blocks of at most _BLOCK,
each block its arrivals, then its exp(1) gains (for the rate, then its
relative angles), the last block ending with u_K.  Each block is reduced
into one sum per row and beta, sum g x^(-beta/2), and its buffers (one
allocation per batch) are reused by the next, so no (rows, K) array
exists: a batch's working set is the (rows, m) arrays plus a few blocks,
4-9 MB at 8,192 rows, at any K.

Reproducibility: batch k draws from PCG64(seed) jumped k times and the
pilot from the stream jumped _PILOT_STREAM times, which no batch reaches.
Batches run on a pool of `workers` threads (numpy's draws and array passes
release the GIL) and their statistics are reduced in batch order, so K and
every result are a pure function of the sweep's points and the config,
bitwise identical for any number of workers.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from .coverage import CoverageCurve, _require_comm_power, _threshold_grid
from .radar import RateEstimate

__all__ = ["McConfig", "McResult", "mc_coverage", "mc_coverage_sweep",
           "mc_radar_rate", "mc_radar_rate_sweep"]

_BATCH_SIZE = 8192
_BLOCK = 32                     # columns per block of the far stations
_PILOT_STREAM = 1 << 40
_PILOT_TRIALS = 2048
_PILOT_K = 32
_BIAS_TO_CI = 0.05
_BIAS_RULE = 0.1
_MAX_K = 1 << 15
_SLOPE_STEP = 1.0 / 32          # x step of the coverage bound's sup table


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
        if not 0 <= self.seed < 1 << 128:      # conjecture1's Philox key
            raise ValueError("seed must lie in [0, 2**128)")


@dataclass(frozen=True)
class McResult:
    """Trial bookkeeping of one simulated point.

    `truncation_bias_bound` is the largest bias bound over the point's
    estimates and `bias_to_ci` the largest ratio of a bias bound to its
    estimate's 95% half-width (the estimate's own `uncertainty`).
    `window_mean_count` is K, the stations drawn per trial, shared by every
    point of a sweep.
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


def _batch_plan(cfg):
    full, rest = divmod(cfg.trials, _BATCH_SIZE)
    return [_BATCH_SIZE] * full + [rest] * (rest > 0)


def _run_batches(batch, cfg, k):
    """Run the batches of one run at window K; reduce each point's
    statistics in batch order."""
    sizes = _batch_plan(cfg)

    def run(stream, rows):
        return batch(_batch_rng(cfg.seed, stream), rows, k)

    if cfg.workers == 1 or len(sizes) == 1:
        # a pool thread's own malloc arena would add ~2 MB to the peak RSS
        # (benchmark simulate rounds 0-2: 72.5 MB here, 74.6 MB in a pool)
        parts = list(map(run, range(len(sizes)), sizes))
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(run, range(len(sizes)), sizes))
    return [[sum(stat) for stat in zip(*point)] for point in zip(*parts)]


def _simulate(batch, summary, points, cfg, m, decays):
    """Choose K, run the batches, and return per point (estimate, CI, bias,
    McResult).

    `batch(rng, rows, k)` returns, per point, the stats of `rows` trials
    at window K; `summary(stats, n)` turns one point's stats of n trials
    into (estimate, CI, bias bound), with the CI taken at the run's full
    trial count.  A point's bias bound scales as u_K^(-decay), its entry of
    `decays`: beta - 1 for the second-order bound, (beta - 1)/2 for the
    first-order one.  So a point whose run at K0 has bias/CI ratio r calls
    for K = K0 (r/_BIAS_TO_CI)^(1/decay); the run takes the largest K its
    points call for.  The pilot gives the first K; a run in which a point's
    own ratio still exceeds _BIAS_RULE (the pilot cannot see how small a
    half-width will be where it drew no miss) is repeated at the K its own
    statistics call for.  Each McResult holds the accepted run's K and the
    point's largest bias bound and ratio.  K stays above the m stations
    drawn in order.
    """
    floor = max(16, 2 * (m + 1))

    def assess(stats, n, k_run):
        runs, k = [], floor
        for decay, point_stats in zip(decays, stats):
            estimate, ci, bias = summary(point_stats, n)
            ratio = float(np.max(bias / np.maximum(ci, 1e-300)))
            k = max(k, math.ceil(min(k_run * (ratio / _BIAS_TO_CI) ** (1.0 / decay),
                                     _MAX_K)))
            runs.append((estimate, ci, bias, ratio))
        return runs, k

    k0 = max(_PILOT_K, floor)
    pilot = batch(_batch_rng(cfg.seed, _PILOT_STREAM), _PILOT_TRIALS, k0)
    _, k = assess(pilot, _PILOT_TRIALS, k0)
    while True:
        runs, k_next = assess(_run_batches(batch, cfg, k), cfg.trials, k)
        if max(run[3] for run in runs) <= _BIAS_RULE or k == _MAX_K:
            return [(estimate, ci, bias, McResult(
                trials_used=cfg.trials, truncation_bias_bound=float(np.max(bias)),
                window_mean_count=k, bias_to_ci=ratio))
                for estimate, ci, bias, ratio in runs]
        k = k_next


def _draw_window(rng, rows, k, m):
    """The m nearest arrivals per row in order (rows, m), and the K-th, u_K."""
    near = rng.standard_exponential((rows, m))
    np.cumsum(near, axis=1, out=near)
    return near, near[:, -1] + rng.standard_gamma(k - m, rows)


def _far_blocks(rng, near, u_k, k, receiver=None):
    """The K - m arrivals past the m-th and their exp(1) gains, in column
    blocks (x, g) of at most _BLOCK columns.  Each block draws its arrivals,
    unordered and uniform on (u_m, u_K), then their gains; the last block
    ends with u_K itself.  x is the arrivals or, with `receiver` (rows, 1),
    their squared distances to a receiver at that arrival (`_receiver_d2`,
    whose angles are drawn after the gains).  Every block is a view of the
    same buffers, so it is valid only until the next one is drawn."""
    rows, n_far = len(u_k), k - near.shape[1]
    u_m = near[:, -1:]
    span = u_k[:, None] - u_m
    # one allocation for all buffers: glibc's malloc keeps up to twice its
    # largest freed mapped chunk in the heap, so a chunk this size lets the
    # next batch reuse these pages instead of faulting in fresh ones
    bufs = np.empty((2 if receiver is None else 3, rows * min(_BLOCK, n_far)))
    for start in range(0, n_far, _BLOCK):
        width = min(_BLOCK, n_far - start)
        u, g, *d2 = (buf[:rows * width].reshape(rows, width) for buf in bufs)
        rng.random(out=u)
        rng.standard_exponential(out=g)
        u *= span
        u += u_m
        if start + width == n_far:
            u[:, -1] = u_k
        yield u if receiver is None else _receiver_d2(rng, receiver, u, *d2), g


def _far_sums(rng, near, u_k, k, betas, receiver=None):
    """Per beta, each row's sum of g x^(-beta/2) over the blocks (x, g) of
    `_far_blocks`."""
    sums = {beta: np.zeros(len(u_k)) for beta in betas}
    for x, g in _far_blocks(rng, near, u_k, k, receiver):
        for beta, w in _path_loss(x, betas):
            sums[beta] += np.einsum("ij,ij->i", g, w)
    return sums


def _sweep_shape(points, size):
    """The draw set's layout: the largest and smallest cluster size, and the
    distinct Gamma shapes and path-loss exponents, in order of appearance."""
    if not points:
        raise ValueError("a sweep needs at least one point")
    sizes = [size(p) for p in points]
    return (max(sizes), min(sizes), list(dict.fromkeys(p.q_shape for p in points)),
            list(dict.fromkeys(p.beta for p in points)))


def _path_loss(x, betas):
    """x^(-beta/2) per distinct beta; the last one is computed in place."""
    for i, beta in enumerate(betas):
        yield beta, np.power(x, -beta / 2.0, out=x if i == len(betas) - 1 else None)


# ----------------------------------------------------------------- coverage

def mc_coverage(params, thresholds, cfg):
    """Simulated coverage over a threshold grid; a one-point
    `mc_coverage_sweep`."""
    return mc_coverage_sweep([params], thresholds, cfg)[0]


def mc_coverage_sweep(points, thresholds, cfg):
    """Simulated coverage of every point of a sweep, from one draw set.

    Per trial the nearest L stations of a point, drawn in order, transmit
    the desired signal with i.i.d. Gamma(mt-1, 1) gains; the other K-L
    drawn stations (those of the m nearest past the L-th, then the others
    unordered between u_m and u_K, and u_K itself) interfere at full power
    with exp(1) gains, and those beyond them through their exact
    conditional mean.  One SIR draw per trial is compared against the whole
    grid, which guarantees each curve is non-increasing in the threshold.
    Returns one CoverageCurve per point, whose `bias_bounds` hold the
    per-threshold truncation-bias bounds and whose `mc_result` carries the
    trial bookkeeping.  Raises ValueError when a point has pc = 0, where
    coverage is undefined.
    """
    for params in points:
        _require_comm_power(params)
    thresholds = _threshold_grid(thresholds)

    def summary(stats, n):
        hits, b_sum, b_sq, scale = stats
        values = hits / float(n)
        # add-one smoothing keeps the half-width positive at p-hat in {0, 1}
        smooth = (hits + 1.0) / (n + 2.0)
        ci = 1.96 * np.sqrt(smooth * (1.0 - smooth) / cfg.trials)
        return values, ci, _upper_mean(b_sum, b_sq, n) * (scale / n)

    batch, m = _coverage_batch(points, thresholds)
    runs = _simulate(batch, summary, points, cfg, m,
                     [(p.beta - 1.0) / (2.0 if _first_order(p) else 1.0)
                      for p in points])
    return [CoverageCurve(
        thresholds=thresholds, values=values, method="monte-carlo",
        uncertainty=ci, quad_error=np.zeros_like(thresholds), bias_bounds=bias,
        mc_result=result) for values, ci, bias, result in runs]


def _first_order(params):
    """Whether a coverage point keeps the first-order bias bound: at q = 1
    and L >= 2 the conditional coverage Q(1, T a - b) has a kink at
    T a = b, where its second derivative is unbounded."""
    return params.q_shape == 1 and params.L > 1


def _density_slope_sup(x, q):
    """sup over y >= x of |f_q'(y)|, f_q the Gamma(q) density (0 below 0),
    per element of x, which is overwritten; q >= 1 is a whole number, and
    q = 1, whose density jumps at 0, needs x > 0.

    f_q' = y^(q-2) e^(-y) (q-1-y)/Gamma(q) rises up to its first extremum
    lo = (q-1) - sqrt(q-1) and then |f_q'| has one more peak, at
    hi = (q-1) + sqrt(q-1), before it falls to 0.  So the sup is |f_q'| at
    max(x, lo), or |f_q'(hi)| where that is larger and hi >= x.  At q = 1,
    |f_1'| = e^(-y) only falls.
    """
    if q == 1:
        np.negative(x, out=x)
        return np.exp(x, out=x)
    root = math.sqrt(q - 1.0)
    lo, hi = q - 1.0 - root, q - 1.0 + root
    y = np.maximum(x, lo, out=x)
    if q == 2:      # y^0 = 1, also at y = 0
        out = np.negative(y)
    else:
        out = np.log(y)
        out *= q - 2.0
        out -= y
    out -= math.lgamma(q)
    np.exp(out, out=out)
    out *= np.abs(y - (q - 1.0))
    peak = math.exp((q - 2.0) * math.log(hi) - hi - math.lgamma(q)) * root
    return np.maximum(out, peak, out=out, where=y < hi)


@functools.lru_cache(maxsize=None)
def _density_slope_table(q):
    """`_density_slope_sup` at x = 0, h, 2h, ... (h = _SLOPE_STEP), out to
    where it has fallen to about e^-40 of its peak.  The sup falls in x, so
    the entry at step floor(x/h) bounds it from above; x < 0 reads step 0
    (for q >= 2 the sup is flat below the first extremum, which lies at
    x >= 0; q = 1 is read only at x > 0), and x past the end the last step.
    Past the second peak |f_q'| falls no faster than e^-y, so there an entry
    exceeds the sup it stands for by at most a factor e^h.  A table read
    takes the place of a log and an exp per trial and threshold."""
    steps = math.ceil((q + 8.0 * math.sqrt(q) + 40.0) / _SLOPE_STEP)
    table = _density_slope_sup(np.arange(steps + 1) * _SLOPE_STEP, q)
    table.flags.writeable = False
    return table


def _upper_mean(total, total_sq, n):
    """The upper 95% limit of a mean from its sum and squared sum over n
    trials: mean + 1.96 standard errors."""
    mean = total / n
    return mean + 1.96 * np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)


def _coverage_batch(points, thresholds):
    """The batch of a coverage sweep, and its largest cluster size m.

    batch(rng, rows, k) returns per point the hit counts per threshold, the
    sum and squared sum per threshold of a per-trial statistic B, and the
    summed per-trial scale the bias bound multiplies B's upper mean by.
    With x = T a - b (module docstring) at the drawn interference alone,
    x_D, B is the second-order bound (T pt/(pc w_1))^2 sup_{x >= x_D}
    |f_q'(x)| Var/2, the sup read from `_density_slope_table`, and the
    scale 1; at a first-order point (`_first_order`) B is the conditional
    density d = T a f_q(T a - b) and the scale the tail's relative spread.
    """
    m, l_min, shapes, betas = _sweep_shape(points, lambda p: p.L)

    def point_stats(params, g, g_near, w, far, tail, var):
        L, q = params.L, params.q_shape
        desired = params.pc * np.einsum("ij,ij->i", g[:, :L], w[:, :L])
        drawn = far + np.einsum("ij,ij->i", g_near[:, L - l_min:], w[:, L:])
        drawn *= params.pt
        interf = drawn + params.pt * tail
        # the nearest gain g_1 covers T iff g_1 >= T a - b
        to_x = 1.0 / (params.pc * w[:, 0])
        b = np.einsum("ij,ij->i", g[:, 1:L], w[:, 1:L]) / w[:, 0]
        sir = desired
        sir /= interf
        hits = np.empty(len(thresholds), dtype=np.int64)
        b_sum, b_sq = np.empty(len(thresholds)), np.empty(len(thresholds))
        if _first_order(params):
            a = interf * to_x
            log_a = np.log(a)
            for j, t in enumerate(thresholds):
                hits[j] = np.count_nonzero(sir >= t)
                x = t * a - b
                live = x > 0.0
                d = np.exp(log_a[live] + (math.log(t) - x[live]))
                b_sum[j], b_sq[j] = d.sum(), d @ d
            return hits, b_sum, b_sq, float((params.pt * np.sqrt(var) / interf).sum())
        # x in steps of the sup table, per unit threshold (h = 2^-5, exact)
        a_d = drawn * (to_x / _SLOPE_STEP)
        b /= _SLOPE_STEP
        table = _density_slope_table(q)
        # Var(T | u_K)/2 in x units per unit threshold squared
        half_var = (0.5 * params.pt ** 2) * var * to_x * to_x
        x = np.empty(len(sir))
        for j, t in enumerate(thresholds):
            hits[j] = np.count_nonzero(sir >= t)
            np.multiply(a_d, t, out=x)
            if L > 1:
                x -= b
            # the cast truncates toward 0, so x < 0 reads step 0 or clips to it
            sup = table.take(x.astype(np.intp), mode="clip")
            sup *= half_var
            b_sum[j], b_sq[j] = t * t * sup.sum(), t ** 4 * (sup @ sup)
        return hits, b_sum, b_sq, float(len(sir))

    def batch(rng, rows, k):
        near, u_k = _draw_window(rng, rows, k, m)
        g_des = {q: rng.gamma(float(q), 1.0, (rows, m)) for q in shapes}
        # exp(1) gains of the near stations past the smallest L
        g_near = rng.standard_exponential((rows, m - l_min))
        # exp(1) gains have second moment 2
        per_beta = {beta: (near ** (-beta / 2.0), far, _tail_mean(u_k, beta / 2.0),
                           2.0 * _tail_mean(u_k, beta))
                    for beta, far in _far_sums(rng, near, u_k, k, betas).items()}
        return [point_stats(p, g_des[p.q_shape], g_near, *per_beta[p.beta])
                for p in points]

    return batch, m


# -------------------------------------------------------------- radar rate

def _receiver_d2(rng, u_1, u, out=None):
    """Squared distances, in u units, from a receiver at arrival u_1 to
    stations at arrivals u: u_1 + u - 2 sqrt(u_1 u) cos(phi), with phi
    uniform by rotation symmetry, so cos(phi) has the law of cos(pi U).
    Written into `out` (u's shape, not u itself) when given."""
    d2 = rng.random(u.shape, out=out)
    d2 *= math.pi
    np.cos(d2, out=d2)
    d2 *= np.sqrt(u)
    d2 *= -2.0 * np.sqrt(u_1)
    d2 += u
    d2 += u_1
    return np.maximum(d2, 1e-30, out=d2)   # cancellation guard; d2 > 0 a.s.


def mc_radar_rate(params, cfg):
    """Simulated radar information rate, E[ln(1 + SIR)] in nats; a
    one-point `mc_radar_rate_sweep`."""
    return mc_radar_rate_sweep([params], cfg)[0]


def mc_radar_rate_sweep(points, cfg):
    """Simulated radar information rate of every point of a sweep, from one
    draw set.

    Per trial the N nearest stations of a point, drawn in order, illuminate
    the origin target with Gamma(mt-1, 1) gains; the nearest one receives
    the echo, and the other K-N drawn stations (those of the m nearest past
    the N-th, then the others unordered between u_m and u_K, and u_K
    itself) interfere at their true 2-D distance from that receiver with
    exp(1) gains, those beyond them through their exact conditional mean at
    the receiver.  Returns one RateEstimate per point, whose `mc_result`
    carries trial bookkeeping and the truncation-bias bound.
    """
    def summary(stats, n):
        total, total_sq, b_sum, b_sq = stats
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0)
        return (mean, 1.96 * math.sqrt(var / cfg.trials),
                float(_upper_mean(b_sum, b_sq, n)))

    batch, m = _rate_batch(points)
    runs = _simulate(batch, summary, points, cfg, m, [p.beta - 1.0 for p in points])
    return [RateEstimate(value=max(mean, 0.0), method="monte-carlo",
                         uncertainty=ci, mc_result=result)
            for mean, ci, _, result in runs]


def _log_curvature_sup(drawn, echo):
    """sup over I >= D of the second derivative of ln(1 + E/I) in I, per
    trial: 1/D^2 - 1/(D + E)^2 at the drawn interference D, for it falls in
    I; written as E (2D + E)/(D (D + E))^2, which does not cancel at E << D."""
    out = drawn + echo
    out *= drawn
    np.square(out, out=out)
    np.divide(echo, out, out=out)
    out *= 2.0 * drawn + echo
    return out


def _rate_batch(points):
    """The batch of a radar-rate sweep, and its largest cluster size m.

    batch(rng, rows, k) returns per point the sum and squared sum of
    ln(1 + SIR) and of the per-trial second-order bias bound
    (1/D^2 - 1/(D + E)^2) Var/2: ln(1 + E/I) is convex in the interference
    I, and its second derivative is largest at the smallest I the tail
    allows, the drawn interference D (E the echo).
    """
    m, n_min, shapes, betas = _sweep_shape(points, lambda p: p.N)
    echo_scales = [p.sigma2 * p.mr * p.ps / p.pt * (math.pi * p.lam) ** (p.beta / 2.0)
                   for p in points]

    def point_stats(params, echo_scale, f, f_near, w, far, tail, w_near, var):
        N = params.N
        echo = np.einsum("ij,ij->i", f[:, :N], w[:, :N])
        echo *= echo_scale * w[:, 0]
        drawn = far + np.einsum("ij,ij->i", f_near[:, N - n_min:],
                                w_near[:, N - n_min:])
        vals = np.log1p(echo / (drawn + tail))
        bias = _log_curvature_sup(drawn, echo)
        bias *= var
        bias *= 0.5
        return (float(vals.sum()), float(vals @ vals), float(bias.sum()),
                float(bias @ bias))

    def batch(rng, rows, k):
        near, u_k = _draw_window(rng, rows, k, m)
        f_des = {q: rng.gamma(float(q), 1.0, (rows, m)) for q in shapes}
        u_1 = near[:, :1]
        # exp(1) gains and receiver distances of the near stations past the
        # smallest N
        f_near = rng.standard_exponential((rows, m - n_min))
        d2_near = _receiver_d2(rng, u_1, near[:, n_min:])
        # exp(1) gains have second moment 2
        per_beta = {beta: (near ** (-beta / 2.0), far,
                           _tail_mean(u_k, beta / 2.0, u_1[:, 0]),
                           d2_near ** (-beta / 2.0),
                           2.0 * _tail_mean(u_k, beta, u_1[:, 0]))
                    for beta, far in _far_sums(rng, near, u_k, k, betas, u_1).items()}
        return [point_stats(p, scale, f_des[p.q_shape], f_near, *per_beta[p.beta])
                for p, scale in zip(points, echo_scales)]

    return batch, m
