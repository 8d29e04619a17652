"""Experiment orchestration: sweeps, CSV persistence, figure presets.

Result CSVs are byte-stable for a fixed configuration and seed: floats are
written with shortest round-trip repr and anything nondeterministic
(timestamps, wall-clock times, library versions) goes to a `.meta.json`
sidecar next to the CSV.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .approx import AlphaFit, fit_alpha, verify_conjecture1
from .config import DEFAULT_T_DB, SWEEPABLE, ConfigError, ExperimentConfig
from .coverage import CoverageCurve, coverage_curve
from .montecarlo import mc_coverage_sweep, mc_radar_rate_sweep
from .radar import RateEstimate, radar_rate

__all__ = ["ResultRow", "run_experiment", "write_rows", "emit_plotdata",
           "figure_preset", "FIGURE_PRESETS"]


@dataclass(frozen=True)
class ResultRow:
    """One (sweep point x method) outcome.

    `window` (stations drawn per trial), `bias_bound` (truncation-bias
    bound) and `bias_to_ci` (that bound over the row's 95% half-width)
    describe simulated rows and are None elsewhere; like `wall_ms` they go
    to the sidecar, not the CSV.
    """

    sweep: dict                 # swept parameter values, may be empty
    value: float
    method: str
    uncertainty: float          # statistical half-width; 0 for deterministic
    quad_error: float           # quadrature error bound for analytic rows
    wall_ms: float = 0.0
    extra: dict = field(default_factory=dict)   # e.g. t_db for coverage rows
    window: int | None = None
    bias_bound: float | None = None
    bias_to_ci: float | None = None


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


# (metric, method) -> estimate at one point, from (cfg, params, thresholds)
_ESTIMATORS = {
    ("coverage", "analytic"): lambda cfg, p, t: coverage_curve(p, t),
    ("radar-rate", "analytic"): lambda cfg, p, t: radar_rate(p),
    ("fit-alpha", "analytic"): lambda cfg, p, t: fit_alpha(p.q_shape),
    ("conjecture1", "mc"): lambda cfg, p, t: verify_conjecture1(
        p, cfg.mc.trials, cfg.mc.seed),
}
# (metric, method) -> estimates at every point of a sweep, from one draw set,
# from (cfg, [params], thresholds)
_SWEEPS = {
    ("coverage", "mc"): lambda cfg, ps, t: mc_coverage_sweep(ps, t, cfg.mc),
    ("radar-rate", "mc"): lambda cfg, ps, t: mc_radar_rate_sweep(ps, cfg.mc),
}


def _cells(est, cfg, params):
    """The ResultRow fields, bar sweep, method and time, of each row of one
    estimate."""
    if isinstance(est, CoverageCurve):
        mc = est.mc_result
        bias = est.bias_bounds.tolist() if mc else [None] * len(cfg.t_db)
        return [dict(value=v, uncertainty=u, quad_error=qe, extra={"t_db": t},
                     window=mc.window_mean_count if mc else None, bias_bound=b,
                     bias_to_ci=None if b is None else b / max(u, 1e-300))
                for t, v, u, qe, b in zip(
                    cfg.t_db, est.values.tolist(), est.uncertainty.tolist(),
                    est.quad_error.tolist(), bias)]
    if isinstance(est, RateEstimate):
        mc = est.mc_result
        return [dict(value=est.value, uncertainty=est.uncertainty,
                     quad_error=est.quad_error,
                     window=mc.window_mean_count if mc else None,
                     bias_bound=mc.truncation_bias_bound if mc else None,
                     bias_to_ci=mc.bias_to_ci if mc else None)]
    if isinstance(est, AlphaFit):
        return [dict(value=est.alpha_star, uncertainty=0.0, quad_error=0.0,
                     extra={"shape_n": est.shape_n,
                            "ks_distance": est.ks_distance,
                            "grid_resolution": est.grid_resolution})]
    # conjecture1: the two-sample K-S distance at this cluster size
    return [dict(value=est, uncertainty=0.0, quad_error=0.0,
                 extra={"cluster_size": params.L, "shape": params.q_shape,
                        "exponent": params.beta, "trials": cfg.mc.trials})]


def _method_cells(cfg, method, t_lin):
    """Per sweep point, the cells of one method's estimate and their
    `wall_ms`: a point's time over its rows, or for a shared sweep the
    sweep's time split evenly over all of its rows."""
    params = [p for _, p in cfg.points]
    if (cfg.metric, method) in _SWEEPS:
        t0 = time.perf_counter()
        estimates = _SWEEPS[cfg.metric, method](cfg, params, t_lin)
        cells = [_cells(est, cfg, p) for est, p in zip(estimates, params)]
        ms = (time.perf_counter() - t0) * 1e3 / sum(map(len, cells))
        return [(point, ms) for point in cells]
    out = []
    for p in params:
        t0 = time.perf_counter()
        point = _cells(_ESTIMATORS[cfg.metric, method](cfg, p, t_lin), cfg, p)
        out.append((point, (time.perf_counter() - t0) * 1e3 / len(point)))
    return out


def run_experiment(cfg: ExperimentConfig):
    """Execute a validated experiment; returns rows and optionally writes CSV.

    Every sweep point runs each method that `cfg.method` selects and the
    metric has; the simulator runs all points of the sweep on one draw set
    (`mc_coverage_sweep`, `mc_radar_rate_sweep`).  Rows come point by
    point, each point's methods in the order analytic, mc.
    """
    methods = [m for m in ("analytic", "mc") if cfg.method in (m, "both")
               and ((cfg.metric, m) in _ESTIMATORS or (cfg.metric, m) in _SWEEPS)]
    if not methods:
        raise ConfigError(f"metric {cfg.metric!r} has no {cfg.method!r} method")
    t_lin = np.array([10.0 ** (t / 10.0) for t in cfg.t_db])
    by_method = {method: _method_cells(cfg, method, t_lin) for method in methods}
    rows = []
    for i, (sweep, _) in enumerate(cfg.points):
        for method in methods:
            cells, ms = by_method[method][i]
            rows += [ResultRow(sweep=sweep, method=method, wall_ms=ms, **cell)
                     for cell in cells]
    if cfg.out:
        write_rows(rows, cfg.out, cfg)
    return rows


def _columns(rows):
    """The CSV header: sweep columns, extra columns, then the fixed four."""
    sweep = dict.fromkeys(k for row in rows for k in row.sweep)
    extra = dict.fromkeys(k for row in rows for k in row.extra)
    return [*sweep, *extra, "value", "method", "uncertainty", "quad_error"]


def _cell(row, col):
    if col in ("value", "method", "uncertainty", "quad_error"):
        return getattr(row, col)
    return row.sweep[col] if col in row.sweep else row.extra.get(col, "")


def write_rows(rows, path, cfg):
    """Write rows as a deterministic CSV plus a .meta.json sidecar.

    The CSV carries only reproducible values; wall-clock times, the
    timestamp and the experiment `cfg` that made the rows live in the
    sidecar so re-runs with one seed are identical byte-for-byte.
    """
    header = _columns(rows)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(_cell(row, col)) for col in header])
    meta = {
        "created_unix": time.time(),
        "wall_ms": [row.wall_ms for row in rows],
        "window": [row.window for row in rows],
        "bias_bound": [row.bias_bound for row in rows],
        "bias_to_ci": [row.bias_to_ci for row in rows],
        "rows": len(rows),
        "metric": cfg.metric,
        "method": cfg.method,
        "params": asdict(cfg.params),
    }
    if cfg.mc is not None:
        meta["mc"] = {"trials": cfg.mc.trials, "seed": cfg.mc.seed}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_plotdata(rows, layout, path):
    """Reshape result rows into a plot-ready long-format CSV.

    layout = {"x": column, "series_by": column or None}.  When both
    analytic and mc rows exist for one (x, series) key an analytic-minus-mc
    residual column is filled on the mc rows.
    """
    keys = [layout["x"]] + ([layout["series_by"]]
                            if layout.get("series_by") else [])
    if rows:   # an empty table cannot be column-checked; emit the header
        known = _columns(rows)
        for col in keys:
            if col not in known:
                raise ConfigError(f"unknown column {col!r}; have {sorted(known)}")
    analytic = {tuple(_cell(row, col) for col in keys): row.value
                for row in rows if row.method == "analytic"}

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys + ["method", "value", "uncertainty", "residual"])
        for row in rows:
            key = tuple(_cell(row, col) for col in keys)
            residual = ""
            if row.method == "mc" and key in analytic:
                residual = _fmt(analytic[key] - row.value)
            writer.writerow([_fmt(k) for k in key] + [
                row.method, _fmt(row.value), _fmt(row.uncertainty), residual])


# Figure-reproduction presets.  Densities: coverage results are density-free
# (see coverage module), so the coverage presets pin the documented default
# lam = 1e-4 /m^2.  The radar-rate presets use the dimensionless density
# regime (lam ~ 0.1 per unit area) where the factorized rate integral is a
# faithful description; the chosen density is recorded in the sidecar.
_PRESET_TRIALS = "200000"
FIGURE_PRESETS = {
    4: {"metric": "coverage", "method": "both", "t_db": DEFAULT_T_DB,
        "sweep.param": "l", "sweep.values": "1,2,3,4,5"},
    5: {"metric": "coverage", "method": "both", "t_db": DEFAULT_T_DB,
        "sweep.param": "mt", "sweep.values": "4,6,8,10", "params.l": "1"},
    6: {"metric": "coverage", "method": "both", "t_db": DEFAULT_T_DB,
        "sweep.param": "mt", "sweep.values": "4,6,8,10", "params.l": "2"},
    7: {"metric": "coverage", "method": "mc", "t_db": DEFAULT_T_DB,
        "sweep.param": "lambda", "sweep.values": "1e-5,1e-4,1e-3",
        "params.l": "1"},
    8: {"metric": "radar-rate", "method": "both",
        "sweep.param": "n", "sweep.values": "1,2,3,4,5",
        "params.lambda": "0.1"},
    9: {"metric": "radar-rate", "method": "both",
        "sweep.param": "lambda", "sweep.values": "1e-4,1e-3,1e-2,1e-1",
        "params.n": "3"},
}


def figure_preset(number):
    """Raw config entries and plot layout for one reproduction figure.

    Coverage is plotted against t_db with one series per swept value; a
    radar rate against the swept parameter itself.
    """
    if number not in FIGURE_PRESETS:
        raise ConfigError(f"no preset for figure {number}; have 4..9")
    preset = {"mc.trials": _PRESET_TRIALS, **FIGURE_PRESETS[number]}
    entries = {key: (val, f"preset-fig{number}") for key, val in preset.items()}
    swept = SWEEPABLE[preset["sweep.param"]]
    if preset["metric"] == "coverage":
        return entries, {"x": "t_db", "series_by": swept}
    return entries, {"x": swept, "series_by": None}
