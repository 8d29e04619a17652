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
from dataclasses import dataclass, field

import numpy as np

from .approx import fit_alpha, verify_conjecture1
from .config import ConfigError, ExperimentConfig
from .coverage import coverage_curve
from .montecarlo import mc_coverage, mc_radar_rate
from .radar import radar_rate, radar_rate_single

__all__ = ["ResultRow", "run_experiment", "write_rows", "read_rows",
           "emit_plotdata", "figure_preset", "FIGURE_PRESETS"]


@dataclass(frozen=True)
class ResultRow:
    """One (sweep point x method) outcome."""

    sweep: dict                 # swept parameter values, may be empty
    value: float
    method: str
    uncertainty: float          # statistical half-width; 0 for deterministic
    quad_error: float           # quadrature error bound for analytic rows
    wall_ms: float = 0.0
    extra: dict = field(default_factory=dict)   # e.g. t_db for coverage rows


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _coverage_rows(cfg):
    rows = []
    t_lin = tuple(10.0 ** (t / 10.0) for t in cfg.t_db)
    for sweep, params in cfg.points:
        if cfg.method in ("analytic", "both"):
            t0 = time.perf_counter()
            closed = params.L == 1 and abs(params.beta - 4.0) < 1e-12
            curve = coverage_curve(params, t_lin, method="closed-form"
                                   if closed else "integral")
            ms = (time.perf_counter() - t0) * 1e3 / max(len(t_lin), 1)
            for tdb, v, u, qe in zip(cfg.t_db, curve.values.tolist(),
                                     curve.uncertainty.tolist(),
                                     curve.quad_error.tolist()):
                rows.append(ResultRow(sweep=sweep, value=v, method="analytic",
                                      uncertainty=u, quad_error=qe,
                                      wall_ms=ms, extra={"t_db": tdb}))
        if cfg.method in ("mc", "both"):
            t0 = time.perf_counter()
            curve = mc_coverage(params, np.asarray(t_lin), cfg.mc)
            ms = (time.perf_counter() - t0) * 1e3 / max(len(t_lin), 1)
            for tdb, v, u in zip(cfg.t_db, curve.values, curve.uncertainty):
                rows.append(ResultRow(sweep=sweep, value=float(v), method="mc",
                                      uncertainty=float(u), quad_error=0.0,
                                      wall_ms=ms, extra={"t_db": tdb}))
    return rows


def _radar_rows(cfg):
    rows = []
    for sweep, params in cfg.points:
        if cfg.method in ("analytic", "both"):
            t0 = time.perf_counter()
            est = (radar_rate_single(params) if params.N == 1
                   else radar_rate(params))
            ms = (time.perf_counter() - t0) * 1e3
            rows.append(ResultRow(sweep=sweep, value=est.value,
                                  method="analytic", uncertainty=0.0,
                                  quad_error=est.uncertainty, wall_ms=ms))
        if cfg.method in ("mc", "both"):
            t0 = time.perf_counter()
            est = mc_radar_rate(params, cfg.mc)
            ms = (time.perf_counter() - t0) * 1e3
            rows.append(ResultRow(sweep=sweep, value=est.value, method="mc",
                                  uncertainty=est.uncertainty, quad_error=0.0,
                                  wall_ms=ms))
    return rows


def run_experiment(cfg: ExperimentConfig):
    """Execute a validated experiment; returns rows and optionally writes CSV."""
    if cfg.metric == "coverage":
        rows = _coverage_rows(cfg)
    elif cfg.metric == "radar-rate":
        rows = _radar_rows(cfg)
    elif cfg.metric == "fit-alpha":
        t0 = time.perf_counter()
        fit = fit_alpha(cfg.fit_shape)
        ms = (time.perf_counter() - t0) * 1e3
        rows = [ResultRow(sweep={}, value=fit.alpha_star, method="analytic",
                          uncertainty=0.0, quad_error=0.0, wall_ms=ms,
                          extra={"shape_n": fit.shape_n,
                                 "ks_distance": fit.ks_distance,
                                 "grid_resolution": fit.grid_resolution})]
    elif cfg.metric == "conjecture1":
        t0 = time.perf_counter()
        ks = verify_conjecture1(cfg.params.L, cfg.conj_exponent,
                                cfg.params.lam, cfg.conj_shape,
                                cfg.mc.trials, cfg.mc.seed)
        ms = (time.perf_counter() - t0) * 1e3
        rows = [ResultRow(sweep={}, value=ks, method="mc", uncertainty=0.0,
                          quad_error=0.0, wall_ms=ms,
                          extra={"cluster_size": cfg.params.L,
                                 "shape": cfg.conj_shape,
                                 "exponent": cfg.conj_exponent,
                                 "trials": cfg.mc.trials})]
    else:
        raise ConfigError(f"unknown metric {cfg.metric!r}")

    if cfg.out:
        write_rows(rows, cfg.out, cfg)
    return rows


def _columns(rows):
    sweep_cols = []
    extra_cols = []
    for row in rows:
        for k in row.sweep:
            if k not in sweep_cols:
                sweep_cols.append(k)
        for k in row.extra:
            if k not in extra_cols:
                extra_cols.append(k)
    return sweep_cols, extra_cols


def write_rows(rows, path, cfg=None):
    """Write rows as a deterministic CSV plus a .meta.json sidecar.

    The CSV carries only reproducible values; wall-clock times and the
    timestamp live in the sidecar so re-runs with one seed are identical
    byte-for-byte.
    """
    sweep_cols, extra_cols = _columns(rows)
    header = sweep_cols + extra_cols + ["value", "method", "uncertainty",
                                        "quad_error"]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            rec = [_fmt(row.sweep.get(c, "")) for c in sweep_cols]
            rec += [_fmt(row.extra.get(c, "")) for c in extra_cols]
            rec += [_fmt(row.value), row.method, _fmt(row.uncertainty),
                    _fmt(row.quad_error)]
            writer.writerow(rec)
    meta = {
        "created_unix": time.time(),
        "wall_ms": [row.wall_ms for row in rows],
        "rows": len(rows),
    }
    if cfg is not None:
        meta["metric"] = cfg.metric
        meta["method"] = cfg.method
        meta["params"] = {
            "lam": cfg.params.lam, "mt": cfg.params.mt, "mr": cfg.params.mr,
            "beta": cfg.params.beta, "ps": cfg.params.ps, "pc": cfg.params.pc,
            "sigma2": cfg.params.sigma2, "L": cfg.params.L, "N": cfg.params.N,
        }
        if cfg.mc is not None:
            meta["mc"] = {"trials": cfg.mc.trials, "seed": cfg.mc.seed}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_rows(path):
    """Re-parse a result CSV into typed records (round-trip helper)."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        out = []
        for rec in reader:
            typed = {}
            for key, val in zip(header, rec):
                if key == "method":
                    typed[key] = val
                elif val == "":
                    typed[key] = None
                else:
                    typed[key] = float(val)
            out.append(typed)
    return out


def emit_plotdata(rows, layout, path):
    """Reshape result rows into a plot-ready long-format CSV.

    layout = {"x": column, "series_by": column or None, "y": "value"}.
    When both analytic and mc rows exist for one (x, series) key an
    analytic-minus-mc residual column is filled on the mc rows.
    """
    sweep_cols, extra_cols = _columns(rows)
    known = set(sweep_cols) | set(extra_cols) | {"value", "method",
                                                 "uncertainty", "quad_error"}
    x_col = layout["x"]
    series_col = layout.get("series_by")
    y_col = layout.get("y", "value")
    if rows:   # an empty table cannot be column-checked; emit the header
        for col in filter(None, (x_col, series_col, y_col)):
            if col not in known:
                raise ConfigError(f"unknown column {col!r}; have {sorted(known)}")

    def get(row, col):
        if col == "value":
            return row.value
        if col == "uncertainty":
            return row.uncertainty
        if col == "quad_error":
            return row.quad_error
        if col in row.sweep:
            return row.sweep[col]
        return row.extra.get(col, "")

    analytic = {}
    for row in rows:
        if row.method == "analytic":
            analytic[(get(row, x_col), get(row, series_col) if series_col else None)] = row.value

    header = [x_col] + ([series_col] if series_col else []) + \
        ["method", y_col, "uncertainty", "residual"]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            key = (get(row, x_col), get(row, series_col) if series_col else None)
            residual = ""
            if row.method == "mc" and key in analytic:
                residual = _fmt(analytic[key] - row.value)
            rec = [_fmt(get(row, x_col))]
            if series_col:
                rec.append(_fmt(get(row, series_col)))
            rec += [row.method, _fmt(get(row, y_col)), _fmt(row.uncertainty),
                    residual]
            writer.writerow(rec)


# Figure-reproduction presets.  Densities: coverage results are density-free
# (see coverage module), so the coverage presets pin the documented default
# lam = 1e-4 /m^2.  The radar-rate presets use the dimensionless density
# regime (lam ~ 0.1 per unit area) where the factorized rate integral is a
# faithful description; the chosen density is recorded in the sidecar.
_PRESET_TRIALS = "200000"
FIGURE_PRESETS = {
    4: {"metric": "coverage", "method": "both", "t_db": "-10:20:2",
        "sweep.param": "l", "sweep.values": "1,2,3,4,5"},
    5: {"metric": "coverage", "method": "both", "t_db": "-10:20:2",
        "sweep.param": "mt", "sweep.values": "4,6,8,10", "params.l": "1"},
    6: {"metric": "coverage", "method": "both", "t_db": "-10:20:2",
        "sweep.param": "mt", "sweep.values": "4,6,8,10", "params.l": "2"},
    7: {"metric": "coverage", "method": "mc", "t_db": "-10:20:2",
        "sweep.param": "lambda", "sweep.values": "1e-5,1e-4,1e-3",
        "params.l": "1"},
    8: {"metric": "radar-rate", "method": "both",
        "sweep.param": "n", "sweep.values": "1,2,3,4,5",
        "params.lambda": "0.1"},
    9: {"metric": "radar-rate", "method": "both",
        "sweep.param": "lambda", "sweep.values": "1e-4,1e-3,1e-2,1e-1",
        "params.n": "3"},
}

_FIG_LAYOUT = {
    4: {"x": "t_db", "series_by": "L"},
    5: {"x": "t_db", "series_by": "mt"},
    6: {"x": "t_db", "series_by": "mt"},
    7: {"x": "t_db", "series_by": "lam"},
    8: {"x": "N", "series_by": None},
    9: {"x": "lam", "series_by": None},
}


def figure_preset(number):
    """Raw config entries and plot layout for one reproduction figure."""
    if number not in FIGURE_PRESETS:
        raise ConfigError(f"no preset for figure {number}; have 4..9")
    preset = {"mc.trials": _PRESET_TRIALS, **FIGURE_PRESETS[number]}
    entries = {key: (val, f"preset-fig{number}") for key, val in preset.items()}
    return entries, _FIG_LAYOUT[number]
