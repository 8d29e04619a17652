"""Correctness checks on the outputs of benchmark operations.

Seed-independent checks run on every seed:

* coverage lies in [0, 1] and does not increase with the threshold;
* the coverage integral agrees with the closed form at L=1, beta=4;
* the simulator agrees with the analytic expressions at L=1 (within the
  0.02 tolerance of the acceptance gate's C1, plus 3 CI) and with the exact
  single-station rate at N=1 (within 3 CI);
* the truncation-bias bound is at most a tenth of the run's own 95%
  half-width, the rule the library's tests hold the simulator to.  The bound
  is not held to a tenth of the target half-width (0.002 for coverage): at
  the library's default window, beta=3.5 and L=3 it sits at that limit and
  crosses it on some seeds.  The traced run reports that ratio as
  montecarlo.bias_to_ci instead.

At the default seed the outputs are also compared with the reference values
recorded in reference.json: analytic values to 1e-6 relative, L>=3 values
within their stated uncertainty, simulated values within 3 CI.  The
cooperative rate at N>=2 is never compared with the simulator: the
factorized expression is known to be far off at sparse densities.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import math

import numpy as np

from isacnet import coverage_closed_form, coverage_curve, radar_rate_single

from workloads import GRID_DB, lin, params_of

ANALYTIC_RTOL = 1e-6
L1_GATE_TOL = 0.02       # the acceptance gate's C1 tolerance
N_CI = 3.0


def _coverage_shape(values, label):
    v = np.asarray(values, dtype=float)
    bad = []
    if not np.all(np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
        bad.append(f"{label}: coverage outside [0, 1]: {v.tolist()}")
    if np.any(np.diff(v) > 1e-12):
        bad.append(f"{label}: coverage increases with the threshold: {v.tolist()}")
    return bad


def _positive(value, label):
    if not (math.isfinite(value) and value > 0.0):
        return [f"{label}: rate {value!r} is not a positive number"]
    return []


def _analytic_l1(point, t_db):
    """The analytic L=1 coverage: closed form at beta=4, integral otherwise."""
    params = params_of(point, L=1)
    if point["beta"] == 4.0:
        return np.array([coverage_closed_form(params, t) for t in lin(t_db)])
    return coverage_curve(params, lin(t_db), method="integral").values


def check_op(op, out):
    """Seed-independent checks of one operation's outputs."""
    kind = op["kind"]
    label = f"{kind} {op.get('name', '')}".strip()
    if kind in ("cov_L2", "cov_L3"):
        bad = _coverage_shape(out["values"], label)
        if kind == "cov_L2":
            # the integral against the closed form, at L=1 and beta=4
            p1 = params_of(dict(op["point"], beta=4.0), L=1)
            integ = coverage_curve(p1, lin(op["t_db"]), method="integral").values
            closed = [coverage_closed_form(p1, t) for t in lin(op["t_db"])]
            gap = float(np.max(np.abs(integ - closed)))
            if gap > ANALYTIC_RTOL:
                bad.append(f"{label}: L=1 integral vs closed form differ by {gap:.3g}")
        return bad
    if kind in ("rate_coop", "rate_single"):
        return _positive(out["value"], label)
    if kind == "mc_cov":
        bad = []
        if len(out["values"]) != len(GRID_DB):
            bad.append(f"{label}: {len(out['values'])} thresholds, expected {len(GRID_DB)}")
        bad += _coverage_shape(out["values"], label)
        over = np.asarray(out["bias"]) > 0.1 * np.asarray(out["ci"])
        if np.any(over):
            i = int(np.argmax(over))
            bad.append(f"{label}: bias bound {out['bias'][i]:.3g} exceeds "
                       f"CI/10 = {0.1 * out['ci'][i]:.3g}")
        if op["L"] == 1:
            exact = _analytic_l1(op["point"], op["t_db"])
            tol = L1_GATE_TOL + N_CI * np.asarray(out["ci"])
            if np.any(np.abs(exact - np.asarray(out["values"])) > tol):
                bad.append(f"{label}: L=1 simulation vs analytic beyond 0.02 + 3 CI")
        return bad
    if kind == "mc_rate":
        bad = _positive(out["value"], label)
        if out["bias"] > 0.1 * out["ci"]:
            bad.append(f"{label}: bias bound {out['bias']:.3g} exceeds "
                       f"CI/10 = {0.1 * out['ci']:.3g}")
        if op["N"] == 1:
            exact = radar_rate_single(params_of(op["point"], N=1)).value
            if abs(exact - out["value"]) > N_CI * out["ci"]:
                bad.append(f"{label}: N=1 simulation {out['value']:.5g} vs exact "
                           f"{exact:.5g} beyond 3 CI ({out['ci']:.3g})")
        return bad
    if kind == "cli":
        return _check_cli(op, out["rows"], label)
    return [f"{label}: unknown operation kind"]


def _check_cli(op, rows, label):
    expect = op["expect"]
    n_t = len(expect.get("t_db", [None]))
    want = len(expect["values"]) * n_t * 2      # analytic and mc per point
    if len(rows) != want:
        return [f"{label}: {len(rows)} rows, expected {want}"]
    bad = []
    key = expect["sweep"]
    for v in expect["values"]:
        group = {m: [r for r in rows if r[key] == v and r["method"] == m]
                 for m in ("analytic", "mc")}
        if expect["metric"] == "coverage":
            for m, g in group.items():
                if [r["t_db"] for r in g] != expect["t_db"]:
                    bad.append(f"{label}: {key}={v} {m} thresholds differ from the grid")
                    continue
                bad += _coverage_shape([r["value"] for r in g], f"{label} {key}={v} {m}")
            if expect["L"] == 1 and not bad:
                ana = np.array([r["value"] for r in group["analytic"]])
                mc = np.array([r["value"] for r in group["mc"]])
                ci = np.array([r["uncertainty"] for r in group["mc"]])
                if np.any(np.abs(ana - mc) > L1_GATE_TOL + N_CI * ci):
                    bad.append(f"{label}: {key}={v} simulation vs closed form "
                               f"beyond 0.02 + 3 CI")
        else:
            for m, g in group.items():
                if len(g) != 1:
                    bad.append(f"{label}: {key}={v} {m}: {len(g)} rows")
                    continue
                bad += _positive(g[0]["value"], f"{label} {key}={v} {m}")
            if v == 1 and not bad:
                ana, mc = group["analytic"][0], group["mc"][0]
                if abs(ana["value"] - mc["value"]) > N_CI * mc["uncertainty"]:
                    bad.append(f"{label}: N=1 simulation vs exact beyond 3 CI")
    return bad


# ------------------------------------------------------------ reference

def reference_values(op, out):
    """The numbers of an operation that the reference records."""
    if op["kind"] == "cli":
        return {"value": [r["value"] for r in out["rows"]],
                "uncertainty": [r["uncertainty"] for r in out["rows"]],
                "method": [r["method"] for r in out["rows"]]}
    unc = out.get("ci", out.get("uncertainty"))
    if "values" in out:
        return {"value": list(out["values"]), "uncertainty": list(unc)}
    return {"value": [out["value"]], "uncertainty": [unc]}


def check_reference(op, out, ref):
    """Compare an operation's outputs with its recorded reference."""
    got = reference_values(op, out)
    label = f"{op['kind']} {op.get('name', '')}".strip()
    if len(got["value"]) != len(ref["value"]):
        return [f"{label}: {len(got['value'])} values, reference has {len(ref['value'])}"]
    v = np.asarray(got["value"])
    r = np.asarray(ref["value"])
    if op["kind"] in ("mc_cov", "mc_rate"):
        tol = N_CI * np.asarray(ref["uncertainty"])
    elif op["kind"] == "cov_L3":
        tol = np.asarray(ref["uncertainty"])
    elif op["kind"] == "cli":
        mc = np.asarray(ref["method"]) == "mc"
        tol = np.where(mc, N_CI * np.asarray(ref["uncertainty"]),
                       ANALYTIC_RTOL * np.abs(r))
    else:
        tol = ANALYTIC_RTOL * np.abs(r)
    off = np.abs(v - r) > tol
    if np.any(off):
        i = int(np.argmax(off))
        return [f"{label}: value {float(v[i])!r} differs from reference "
                f"{float(r[i])!r} beyond {tol[i]:.3g}"]
    return []
