"""Timing and counting wrappers around the public functions of isacnet.

`Tracer.install()` replaces each function listed in TARGETS with a wrapper
that records a span (name, start, end, parent span, operation id) and the
counts named below.  The wrapper is bound wherever an isacnet module holds
the original function, because `coverage`, `radar`, `approx`, `harness` and
`cli` import what they call by name.  `uninstall()` restores the originals,
so the end-to-end runs execute the library untouched.

Spans are kept in memory as flat arrays and written out once, by `save()`.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs that get a span each call
TARGETS = (
    ("specfun", "beta_incomplete"),
    ("specfun", "gamma_reg_lower"),
    ("specfun", "integrate_finite"),
    ("specfun", "integrate_semi_infinite"),
    ("approx", "fit_alpha"),
    ("coverage", "coverage_closed_form"),
    ("coverage", "coverage_integral"),
    ("coverage", "coverage_curve"),
    ("radar", "echo_power_laplace"),
    ("radar", "interference_laplace_factor"),
    ("radar", "hole_exclusion_integral"),
    ("radar", "radar_rate"),
    ("radar", "radar_rate_single"),
    ("montecarlo", "mc_coverage"),
    ("montecarlo", "mc_radar_rate"),
    ("config", "build_experiment"),
    ("harness", "run_experiment"),
    ("harness", "write_rows"),
)

# target CI half-widths that define "time to accuracy" for the simulator
COV_TARGET_CI = 0.002
RATE_TARGET_REL_CI = 0.02

# float arrays of length ~kmax that a simulator batch holds per trial:
# coverage draws u and the interferer gains; the radar batch adds the
# relative angle (reused for d^2) and sqrt(u)
_ARRAYS_PER_TRIAL = {"mc_coverage": 2, "mc_radar_rate": 4}

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    "setup.import_s": "s",
    "approx.fit_alpha.s": "s",
    "specfun.beta_incomplete.calls": "count",
    "specfun.beta_incomplete.points": "count",
    "specfun.beta_incomplete.self_s": "s",
    "specfun.gamma_reg_lower.calls": "count",
    "specfun.gamma_reg_lower.self_s": "s",
    "specfun.integrate_finite.calls": "count",
    "specfun.integrate_finite.evals": "count",
    "specfun.integrate_finite.self_s": "s",
    "specfun.integrate_semi_infinite.calls": "count",
    "specfun.integrate_semi_infinite.evals": "count",
    "specfun.integrate_semi_infinite.self_s": "s",
    "coverage.coverage_curve.calls": "count",
    "coverage.coverage_curve.s": "s",
    "coverage.coverage_integral.calls": "count",
    "coverage.coverage_integral.s": "s",
    "coverage.self_s": "s",
    "radar.echo_power_laplace.calls": "count",
    "radar.echo_power_laplace.s": "s",
    "radar.interference_laplace_factor.calls": "count",
    "radar.interference_laplace_factor.s": "s",
    "radar.hole_exclusion_integral.calls": "count",
    "radar.hole_exclusion_integral.points": "count",
    "radar.hole_exclusion_integral.s": "s",
    "radar.self_s": "s",
    "montecarlo.mc_coverage.calls": "count",
    "montecarlo.mc_coverage.trials_per_s": "1/s",
    "montecarlo.mc_radar_rate.calls": "count",
    "montecarlo.mc_radar_rate.trials_per_s": "1/s",
    "montecarlo.window_mean_count": "count",
    "montecarlo.computed_bytes_per_trial": "B",
    "montecarlo.mc_coverage.variance_per_trial": "1",
    "montecarlo.mc_radar_rate.variance_per_trial": "1",
    "montecarlo.bias_to_ci": "ratio",
    "config.build_experiment.s": "s",
    "harness.run_experiment.s": "s",
    "harness.write_rows.s": "s",
    "harness.write_rows.bytes": "B",
    "cli.process_overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# The per-layer metrics that BENCHMARK.json lists and the traced run's last
# line carries: the counts of every layer, which repeat exactly for a seed,
# and the times that are nonzero on every workload.  The layers' self and
# inclusive times are zero on the workloads that do not touch the layer,
# so they are reported in the full report only.
GATED_LAYERS = tuple(k for k, unit in LAYER_METRICS.items()
                     if unit not in ("s", "1/s")) + (
    "setup.import_s", "approx.fit_alpha.s")


def _isacnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "isacnet" or name.startswith("isacnet."))]


class Tracer:
    """Span recorder plus the counters that the per-layer metrics need."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = []
        self.counts = defaultdict(int)
        self.mc = []               # (function, trials, seconds, u_max, var, bias/target)
        self.write_bytes = 0
        self._patches = []

    # ------------------------------------------------------------ wrappers

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _counting(self, f, key):
        counts = self.counts

        def counted(x):
            counts[key] += int(np.size(x))
            return f(x)
        return counted

    def _wrap(self, module, fn_name, fn):
        name = f"{module}.{fn_name}"
        nid = self._name_id(name)
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if fn_name in ("integrate_finite", "integrate_semi_infinite"):
                args = (tracer._counting(args[0], name + ".evals"),) + args[1:]
            elif fn_name == "beta_incomplete":
                counts[name + ".points"] += int(np.broadcast(*args[:3]).size)
            elif fn_name == "hole_exclusion_integral":
                counts[name + ".points"] += int(np.size(args[0]))
            i = len(tracer.start)
            tracer.name_col.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer._stack.append(i)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            tracer.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.end[i] = t1
            if module == "montecarlo":
                tracer._record_mc(fn_name, result, t1 - t0)
            elif fn_name == "write_rows":
                path = args[1]
                tracer.write_bytes += os.path.getsize(path)
                tracer.write_bytes += os.path.getsize(path + ".meta.json")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_mc(self, fn_name, result, seconds):
        mc = result.mc_result
        trials = mc.trials_used
        if fn_name == "mc_coverage":
            ci = float(np.max(result.uncertainty))
            bias_ratio = float(np.max(result.bias_bounds)) / COV_TARGET_CI
        else:
            ci = float(result.uncertainty)
            bias_ratio = (mc.truncation_bias_bound
                          / (RATE_TARGET_REL_CI * max(result.value, 1e-300)))
        self.mc.append((fn_name, trials, seconds, mc.window_mean_count,
                        ci * ci * trials, bias_ratio))

    def install(self):
        """Wrap every target function wherever an isacnet module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import isacnet.cli  # noqa: F401  (load every module that imports by name)
        modules = _isacnet_modules()
        for module, fn_name in TARGETS:
            original = getattr(sys.modules[f"isacnet.{module}"], fn_name)
            wrapper = self._wrap(module, fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    # ------------------------------------------------------------ analysis

    def _columns(self):
        dur = np.asarray(self.end) - np.asarray(self.start)
        return np.asarray(self.name_col), np.asarray(self.parent), dur

    def self_times(self):
        """Per-span self time: duration minus the child spans' durations."""
        names, parent, dur = self._columns()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def summary(self):
        """Counts and times per function, and the simulator statistics."""
        names, parent, dur = self._columns()
        self_t = self.self_times()
        out = {"counts": dict(self.counts), "self_s": {}, "s": {},
               "mc": list(self.mc), "write_bytes": self.write_bytes}
        k = len(self.names)
        self_by = np.bincount(names, weights=self_t, minlength=k)
        # inclusive time counts only outermost spans of a function, so a
        # recursive or nested call is not counted twice
        same_as_parent = np.zeros(len(names), dtype=bool)
        has_parent = parent >= 0
        same_as_parent[has_parent] = names[parent[has_parent]] == names[has_parent]
        outer = ~same_as_parent
        incl_by = np.bincount(names[outer], weights=dur[outer], minlength=k)
        for i, name in enumerate(self.names):
            out["self_s"][name] = float(self_by[i])
            out["s"][name] = float(incl_by[i])
        return out

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.asarray(self.name_col), start=np.asarray(self.start),
            end=np.asarray(self.end), parent=np.asarray(self.parent),
            op=np.asarray(self.op))


def merge_summaries(summaries):
    """Add up the summaries of several traced processes."""
    total = {"counts": defaultdict(int), "self_s": defaultdict(float),
             "s": defaultdict(float), "mc": [], "write_bytes": 0}
    for s in summaries:
        for key in ("counts", "self_s", "s"):
            for name, v in s[key].items():
                total[key][name] += v
        total["mc"].extend(tuple(r) for r in s["mc"])
        total["write_bytes"] += s["write_bytes"]
    return total


def layer_metrics(summary, setup, overhead_ratio, process_overhead_s=0.0):
    """Map a (merged) summary onto the named per-layer metrics."""
    c = summary["counts"]
    self_s = summary["self_s"]
    incl = summary["s"]
    m = {
        "setup.import_s": setup["import_s"],
        "approx.fit_alpha.s": setup["fit_s"],
        "trace.overhead_ratio": overhead_ratio,
        "cli.process_overhead_s": process_overhead_s,
        "harness.write_rows.bytes": summary["write_bytes"],
    }
    for fn in ("beta_incomplete", "gamma_reg_lower", "integrate_finite",
               "integrate_semi_infinite"):
        m[f"specfun.{fn}.calls"] = c.get(f"specfun.{fn}.calls", 0)
        m[f"specfun.{fn}.self_s"] = self_s.get(f"specfun.{fn}", 0.0)
    m["specfun.beta_incomplete.points"] = c.get("specfun.beta_incomplete.points", 0)
    for fn in ("integrate_finite", "integrate_semi_infinite"):
        m[f"specfun.{fn}.evals"] = c.get(f"specfun.{fn}.evals", 0)
    for module, fns in (("coverage", ("coverage_curve", "coverage_integral")),
                        ("radar", ("echo_power_laplace",
                                   "interference_laplace_factor",
                                   "hole_exclusion_integral"))):
        for fn in fns:
            m[f"{module}.{fn}.calls"] = c.get(f"{module}.{fn}.calls", 0)
            m[f"{module}.{fn}.s"] = incl.get(f"{module}.{fn}", 0.0)
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items()
                                    if k.startswith(module + "."))
    m["radar.hole_exclusion_integral.points"] = c.get(
        "radar.hole_exclusion_integral.points", 0)
    for fn in ("build_experiment",):
        m[f"config.{fn}.s"] = incl.get(f"config.{fn}", 0.0)
    for fn in ("run_experiment", "write_rows"):
        m[f"harness.{fn}.s"] = incl.get(f"harness.{fn}", 0.0)

    mc = summary["mc"]
    for fn in ("mc_coverage", "mc_radar_rate"):
        rows = [r for r in mc if r[0] == fn]
        m[f"montecarlo.{fn}.calls"] = len(rows)
        secs = sum(r[2] for r in rows)
        m[f"montecarlo.{fn}.trials_per_s"] = (sum(r[1] for r in rows) / secs
                                              if secs > 0 else 0.0)
        m[f"montecarlo.{fn}.variance_per_trial"] = (
            float(np.median([r[4] for r in rows])) if rows else 0.0)
    if mc:
        trials = np.array([r[1] for r in mc], dtype=float)
        u_max = np.array([r[3] for r in mc])
        kmax = np.floor(u_max + 8.0 * np.sqrt(u_max) + 16.0)
        arrays = np.array([_ARRAYS_PER_TRIAL[r[0]] for r in mc])
        m["montecarlo.window_mean_count"] = float(np.average(u_max, weights=trials))
        m["montecarlo.computed_bytes_per_trial"] = float(
            np.average(kmax * arrays * 8.0, weights=trials))
        m["montecarlo.bias_to_ci"] = float(max(r[5] for r in mc))
    else:
        for key in ("window_mean_count", "computed_bytes_per_trial",
                    "bias_to_ci"):
            m[f"montecarlo.{key}"] = 0.0
    missing = set(LAYER_METRICS) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: m[k] for k in LAYER_METRICS}
