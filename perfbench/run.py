"""isacnet benchmark: three closed-loop workloads, time-at-accuracy metrics,
and a separate traced run for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # all three workloads

Each workload repeats rounds of operations (see workloads.py) until
--seconds have passed; a round is never cut short.  With --trace 0 the
library runs untouched and the end-to-end metrics are reported.  With
--trace 1 each operation of the first round runs once untouched and then
once under the wrappers of tracing.py, and the per-layer metrics plus the
tracing overhead are reported; the traced run's work does not depend on
timing, so its counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the full report:
every metric with its unit and sample count, the machine, the run and the
checks.  The report is also written to perfbench/out/.  The exit code is 0
when every check passed, 1 when one failed and 2 when the checkout has no
isacnet sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analytic", "simulate", "figure")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

# end-to-end metrics: name -> (unit, workloads that report it)
E2E = {
    "setup_s": ("s", ("analytic", "simulate", "figure")),
    "wall_s": ("s", ("analytic", "simulate", "figure")),
    "cov_point_s": ("s", ("analytic", "figure")),
    "cov_L3_point_s": ("s", ("analytic",)),
    "rate_coop_s": ("s", ("analytic", "figure")),
    "rate_single_s": ("s", ("analytic", "figure")),
    "mc_cov_time_to_ci_s": ("s", ("simulate", "figure")),
    "mc_rate_time_to_ci_s": ("s", ("simulate", "figure")),
    "peak_rss_mb": ("MB", ("analytic", "simulate", "figure")),
    "failed_ratio": ("ratio", ("analytic", "simulate", "figure")),
}
# the subset that BENCHMARK.json gates: present and nonzero on every workload
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny rounds and one set-up repeat, for the smoke test")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's outputs as the default-seed reference")
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    return args


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_facts(root, seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env_keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in env_keys},
        "git_commit": _git_commit(root),
        "seed": seed,
    }


_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import isacnet
t1 = time.perf_counter()
from isacnet.approx import fitted_alpha
for shape in {shapes!r}:
    fitted_alpha(shape)
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "fit_s": t2 - t1, "file": isacnet.__file__}}))
"""


def measure_setup(shapes, repeats, env, root, src):
    """Fresh interpreters: import isacnet, then fit alpha for `shapes`."""
    runs = []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", _SETUP_CODE.format(shapes=tuple(shapes))],
                             env=env, cwd=root, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {res.stderr[-500:]}")
        rec = json.loads(res.stdout.strip().splitlines()[-1])
        if not os.path.abspath(rec["file"]).startswith(src + os.sep):
            raise RuntimeError(f"set-up imported isacnet from {rec['file']}, not {src}")
        runs.append(rec)
    med = {k: statistics.median(r[k] for r in runs) for k in ("import_s", "fit_s")}
    totals = [r["import_s"] + r["fit_s"] for r in runs]
    return {"setup_s": statistics.median(totals), "n": repeats, **med,
            "samples_s": totals}


def _metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def _median_metric(samples, unit):
    return _metric(statistics.median(samples), unit, len(samples)) if samples else None


def op_samples(workload, records):
    """Per-operation samples of the per-kind end-to-end metrics."""
    from tracing import COV_TARGET_CI, RATE_TARGET_REL_CI
    s = {k: [] for k in ("cov_point_s", "cov_L3_point_s", "rate_coop_s",
                         "rate_single_s", "mc_cov_time_to_ci_s",
                         "mc_rate_time_to_ci_s")}
    for rec in records:
        op, out, secs = rec["op"], rec["out"], rec["seconds"]
        if out is None:
            continue
        kind = op["kind"]
        if kind == "cov_L2":
            s["cov_point_s"].append(secs / len(op["t_db"]))
        elif kind == "cov_L3":
            s["cov_L3_point_s"].append(secs / len(op["t_db"]))
        elif kind == "rate_coop":
            s["rate_coop_s"].append(secs)
        elif kind == "rate_single":
            s["rate_single_s"].append(secs)
        elif kind == "mc_cov":
            s["mc_cov_time_to_ci_s"].append(secs * (max(out["ci"]) / COV_TARGET_CI) ** 2)
        elif kind == "mc_rate":
            target = RATE_TARGET_REL_CI * out["value"]
            s["mc_rate_time_to_ci_s"].append(secs * (out["ci"] / target) ** 2)
        elif kind == "cli":
            _cli_samples(op, out["rows"], s)
    return s


def _cli_samples(op, rows, s):
    """Per-point timings of a figure invocation, from its sidecar's wall_ms.

    The harness stores, per row, the wall time of the call that produced it
    divided by the number of thresholds in that call.
    """
    from tracing import COV_TARGET_CI, RATE_TARGET_REL_CI
    expect = op["expect"]
    key = expect["sweep"]
    for v in expect["values"]:
        ana = [r for r in rows if r[key] == v and r["method"] == "analytic"]
        mc = [r for r in rows if r[key] == v and r["method"] == "mc"]
        if expect["metric"] == "coverage":
            if expect["L"] == 2 and ana:
                s["cov_point_s"].append(ana[0]["wall_ms"] / 1e3)
            if mc:
                secs = mc[0]["wall_ms"] / 1e3 * len(mc)
                ci = max(r["uncertainty"] for r in mc)
                s["mc_cov_time_to_ci_s"].append(secs * (ci / COV_TARGET_CI) ** 2)
        else:
            if ana:
                s["rate_single_s" if v == 1 else "rate_coop_s"].append(
                    ana[0]["wall_ms"] / 1e3)
            if mc:
                target = RATE_TARGET_REL_CI * mc[0]["value"]
                s["mc_rate_time_to_ci_s"].append(
                    mc[0]["wall_ms"] / 1e3 * (mc[0]["uncertainty"] / target) ** 2)


class Runner:
    """Runs one workload: set-up, rounds, checks and metrics."""

    def __init__(self, workload, args, root, src, env):
        self.workload = workload
        self.args = args
        self.root = root
        self.src = src
        self.env = env
        self.tmp = os.path.join(HERE, "out", f"tmp-{workload}-{os.getpid()}")
        self.ctx = {"tmp": self.tmp, "env": env, "root": root,
                    "launcher": os.path.join(HERE, "launcher.py"),
                    "timeout": CHILD_TIMEOUT_S, "op_id": 0}

    def _run_op(self, op, op_id, traced, tag):
        import workloads
        if op["kind"] == "cli":
            self.ctx["op_id"] = op_id
            return workloads.run_cli(op, self.ctx, traced, tag)
        t0 = time.perf_counter()
        out = workloads.run_inprocess(op)
        return out, time.perf_counter() - t0

    def _run_one(self, op, op_id, traced, tag, k):
        """Run one operation; an operation that raises counts as failed."""
        try:
            out, secs = self._run_op(op, op_id, traced, tag)
            err = None
        except Exception as exc:
            out, secs, err = None, float("nan"), f"{type(exc).__name__}: {exc}"
        return {"op": op, "out": out, "seconds": secs, "error": err,
                "round": tag, "k": k}

    def run(self):
        import workloads
        from tracing import Tracer
        args = self.args
        os.makedirs(self.tmp, exist_ok=True)
        try:
            setup = measure_setup(workloads.SETUP_SHAPES[self.workload],
                                  1 if args.smoke else SETUP_REPEATS,
                                  self.env, self.root, self.src)
            if self.workload != "figure":
                # let the lru-cached alpha fits finish before timing; users
                # pay them once per process, and setup_s reports them
                from isacnet.approx import fitted_alpha
                for shape in workloads.SETUP_SHAPES[self.workload]:
                    fitted_alpha(shape)
            rounds = []          # (wall seconds, records)
            trace = None
            if args.trace:
                # each operation of the first round runs untouched and then
                # traced, so a drift in machine speed hits both alike
                ops = workloads.make_round(self.workload, args.seed, 0, args.smoke)
                tracer = Tracer()
                plain, traced = [], []
                for k, op in enumerate(ops):
                    plain.append(self._run_one(op, k, False, "r0", k))
                    tracer.op_id = k
                    if self.workload != "figure":
                        tracer.install()
                    try:
                        traced.append(self._run_one(op, k, True, "r0-traced", k))
                    finally:
                        tracer.uninstall()
                rounds.append((_wall(plain), plain))
                trace = (tracer, traced, _wall(traced))
            else:
                start = time.perf_counter()
                index = 0
                while not rounds or time.perf_counter() - start < args.seconds:
                    ops = workloads.make_round(self.workload, args.seed, index,
                                               args.smoke)
                    recs = [self._run_one(op, index * len(ops) + k, False,
                                          f"r{index}", k)
                            for k, op in enumerate(ops)]
                    rounds.append((_wall(recs), recs))
                    index += 1
            peak = self._peak_rss(rounds)
            return self._finish(setup, rounds, trace, peak)
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _peak_rss(self, rounds):
        """The peak resident set of the processes that ran the operations.

        In-process workloads read the high-water mark of this process, which
        runs that one workload only.
        """
        if self.workload == "figure":
            rss = [r["out"]["rss_mb"] for _, recs in rounds for r in recs
                   if r["out"] is not None]
            return max(rss) if rss else float("nan")
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _finish(self, setup, rounds, trace, peak):
        import checks
        import workloads
        args = self.args
        records = [r for _, recs in rounds for r in recs]
        ref = None
        if args.seed == DEFAULT_SEED and not args.smoke and not args.record_reference:
            with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
                ref = json.load(fh).get(self.workload, {})
        failures = []
        failed_ops = 0
        for rec in records:
            bad = [rec["error"]] if rec["error"] else []
            if not bad:
                try:
                    bad = checks.check_op(rec["op"], rec["out"])
                    ref_ops = ref.get(rec["round"]) if ref else None
                    if ref_ops is not None and ref_ops[rec["k"]] is not None:
                        bad += checks.check_reference(rec["op"], rec["out"],
                                                      ref_ops[rec["k"]])
                except Exception as exc:
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                failed_ops += 1
                failures += bad
        attempted = len(records)
        if trace is not None:
            tracer, traced, _ = trace
            attempted += len(traced)
            for plain, tr in zip(records, traced):
                if tr["error"] or not _same_outputs(plain["out"], tr["out"]):
                    failed_ops += 1
                    failures.append(f"traced {tr['op']['kind']} differs from untraced: "
                                    f"{tr['error'] or 'outputs differ'}")

        walls = [w for w, _ in rounds]
        samples = op_samples(self.workload, records)
        metrics = {
            "setup_s": _metric(setup["setup_s"], "s", setup["n"]),
            "wall_s": _median_metric(walls, "s"),
            "peak_rss_mb": _metric(peak, "MB", 1),
            "failed_ratio": _metric(failed_ops / attempted, "ratio", attempted),
        }
        for name, values in samples.items():
            if self.workload in E2E[name][1]:
                metrics[name] = _median_metric(values, "s")
        metrics = {k: metrics.get(k) for k in E2E if self.workload in E2E[k][1]}
        missing = [k for k, v in metrics.items() if v is None]
        if missing:
            failures.append(f"metrics without samples: {missing}")

        result = {"workload": self.workload, "why": workloads.WHY[self.workload],
                  "rounds": len(rounds), "attempted": attempted,
                  "failed": failed_ops, "failures": failures,
                  "metrics": metrics, "setup": setup,
                  "ops": [{k: r[k] for k in ("op", "seconds", "error", "round")}
                          for r in records]}
        if trace is not None:
            result["layers"] = self._layers(trace, walls[0], setup)
        if args.record_reference:
            result["reference"] = self._reference(records)
        return result

    def _layers(self, trace, plain_wall, setup):
        from tracing import layer_metrics, merge_summaries
        tracer, traced, traced_wall = trace
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        stem = os.path.join(HERE, "out", f"spans-{self.workload}-seed{self.args.seed}")
        if self.workload == "figure":
            parts = [r["out"]["trace"] for r in traced if r["out"] is not None]
            summary = merge_summaries(parts)
            run_s = sum(p["s"].get("harness.run_experiment", 0.0) for p in parts)
            overhead = traced_wall - run_s
            for k, r in enumerate(traced):
                if r["out"] is not None:
                    shutil.copy(r["out"]["spans"], f"{stem}-op{k}.npz")
        else:
            summary = merge_summaries([tracer.summary()])
            overhead = 0.0
            tracer.save(stem + ".npz")
        return layer_metrics(summary, setup, traced_wall / plain_wall, overhead)

    def _reference(self, records):
        import checks
        ref = {}
        for rec in records:
            ref.setdefault(rec["round"], []).append(
                None if rec["out"] is None
                else checks.reference_values(rec["op"], rec["out"]))
        return ref


def _wall(records):
    """A round's wall time: the operations run back to back, so their sum.

    On figure these are the invocations' wall times as the parent sees them.
    """
    return sum(r["seconds"] for r in records)


def _same_outputs(a, b):
    """Whether a traced operation returned exactly what the untraced one did."""
    if a is None or b is None:
        return False

    def results(o):
        out = {k: o[k] for k in ("values", "value", "uncertainty", "ci", "bias") if k in o}
        if "rows" in o:   # CLI rows, without the wall time the sidecar adds
            out["rows"] = [{k: v for k, v in r.items() if k != "wall_ms"} for r in o["rows"]]
        return out
    return results(a) == results(b)


def _run_in_child(workload, args, root):
    """Run one workload in a process of its own and return its result.

    Each in-process workload then reports the peak resident set of its own
    process, and not one left over from a workload that ran before it.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    argv += ["--smoke"] * args.smoke + ["--record-reference"] * args.record_reference
    res = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True)
    if res.returncode not in (0, 1):    # 1 is a failed check, reported below
        raise SystemExit(f"{workload} exited {res.returncode}: {res.stderr[-2000:]}")
    path = os.path.join(HERE, "out", f"{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, encoding="utf-8") as fh:
        (result,) = json.load(fh)["workloads"]
    result.pop("reference", None)
    return result


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "isacnet", "__init__.py")):
        print(f"error: no isacnet sources under {src}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        print("error: the reference is recorded at the default seed", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    import isacnet
    if not os.path.abspath(isacnet.__file__).startswith(src + os.sep):
        print(f"error: isacnet imported from {isacnet.__file__}, not {src}",
              file=sys.stderr)
        return 2

    facts = machine_facts(root, args.seed)
    if args.workload == "all":
        results = [_run_in_child(w, args, root) for w in WORKLOADS]
    else:
        results = [Runner(args.workload, args, root, src, env).run()]

    report = {"machine": facts, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "workloads": results}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.record_reference and args.workload != "all":   # else each child did
        path = os.path.join(HERE, "reference.json")
        stored = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
        for r in results:
            stored[r["workload"]] = r.pop("reference")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")

    for r in results:
        for f in r["failures"]:
            print(f"FAILED [{r['workload']}] {f}", file=sys.stderr)
        shown = r["layers"] if args.trace else r["metrics"]
        print(f"[{r['workload']}] rounds={r['rounds']} attempted={r['attempted']} "
              f"failed={r['failed']}  ({r['why']})")
        for k, v in shown.items():
            if isinstance(v, dict):
                print(f"  {k:42s} {v['value']:.6g} {v['unit']} (n={v['n']})")
            else:
                print(f"  {k:42s} {v:.6g}")
    print(json.dumps({"report": {k: report[k] for k in ("machine", "seconds", "trace", "smoke")}
                      | {"workloads": [{k: r[k] for k in ("workload", "why", "rounds",
                                                          "attempted", "failed",
                                                          "metrics", "failures")}
                                       | ({"layers": r["layers"]} if "layers" in r else {})
                                       for r in results]}}))

    from tracing import GATED_LAYERS, LAYER_METRICS
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    if args.trace:
        metrics = {(f"{r['workload']}." if len(results) > 1 else "") + k:
                   {"value": r["layers"][k], "unit": LAYER_METRICS[k]}
                   for r in results for k in GATED_LAYERS}
    else:
        metrics = {(f"{r['workload']}." if len(results) > 1 else "") + k:
                   {"value": r["metrics"][k]["value"], "unit": r["metrics"][k]["unit"]}
                   for r in results for k in GATED}
    correct = failed == 0 and all(not r["failures"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
