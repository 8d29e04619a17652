"""The three benchmark workloads: how a seed becomes operations, and how an
operation is run.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations come in rounds whose kinds
and counts are fixed per workload, so every seed has the same structure; the
seed (with the round index) only draws the operating points, the thresholds
and the simulator seeds.  The library receives only those generated values.

Why each workload is here:

* analytic - all of its time is in specfun/coverage/radar and none in the
  simulator, so quadrature, kernel and vectorization work shows here and a
  simulator change must show no change.
* simulate - all of its time is in the simulator's RNG and array passes and
  none in quadrature, so window sizing and variance reduction show here.  It
  is also the plain single-process baseline (workers=1).
* figure - what users run: `python -m isacnet.cli` invocations that mirror
  the paper's figures.  Each pays interpreter start, import, the alpha fit,
  config, harness and CSV writing, and runs the simulator through the
  2-worker pool, so a gain that moves cost into set-up or the pool shows.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

import isacnet
from isacnet import McConfig, SystemParams

WHY = {
    "analytic": "quadrature only: coverage integrals at L=2 and L=3 and the "
                "radar-rate integrals; no simulator work",
    "simulate": "simulator only: mc_coverage at L=1..3 on 16 thresholds and "
                "mc_radar_rate at N=1..4, workers=1; no quadrature",
    "figure": "the CLI as users run it: three figure-style invocations with "
              "2 workers, paying process set-up, config, harness and CSV",
}

# the paper's threshold grid, -10..20 dB in 2 dB steps; the grid is written
# out here rather than parsed so that the CLI's grid parser cannot change it
GRID_DB = tuple(float(t) for t in range(-10, 21, 2))
if len(GRID_DB) != 16:
    raise RuntimeError("threshold grid must have 16 points")
# four bands of four thresholds; the quadrature is slower in the middle of
# the grid than at its edges, so a round takes one point from every band
GRID_BANDS = tuple(GRID_DB[i:i + 4] for i in range(0, 16, 4))
MT_VALUES = (4, 6, 8, 10)
BETAS = (3.5, 4.0)

_KEYS = {"analytic": 11, "simulate": 12, "figure": 13}

# Alpha shapes fitted during set-up: the antenna counts a workload's
# operations use.  The simulator does not use the surrogate.
SETUP_SHAPES = {"analytic": tuple(mt - 1 for mt in MT_VALUES),
                "simulate": (),
                "figure": tuple(mt - 1 for mt in MT_VALUES)}


def _round_rng(workload, seed, index):
    return np.random.default_rng([_KEYS[workload], seed, index])


def _draw_point(rng):
    ps = float(rng.uniform(0.2, 0.8))
    return {"mt": int(rng.choice(MT_VALUES)),
            "ps": ps,
            "lam": float(10.0 ** rng.uniform(-4.0, -1.0)),
            "beta": float(rng.choice(BETAS))}


def _balanced_points(rng, k):
    """k operating points that together cover every level of each factor.

    Every parameter changes the quadrature's cost by 10-30%, so a round
    that drew them independently would cost a different amount on every
    seed.  Here the k points take distinct antenna counts with a fixed or
    nearly fixed sum, the path-loss exponents as evenly as k allows, and
    one draw from each of k strata of ps and of log10(lambda); the seed
    draws the values within the strata and how the levels are paired.
    """
    if k == 2:
        mts = (4, 10) if rng.uniform() < 0.5 else (6, 8)
    elif k == 3:
        mts = (4, 10, 6 if rng.uniform() < 0.5 else 8)
    else:
        mts = MT_VALUES
    mts = rng.permutation(mts)
    betas = list(rng.permutation(np.resize(BETAS, k)))
    ps_strata = rng.permutation(k)
    lam_strata = rng.permutation(k)
    points = []
    for i in range(k):
        ps = 0.2 + 0.6 * (ps_strata[i] + rng.uniform()) / k
        lam = 10.0 ** (-4.0 + 3.0 * (lam_strata[i] + rng.uniform()) / k)
        points.append({"mt": int(mts[i]), "ps": float(ps), "lam": float(lam),
                       "beta": float(betas[i])})
    return points


def params_of(point, L=1, N=1):
    return SystemParams(lam=point["lam"], mt=point["mt"], beta=point["beta"],
                        ps=point["ps"], pc=1.0 - point["ps"], L=L, N=N)


def _seed31(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def make_round(workload, seed, index, smoke=False):
    """The operations of one round, as plain JSON-able dicts."""
    rng = _round_rng(workload, seed, index)
    ops = []
    if workload == "analytic":
        # L=2: two curves of two thresholds; between them they hold one
        # threshold from every band, two antenna counts summing to 14 and
        # both path-loss exponents
        bands = [float(rng.choice(b)) for b in GRID_BANDS]
        lo, hi = rng.permutation(2), rng.permutation(2)
        points = _balanced_points(rng, 2)
        for c in range(1 if smoke else 2):
            t_db = sorted([bands[lo[c]], bands[2 + hi[c]]])
            ops.append({"kind": "cov_L2", "point": points[c],
                        "t_db": t_db[1:] if smoke else t_db})
        # L=3: one point per antenna count (cost and memory grow with mt),
        # one threshold from every band.  The mt=10 point takes the lowest
        # band, where the Beta kernel puts every sample in one branch and
        # the L=3 path peaks in memory, so every round reaches that peak.
        points = _balanced_points(rng, 4)
        others = iter(rng.permutation(3) + 1)
        for point in points[:1 if smoke else 4]:
            band = 0 if point["mt"] == max(MT_VALUES) else next(others)
            ops.append({"kind": "cov_L3", "point": point,
                        "t_db": [float(rng.choice(GRID_BANDS[band]))]})
        # cooperative rate at N=2,3,4, each at its own operating point
        for n, point in zip((2,) if smoke else (2, 3, 4), _balanced_points(rng, 3)):
            ops.append({"kind": "rate_coop", "point": point, "N": n})
        point = _draw_point(rng)
        for hole in (True, False):
            ops.append({"kind": "rate_single", "point": point, "hole": hole})
    elif workload == "simulate":
        # the cost of a trial hardly depends on the point, but its variance
        # does, so the points are balanced as in the analytic rounds
        cov_trials, rate_trials = (3000, 2000) if smoke else (30000, 15000)
        for L, point in zip((1, 2, 3), _balanced_points(rng, 3)):
            ops.append({"kind": "mc_cov", "point": point, "L": L,
                        "t_db": list(GRID_DB), "trials": cov_trials,
                        "seed": _seed31(rng)})
        for n, point in zip((1, 2, 3, 4), _balanced_points(rng, 4)):
            ops.append({"kind": "mc_rate", "point": point, "N": n,
                        "trials": rate_trials, "seed": _seed31(rng)})
    elif workload == "figure":
        trials = "2000" if smoke else "20000"
        common = ["--method", "both", "--trials", trials, "--workers", "2"]
        sweeps = (("4",), ("6",), ("1", "2")) if smoke else \
            (("4", "6", "8", "10"), ("6", "10"), ("1", "2", "3"))
        t_db_l2 = ("5",) if smoke else ("-5", "5", "15")
        specs = [
            ("cov_l1", ["coverage", "--l", "1",
                        "--sweep", "mt=" + ",".join(sweeps[0]),
                        "--t-db", "-10:20:2"],
             {"metric": "coverage", "L": 1, "sweep": "mt",
              "values": [int(v) for v in sweeps[0]], "t_db": list(GRID_DB)}),
            ("cov_l2", ["coverage", "--l", "2",
                        "--sweep", "mt=" + ",".join(sweeps[1]),
                        "--t-db", ",".join(t_db_l2)],
             {"metric": "coverage", "L": 2, "sweep": "mt",
              "values": [int(v) for v in sweeps[1]],
              "t_db": [float(t) for t in t_db_l2]}),
            ("rate", ["radar-rate", "--lambda", "0.1", "--mt", "10",
                      "--sweep", "n=" + ",".join(sweeps[2])],
             {"metric": "radar-rate", "sweep": "N",
              "values": [int(v) for v in sweeps[2]]}),
        ]
        # one ps from each third of [0.2, 0.8], in a seed-drawn order
        ps_strata = rng.permutation(3)
        for (name, argv, expect), stratum in zip(specs, ps_strata):
            ps = 0.2 + 0.2 * (stratum + rng.uniform())
            argv = argv + ["--ps", repr(float(ps)),
                           "--seed", str(_seed31(rng))] + common
            ops.append({"kind": "cli", "name": name, "argv": argv,
                        "expect": expect})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def lin(t_db):
    """Linear SIR thresholds from dB."""
    return 10.0 ** (np.asarray(t_db, dtype=float) / 10.0)


# ------------------------------------------------------------------ running

def run_inprocess(op):
    """Run one library operation; returns its outputs as plain numbers.

    Library functions are looked up on the package at call time, so that
    the tracer's wrappers, when installed, are the ones called.
    """
    kind = op["kind"]
    point = op["point"]
    if kind in ("cov_L2", "cov_L3"):
        L = 2 if kind == "cov_L2" else 3
        curve = isacnet.coverage_curve(params_of(point, L=L), lin(op["t_db"]),
                               method="integral")
        return {"values": curve.values.tolist(),
                "uncertainty": curve.uncertainty.tolist()}
    if kind == "rate_coop":
        est = isacnet.radar_rate(params_of(point, N=op["N"]))
        return {"value": est.value, "uncertainty": est.uncertainty}
    if kind == "rate_single":
        est = isacnet.radar_rate_single(params_of(point, N=1), include_hole=op["hole"])
        return {"value": est.value, "uncertainty": est.uncertainty}
    cfg = McConfig(trials=op["trials"], seed=op["seed"], workers=1)
    if kind == "mc_cov":
        curve = isacnet.mc_coverage(params_of(point, L=op["L"]), lin(op["t_db"]), cfg)
        return {"values": curve.values.tolist(),
                "ci": curve.uncertainty.tolist(),
                "bias": curve.bias_bounds.tolist(),
                "trials": curve.mc_result.trials_used}
    if kind == "mc_rate":
        est = isacnet.mc_radar_rate(params_of(point, N=op["N"]), cfg)
        return {"value": est.value, "ci": est.uncertainty,
                "bias": est.mc_result.truncation_bias_bound,
                "trials": est.mc_result.trials_used}
    raise ValueError(f"unknown operation kind {kind!r}")


def _proc_status_kb(pid, key):
    """A `VmXXX:` field of /proc/<pid>/status in kB, or 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _process_tree(pid):
    """pid and its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children", encoding="utf-8") as fh:
                    todo += [int(c) for c in fh.read().split()]
            except (OSError, ValueError):
                pass
    return tree


def run_child(argv, env, cwd, log_path, timeout, poll_s=0.02):
    """Run a child process; returns (exit code, wall seconds, peak RSS MB).

    The peak is that of the child and its pool workers together.  Every
    poll_s a thread sums the high-water resident sets (VmHWM) of the
    processes of the child's tree that are alive at that moment, and the
    peak is the largest such sum.  A high-water mark keeps its value until
    the process ends, so a poll need not fall on the instant of a process's
    peak.  Pages a worker shares with its parent after the fork count in
    each of them.  The result is at least the largest single process's
    peak, which wait4 reports.
    """
    peak_kb = [0]
    done = threading.Event()

    def sample(pid):
        while not done.is_set():
            peak_kb[0] = max(peak_kb[0], sum(_proc_status_kb(p, "VmHWM:")
                                             for p in _process_tree(pid)))
            done.wait(poll_s)

    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        sampler = threading.Thread(target=sample, args=(proc.pid,), daemon=True)
        sampler.start()
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            done.set()
        wall = time.perf_counter() - t0
        sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, max(peak_kb[0], usage.ru_maxrss) / 1024.0


def read_cli_output(csv_path):
    """Rows of a result CSV and the per-row wall_ms of its sidecar."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(csv_path + ".meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    out = []
    for row, ms in zip(rows, meta["wall_ms"]):
        rec = {"method": row["method"], "value": float(row["value"]),
               "uncertainty": float(row["uncertainty"]), "wall_ms": ms}
        for key in ("mt", "N", "t_db"):
            if row.get(key, "") != "":
                rec[key] = float(row[key])
        out.append(rec)
    if len(out) != len(rows):
        raise RuntimeError(f"{csv_path}: sidecar and CSV disagree on row count")
    return out


def run_cli(op, ctx, traced, tag):
    """Run one figure invocation as its own process.

    Untraced: `python -m isacnet.cli ARGS`.  Traced: the benchmark's
    launcher, which installs the wrappers and then calls the CLI's main.
    """
    out_dir = os.path.join(ctx["tmp"], tag)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, op["name"] + ".csv")
    argv = op["argv"] + ["--out", csv_path]
    if traced:
        summary = os.path.join(out_dir, op["name"] + ".trace.json")
        spans = os.path.join(out_dir, op["name"] + ".spans.npz")
        cmd = [sys.executable, ctx["launcher"], summary, spans,
               str(ctx["op_id"]), "--"] + argv
    else:
        cmd = [sys.executable, "-m", "isacnet.cli"] + argv
    code, wall, rss = run_child(cmd, ctx["env"], ctx["root"],
                                os.path.join(out_dir, op["name"] + ".log"),
                                ctx["timeout"])
    if code != 0:
        with open(os.path.join(out_dir, op["name"] + ".log"), encoding="utf-8") as fh:
            raise RuntimeError(f"{' '.join(op['argv'])} exited {code}: {fh.read()[-500:]}")
    out = {"rows": read_cli_output(csv_path), "rss_mb": rss}
    if traced:
        with open(summary, encoding="utf-8") as fh:
            out["trace"] = json.load(fh)
        out["spans"] = spans
    return out, wall
