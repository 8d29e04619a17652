"""Run the benchmark over several seeds and summarize the spread.

Run from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it runs `run.py --trace 0` once per seed and
`run.py --trace 1` once at the default seed, then records, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of the
median (statistics.quantiles with n=4), together with the machine facts,
the per-layer metrics and each workload's reason for being in the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({res.returncode}): {res.stderr[-2000:]}")
    report = json.loads(lines[-2])["report"]
    return report, json.loads(lines[-1]), elapsed


def _spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=os.path.join(HERE, "out", "baseline.json"))
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in ("analytic", "simulate", "figure"):
        samples, runs = {}, []
        for seed in out["seeds"]:
            report, last, elapsed = _run(workload, seed, seconds, 0)
            (wl,) = report["workloads"]
            out.setdefault("machine", report["machine"])
            runs.append({"seed": seed, "elapsed_s": elapsed, "correct": last["correct"],
                         "attempted": last["attempted"], "failed": last["failed"]})
            for name, m in wl["metrics"].items():
                samples.setdefault(name, {"unit": m["unit"], "values": []})
                samples[name]["values"].append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={last['correct']}",
                  file=sys.stderr, flush=True)
        entry = {"why": wl["why"], "runs": runs, "metrics": {}}
        for name, s in samples.items():
            entry["metrics"][name] = {"unit": s["unit"], "bound": bounds.get(name),
                                      **_spread(s["values"])}
        report, last, elapsed = _run(workload, 0, seconds, 1)
        entry["traced_seed0"] = {"elapsed_s": elapsed, "correct": last["correct"],
                                 "layers": report["workloads"][0]["layers"]}
        out["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            print(f"{workload:9s} {name:22s} median={m['median']:.5g} {m['unit']} "
                  f"spread={m['spread'] if m['spread'] is None else round(m['spread'], 4)} "
                  f"bound={m['bound']}", file=sys.stderr, flush=True)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
