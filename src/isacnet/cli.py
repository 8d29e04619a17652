"""Command-line front end.

Subcommands: coverage, radar-rate, fit-alpha, conjecture1, reproduce-fig.
dB-to-linear conversion happens here and only here; everything below the
CLI works in linear units.  Exit codes: 0 success, 2 usage, 3 convergence
failure, 4 configuration error.  The ISACNET_OUT_DIR environment variable
sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# let option values like "-10:20:2" pass as values, not flags
_NEG_VALUE = re.compile(r"^-\d")

from .config import ConfigError, build_experiment, parse_config_file
from .harness import emit_plotdata, figure_preset, run_experiment
from .montecarlo import SimulationWindowError
from .specfun import ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_CONFIG = 4


def _add_common(sub):
    sub.add_argument("--config", help="key = value experiment file")
    sub.add_argument("--method", choices=["analytic", "mc", "both"])
    sub.add_argument("--seed", type=int)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="deployment density (stations per square meter)")
    sub.add_argument("--mt", type=int)
    sub.add_argument("--mr", type=int)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--ps", type=float, help="sensing power share (pc = 1 - ps)")
    sub.add_argument("--l", type=int, help="communication cluster size")
    sub.add_argument("--n", type=int, help="sensing cluster size")
    sub.add_argument("--sweep", metavar="PARAM=V1,V2,...",
                     help="sweep one parameter over a value list")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isacnet",
        description="Coverage probability and radar information rate for "
                    "cooperative sensing-and-communication networks")
    subs = parser.add_subparsers(dest="command", required=True)

    cov = subs.add_parser("coverage", help="communication coverage probability")
    _add_common(cov)
    cov.add_argument("--t-db", default="-10:20:2",
                     help="SIR threshold grid LO:HI:STEP in dB")

    rad = subs.add_parser("radar-rate", help="radar information rate (nats)")
    _add_common(rad)

    fit = subs.add_parser("fit-alpha", help="fit the Gamma-CDF surrogate parameter")
    fit.add_argument("--shape", type=int, default=9,
                     help="Gamma shape to approximate (default 9)")
    fit.add_argument("--out")

    conj = subs.add_parser("conjecture1",
                           help="K-S diagnostic of the fading-sum collapse")
    _add_common(conj)
    conj.add_argument("--shape", type=int, default=9)
    conj.add_argument("--exponent", type=float, default=4.0)

    rep = subs.add_parser("reproduce-fig",
                          help="run a canned figure-reproduction experiment")
    rep.add_argument("number", type=int, choices=range(4, 10),
                     metavar="4..9")
    rep.add_argument("--out-dir")
    rep.add_argument("--trials", type=int)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--workers", type=int)

    for p in [parser, cov, rad, fit, conj, rep]:
        p._negative_number_matcher = _NEG_VALUE
    return parser


def _out_dir(explicit=None):
    return explicit or os.environ.get("ISACNET_OUT_DIR") or "."


def _overrides(args, metric):
    ov = {"metric": metric}
    for key, cfg_key in (("method", "method"), ("seed", "mc.seed"),
                         ("trials", "mc.trials"), ("workers", "mc.workers"),
                         ("lam", "params.lambda"), ("mt", "params.mt"),
                         ("mr", "params.mr"), ("beta", "params.beta"),
                         ("ps", "params.ps"), ("l", "params.l"),
                         ("n", "params.n")):
        val = getattr(args, key, None)
        if val is not None:
            ov[cfg_key] = val
    tdb = getattr(args, "t_db", None)
    if tdb is not None:
        ov["t_db"] = tdb
    if getattr(args, "sweep", None):
        try:
            param, values = args.sweep.split("=", 1)
        except ValueError:
            raise ConfigError(f"bad --sweep {args.sweep!r}; use PARAM=V1,V2,...")
        ov["sweep.param"] = param
        ov["sweep.values"] = values
    out = getattr(args, "out", None)
    if out is not None:
        ov["out"] = out
    elif metric in ("coverage", "radar-rate"):
        ov["out"] = os.path.join(_out_dir(), f"{metric}.csv")
    return ov


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce-fig":
            return _reproduce(args)
        if args.command == "fit-alpha":
            entries = {"metric": ("fit-alpha", "cli"),
                       "fit.shape": (str(args.shape), "cli"),
                       "method": ("analytic", "cli")}
            if args.out:
                entries["out"] = (args.out, "cli")
            else:
                entries["out"] = (os.path.join(_out_dir(), "fit-alpha.csv"), "cli")
            cfg = build_experiment(entries)
            rows = run_experiment(cfg)
            fit = rows[0]
            print(f"shape={fit.extra['shape_n']} alpha_star={fit.value:.6f} "
                  f"ks_distance={fit.extra['ks_distance']:.6f}")
            return EXIT_OK

        entries = {}
        if args.config:
            entries = parse_config_file(args.config)
        metric = {"coverage": "coverage", "radar-rate": "radar-rate",
                  "conjecture1": "conjecture1"}[args.command]
        ov = _overrides(args, metric)
        if args.command == "conjecture1":
            ov.setdefault("method", "mc")
            if args.shape is not None:
                ov["conj.shape"] = args.shape
            if args.exponent is not None:
                ov["conj.exponent"] = args.exponent
            ov.setdefault("out", os.path.join(_out_dir(), "conjecture1.csv"))
        cfg = build_experiment(entries, ov)
        rows = run_experiment(cfg)
        print(f"{cfg.metric}: wrote {len(rows)} rows to {cfg.out}")
        if args.command == "conjecture1":
            print(f"two-sample K-S distance: {rows[0].value:.5f}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationWindowError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _reproduce(args):
    out_dir = _out_dir(args.out_dir)
    entries, layout = figure_preset(args.number)
    if args.trials is not None:
        entries["mc.trials"] = (str(args.trials), "cli")
    if args.seed is not None:
        entries["mc.seed"] = (str(args.seed), "cli")
    if args.workers is not None:
        entries["mc.workers"] = (str(args.workers), "cli")
    csv_path = os.path.join(out_dir, f"fig{args.number}.csv")
    entries["out"] = (csv_path, "cli")
    cfg = build_experiment(entries)
    rows = run_experiment(cfg)
    plot_path = os.path.join(out_dir, f"fig{args.number}_plot.csv")
    emit_plotdata(rows, {"x": layout["x"], "series_by": layout["series_by"],
                         "y": "value"}, plot_path)
    print(f"fig{args.number}: wrote {csv_path} and {plot_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
