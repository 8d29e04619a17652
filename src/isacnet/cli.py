"""Command-line front end.

Subcommands: coverage, radar-rate, fit-alpha, conjecture1, reproduce-fig.
dB-to-linear conversion happens here and only here; everything below the
CLI works in linear units.  Exit codes: 0 success, 2 usage, 3 convergence
failure, 4 configuration error.  The ISACNET_OUT_DIR environment variable
sets the default output directory.  Each value flag's argparse dest is its
config key (`--mt` -> `params.mt`), so `build_experiment` converts and
checks flag values exactly as it does config-file entries; a parameter
flag the metric does not read (fit-alpha reads only `--mt`) exits 4.  Flags
win over a config file's entries, which win over the CLI defaults (the
documented t_db grid for coverage, `<out_dir>/<command>.csv`).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# let option values like "-10:20:2" pass as values, not flags
_NEG_VALUE = re.compile(r"^-\d")

from .config import (DEFAULT_T_DB, METHODS, ConfigError, build_experiment,
                     parse_config_file)
from .harness import emit_plotdata, figure_preset, run_experiment
from .specfun import ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_CONFIG = 4


def _add_mc(sub):
    sub.add_argument("--seed", dest="mc.seed")
    sub.add_argument("--trials", dest="mc.trials")
    sub.add_argument("--workers", dest="mc.workers")


def _add_common(sub):
    sub.add_argument("--config", help="key = value experiment file")
    sub.add_argument("--method", choices=METHODS)
    _add_mc(sub)
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--lambda", dest="params.lambda",
                     help="deployment density (stations per square meter)")
    sub.add_argument("--mt", dest="params.mt")
    sub.add_argument("--mr", dest="params.mr")
    sub.add_argument("--beta", dest="params.beta")
    sub.add_argument("--ps", dest="params.ps",
                     help="sensing power share (pc = 1 - ps)")
    sub.add_argument("--l", dest="params.l", help="communication cluster size")
    sub.add_argument("--n", dest="params.n", help="sensing cluster size")
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
    cov.add_argument("--t-db", help="SIR threshold grid LO:HI:STEP in dB "
                                    f"(default {DEFAULT_T_DB})")

    rad = subs.add_parser("radar-rate", help="radar information rate (nats)")
    _add_common(rad)

    fit = subs.add_parser("fit-alpha", help="fit the Gamma-CDF surrogate parameter")
    fit.add_argument("--mt", dest="params.mt",
                     help="transmit antennas; fits Gamma shape mt - 1 "
                          "(default 10)")
    fit.add_argument("--out")
    fit.set_defaults(method="analytic")

    conj = subs.add_parser("conjecture1",
                           help="K-S diagnostic of the fading-sum collapse")
    _add_common(conj)
    conj.set_defaults(method="mc")

    rep = subs.add_parser("reproduce-fig",
                          help="run a canned figure-reproduction experiment")
    rep.add_argument("number", type=int, choices=range(4, 10),
                     metavar="4..9")
    rep.add_argument("--out-dir")
    _add_mc(rep)

    for p in [parser, cov, rad, fit, conj, rep]:
        p._negative_number_matcher = _NEG_VALUE
    return parser


def _out_dir(explicit=None):
    return explicit or os.environ.get("ISACNET_OUT_DIR") or "."


def _keyed(args):
    """The flags whose dest is a config key; build_experiment skips None."""
    return {key: val for key, val in vars(args).items()
            if "." in key or key in ("method", "t_db", "out")}


def _overrides(args):
    ov = _keyed(args)
    ov["metric"] = args.command
    if getattr(args, "sweep", None):
        try:
            param, values = args.sweep.split("=", 1)
        except ValueError:
            raise ConfigError(f"bad --sweep {args.sweep!r}; use PARAM=V1,V2,...")
        ov["sweep.param"] = param
        ov["sweep.values"] = values
    return ov


def _entries(args):
    """CLI defaults, then the config file's entries; its metric must match."""
    entries = {"out": (os.path.join(_out_dir(), f"{args.command}.csv"),
                       "default")}
    if args.command == "coverage":
        entries["t_db"] = (DEFAULT_T_DB, "default")
    if getattr(args, "config", None):
        entries.update(parse_config_file(args.config))
    metric, where = entries.get("metric", (args.command, "cli"))
    if metric.lower() != args.command:
        raise ConfigError(f"{where}: metric {metric!r} does not match the "
                          f"subcommand {args.command!r}")
    return entries


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce-fig":
            return _reproduce(args)
        cfg = build_experiment(_entries(args), _overrides(args))
        rows = run_experiment(cfg)
        if cfg.metric == "fit-alpha":
            fit = rows[0]
            print(f"shape={fit.extra['shape_n']} alpha_star={fit.value:.6f} "
                  f"ks_distance={fit.extra['ks_distance']:.6f}")
            return EXIT_OK
        print(f"{cfg.metric}: wrote {len(rows)} rows to {cfg.out}")
        if cfg.metric == "conjecture1":
            print(f"two-sample K-S distance: {rows[0].value:.5f}")
        return EXIT_OK
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def _reproduce(args):
    out_dir = _out_dir(args.out_dir)
    entries, layout = figure_preset(args.number)
    csv_path = os.path.join(out_dir, f"fig{args.number}.csv")
    cfg = build_experiment(entries, {**_keyed(args), "out": csv_path})
    rows = run_experiment(cfg)
    plot_path = os.path.join(out_dir, f"fig{args.number}_plot.csv")
    emit_plotdata(rows, layout, plot_path)
    print(f"fig{args.number}: wrote {csv_path} and {plot_path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
