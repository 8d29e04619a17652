"""Config parsing, experiment runner, CSV persistence, plot reshaping, CLI."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from isacnet.cli import main
from isacnet.config import (ConfigError, build_experiment, parse_config_file,
                            parse_t_db)
from isacnet.harness import (FIGURE_PRESETS, ResultRow, emit_plotdata,
                             figure_preset, run_experiment, write_rows)
from isacnet.montecarlo import mc_coverage_sweep
from isacnet.specfun import ConvergenceError


# the threshold grid the README documents for the coverage figures
DOCUMENTED_T_DB = tuple(float(t) for t in range(-10, 21, 2))


def csv_column(path, key):
    """One column of a result CSV, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(rec[key]) for rec in csv.DictReader(fh)]


def entries_of(text, tmp_path, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return parse_config_file(str(path)), str(path)


BASE = """
# coverage experiment
metric = coverage
method = analytic
t_db = -10:20:10
params.l = 1
params.mt = 10
"""


class TestConfigParsing:
    def test_happy_path(self, tmp_path):
        entries, _ = entries_of(BASE, tmp_path)
        cfg = build_experiment(entries)
        assert cfg.metric == "coverage"
        assert cfg.params.L == 1
        assert cfg.t_db == (-10.0, 0.0, 10.0, 20.0)
        assert cfg.mc is None

    def test_line_precise_unknown_key(self, tmp_path):
        entries, path = entries_of(BASE + "mc.trils = 10\n", tmp_path)
        with pytest.raises(ConfigError) as exc:
            build_experiment(entries)
        assert f"{path}:8" in str(exc.value)
        assert "mc.trials" in str(exc.value)   # suggestion

    def test_line_precise_bad_value(self, tmp_path):
        mc = BASE.replace("method = analytic", "method = mc")
        cases = [(BASE.replace("params.mt = 10", "params.mt = ten"), 7),
                 # integer keys take whole numbers only; nothing is truncated
                 (BASE.replace("params.l = 1", "params.l = 2.9"), 6),
                 (mc + "mc.trials = 100.5\n", 8)]
        for text, line in cases:
            entries, path = entries_of(text, tmp_path)
            with pytest.raises(ConfigError) as exc:
                build_experiment(entries)
            assert f"{path}:{line}" in str(exc.value)

    def test_whole_number_in_float_spelling(self, tmp_path):
        entries, _ = entries_of(BASE.replace("method = analytic", "method = mc")
                                + "mc.trials = 2e5\n", tmp_path)
        assert build_experiment(entries).mc.trials == 200_000

    def test_sweep_resolves_to_points(self, tmp_path):
        entries, _ = entries_of(BASE + "sweep.param = ps\n"
                                "sweep.values = 0.25,0.5\n", tmp_path)
        cfg = build_experiment(entries)
        assert [sweep for sweep, _ in cfg.points] == [{"ps": 0.25}, {"ps": 0.5}]
        assert [(p.ps, p.pc) for _, p in cfg.points] == [(0.25, 0.75),
                                                          (0.5, 0.5)]
        assert all(p.mt == 10 and p.L == 1 for _, p in cfg.points)
        assert build_experiment(entries_of(BASE, tmp_path)[0]).points == (
            ({}, cfg.params),)

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            entries_of(BASE + "metric = coverage\n", tmp_path)
        assert "duplicate" in str(exc.value)

    def test_analytic_forbids_trials(self, tmp_path):
        entries, _ = entries_of(BASE + "mc.trials = 100\n", tmp_path)
        with pytest.raises(ConfigError) as exc:
            build_experiment(entries)
        assert "forbids" in str(exc.value)

    def test_sweep_must_name_system_parameter(self, tmp_path):
        entries, _ = entries_of(
            BASE + "sweep.param = alpha\nsweep.values = 1,2\n", tmp_path)
        with pytest.raises(ConfigError):
            build_experiment(entries)

    def test_sweep_values_required(self, tmp_path):
        entries, _ = entries_of(BASE + "sweep.param = l\n", tmp_path)
        with pytest.raises(ConfigError):
            build_experiment(entries)

    def test_ps_override_adjusts_pc(self, tmp_path):
        entries, _ = entries_of(BASE + "params.ps = 0.3\n", tmp_path)
        cfg = build_experiment(entries)
        assert cfg.params.ps == 0.3
        assert cfg.params.pc == 0.7

    def test_cli_overrides_win(self, tmp_path):
        entries, _ = entries_of(BASE, tmp_path)
        cfg = build_experiment(entries, {"params.mt": 6})
        assert cfg.params.mt == 6

    def test_coverage_needs_grid(self, tmp_path):
        entries, _ = entries_of(BASE.replace("t_db = -10:20:10\n", ""),
                                tmp_path)
        with pytest.raises(ConfigError):
            build_experiment(entries)

    def test_coverage_needs_comm_power(self, tmp_path):
        entries, _ = entries_of(BASE + "params.ps = 1\n", tmp_path)
        with pytest.raises(ConfigError, match="communication power"):
            build_experiment(entries)
        entries, _ = entries_of(BASE + "sweep.param = ps\n"
                                "sweep.values = 0.5,1\n", tmp_path)
        with pytest.raises(ConfigError, match="communication power"):
            build_experiment(entries)

    def test_removed_window_key_rejected(self, tmp_path):
        # the simulator has one window; a config naming another is an error.
        # alpha is always fitted for shape mt - 1, so it cannot be pinned.
        for key, value in (("mc.window", "strict"), ("params.alpha", "1.2")):
            text = (BASE.replace("method = analytic", "method = mc")
                    + f"{key} = {value}\n")
            entries, path = entries_of(text, tmp_path)
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                build_experiment(entries)
            code = main(["coverage", "--config", path,
                         "--out", str(tmp_path / "x.csv")])
            assert code == 4

    def test_t_db_forms(self):
        assert parse_t_db("-10:20:10") == (-10.0, 0.0, 10.0, 20.0)
        assert parse_t_db("0,3,7") == (0.0, 3.0, 7.0)
        with pytest.raises(ValueError):
            parse_t_db("5:0:1")


class TestRunAndPersist:
    def test_round_trip_typed_values(self, tmp_path):
        entries, _ = entries_of(BASE + "sweep.param = mt\n"
                                       "sweep.values = 4,10\n", tmp_path)
        out = str(tmp_path / "cov.csv")
        cfg = build_experiment(entries, {"out": out})
        rows = run_experiment(cfg)
        with open(out, newline="", encoding="utf-8") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        for mem, disk in zip(rows, back):
            assert float(disk["value"]) == mem.value   # repr round-trip is exact
            assert disk["method"] == mem.method
            assert float(disk["mt"]) == mem.sweep["mt"]
            assert float(disk["t_db"]) == mem.extra["t_db"]

    def test_mc_rerun_is_byte_identical(self, tmp_path, paper_params):
        entries, _ = entries_of(
            BASE.replace("method = analytic", "method = mc")
            + "mc.trials = 20000\nmc.seed = 5\n", tmp_path)
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        run_experiment(build_experiment(entries, {"out": out1}))
        run_experiment(build_experiment(entries, {"out": out2}))
        assert open(out1, "rb").read() == open(out2, "rb").read()
        meta = json.load(open(out1 + ".meta.json"))
        assert "created_unix" in meta and "wall_ms" in meta

    def test_sidecar_records_window_and_bias(self, tmp_path):
        entries, _ = entries_of(
            BASE.replace("method = analytic", "method = both")
            + "mc.trials = 5000\n", tmp_path)
        out = str(tmp_path / "cov.csv")
        rows = run_experiment(build_experiment(entries, {"out": out}))
        meta = json.load(open(out + ".meta.json"))
        assert len(meta["window"]) == len(meta["bias_bound"]) == len(rows)
        for row, window, bias in zip(rows, meta["window"], meta["bias_bound"]):
            if row.method == "mc":
                assert window >= 16 and 0.0 <= bias <= 0.1 * row.uncertainty
            else:
                assert window is None and bias is None

    def test_mc_sweep_shares_one_run(self, tmp_path):
        entries, _ = entries_of(
            BASE.replace("method = analytic", "method = mc")
            + "sweep.param = mt\nsweep.values = 4,10\nmc.trials = 5000\n",
            tmp_path)
        out = str(tmp_path / "cov.csv")
        cfg = build_experiment(entries, {"out": out})
        rows = run_experiment(cfg)
        meta = json.load(open(out + ".meta.json"))
        assert len(meta["bias_to_ci"]) == len(rows) == 8
        for row, ratio in zip(rows, meta["bias_to_ci"]):
            assert ratio == row.bias_to_ci == row.bias_bound / row.uncertainty
            assert ratio <= 0.1
        # one draw set: one window, and the sweep's time split evenly
        assert len(set(meta["window"])) == 1
        assert len(set(meta["wall_ms"])) == 1
        # each point's largest row ratio is the one its run was judged by
        t_lin = np.array([10.0 ** (t / 10.0) for t in cfg.t_db])
        curves = mc_coverage_sweep([p for _, p in cfg.points], t_lin, cfg.mc)
        for i, curve in enumerate(curves):
            assert max(meta["bias_to_ci"][4 * i:4 * i + 4]) == \
                curve.mc_result.bias_to_ci

    def test_emit_plotdata_residual(self, tmp_path):
        rows = [
            ResultRow(sweep={"L": 1}, value=0.9, method="analytic",
                      uncertainty=0.0, quad_error=0.0, extra={"t_db": 0.0}),
            ResultRow(sweep={"L": 1}, value=0.88, method="mc",
                      uncertainty=0.01, quad_error=0.0, extra={"t_db": 0.0}),
        ]
        out = str(tmp_path / "plot.csv")
        emit_plotdata(rows, {"x": "t_db", "series_by": "L"}, out)
        lines = open(out).read().splitlines()
        assert lines[0] == "t_db,L,method,value,uncertainty,residual"
        assert lines[2].endswith(repr(0.9 - 0.88))

    def test_emit_plotdata_empty(self, tmp_path):
        out = str(tmp_path / "plot.csv")
        emit_plotdata([], {"x": "t_db", "series_by": None}, out)
        assert open(out).read().strip() == "t_db,method,value,uncertainty,residual"

    def test_emit_plotdata_unknown_column(self, tmp_path):
        rows = [ResultRow(sweep={}, value=1.0, method="mc", uncertainty=0.0,
                          quad_error=0.0, extra={"t_db": 0.0})]
        with pytest.raises(ConfigError):
            emit_plotdata(rows, {"x": "nope", "series_by": None},
                          str(tmp_path / "x.csv"))

    def test_figure_presets_build(self):
        for n in range(4, 10):
            entries, layout = figure_preset(n)
            cfg = build_experiment(dict(entries))
            assert cfg.metric in ("coverage", "radar-rate")
            assert "x" in layout

    def test_coverage_presets_use_documented_grid(self):
        coverage = [n for n, p in FIGURE_PRESETS.items()
                    if p["metric"] == "coverage"]
        assert coverage == [4, 5, 6, 7]
        for n in coverage:
            cfg = build_experiment(dict(figure_preset(n)[0]))
            assert cfg.t_db == DOCUMENTED_T_DB


class TestCli:
    def test_default_grid_is_documented_grid(self, tmp_path):
        out = str(tmp_path / "cov.csv")
        assert main(["coverage", "--method", "analytic", "--l", "1",
                     "--out", out]) == 0
        assert tuple(csv_column(out, "t_db")) == DOCUMENTED_T_DB

    def test_config_file_beats_cli_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "e.cfg"
        cfg.write_text("method = analytic\nparams.l = 1\nt_db = 0\n"
                       "out = mine.csv\n")
        assert main(["coverage", "--config", str(cfg)]) == 0
        assert csv_column("mine.csv", "t_db") == [0.0]
        assert not (tmp_path / "coverage.csv").exists()
        # explicit flags still win over the file
        assert main(["coverage", "--config", str(cfg), "--t-db", "0,3",
                     "--out", "flag.csv"]) == 0
        assert csv_column("flag.csv", "t_db") == [0.0, 3.0]

    def test_analytic_coverage_exit_zero(self, tmp_path):
        out = str(tmp_path / "cov.csv")
        code = main(["coverage", "--method", "analytic", "--l", "1",
                     "--t-db", "0:0:1", "--out", out])
        assert code == 0
        assert os.path.exists(out)

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--method", "bogus"])
        assert exc.value.code == 2

    def test_config_error_exit_four(self, tmp_path, capsys):
        cov = ["coverage", "--method", "analytic", "--t-db", "0:0:1"]
        rate = ["radar-rate", "--method", "analytic"]
        conj = ["conjecture1", "--l", "2", "--trials", "10000"]

        def config(text):
            path = tmp_path / (text.split()[0] + ".cfg")
            path.write_text(text + "\n")
            return ["--config", str(path)]

        cases = [
            # a key the metric never reads is an error, never dropped
            (rate + config("t_db = 0"), "t_db has no effect"),
            # the file's metric must be the subcommand's
            (cov + config("metric = radar-rate\nparams.l = 2"),
             "metric.cfg:1: metric 'radar-rate' does not match the "
             "subcommand 'coverage'"),
            (cov + ["--n", "2"], "cli: params.n has no effect"),
            (rate + ["--l", "2"], "cli: params.l has no effect"),
            (conj + ["--ps", "0.3"], "cli: params.ps has no effect"),
            (conj + ["--mr", "4"], "cli: params.mr has no effect"),
            (conj + ["--sweep", "mr=4,6"], "a sweep of mr has no effect"),
            (conj + ["--workers", "2"], "mc.workers has no effect"),
            # method=analytic runs no simulation, so every mc.* key is an error
            (["coverage", "--method", "analytic", "--trials", "5",
              "--t-db", "0:0:1"], "forbids the mc.trials field"),
            (["coverage", "--method", "analytic", "--seed", "3",
              "--t-db", "0:0:1"], "forbids the mc.seed field"),
            (rate + ["--workers", "2"], "forbids the mc.workers field"),
            # every sweep point is validated before the first one runs
            (rate + ["--sweep", "mt=4,1"], "cli: bad value '1' for 'mt'"),
            (rate + ["--sweep", "beta=2"], "cli: bad value '2' for 'beta'"),
            (rate + ["--sweep", "n=0"], "cli: bad value '0' for 'n'"),
            (cov + ["--sweep", "l=1.5,2.7"], "cli: bad value '1.5' for 'l'"),
            (rate + ["--n", "2.9"], "cli: bad value '2.9' for 'n'"),
            # one config name per parameter: lambda, not lam, and the hint
            # names the density, not the nearer spelling 'params.l'
            (cov + config("params.lam = 0.5\nparams.lambda = 0.1"),
             "unknown key 'params.lam' (did you mean 'params.lambda'?)"),
            (cov + ["--sweep", "lam=1e-4"], "got 'lam'"),
            # a comma grid must be strictly increasing
            (["coverage", "--method", "analytic", "--t-db", "5,0"],
             "bad value for 't_db'"),
            (["coverage", "--method", "analytic", "--t-db", "0,0"],
             "bad value for 't_db'"),
            # seeds key conjecture1's Philox: [0, 2**128)
            (["coverage", "--method", "mc", "--trials", "1000", "--t-db", "0",
              "--seed", "-1"], "seed must lie in [0, 2**128)"),
            (conj + ["--seed", "-1"], "seed must lie in [0, 2**128)"),
            (conj + ["--seed", str(2 ** 128)], "seed must lie in [0, 2**128)"),
            # a 95% half-width needs two trials
            (["coverage", "--method", "mc", "--trials", "1",
              "--t-db", "0:0:1"], "trials must be >= 2"),
            # conjecture1 is a simulation of at least 10,000 trials
            (["conjecture1", "--l", "2", "--trials", "5000"], "10000 trials"),
            (["conjecture1", "--l", "2", "--method", "analytic"],
             "10000 trials"),
        ]
        out = tmp_path / "x.csv"
        for argv, message in cases:
            assert main(argv + ["--out", str(out)]) == 4, argv
            assert message in capsys.readouterr().err, argv
            assert not out.exists(), argv

    def test_no_comm_power_exit_four(self, tmp_path):
        code = main(["coverage", "--method", "analytic", "--ps", "1",
                     "--l", "1", "--beta", "3.5", "--t-db", "0:0:1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4

    def test_convergence_error_exit_three(self, monkeypatch, tmp_path):
        import isacnet.cli as cli_mod

        def boom(cfg):
            raise ConvergenceError("no convergence", estimate=0.1,
                                   error_bound=1.0)

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        code = main(["coverage", "--method", "analytic", "--t-db", "0:0:1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISACNET_OUT_DIR", str(tmp_path))
        code = main(["coverage", "--method", "analytic", "--l", "1",
                     "--t-db", "0:0:1"])
        assert code == 0
        assert (tmp_path / "coverage.csv").exists()

    def test_fit_alpha_subcommand(self, tmp_path, capsys):
        code = main(["fit-alpha", "--mt", "4",
                     "--out", str(tmp_path / "fit.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "shape=3" in out and "alpha_star" in out

    def test_conjecture1_subcommand(self, tmp_path):
        code = main(["conjecture1", "--l", "2", "--trials", "20000",
                     "--seed", "3", "--out", str(tmp_path / "c1.csv")])
        assert code == 0

    def test_conjecture1_sweep_runs_every_point(self, tmp_path):
        out = str(tmp_path / "c1.csv")
        assert main(["conjecture1", "--sweep", "l=1,2,3", "--trials", "10000",
                     "--out", out]) == 0
        assert csv_column(out, "cluster_size") == [1.0, 2.0, 3.0]
        assert csv_column(out, "L") == [1.0, 2.0, 3.0]

    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "isacnet.cli", "coverage", "--method",
             "analytic", "--l", "1", "--t-db", "0:0:1",
             "--out", str(tmp_path / "c.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_reproduce_fig_small(self, tmp_path):
        code = main(["reproduce-fig", "7", "--trials", "4000",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig7.csv").exists()
        assert (tmp_path / "fig7_plot.csv").exists()
