"""The package's public names."""

import argparse
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import isacnet
from isacnet.cli import _entries, _overrides, build_parser
from isacnet.config import SWEEPABLE, build_experiment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_exported_name_resolves():
    missing = [name for name in isacnet.__all__ if not hasattr(isacnet, name)]
    assert missing == []
    assert len(set(isacnet.__all__)) == len(isacnet.__all__)


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs 50-80 ms and 6-7.5 MB; neither importing the package
    # or its CLI nor a single-station rate (its hole rule) may load it, and
    # neither these nor an L=3 coverage curve (its law of Z) scipy.integrate
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, isacnet, isacnet.cli; "
            "isacnet.radar_rate_single(isacnet.SystemParams()); "
            "isacnet.coverage_curve(isacnet.SystemParams(L=3), [0.1, 10.0]); "
            "print(isacnet.__file__); print('scipy.linalg' in sys.modules); "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    path, linalg, integrate = proc.stdout.split()
    assert Path(path).resolve().is_relative_to(src)
    assert linalg == "False"
    assert integrate == "False"


def test_each_module_imports_first():
    # an import cycle shows only when a module of the cycle loads first; the
    # package's __init__ fixes one order, so it is bypassed here and each
    # module is the first isacnet module a fresh interpreter loads
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, types; pkg = types.ModuleType('isacnet'); "
            f"pkg.__path__ = [{str(src / 'isacnet')!r}]; "
            "sys.modules['isacnet'] = pkg; "
            "import importlib; importlib.import_module(sys.argv[1])")
    for path in sorted((src / "isacnet").glob("[!_]*.py")):
        proc = subprocess.run([sys.executable, "-c", code,
                               f"isacnet.{path.stem}"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (path.stem, proc.stderr)


def test_traced_functions_resolve():
    # the benchmark's traced mode wraps each (module, name) it lists
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, name) for module, name in tracing.TARGETS
               if not hasattr(importlib.import_module(f"isacnet.{module}"),
                              name)]
    assert missing == []


def test_benchmark_figure_invocations_build():
    # the benchmark's figure workload runs these argvs through the CLI; each
    # must still build into an experiment (nothing is run here)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [op["argv"] for seed in range(4) for smoke in (True, False)
             for op in workloads.make_round("figure", seed, 0, smoke)]
    assert len(argvs) == 24
    for argv in argvs:
        args = build_parser().parse_args(argv)
        cfg = build_experiment(_entries(args), _overrides(args))
        assert cfg.metric == argv[0], argv


def test_readme_names_every_sweepable_key():
    # an undocumented alias (once `lam` beside `lambda`) cannot come back
    names = re.search(r"sweeps must name a system\s+parameter \(`([^`]*)`\)",
                      README).group(1)
    assert sorted(names.split(", ")) == sorted(SWEEPABLE)


def test_readme_lists_the_package_names():
    # an unchecked kernel cannot return to the namespace unnoticed
    section = re.search(r"^### Python API\n(.*?)^#", README, re.M | re.S).group(1)
    names = re.findall(r"`(\w+)`", section)
    assert sorted(names) == sorted(isacnet.__all__)
    bound = {name for name, value in vars(isacnet).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert bound == set(isacnet.__all__) - {"__version__"}


def test_readme_flags_are_the_coverage_options():
    bullet = re.search(r"^\* Flags:(.*?)^\* ", README, re.M | re.S).group(1)
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    options = {opt for action in subs.choices["coverage"]._actions
               for opt in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", bullet)) == options
