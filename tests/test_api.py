"""The package's public names."""

import importlib
import importlib.util
from pathlib import Path

import isacnet


def test_every_exported_name_resolves():
    missing = [name for name in isacnet.__all__ if not hasattr(isacnet, name)]
    assert missing == []
    assert len(set(isacnet.__all__)) == len(isacnet.__all__)


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
