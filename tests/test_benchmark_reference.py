"""The benchmark's correctness gate, run in-process on a few rounds.

The benchmark (`perfbench/run.py`) checks every operation's outputs
(`checks.check_op`) and, at seed 0, compares them with the values recorded
in `perfbench/reference.json` (`checks.check_reference`); a failure there
marks the run's outputs incorrect.  This runs the same checks on rounds r0
and r1 of the `analytic` workload and round r0 of `simulate`, so a change
that would break that gate fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))     # checks.py imports workloads by name

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload, index", (("analytic", 0), ("analytic", 1),
                                             ("simulate", 0)))
def test_round_matches_reference(workload, index):
    ops = workloads.make_round(workload, 0, index)
    ref = REFERENCE[workload][f"r{index}"]
    assert len(ref) == len(ops)
    bad = []
    for op, ref_op in zip(ops, ref):
        out = workloads.run_inprocess(op)
        bad += checks.check_op(op, out) + checks.check_reference(op, out, ref_op)
    assert bad == []
