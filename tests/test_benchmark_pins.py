"""The benchmark's pinned verdicts, checked in the suite.

``perfbench/run.py`` counts an invocation as failed when its report does
not reproduce the verdicts that ``perfbench/workloads.py`` pins
(``workloads.check_report``).  This runs one pass of each of the three
workloads at seed 1, in-process, and asserts that ``check_report`` finds no
problem in any invocation, so a change that the benchmark would count as
incorrect fails here first.  ``workloads.py`` is imported by path and only
read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fibrum import cli

_WORKLOADS_PY = (Path(__file__).resolve().parent.parent / "perfbench"
                 / "workloads.py")


def _load_workloads():
    # registered before it runs: its dataclass looks its module up by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_workload_reproduces_its_pinned_verdicts(workload,
                                                           tmp_path):
    invocations = workloads.invocations(workload, 1, tmp_path)
    assert invocations
    for inv in invocations:
        code = cli.main(list(inv.argv))
        tree = json.loads(inv.report.read_text(encoding="utf-8"))
        assert workloads.check_report(inv, code, tree) == [], inv.name
