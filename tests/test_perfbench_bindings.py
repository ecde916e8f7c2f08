"""Every layer the benchmark's tracer reads still exists in the program.

perfbench/trace_child.py wraps functions and reads attributes of the
package from outside it.  When one of them is renamed, moved or deleted, the
tracer drops the metric and the traced benchmark run no longer reports it.
This test runs the tracer on one small command per workload and asks for
every per-layer name that perfbench/run.py sums or divides.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covermotive

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = Path(covermotive.__file__).resolve().parent.parent


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


RUN = _load_run_module()
WANTED = sorted({*RUN.SUMMED, *(name for pair in RUN.RATIOS.values() for name in pair)})


@pytest.mark.parametrize(
    "command",
    [
        "class --group cyclic:2 --n 5",
        "verify --group cyclic:2 --n 5 --all-props",
        "trees --n 5 --group cyclic:2",
        "hurwitz --group symmetric:3 --n 4 --orbits --mod-conj",
    ],
    ids=["strata", "recursion", "census", "hurwitz"],
)
def test_tracer_reports_every_layer(command):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_child.py"), *command.split()],
        capture_output=True,
        cwd=ROOT,
        env=env,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    traces = [ln for ln in proc.stderr.splitlines() if ln.startswith(RUN.TRACE_MARKER)]
    assert len(traces) == 1, proc.stderr
    values = json.loads(traces[0][len(RUN.TRACE_MARKER) :])["values"]
    assert [name for name in WANTED if name not in values] == []
