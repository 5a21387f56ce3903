"""The benchmark traces ghlab functions by name (perfbench/layers.py).

A traced function that is deleted or renamed turns its per-layer metrics
into null without failing the run, so this checks every target here.
So does a module of layers.MODULES that ``import ghlab.cli`` stops
importing: its import time reads null.  A short traced run of each
workload checks the report itself.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import tracer

        yield layers, tracer
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("layers", None)
        sys.modules.pop("tracer", None)


def test_every_traced_target_resolves(harness):
    layers, tracer = harness
    assert layers.LAYERS
    problems = []
    for layer in layers.LAYERS:
        try:
            _, _, fn = tracer._resolve(layer.target)
        except LookupError as exc:
            problems.append(f"{layer.name}: {exc}")
            continue
        if layer.zarg is not None:
            params = inspect.signature(fn).parameters
            if layer.zarg not in params:
                problems.append(f"{layer.name}: {layer.target} takes no {layer.zarg!r}")
    assert not problems, problems


def test_cli_import_loads_every_timed_module(harness):
    """A fresh interpreter, as perfbench/run.py times the imports."""
    layers, _ = harness
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ghlab.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert not [m for m in layers.MODULES if f"ghlab.{m}" not in loaded]


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_metric(workload):
    """About 2 s of each traced workload of BENCHMARK.json, as
    perfbench/run.py is run: its last stdout line is the JSON report,
    correct, and no metric in it is null."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["metrics"]
    assert not [name for name, m in report["metrics"].items() if m["value"] is None]
