"""The benchmark traces ghlab functions by name (perfbench/layers.py).

A traced function that is deleted or renamed turns its per-layer metrics
into null without failing the run, so this checks every target here.
"""

import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
