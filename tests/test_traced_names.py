"""The benchmark's traced call list resolves against the package.

perfbench/layers.py names the fracpm functions whose spans feed the
per-layer metrics, and perfbench/workloads.py the spans each workload must
record. Renaming or deleting a traced function breaks the benchmark; these
checks catch that in seconds, without running it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    qualified = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
workloads = _load("workloads")


def test_traced_names_resolve_to_fracpm_callables():
    broken = []
    for module, path, _ in layers.TRACED:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            broken.append(f"{module}.{path}")
    assert not broken, f"traced names with no callable behind them: {broken}"


def test_workload_layers_are_traced_span_names():
    spans = {name for _, _, name in layers.TRACED}
    for workload in workloads.WORKLOADS.values():
        unknown = [name for name in workload.layers if name not in spans]
        assert not unknown, f"{workload.name} expects untraced spans {unknown}"
