"""The benchmark's traced call list resolves against the package.

perfbench/layers.py names the fracpm functions whose spans feed the
per-layer metrics, and perfbench/workloads.py the spans each workload must
record. Renaming or deleting a traced function breaks the benchmark, and
so does rerouting a command past a layer its workload must cross; these
checks catch both in seconds, the first without running anything, the
second on tiny runs of each workload's command.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracpm

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


def _tiny(cfg_text, **values):
    """A workload config with some keys set to small values."""
    lines = []
    for line in cfg_text.splitlines():
        key = line.partition("=")[0].strip()
        lines.append(f"{key} = {values.pop(key)}" if key in values else line)
    assert not values, f"keys missing from the config: {sorted(values)}"
    return "\n".join(lines) + "\n"


# n = 16 and three steps: every command still crosses each layer it must
TINY = {
    "evolve-1d": {"grid.n": 16, "solver.t_final": 6e-3, "solver.snapshot_stride": 1},
    "evolve-2d": {"grid.n": 16, "solver.t_final": 3e-4, "solver.snapshot_stride": 1},
    "fracfield-2d": {"grid.n": 16},
    "spectrum-1d": {"grid.n": 16},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_tiny_run_records_every_layer_of_its_workload(name, tmp_path):
    """perfbench's traced child process on a small copy of each workload's
    config records a span for every layer that workload must cross; the
    fracfield run builds one step-field evaluator."""
    workload = workloads.WORKLOADS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_tiny(workload.config(7), **TINY[name]), encoding="utf-8")
    result = tmp_path / "result.json"
    src = Path(fracpm.__file__).resolve().parent.parent
    cmd = [
        sys.executable, str(PERFBENCH / "child.py"), "--result", str(result), "--mode", "trace",
        "--setup", workload.setup, "--src", str(src), "--",
        workload.command, "--config", str(cfg), "--out", str(tmp_path / "out"),
    ]
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(result.read_text(encoding="utf-8"))["spans"]
    assert layers.missing_layers(spans, workload.layers) == []
    if workload.command == "fracfield":
        assert layers.layer_metrics(spans)["curves.ewald_builds"] == 1
