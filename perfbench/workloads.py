"""The four workloads: config templates, seeded inputs and output checks.

The benchmark seed sets only the generated inputs (the noise seed of the
evolve workloads, the probe direction of fracfield-2d, the two jump
positions of spectrum-1d); fracpm receives nothing but the generated
config. Grid sizes and step counts keep one process to a few seconds, so
that one run of the benchmark takes the median of several processes.
Every check holds for any seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

# Layers every CLI command crosses.
_COMMON = (
    "cli.main",
    "geometry.ensure_offgrid",
    "evolution.precompute_singular_field",
    "fieldio.write_csv",
    "fieldio.write_json",
)
_STEPPING = (
    "evolution.evolve",
    "evolution.initial_perturbation",
    "evolution.advance",
    "evolution.diffusion_coefficient",
    "spectral.pm_divergence_form",
    "fieldio.write_field",
)
_EWALD = ("curves.ewald_build", "curves.ewald_evaluate", "curves.circle_distance")
_KERNEL_1D = ("kernel.clausen_init", "oracles.fracH_1d")

# C07 bounds for the evolve checks, C03 tolerance for the fitted slopes.
MEAN_DRIFT_MAX = 1e-10
OVERSHOOT_MAX = 1e-8
SLOPE_TOL = 0.08


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fracpm CLI command
    setup: str  # module:function whose first return ends set-up
    template: str
    layers: tuple  # span names the traced run must record

    def config(self, seed: int) -> str:
        return self.template.format(**_inputs(self.name, seed))


def _inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name == "fracfield-2d":
        return {"angle": repr(rng.uniform(0.0, 2.0 * math.pi))}
    if name == "spectrum-1d":
        return {"a": repr(rng.uniform(-0.8, -0.2)), "b": repr(rng.uniform(0.2, 0.8))}
    return {"seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evolve-1d",
            command="evolve",
            setup="fracpm.evolution:precompute_singular_field",
            template="""\
dimension = 1
epsilon = 0.3
seed = {seed}
grid.n = 512
geometry.jumps = -0.5, 0.5
geometry.values = 1.0, 0.0
perturbation.kind = noise
perturbation.amplitude = 1e-3
perturbation.taper = true
solver.dt = 2e-3
solver.t_final = 0.16
solver.tolerance = 1e-12
solver.snapshot_stride = 40
""",
            layers=_COMMON + _STEPPING + _KERNEL_1D + ("spectral.frac_derivative_1d",),
        ),
        Workload(
            name="evolve-2d",
            command="evolve",
            setup="fracpm.evolution:precompute_singular_field",
            template="""\
dimension = 2
epsilon = 0.8
seed = {seed}
grid.n = 64
geometry.curve = circle
geometry.radius = 0.5
perturbation.kind = noise
perturbation.amplitude = 1e-3
perturbation.taper = true
solver.dt = 1e-4
solver.t_final = 0.02
solver.snapshot_stride = 25
""",
            layers=_COMMON + _STEPPING + _EWALD + ("spectral.frac_gradient_2d",),
        ),
        Workload(
            name="fracfield-2d",
            command="fracfield",
            setup="fracpm.evolution:precompute_singular_field",
            template="""\
dimension = 2
epsilon = 0.3
grid.n = 64
geometry.curve = circle
geometry.radius = 0.5
probes.d_min = 2e-5
probes.d_max = 2e-3
probes.count = 8
probes.angle = {angle}
probes.sign_check = true
""",
            layers=_COMMON + _EWALD + ("oracles.alpha_H_and_derivatives", "fieldio.write_field"),
        ),
        Workload(
            name="spectrum-1d",
            command="spectrum",
            setup="fracpm.linearop:face_alpha",
            template="""\
dimension = 1
epsilon = 0.7
grid.n = 2048
geometry.jumps = {a}, {b}
geometry.values = 1.0, 0.0
""",
            layers=_COMMON + _KERNEL_1D + (
                "linearop.face_alpha",
                "linearop.assemble",
                "linearop.spectrum_deflated",
            ),
        ),
    )
}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: Workload, cfg_text: str, outdir: str) -> list:
    """Problems found in one run's output files; empty when correct."""
    if workload.command == "evolve":
        return _check_evolve(cfg_text, outdir)
    if workload.command == "fracfield":
        return _check_fracfield(outdir)
    return _check_spectrum(cfg_text, outdir)


def _config_value(cfg_text, key):
    for line in cfg_text.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return v.strip()
    raise KeyError(key)


def _check_evolve(cfg_text, outdir):
    report = _read_json(os.path.join(outdir, "evolve_report.json"))
    header, rows = _read_csv(os.path.join(outdir, "series.csv"))
    col = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    steps = round(
        float(_config_value(cfg_text, "solver.t_final"))
        / float(_config_value(cfg_text, "solver.dt"))
    )
    problems = []
    if report["status"] != "completed":
        problems.append(f"status {report['status']!r}")
    if len(rows) != steps + 1 or report["steps_recorded"] != steps:
        problems.append(f"{len(rows) - 1} steps recorded, expected {steps}")
    drift = max(abs(m - col["mean_u"][0]) for m in col["mean_u"])
    if not drift <= MEAN_DRIFT_MAX:
        problems.append(f"mean_u drift {drift:.3g} > {MEAN_DRIFT_MAX:g}")
    overshoot = max(v - col["linf_u"][0] for v in col["linf_u"])
    if not overshoot <= OVERSHOOT_MAX:
        problems.append(f"linf_u overshoot {overshoot:.3g} > {OVERSHOOT_MAX:g}")
    if not col["l2_w"][-1] < col["l2_w"][0]:
        problems.append("l2_w did not decrease")
    return problems


def _check_fracfield(outdir):
    report = _read_json(os.path.join(outdir, "fracfield_report.json"))
    problems = []
    if len(report["fits"]) != 2:
        problems.append(f"{len(report['fits'])} fits, expected 2")
    for fit in report["fits"]:
        err = abs(fit["slope"] - fit["target"])
        if not err <= SLOPE_TOL:
            problems.append(f"{fit['quantity']} slope off target by {err:.3g}")
    if not report.get("sign_check", {}).get("all_correct"):
        problems.append("sign check failed")
    return problems


def _check_spectrum(cfg_text, outdir):
    report = _read_json(os.path.join(outdir, "spectrum_report.json"))
    _, rows = _read_csv(os.path.join(outdir, "eigenvalues.csv"))
    eigs = [float(r[1]) for r in rows]
    n = int(_config_value(cfg_text, "grid.n"))
    problems = []
    if not report["gamma"] > 0:
        problems.append(f"gamma {report['gamma']} is not positive")
    if report["deflation_dim"] != report["component_count"]:
        problems.append("deflation_dim differs from component_count")
    if report["kernel_dim"] != 1:
        problems.append(f"kernel_dim {report['kernel_dim']}, expected 1")
    if len(eigs) != n:
        problems.append(f"{len(eigs)} eigenvalues, expected {n}")
    if any(b < a for a, b in zip(eigs, eigs[1:])):
        problems.append("eigenvalues not ascending")
    return problems
