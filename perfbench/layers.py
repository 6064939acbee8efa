"""The traced layer boundaries and the per-layer metrics derived from them.

A span is the list [name, start, end, parent, run_id, work]: start and end
are time.perf_counter() seconds inside one process, parent is the index of
the enclosing span in the same list (-1 at the top), and work is the size
of the call (points evaluated, bytes built or written), or 0.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import statistics

# (module, attribute path, span name). A module-level function is replaced
# wherever a fracpm module bound it, so `from .evolution import evolve` in
# the CLI is traced as well.
TRACED = (
    ("fracpm.cli", "main", "cli.main"),
    ("fracpm.evolution", "evolve", "evolution.evolve"),
    ("fracpm.evolution", "initial_perturbation", "evolution.initial_perturbation"),
    ("fracpm.evolution", "precompute_singular_field", "evolution.precompute_singular_field"),
    ("fracpm.evolution", "diffusion_coefficient", "evolution.diffusion_coefficient"),
    ("fracpm.evolution", "SemiImplicitStepper.advance", "evolution.advance"),
    ("fracpm.spectral", "pm_divergence_form", "spectral.pm_divergence_form"),
    ("fracpm.spectral", "frac_derivative_1d", "spectral.frac_derivative_1d"),
    ("fracpm.spectral", "frac_gradient_2d", "spectral.frac_gradient_2d"),
    ("fracpm.curves", "EwaldStepField2D.__init__", "curves.ewald_build"),
    ("fracpm.curves", "EwaldStepField2D.evaluate", "curves.ewald_evaluate"),
    ("fracpm.curves", "Circle.distance", "curves.circle_distance"),
    ("fracpm.geometry", "ensure_offgrid", "geometry.ensure_offgrid"),
    ("fracpm.kernel", "ClausenEvaluator.__init__", "kernel.clausen_init"),
    ("fracpm.oracles", "fracH_1d", "oracles.fracH_1d"),
    ("fracpm.oracles", "alpha_H_and_derivatives", "oracles.alpha_H_and_derivatives"),
    ("fracpm.linearop", "face_alpha", "linearop.face_alpha"),
    ("fracpm.linearop", "assemble", "linearop.assemble"),
    ("fracpm.linearop", "assemble_sparse", "linearop.assemble_sparse"),
    ("fracpm.linearop", "spectrum_deflated", "linearop.spectrum_deflated"),
    ("fracpm.linearop", "spectrum_deflated_iterative", "linearop.spectrum_deflated_iterative"),
    ("fracpm.fieldio", "write_field", "fieldio.write_field"),
    ("fracpm.fieldio", "write_csv", "fieldio.write_csv"),
    ("fracpm.fieldio", "write_json", "fieldio.write_json"),
)

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "spectral.matvec_us": "us",
    "spectral.matvec_calls": "count",
    "spectral.fracgrad_ms": "ms",
    "evolution.step_ms.p50": "ms",
    "evolution.step_ms.p90": "ms",
    "evolution.step_self_ms": "ms",
    "evolution.cg_iters_per_step": "count",
    "evolution.alpha_update_ms": "ms",
    "evolution.singular_field_s": "s",
    "evolution.singular_field_self_s": "s",
    "curves.ewald_build_s": "s",
    "curves.ewald_builds": "count",
    "curves.ewald_eval_s": "s",
    "curves.ewald_points": "count",
    "curves.ewald_us_per_point": "us",
    "curves.distance_s": "s",
    "curves.distance_points": "count",
    "geometry.ensure_offgrid_s": "s",
    "kernel.clausen_init_s": "s",
    "oracles.fracH_1d_s": "s",
    "oracles.alpha_derivs_s": "s",
    "linearop.face_alpha_s": "s",
    "linearop.assemble_s": "s",
    "linearop.matrix_bytes": "bytes",
    "linearop.eigensolve_s": "s",
    "cli.self_s": "s",
    "fieldio.write_s": "s",
    "fieldio.files": "count",
    "fieldio.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly across traced runs of one config.
EXACT_COUNTS = (
    "evolution.cg_iters_per_step",
    "curves.ewald_points",
    "curves.ewald_builds",
    "linearop.matrix_bytes",
    "fieldio.bytes",
)

ASSEMBLE = ("linearop.assemble", "linearop.assemble_sparse")
WRITES = ("fieldio.write_field", "fieldio.write_csv", "fieldio.write_json")


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced process (trace.overhead_s excluded)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def total(*names):
        return sum(dur[i] for i in ids(*names))

    def self_total(*names):
        return sum(dur[i] - child[i] for i in ids(*names))

    def work(*names):
        return sum(spans[i][5] for i in ids(*names))

    steps = ids("evolution.advance")
    step_ms = sorted(dur[i] * 1e3 for i in steps)
    step_set = set(steps)
    cg_matvecs = sum(
        1 for i in ids("spectral.pm_divergence_form") if spans[i][3] in step_set
    )
    ewald_points = work("curves.ewald_evaluate")
    ewald_eval_s = total("curves.ewald_evaluate")
    # a sparse build nested in a dense one is the same matrix
    outer_builds = [
        i for i in ids(*ASSEMBLE)
        if spans[i][3] < 0 or spans[spans[i][3]][0] not in ASSEMBLE
    ]
    return {
        "spectral.matvec_us": _median(
            [dur[i] for i in ids("spectral.pm_divergence_form")], 1e6
        ),
        "spectral.matvec_calls": len(ids("spectral.pm_divergence_form")),
        "spectral.fracgrad_ms": _median(
            [dur[i] for i in ids("spectral.frac_derivative_1d", "spectral.frac_gradient_2d")],
            1e3,
        ),
        "evolution.step_ms.p50": _median(step_ms),
        "evolution.step_ms.p90": (
            statistics.quantiles(step_ms, n=10)[-1] if len(step_ms) > 1 else _median(step_ms)
        ),
        "evolution.step_self_ms": _median([dur[i] - child[i] for i in steps], 1e3),
        "evolution.cg_iters_per_step": cg_matvecs / len(steps) if steps else 0.0,
        "evolution.alpha_update_ms": _median(
            [dur[i] for i in ids("evolution.diffusion_coefficient")], 1e3
        ),
        "evolution.singular_field_s": total("evolution.precompute_singular_field"),
        "evolution.singular_field_self_s": self_total("evolution.precompute_singular_field"),
        "curves.ewald_build_s": total("curves.ewald_build"),
        "curves.ewald_builds": len(ids("curves.ewald_build")),
        "curves.ewald_eval_s": ewald_eval_s,
        "curves.ewald_points": ewald_points,
        "curves.ewald_us_per_point": (
            ewald_eval_s / ewald_points * 1e6 if ewald_points else 0.0
        ),
        "curves.distance_s": total("curves.circle_distance"),
        "curves.distance_points": work("curves.circle_distance"),
        "geometry.ensure_offgrid_s": total("geometry.ensure_offgrid"),
        "kernel.clausen_init_s": total("kernel.clausen_init"),
        "oracles.fracH_1d_s": total("oracles.fracH_1d"),
        "oracles.alpha_derivs_s": total("oracles.alpha_H_and_derivatives"),
        "linearop.face_alpha_s": total("linearop.face_alpha"),
        "linearop.assemble_s": sum(dur[i] for i in outer_builds),
        "linearop.matrix_bytes": sum(spans[i][5] for i in outer_builds),
        "linearop.eigensolve_s": total(
            "linearop.spectrum_deflated", "linearop.spectrum_deflated_iterative"
        ),
        "cli.self_s": self_total("cli.main"),
        "fieldio.write_s": total(*WRITES),
        "fieldio.files": len(ids(*WRITES)),
        "fieldio.bytes": work(*WRITES),
    }


def missing_layers(spans, expected) -> list:
    """Expected span names that recorded no span, in the order given."""
    seen = {s[0] for s in spans}
    return [name for name in expected if name not in seen]
