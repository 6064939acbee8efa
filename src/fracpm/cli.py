"""Command-line entry point.

    fracpm fracfield --config run.cfg [--out DIR]
    fracpm evolve    --config run.cfg [--seed N] [--out DIR]
    fracpm spectrum  --config run.cfg [--out DIR]
    fracpm verify    [--out DIR] [--list]

Exit codes are part of the contract: 0 success, 1 verification failure,
2 configuration, geometry or output path, 3 excluded parameter, 4 blow-up,
5 linear algebra. All artifacts are written atomically; rerunning a command
with the same config and seed reproduces the data files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fieldio, oracles, verify
from .errors import BlowUpError, ConfigError, FracpmError
from .evolution import evolve, initial_perturbation, precompute_singular_field
from .geometry import COLLISION_TOL, ensure_offgrid, exponent_fit, probe_distances
from .grid import ScalarField
from .runconfig import RunConfig, load_config
from .spectral import alpha_from_fracfield


def _prepared(cfg: RunConfig):
    """Grid and collision-shifted geometry of a config."""
    grid = cfg.build_grid()
    geom, note = ensure_offgrid(cfg.build_geometry(), grid)
    if note:
        print(f"note: {note}", file=sys.stderr)
    return grid, geom


def cmd_fracfield(cfg: RunConfig, outdir: str) -> int:
    grid, geom = _prepared(cfg)
    p = cfg.build_params(forbid_half=cfg.sign_check)
    d = probe_distances(cfg.probes_d_min, cfg.probes_d_max, cfg.probes_count)
    pts = geom.outward_point(d, angle=cfg.probes_angle)
    # distance along an outward ray falls behind d for good once it falls
    reach = float(geom.distance(*pts[-1:].T)[0])
    if abs(reach - d[-1]) > 1e-9 * d[-1] + COLLISION_TOL:
        raise ConfigError(
            f"probes.d_max: the outermost probe lies {reach:.3g}, not {d[-1]:.3g}, from the jump set"
        )
    field = oracles.step_field(geom, p)  # one evaluator for the grid, probes and sign check
    S = precompute_singular_field(grid, geom, p, field=field)
    alpha = alpha_from_fracfield(S)
    fieldio.write_field(
        os.path.join(outdir, "singular.field"),
        ScalarField(grid, S),
        p.epsilon,
        "frac_gradient_H",
    )
    fieldio.write_field(
        os.path.join(outdir, "alpha.field"),
        ScalarField(grid, alpha),
        p.epsilon,
        "diffusion_coefficient",
    )

    field_vals = np.abs(field(pts))
    alpha_vals = alpha_from_fracfield(field_vals)

    fits = []
    for name, vals, target in (
        ("frac_gradient_magnitude", field_vals, p.epsilon - 1.0),
        ("diffusion_coefficient", alpha_vals, 2.0 - 2.0 * p.epsilon),
    ):
        slope, r2, used = exponent_fit(d, vals)
        fits.append(
            {
                "quantity": name,
                "slope": slope,
                "target": target,
                "r2": r2,
                "samples": used,
                "window": [cfg.probes_d_min, cfg.probes_d_max],
            }
        )
    report = {"epsilon": p.epsilon, "dimension": cfg.dimension, "fits": fits}

    if cfg.sign_check:
        report["sign_check"] = oracles.concavity(geom, p, field, d, field_vals, cfg.probes_angle)

    fieldio.write_csv(
        os.path.join(outdir, "probes.csv"),
        ("d", "frac_gradient_magnitude", "alpha"),
        zip(d.tolist(), field_vals.tolist(), alpha_vals.tolist()),
    )
    fieldio.write_json(os.path.join(outdir, "fracfield_report.json"), report)
    return 0


def cmd_evolve(cfg: RunConfig, outdir: str, seed: int | None) -> int:
    cfg.solver.validate(cfg.build_grid())  # work ceilings, before any allocation
    grid, geom = _prepared(cfg)
    p = cfg.build_params()
    use_seed = cfg.seed if seed is None else seed
    if cfg.perturbation_kind == "file":
        w0, header = fieldio.read_field(cfg.perturbation_file)
        if w0.grid != grid:
            raise ConfigError(
                f"perturbation file grid {header} does not match the run grid"
            )
    else:
        w0 = initial_perturbation(
            grid,
            geom,
            kind=cfg.perturbation_kind,
            amplitude=cfg.perturbation_amplitude,
            taper=cfg.perturbation_taper,
            seed=use_seed,
            taper_delta=cfg.delta,
        )

    def dump(traj, status: str):
        iters = traj.cg_iterations  # empty for the explicit scheme
        fieldio.write_csv(
            os.path.join(outdir, "series.csv"),
            ("t", "l2_w", "linf_u", "mean_u", "energy"),
            zip(traj.times, traj.l2_w, traj.linf_u, traj.mean_u, traj.energy),
        )
        for snap_index, (t, values) in enumerate(traj.snapshots):
            fieldio.write_field(
                os.path.join(outdir, f"w_{snap_index:06d}.field"),
                ScalarField(grid, values),
                p.epsilon,
                f"w@t={t:.17g}",
            )
        fieldio.write_json(
            os.path.join(outdir, "evolve_report.json"),
            {
                "status": status,
                "seed": use_seed,
                "steps_recorded": len(traj.times) - 1,
                "snapshots": len(traj.snapshots),
                "final_l2_w": traj.l2_w[-1],
                "final_linf_u": traj.linf_u[-1],
                "cg_iterations": {"total": sum(iters), "max": max(iters, default=0),
                                  "mean": sum(iters) / max(len(iters), 1)},
            },
        )

    try:
        traj = evolve(grid, geom, p, w0, cfg.solver)
    except BlowUpError as exc:
        if exc.trajectory is not None:
            dump(exc.trajectory, f"blow-up: {exc}")
        if exc.last_good is not None:
            t_last, values = exc.last_good
            fieldio.write_field(
                os.path.join(outdir, "w_last_good.field"),
                ScalarField(grid, values),
                p.epsilon,
                f"w@t={t_last:.17g}",
            )
        raise
    dump(traj, "completed")
    return 0


def cmd_spectrum(cfg: RunConfig, outdir: str) -> int:
    import scipy.sparse.csgraph  # noqa: F401  loaded in set-up, not in the eigensolve
    import scipy.sparse.linalg  # noqa: F401

    from . import linearop

    grid, geom = _prepared(cfg)
    p = cfg.build_params()
    alpha_faces = linearop.face_alpha(grid, geom, p)
    indicators = linearop.component_indicators(grid, geom)
    A = linearop.assemble(grid, alpha_faces)
    if grid.n**grid.dim <= linearop.DENSE_MAX_NODES:
        gamma, eigs, r = linearop.spectrum_deflated(A, indicators)
        mode = "dense"
    else:
        gamma, eigs, r = linearop.spectrum_deflated_iterative(A, indicators)
        mode = "iterative"

    report = {
        "mode": mode,
        "epsilon": p.epsilon,
        "gamma": float(gamma),
        "poincare_constant": linearop.poincare_constant(gamma),
        "deflation_dim": int(r),
        "component_count": int(geom.component_count()),
        "kernel_dim": linearop.kernel_dim(A, r),
        "matrix_norm": linearop.matrix_norm(A),
    }
    fieldio.write_csv(
        os.path.join(outdir, "eigenvalues.csv"), ("index", "eigenvalue"), enumerate(eigs.tolist())
    )
    fieldio.write_json(os.path.join(outdir, "spectrum_report.json"), report)
    return 0


def cmd_verify(outdir: str, list_only: bool) -> int:
    if list_only:
        for entry in verify.list_criteria():
            print(f"{entry['id']}  [{entry['command']}]  {entry['title']}")
        return 0
    summary = verify.run_all()
    failed = []
    for res in summary["criteria"]:
        tag = "PASS" if res["passed"] else "FAIL"
        print(f"{res['id']} {tag} ({res['runtime_s']:.2f} s)  {res['title']}")
        if not res["passed"]:
            failed.append(res["id"])
    fieldio.write_json(os.path.join(outdir, "verify_summary.json"), summary)
    if failed:
        print(f"FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpm",
        description="Fractional-gradient Perona-Malik diffusion toolkit",
    )
    parser.add_argument(
        "command", choices=("fracfield", "evolve", "spectrum", "verify")
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--list", action="store_true", help="verify only: print criterion IDs"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            outdir = args.out or "out"
            if not args.list:
                os.makedirs(outdir, exist_ok=True)
            return cmd_verify(outdir, args.list)
        if not args.config:
            raise ConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config)
        outdir = args.out or cfg.output
        os.makedirs(outdir, exist_ok=True)
        if args.command == "fracfield":
            return cmd_fracfield(cfg, outdir)
        if args.command == "evolve":
            return cmd_evolve(cfg, outdir, args.seed)
        return cmd_spectrum(cfg, outdir)
    except FracpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an output path that cannot be made or written
        path = exc.filename2 or exc.filename
        print(f"error: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
