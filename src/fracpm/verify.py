"""The acceptance suite behind `fracpm verify`.

Ten independent, seeded criteria with pinned tolerances (the suite
constants below, reported verbatim in the summary file). Each criterion
maps to exactly one CLI command; `verify --list` prints the mapping.
Criteria run in isolation so a failure in one cannot mask another.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from . import kernel, oracles, spectral
from .curves import Circle, EwaldStepField2D, lattice_field_2d
from .evolution import (
    SolverConfig,
    evolve,
    initial_perturbation,
    precompute_singular_field,
)
from .geometry import (
    JumpSet1D,
    JumpSet2D,
    decay_rate_fit,
    ensure_offgrid,
    exponent_fit,
    power_constant_fit,
    probe_distances,
)
from .grid import FracParams, PeriodicGrid, ScalarField
from .linearop import (
    assemble,
    component_indicators,
    deflation_basis,
    face_alpha,
    fd_laplacian_eigenvalues,
    spectrum_deflated_iterative,
)

TOLERANCES = {
    "c01_max_abs_err": 1e-10,
    "c01_runtime_s": 1.0,
    "c02_slope_tol": 0.05,
    "c02_envelope_max": 10.0,
    "c03_slope_tol": 0.08,
    "c03_runtime_s": 60.0,
    "c03_route_agreement": 1e-6,
    "c03_min_lattice_modes": 1e5,
    "c04_zero_tol": 1e-10,
    "c04_route_agreement": 1e-10,
    "c05_slope_tol": 0.05,
    "c06_l2_max": 1e-12,
    "c06_runtime_s": 120.0,
    "c07_overshoot": 1e-8,
    "c07_mean_drift": 1e-10,
    "c08_gamma_variation": 0.10,
    "c09_rate_vs_gamma": 0.20,
    "c10_eig_tol": 1e-10,
    "c10_mode_tol": 1e-12,
}


def _offgrid(geom, grid: PeriodicGrid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom, _ = ensure_offgrid(geom, grid)
    return geom


def criterion_01():
    """Spectral 1D fractional derivative vs the mode-sum oracle."""
    grid = PeriodicGrid(1, 1024)
    p = FracParams(0.7)
    rng = np.random.default_rng(12345)
    x = grid.axis_nodes()
    vals = np.zeros(grid.n)
    for k in range(1, 51):
        vals += rng.standard_normal() * np.cos(
            np.pi * k * x + rng.uniform(0.0, 2.0 * np.pi)
        )
    f = ScalarField(grid, vals)
    t0 = time.perf_counter()
    fast = spectral.frac_derivative_1d(grid, spectral.spectral_ops(grid).forward(vals), p)
    slow = kernel.series_frac_derivative(spectral.dft_forward(f), p, x)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(fast - slow)))
    passed = err < TOLERANCES["c01_max_abs_err"] and elapsed < TOLERANCES["c01_runtime_s"]
    return passed, {"max_abs_err": err, "runtime_s": elapsed, "n": grid.n, "modes": 50}


def criterion_02():
    """1D singular exponent and two-sided envelope of the step field.

    Near the jump the exact field is |F| = (A/2) d^(eps-1) + K/2 + O(d^2)
    with K = B c_0 - G_eps(1) (the reflection form in `kernel`). The leading
    exponent comes from the power-plus-constant fit on d in [1e-4, 1e-2]
    and must be within c02_slope_tol of eps - 1. The fitted constant is
    reported against K/2, and the pure log-log slope, which the constant
    bends away from eps - 1 as eps grows, is reported alongside.
    """
    geom = JumpSet1D.symmetric_step()
    d = probe_distances(1e-4, 1e-2, 32)
    x = 0.5 + d
    legs = {}
    env_low, env_high = np.inf, 0.0
    all_slopes_ok = True
    for eps in (0.3, 0.7, 0.9):
        p = FracParams(eps)
        vals = np.abs(oracles.fracH_1d(geom, p, x))
        slope, _, constant, rel_rms, _ = power_constant_fit(d, vals)
        pure_slope, r2, _ = exponent_fit(d, vals)
        ev = kernel.ClausenEvaluator(p)
        err = abs(slope - (eps - 1.0))
        ok = err <= TOLERANCES["c02_slope_tol"]
        all_slopes_ok &= ok
        legs[f"eps={eps}"] = {
            "slope": slope,
            "target": eps - 1.0,
            "abs_err": err,
            "constant": constant,
            "constant_target": 0.5 * (ev.B * ev.coeffs[0] - kernel.kernel_at_one(p)),
            "fit_rel_rms": rel_rms,
            "pure_slope": pure_slope,
            "pure_r2": r2,
            "ok": bool(ok),
        }
        scaled = d ** (1.0 - eps) * vals
        env_low = min(env_low, float(scaled.min()))
        env_high = max(env_high, float(scaled.max()))
    envelope = max(env_high, 1.0 / env_low)
    env_ok = envelope <= TOLERANCES["c02_envelope_max"]
    return bool(all_slopes_ok and env_ok), {
        "slopes": legs,
        "envelope_constant": envelope,
        "envelope_ok": bool(env_ok),
        "window": [1e-4, 1e-2],
    }


def criterion_03():
    """2D singular exponents on a circle, plus a truncated-sum cross-check."""
    t0 = time.perf_counter()
    circle = Circle((0.0, 0.0), 0.5)
    p = FracParams(0.3)
    d = probe_distances(1e-4, 1e-2, 32)
    pts = circle.outward_point(d, angle=0.37)
    ev = EwaldStepField2D(circle, p)
    out = ev.evaluate(pts, want=("field", "grad", "lap"))
    field = np.abs(out["field"])
    gmag = np.hypot(out["grad"][..., 0], out["grad"][..., 1])
    lap = np.abs(out["lap"])
    details = {"window": [1e-4, 1e-2], "angle": 0.37}
    ok = True
    for name, vals, target in (
        ("field", field, p.epsilon - 1.0),
        ("grad", gmag, p.epsilon - 2.0),
        ("lap", lap, p.epsilon - 3.0),
    ):
        slope, r2, _ = exponent_fit(d, vals)
        err = abs(slope - target)
        leg_ok = err <= TOLERANCES["c03_slope_tol"]
        ok &= leg_ok
        details[name] = {
            "slope": slope,
            "target": target,
            "abs_err": err,
            "r2": r2,
            "ok": bool(leg_ok),
        }
    # independent route: windowed lattice truncation at >= 1e5 modes
    # (cutoff well past 8/d so the tail window never bites resolved modes)
    cutoff = 2000
    d_check = np.array([0.05, 0.1, 0.2])
    pts_check = circle.outward_point(d_check, angle=0.37)
    resummed = ev.evaluate(pts_check, want=("field",))["field"]
    lattice = lattice_field_2d(circle, p, pts_check, cutoff)
    route_diff = float(np.max(np.abs(resummed - lattice)))
    modes = float(np.pi * cutoff**2)
    route_ok = (
        route_diff < TOLERANCES["c03_route_agreement"]
        and modes >= TOLERANCES["c03_min_lattice_modes"]
    )
    ok &= route_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < TOLERANCES["c03_runtime_s"]
    details.update(
        {
            "route_diff": route_diff,
            "lattice_modes": modes,
            "route_ok": bool(route_ok),
            "runtime_s": elapsed,
        }
    )
    return bool(ok), details


def criterion_04():
    """Curvature-weight criterion: zero at 1/2, sign, and route agreement."""
    sweep = np.linspace(0.1, 0.9, 9)
    worst_gap = 0.0
    signs_ok = True
    for eps in sweep:
        p = FracParams(float(eps))
        a = oracles.beta_condition(p, method="beta")
        b = oracles.beta_condition(p, method="quadrature")
        worst_gap = max(worst_gap, abs(a - b))
        target = np.sign(1.0 - 2.0 * eps)
        if target != 0.0 and np.sign(a) != target:
            signs_ok = False
    at_half = abs(oracles.beta_condition(FracParams(0.5), method="beta"))
    zero_ok = at_half < TOLERANCES["c04_zero_tol"]
    match_ok = worst_gap < TOLERANCES["c04_route_agreement"]
    return bool(zero_ok and signs_ok and match_ok), {
        "value_at_half": at_half,
        "max_route_gap": worst_gap,
        "signs_ok": bool(signs_ok),
        "sweep": [float(e) for e in sweep],
    }


def criterion_05():
    """Diffusion-coefficient exponent and the concavity sign flip at 1/2.

    Slope legs (eps = 0.3, d in [1e-5, 1e-3]): the log-log slope of alpha
    is within c05_slope_tol of 2 - 2 eps in 1D and 2D. Sign legs (eps = 0.3,
    0.45, 0.55, 0.7, 1D and 2D) apply `oracles.concavity`, the rule behind
    fracfield's sign_check: the leading exponent gamma of alpha, from the
    power-plus-constant fit of |F| on d in [1e-4, 1e-2], must be within
    c05_slope_tol of 2 - 2 eps, and gamma (gamma - 1), the sign of the
    leading term of alpha'', must equal sign(1 - 2 eps). The pointwise
    finite-difference second derivative on d in [1e-3, 1e-2] (1D) and the
    Laplacian there (2D) are reported as min_signed_*, not asserted: the
    subleading term outweighs the leading one there for 1/2 < eps < 2/3.
    """
    ok = True
    slopes, signs = {}, {}
    d = probe_distances(1e-5, 1e-3, 32)
    d_fit = probe_distances(1e-4, 1e-2, 32)
    for dim, g in (
        ("1d", JumpSet1D.symmetric_step()),
        ("2d", JumpSet2D(Circle((0.0, 0.0), 0.5))),
    ):
        # exponent leg at eps = 0.3, window pushed into the asymptotic regime
        p = FracParams(0.3)
        alpha = oracles.alpha_H(g, p, g.outward_point(d, angle=0.37))
        slope, r2, _ = exponent_fit(d, alpha)
        err = abs(slope - (2.0 - 2.0 * p.epsilon))
        leg_ok = bool(err <= TOLERANCES["c05_slope_tol"])
        ok &= leg_ok
        slopes[f"slope_{dim}"] = {"slope": slope, "abs_err": err, "r2": r2, "ok": leg_ok}
        # sign legs: the concavity sign of the leading term of alpha
        for eps in (0.3, 0.45, 0.55, 0.7):
            pe = FracParams(eps)
            F = oracles.step_field(g, pe)
            field = np.abs(F(g.outward_point(d_fit, angle=0.37)))
            alpha = spectral.alpha_from_fracfield(field)
            sign = oracles.concavity(g, pe, F, d_fit, field, angle=0.37)
            gamma = sign["gamma"]
            leg_ok = bool(
                sign["all_correct"]
                and abs(gamma - (2.0 - 2.0 * eps)) <= TOLERANCES["c05_slope_tol"]
            )
            ok &= leg_ok
            signs.setdefault(f"eps={eps}", {}).update({
                f"ok_{dim}": leg_ok,
                f"gamma_{dim}": gamma,
                f"pure_slope_{dim}": exponent_fit(d_fit, alpha)[0],
                f"min_signed_{dim}": sign["min_signed_value"],
            })
    return bool(ok), {
        **slopes,
        "slope_window": [1e-5, 1e-3],
        "sign_fit_window": [1e-4, 1e-2],
        "sign_window": list(oracles.SIGN_WINDOW),
        "sign_legs": signs,
    }


def criterion_06():
    """Stationarity of the pure step under 10^4 semi-implicit steps."""
    t0 = time.perf_counter()
    cfg = SolverConfig(dt=1e-4, t_final=1.0, tolerance=1e-10, snapshot_stride=10_000)
    worst = {}
    for dim, n, start in (
        (1, 512, JumpSet1D.symmetric_step()),
        (2, 128, JumpSet2D(Circle((0.0, 0.0), 0.5))),
    ):
        grid = PeriodicGrid(dim, n)
        geom = _offgrid(start, grid)
        p = FracParams(0.8)
        w0 = ScalarField(grid, np.zeros(grid.shape))
        traj = evolve(grid, geom, p, w0, cfg)
        worst[f"{dim}d"] = float(np.max(traj.l2_w))
    elapsed = time.perf_counter() - t0
    passed = (
        max(worst.values()) < TOLERANCES["c06_l2_max"]
        and elapsed < TOLERANCES["c06_runtime_s"]
    )
    return bool(passed), {"max_l2_w": worst, "runtime_s": elapsed, "steps": 10_000}


def criterion_07():
    """Sup-norm contraction and mean conservation over random runs."""
    grid = PeriodicGrid(1, 512)
    geom = _offgrid(JumpSet1D.symmetric_step(), grid)
    p = FracParams(0.8)
    S = precompute_singular_field(grid, geom, p)
    cfg = SolverConfig(dt=1e-4, t_final=0.02, tolerance=1e-10, snapshot_stride=1000)
    overshoot = 0.0
    drift = 0.0
    for seed in range(10):
        w0 = initial_perturbation(
            grid, geom, kind="noise", amplitude=1e-3, taper=True, seed=seed
        )
        traj = evolve(grid, geom, p, w0, cfg, singular_field=S)
        linf = np.asarray(traj.linf_u)
        mean = np.asarray(traj.mean_u)
        overshoot = max(overshoot, float(np.max(linf - linf[0])))
        drift = max(drift, float(np.max(np.abs(mean - mean[0]))))
    passed = (
        overshoot <= TOLERANCES["c07_overshoot"]
        and drift < TOLERANCES["c07_mean_drift"]
    )
    return bool(passed), {
        "max_overshoot": overshoot,
        "max_mean_drift": drift,
        "runs": 10,
        "steps_per_run": 200,
    }


def criterion_08():
    """Deflated spectral gap: positive and grid-stable for eps > 1/2."""
    table = {}
    ok = True
    for eps in (0.55, 0.7, 0.85):
        p = FracParams(eps)
        gammas = []
        for n in (256, 512, 1024):
            grid = PeriodicGrid(1, n)
            geom = _offgrid(JumpSet1D.symmetric_step(), grid)
            A = assemble(grid, face_alpha(grid, geom, p))
            gammas.append(spectrum_deflated_iterative(A, component_indicators(grid, geom))[0])
        variation = abs(gammas[2] - gammas[1]) / gammas[2]
        leg_ok = all(g > 0 for g in gammas) and variation < TOLERANCES[
            "c08_gamma_variation"
        ]
        ok &= leg_ok
        table[f"eps={eps}"] = {
            "gamma": dict(zip(("n=256", "n=512", "n=1024"), map(float, gammas))),
            "variation_two_finest": float(variation),
            "ok": bool(leg_ok),
        }
    return bool(ok), table


def criterion_09():
    """Nonlinear decay rate agrees with the linearized deflated gap."""
    grid = PeriodicGrid(1, 512)
    geom = _offgrid(JumpSet1D.symmetric_step(), grid)
    p = FracParams(0.3)
    A = assemble(grid, face_alpha(grid, geom, p))
    V = component_indicators(grid, geom)
    gam, _, _ = spectrum_deflated_iterative(A, V)
    Q = deflation_basis(V)
    # odd seed mode: never excites the even near-null transition mode,
    # so the decay is governed by the deflated gap alone
    w0 = initial_perturbation(grid, geom, kind="mode", amplitude=1e-3, taper=True)
    vals = w0.values - Q @ (Q.T @ w0.values)
    vals *= 1e-3 / np.max(np.abs(vals))
    w0 = ScalarField(grid, vals)
    cfg = SolverConfig(dt=2e-3, t_final=2.4, tolerance=1e-12, snapshot_stride=5)
    traj = evolve(grid, geom, p, w0, cfg)
    ts = np.array([t for t, _ in traj.snapshots])
    norms = np.array(
        [np.linalg.norm(w - Q @ (Q.T @ w)) * np.sqrt(grid.h) for _, w in traj.snapshots]
    )
    window = (norms < 0.1 * norms[0]) & (norms > 1e-3 * norms[0])
    rate, r2 = decay_rate_fit(ts[window], norms[window])
    rel = abs(rate - gam) / gam
    discrete = np.log1p(gam * cfg.dt) / cfg.dt  # backward Euler damps it by 1 / (1 + gamma dt)
    passed = rel <= TOLERANCES["c09_rate_vs_gamma"]
    return bool(passed), {
        "gamma": float(gam),
        "fitted_rate": float(rate),
        "relative_gap": float(rel),
        "discrete_rate": float(discrete),
        "relative_gap_discrete": float(abs(rate - discrete) / discrete),
        "r2": float(r2),
        "epsilon": 0.3,
        "amplitude": 1e-3,
    }


def criterion_10():
    """Constant-coefficient spectrum and the exact single-mode identity."""
    worst_eig = 0.0
    for n in (128, 256):
        grid = PeriodicGrid(1, n)
        A = assemble(grid, np.ones(n)).toarray()
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (A + A.T)))
        worst_eig = max(
            worst_eig, float(np.max(np.abs(eigs - fd_laplacian_eigenvalues(grid))))
        )
    grid = PeriodicGrid(1, 256)
    x = grid.axis_nodes()
    c = spectral.spectral_ops(grid).forward(np.sin(np.pi * x))
    target = np.pi * np.cos(np.pi * x)
    worst_mode = 0.0
    for eps in np.linspace(0.1, 0.9, 9):
        got = spectral.frac_derivative_1d(grid, c, FracParams(float(eps)))
        worst_mode = max(worst_mode, float(np.max(np.abs(got - target))))
    passed = (
        worst_eig < TOLERANCES["c10_eig_tol"]
        and worst_mode < TOLERANCES["c10_mode_tol"]
    )
    return bool(passed), {
        "max_eigenvalue_err": worst_eig,
        "max_single_mode_err": worst_mode,
        "grids": [128, 256],
    }


CRITERIA = (
    ("C01", "spectral vs mode-sum 1D fractional derivative", "fracfield", criterion_01),
    ("C02", "1D singular exponent and envelope of the step field", "fracfield", criterion_02),
    ("C03", "2D singular exponents on a circle", "fracfield", criterion_03),
    ("C04", "curvature-weight zero/sign/route criterion", "fracfield", criterion_04),
    ("C05", "diffusion-coefficient exponent and concavity signs", "fracfield", criterion_05),
    ("C06", "stationarity of the pure step", "evolve", criterion_06),
    ("C07", "sup-norm contraction and mean conservation", "evolve", criterion_07),
    ("C08", "positive, grid-stable deflated spectral gap", "spectrum", criterion_08),
    ("C09", "nonlinear decay rate matches the deflated gap", "spectrum", criterion_09),
    ("C10", "constant-coefficient spectrum sanity", "spectrum", criterion_10),
)


def list_criteria():
    return [
        {"id": cid, "title": title, "command": command}
        for cid, title, command, _ in CRITERIA
    ]


def run_criterion(cid: str):
    """Run one criterion. Its runtime_s is its own work: the scipy modules
    the suite uses are imported before the clock starts, so no criterion
    pays for loading them."""
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    for known, title, command, fn in CRITERIA:
        if known == cid:
            t0 = time.perf_counter()
            try:
                passed, details = fn()
            except Exception as exc:  # a crashed criterion is a failed criterion
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            return {
                "id": cid,
                "title": title,
                "command": command,
                "passed": bool(passed),
                "runtime_s": time.perf_counter() - t0,
                "details": details,
            }
    raise KeyError(f"unknown criterion {cid!r}")


def run_all():
    """Run every criterion, one after another; returns the summary dict."""
    results = [run_criterion(cid) for cid, _, _, _ in CRITERIA]
    return {
        "all_passed": bool(all(r["passed"] for r in results)),
        "criteria": results,
        "tolerances": TOLERANCES,
    }
