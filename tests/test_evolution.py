import numpy as np
import pytest

import fracpm.evolution as evo
from fracpm.errors import BlowUpError, ConfigError, LinearAlgebraError
from fracpm.evolution import (
    SemiImplicitStepper,
    SolverConfig,
    decay_rate_fit,
    evolve,
    initial_perturbation,
    precompute_singular_field,
)
from fracpm.geometry import JumpSet1D
from fracpm.grid import FracParams, PeriodicGrid, ScalarField
from fracpm import spectral
from fracpm.spectral import dft_forward

from conftest import offgrid

P = FracParams(0.8)


@pytest.fixture(scope="module")
def run_1d(step_256):
    grid, geom = step_256
    return grid, geom, precompute_singular_field(grid, geom, P)


@pytest.fixture(scope="module")
def run_1d_128():
    grid = PeriodicGrid(1, 128)
    geom = offgrid(JumpSet1D.symmetric_step(), grid)
    return grid, geom, precompute_singular_field(grid, geom, P)


def test_zero_perturbation_is_stationary(run_1d):
    grid, geom, S = run_1d
    traj = evolve(
        grid, geom, P, ScalarField(grid, np.zeros(grid.shape)),
        SolverConfig(dt=1e-4), n_steps=50, singular_field=S,
    )
    assert max(traj.l2_w) < 1e-14


def test_contraction_mean_and_energy(run_1d):
    grid, geom, S = run_1d
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=3)
    traj = evolve(grid, geom, P, w0, SolverConfig(dt=1e-4), n_steps=100, singular_field=S)
    linf = np.asarray(traj.linf_u)
    mean = np.asarray(traj.mean_u)
    energy = np.asarray(traj.energy)
    assert np.max(np.diff(linf)) <= 1e-8
    assert np.max(np.abs(mean - mean[0])) < 1e-12
    assert np.max(np.diff(energy)) <= 1e-12 * energy[0]


def test_evolution_is_deterministic(run_1d):
    grid, geom, S = run_1d
    cfg = SolverConfig(dt=1e-4, snapshot_stride=20)
    outs = []
    for _ in range(2):
        w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=42)
        traj = evolve(grid, geom, P, w0, cfg, n_steps=40, singular_field=S)
        outs.append(traj.snapshots[-1][1])
    assert np.array_equal(outs[0], outs[1])


def test_snapshot_stride_counts(run_1d):
    grid, geom, S = run_1d
    traj = evolve(
        grid, geom, P, initial_perturbation(grid, geom, seed=1),
        SolverConfig(dt=1e-4, snapshot_stride=10), n_steps=100, singular_field=S,
    )
    assert len(traj.snapshots) == 11  # t=0 plus every 10th step
    assert len(traj.times) == 101


def test_first_order_in_dt(run_1d_128):
    """Halving dt should roughly halve the endpoint error (lagged
    coefficients make the splitting first order)."""
    grid, geom, S = run_1d_128
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=5)
    horizon = 0.02

    def endpoint(dt):
        steps = int(round(horizon / dt))
        cfg = SolverConfig(dt=dt, snapshot_stride=steps)
        return evolve(grid, geom, P, w0, cfg, n_steps=steps, singular_field=S).snapshots[-1][1]

    ref = endpoint(2.5e-4 / 8.0)
    errs = [np.max(np.abs(endpoint(dt) - ref)) for dt in (2e-3, 1e-3, 5e-4)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(1.7 <= r <= 2.3 for r in ratios), ratios


def test_semi_implicit_single_mode_factor():
    # constant coefficient: each step divides the mode by 1 + dt (pi k)^2
    grid = PeriodicGrid(1, 256)
    dt = 1e-3
    stepper = SemiImplicitStepper(grid, SolverConfig(dt=dt, tolerance=1e-12))
    w = ScalarField(grid, np.sin(np.pi * grid.axis_nodes()))
    out = stepper.advance(w, np.ones(grid.shape))
    assert np.max(np.abs(out.values - w.values / (1.0 + dt * np.pi**2))) < 1e-12


def oracle_real_space_pcg(apply_a, b, precond, tol, maxiter):
    """Independent oracle for the stepper's CG: textbook preconditioned CG
    on nodal values with the plain 2-norm, no spectral coefficients."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    pdir = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, maxiter + 1):
        ap = apply_a(pdir)
        step = rz / float(np.vdot(pdir, ap))
        x += step * pdir
        r -= step * ap
        if np.linalg.norm(r) <= tol * np.linalg.norm(b):
            return x, it
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        pdir = z + (rz_new / rz) * pdir
        rz = rz_new
    raise AssertionError("oracle CG did not converge")


def oracle_real_space_system(grid, alpha, dt):
    """v -> v - dt div(alpha grad v) on nodal values by complex FFTs (real
    part of each inverse), and the FFT solve at mean(alpha) that
    preconditions it; both independent of `fracpm.spectral`."""
    k = grid.wavenumbers()

    def apply(mult, v):
        return np.fft.ifftn(mult * np.fft.fftn(v)).real

    def apply_a(v):
        div = sum(apply(1j * np.pi * ka, alpha * apply(1j * np.pi * ka, v)) for ka in k)
        return v - dt * div

    sym = 1.0 + dt * np.mean(alpha) * np.pi**2 * sum(ka**2 for ka in k)
    return apply_a, lambda r: apply(1.0 / sym, r)


def test_fd_preconditioned_advance_matches_fft_preconditioned_solve(run_1d):
    """The 1D FD preconditioner changes the iterations, not the solution.
    I - dt L >= I, so two solves with relative residual <= tol differ by
    at most 2 tol |b|."""
    grid, geom, S = run_1d
    cfg = SolverConfig(dt=2e-3, tolerance=1e-12)
    w = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=6)
    alpha = evo.diffusion_coefficient(grid, P, S, w)
    stepper = SemiImplicitStepper(grid, cfg)
    got = stepper.advance(w, alpha).values

    apply_a, fft_precond = oracle_real_space_system(grid, alpha, cfg.dt)
    want, fft_iters = oracle_real_space_pcg(apply_a, w.values, fft_precond, cfg.tolerance, 500)
    b = np.linalg.norm(w.values)
    assert np.linalg.norm(got - want) <= 2.0 * cfg.tolerance * b
    assert stepper.last_iterations < fft_iters


def test_2d_advance_matches_real_space_cg(singular_field_2d, circle_64):
    """The half-spectrum CG is the real-space CG in other coordinates: same
    iterations, solutions within 2 tol |b| of each other."""
    grid, geom = circle_64
    p = FracParams(0.3)
    w = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=8)
    alpha = evo.diffusion_coefficient(grid, p, singular_field_2d, w)
    cfg = SolverConfig(dt=2e-3)
    stepper = SemiImplicitStepper(grid, cfg)
    got = stepper.advance(w, alpha).values

    apply_a, precond = oracle_real_space_system(grid, alpha, cfg.dt)
    want, iters = oracle_real_space_pcg(apply_a, w.values, precond, cfg.tolerance, 500)
    assert stepper.last_iterations == iters > 10
    assert np.linalg.norm(got - want) <= 2.0 * cfg.tolerance * np.linalg.norm(w.values)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
def test_one_matvec_per_cg_iteration(dim, n, monkeypatch):
    calls = []
    matvec = spectral.pm_divergence_form

    def counted(alpha, c):
        calls.append(1)
        return matvec(alpha, c)

    monkeypatch.setattr(spectral, "pm_divergence_form", counted)
    grid = PeriodicGrid(dim, n)
    rng = np.random.default_rng(dim)
    w = ScalarField(grid, rng.standard_normal(grid.shape))
    alpha = rng.uniform(0.1, 1.0, grid.shape)
    stepper = SemiImplicitStepper(grid, SolverConfig(dt=1e-3))
    for _ in range(2):
        calls.clear()
        w = stepper.advance(w, alpha)
        assert len(calls) == stepper.last_iterations > 0


def test_explicit_scheme_is_the_real_space_update(run_1d):
    """w + dt div(alpha grad w) per step, to 1e-15, against the complex-FFT
    operator on nodal values."""
    grid, geom, S = run_1d
    cfg = SolverConfig(dt=grid.h**2 / 4.0, scheme="explicit", snapshot_stride=20)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=9)
    traj = evolve(grid, geom, P, w0, cfg, n_steps=20, singular_field=S)
    w = w0.values
    for _ in range(20):
        alpha = evo.diffusion_coefficient(grid, P, S, ScalarField(grid, w))
        apply_a, _ = oracle_real_space_system(grid, alpha, -cfg.dt)
        w = apply_a(w)
    assert np.max(np.abs(traj.snapshots[-1][1] - w)) <= 1e-15


def test_fd_preconditioner_iterations_at_c09_config():
    grid = PeriodicGrid(1, 512)
    geom = offgrid(JumpSet1D.symmetric_step(), grid)
    p = FracParams(0.3)
    w0 = initial_perturbation(grid, geom, kind="mode", amplitude=1e-3, taper=True)
    cfg = SolverConfig(dt=2e-3, tolerance=1e-12)
    traj = evolve(grid, geom, p, w0, cfg, n_steps=20)
    assert len(traj.cg_iterations) == 20
    assert max(traj.cg_iterations) <= 40


def _count_fd_builds(monkeypatch):
    builds = []
    assemble = evo.linearop.assemble_sparse

    def counted(grid, faces):
        builds.append(1)
        return assemble(grid, faces)

    monkeypatch.setattr(evo.linearop, "assemble_sparse", counted)
    return builds


def test_stale_fd_factor_converges_on_rough_noise(run_1d, monkeypatch):
    """Large untapered noise moves alpha far from the alpha the factor was
    built on; CG still converges and the mean is still conserved."""
    grid, geom, S = run_1d
    builds = _count_fd_builds(monkeypatch)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=0.5, taper=False, seed=4)
    cfg = SolverConfig(dt=1e-4)
    traj = evolve(grid, geom, P, w0, cfg, n_steps=50, singular_field=S)
    mean = np.asarray(traj.mean_u)
    assert len(builds) == 1
    assert max(traj.cg_iterations) < cfg.max_linear_iter
    assert np.max(np.abs(mean - mean[0])) < 1e-10
    assert traj.l2_w[-1] < traj.l2_w[0]


def test_fd_failure_falls_back_to_fft_solve(run_1d, monkeypatch):
    """Where the FD factor fails within max_linear_iter, the step is solved
    again with the FFT preconditioner, which the run keeps from then on.
    The step counts max_linear_iter plus the FFT solve's iterations."""
    grid, geom, _ = run_1d
    p = FracParams(0.3)
    S = precompute_singular_field(grid, geom, p)
    builds = _count_fd_builds(monkeypatch)
    solves = []  # (preconditioner, iterations or None on failure) per CG solve
    real_pcg = evo._pcg

    def recording_pcg(apply_a, b, precond, tol, maxiter):
        solves.append((precond, None))
        x, it = real_pcg(apply_a, b, precond, tol, maxiter)
        solves[-1] = (precond, it)
        return x, it

    monkeypatch.setattr(evo, "_pcg", recording_pcg)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=0.5, taper=False, seed=4)
    cfg = SolverConfig(dt=2e-3, max_linear_iter=120)
    traj = evolve(grid, geom, p, w0, cfg, n_steps=10, singular_field=S)
    iters = traj.cg_iterations
    failed = [i for i, it in enumerate(iters) if it > cfg.max_linear_iter]
    assert len(failed) == 1 and len(builds) == 1
    k = failed[0]  # one solve per step before it, so solve k failed
    assert [it is None for _, it in solves] == [i == k for i in range(len(iters) + 1)]
    assert iters[k] == cfg.max_linear_iter + solves[k + 1][1]
    factor = solves[0][0]
    assert all(pc is factor for pc, _ in solves[: k + 1])
    assert not any(pc is factor for pc, _ in solves[k + 1:])
    assert all(it < cfg.max_linear_iter for it in iters[k + 1:])
    mean = np.asarray(traj.mean_u)
    assert np.max(np.abs(mean - mean[0])) < 1e-10



def test_2d_cg_failure_raises():
    """2D has no factor to fall back from: a CG failure is final."""
    grid = PeriodicGrid(2, 8)
    rng = np.random.default_rng(2)
    stepper = SemiImplicitStepper(grid, SolverConfig(dt=1e-2, max_linear_iter=1))
    w = ScalarField(grid, rng.standard_normal(grid.shape))
    with pytest.raises(LinearAlgebraError):
        stepper.advance(w, rng.uniform(0.1, 1.0, grid.shape))


def test_cross_scheme_agreement_is_second_order():
    """Explicit and semi-implicit runs of a smooth field differ per step by
    O(dt^2); at a fixed step count the gap must shrink 4x when dt halves."""
    grid = PeriodicGrid(1, 64)
    geom = offgrid(JumpSet1D.symmetric_step(1.0, 1.0), grid)  # no jump: alpha ~ 1
    S = precompute_singular_field(grid, geom, P)
    assert np.max(np.abs(S)) == 0.0
    w0 = ScalarField(grid, 1e-3 * np.sin(np.pi * grid.axis_nodes()))

    def gap(dt, steps=16):
        final = {}
        for scheme in ("explicit", "semi_implicit"):
            cfg = SolverConfig(dt=dt, scheme=scheme, snapshot_stride=steps, tolerance=1e-12)
            traj = evolve(grid, geom, P, w0, cfg, n_steps=steps, singular_field=S)
            final[scheme] = traj.snapshots[-1][1]
        return np.max(np.abs(final["explicit"] - final["semi_implicit"]))

    dt0 = grid.h**2 / 8.0
    g1, g2 = gap(dt0), gap(dt0 / 2.0)
    assert g1 < 1e-7
    assert 3.4 < g1 / g2 < 4.6


def test_explicit_scheme_guard():
    grid = PeriodicGrid(1, 256)
    cfg = SolverConfig(dt=1e-3, scheme="explicit")
    with pytest.raises(ConfigError):
        cfg.validate(grid)
    # the classical bound itself is allowed
    SolverConfig(dt=grid.h**2 / 2.0, scheme="explicit").validate(grid)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=-1.0),
        dict(tolerance=0.0),
        dict(tolerance=1e-3),
        dict(scheme="leapfrog"),
        dict(snapshot_stride=0),
    ],
)
def test_solver_config_rejects_bad_settings(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs).validate_static()


def test_blow_up_detection(run_1d, monkeypatch):
    """No admissible coefficient blows up, so force anti-diffusion through
    the real detector path and check the diagnostics it carries."""
    grid, geom, S = run_1d
    monkeypatch.setattr(evo, "diffusion_coefficient", lambda g, p, s, w: -np.ones(g.shape))
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=1)
    cfg = SolverConfig(dt=grid.h**2 / 2.0, scheme="explicit")
    with pytest.raises(BlowUpError) as info:
        evolve(grid, geom, P, w0, cfg, n_steps=500, singular_field=S)
    err = info.value
    assert err.exit_code == 4
    assert err.trajectory is not None and len(err.trajectory.times) >= 1
    t_last, values = err.last_good
    assert 0.0 <= t_last < 500 * cfg.dt
    assert values.shape == grid.shape


def test_perturbation_kinds(run_1d):
    grid, geom, _ = run_1d
    x = grid.axis_nodes()

    zero = initial_perturbation(grid, geom, kind="none")
    assert not np.any(zero.values)

    # untapered: sin(pi x) is odd under the node reflection j -> -j mod n
    mode = initial_perturbation(grid, geom, kind="mode", amplitude=1e-3, taper=False)
    idx = (-np.arange(grid.n)) % grid.n
    assert np.max(np.abs(mode.values + mode.values[idx])) < 1e-15

    sine = initial_perturbation(grid, geom, kind="sine", amplitude=1e-3)
    assert 0.0 < np.max(np.abs(sine.values)) <= 1e-3 + 1e-15

    noise = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, taper=False, seed=11)
    c = dft_forward(noise)
    (k,) = grid.wavenumbers()
    assert np.max(np.abs(c[np.abs(k) > grid.n / 8])) < 1e-12

    with pytest.raises(ConfigError):
        initial_perturbation(grid, geom, kind="sawtooth")


def test_taper_multiplies_by_distance_weight(run_1d):
    from fracpm.geometry import weight_profile

    grid, geom, _ = run_1d
    kw = dict(kind="noise", amplitude=1e-3, seed=2)
    tapered = initial_perturbation(grid, geom, taper=True, **kw)
    plain = initial_perturbation(grid, geom, taper=False, **kw)
    d = geom.distance(grid.axis_nodes())
    keep = np.abs(plain.values) > 1e-6
    ratio = tapered.values[keep] / plain.values[keep] / weight_profile(d[keep], 0.1)
    # proportional to the weight, up to one overall renormalization
    assert np.max(np.abs(ratio - ratio[0])) < 1e-12
    # and the suppression near the jumps is real
    near = d < 2 * grid.h
    assert np.max(np.abs(tapered.values[near])) < 0.02 * np.max(np.abs(tapered.values))


def test_decay_rate_fit_recovers_exponential():
    t = np.linspace(0.0, 2.0, 60)
    rate, r2 = decay_rate_fit(t, 7e-4 * np.exp(-3.7 * t))
    assert abs(rate - 3.7) < 1e-10
    assert r2 > 1.0 - 1e-12
