import numpy as np
import pytest

import fracpm.evolution as evo
from fracpm.errors import BlowUpError, ConfigError, LinearAlgebraError
from fracpm.evolution import (
    SemiImplicitStepper,
    SolverConfig,
    evolve,
    initial_perturbation,
    precompute_singular_field,
)
from fracpm.curves import Circle
from fracpm.geometry import JumpSet1D, JumpSet2D, decay_rate_fit
from fracpm.grid import FracParams, PeriodicGrid, ScalarField
from fracpm import spectral
from fracpm.spectral import dft_forward

from conftest import offgrid

P = FracParams(0.8)


def coeffs(w):
    """rfftn coefficients of the field w, as `evolve` hands them on."""
    return spectral.spectral_ops(w.grid).forward(w.values)


def alpha_of(grid, p, S, w):
    """alpha of S and the field w, as `evolve` forms it."""
    return evo.diffusion_coefficient(grid, p, S, coeffs(w))[0]


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
        SolverConfig(dt=1e-4, t_final=5e-3), singular_field=S,
    )
    assert max(traj.l2_w) < 1e-14


def test_contraction_mean_and_energy(run_1d):
    grid, geom, S = run_1d
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=3)
    traj = evolve(grid, geom, P, w0, SolverConfig(dt=1e-4, t_final=1e-2), singular_field=S)
    linf = np.asarray(traj.linf_u)
    mean = np.asarray(traj.mean_u)
    energy = np.asarray(traj.energy)
    assert np.max(np.diff(linf)) <= 1e-8
    assert np.max(np.abs(mean - mean[0])) < 1e-12
    assert np.max(np.diff(energy)) <= 1e-12 * energy[0]


def test_evolution_is_deterministic(run_1d):
    grid, geom, S = run_1d
    cfg = SolverConfig(dt=1e-4, t_final=4e-3, snapshot_stride=20)
    outs = []
    for _ in range(2):
        w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=42)
        traj = evolve(grid, geom, P, w0, cfg, singular_field=S)
        outs.append(traj.snapshots[-1][1])
    assert np.array_equal(outs[0], outs[1])


def test_snapshot_stride_counts(run_1d):
    grid, geom, S = run_1d
    traj = evolve(
        grid, geom, P, initial_perturbation(grid, geom, seed=1),
        SolverConfig(dt=1e-4, t_final=1e-2, snapshot_stride=10), singular_field=S,
    )
    assert len(traj.snapshots) == 11  # t=0 plus every 10th step
    assert len(traj.times) == 101


def test_step_count_is_the_one_the_ceilings_checked(run_1d):
    """t_final / dt is the only step count: a run over the snapshot ceiling
    stops before its first step, whoever calls evolve."""
    grid, geom, S = run_1d
    w0 = ScalarField(grid, np.zeros(grid.shape))
    cfg = SolverConfig(dt=1e-6, t_final=1.0, snapshot_stride=1)
    with pytest.raises(ConfigError, match="snapshot values"):
        evolve(grid, geom, P, w0, cfg, singular_field=S)
    with pytest.raises(TypeError):
        evolve(grid, geom, P, w0, SolverConfig(dt=1e-4), n_steps=3, singular_field=S)


def test_first_order_in_dt(run_1d_128):
    """Halving dt should roughly halve the endpoint error (lagged
    coefficients make the splitting first order)."""
    grid, geom, S = run_1d_128
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=5)
    horizon = 0.02

    def endpoint(dt):
        steps = int(round(horizon / dt))
        cfg = SolverConfig(dt=dt, t_final=horizon, snapshot_stride=steps)
        return evolve(grid, geom, P, w0, cfg, singular_field=S).snapshots[-1][1]

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
    out = stepper.advance(coeffs(w), np.ones(grid.shape))
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
    alpha = alpha_of(grid, P, S, w)
    stepper = SemiImplicitStepper(grid, cfg)
    got = stepper.advance(coeffs(w), alpha).values

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
    alpha = alpha_of(grid, p, singular_field_2d, w)
    cfg = SolverConfig(dt=2e-3)
    stepper = SemiImplicitStepper(grid, cfg)
    got = stepper.advance(coeffs(w), alpha).values

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
        w = stepper.advance(coeffs(w), alpha)
        assert len(calls) == stepper.last_iterations > 0


@pytest.mark.parametrize("dim,n,per_step", [(1, 64, (1, 3)), (2, 16, (2, 4))])
def test_each_step_forward_transforms_w_once(dim, n, per_step, monkeypatch):
    """Outside CG a semi-implicit step makes one forward transform, of w,
    and inverts the solution, the fractional derivative and the gradient;
    in 2D the gradient has two axes and the smoothing of its magnitude
    adds one transform each way."""
    counts = {"forward": 0, "inverse": 0}
    in_cg = []

    def counted(name):
        real = getattr(spectral.SpectralOps, name)

        def wrapper(self, values):
            counts[name] += not in_cg
            return real(self, values)
        return wrapper

    for name in counts:
        monkeypatch.setattr(spectral.SpectralOps, name, counted(name))
    real_pcg = evo._pcg

    def flagged_pcg(*args):
        in_cg.append(1)
        try:
            return real_pcg(*args)
        finally:
            in_cg.pop()

    monkeypatch.setattr(evo, "_pcg", flagged_pcg)
    grid = PeriodicGrid(dim, n)
    jumps = JumpSet1D.symmetric_step() if dim == 1 else JumpSet2D(Circle((0.0, 0.0), 0.5))
    geom = offgrid(jumps, grid)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=3)
    totals = []
    for steps in (2, 5):
        counts.update(forward=0, inverse=0)
        cfg = SolverConfig(dt=1e-3, t_final=steps * 1e-3)
        evolve(grid, geom, P, w0, cfg, singular_field=np.zeros(grid.shape))
        totals.append((counts["forward"], counts["inverse"]))
    assert tuple((b - a) / 3 for a, b in zip(*totals)) == per_step


def test_explicit_scheme_is_the_real_space_update(run_1d):
    """w + dt div(alpha grad w) per step, to 1e-15, against the complex-FFT
    operator on nodal values."""
    grid, geom, S = run_1d
    dt = grid.h**2 / 4.0
    cfg = SolverConfig(dt=dt, t_final=20 * dt, scheme="explicit", snapshot_stride=20)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=9)
    traj = evolve(grid, geom, P, w0, cfg, singular_field=S)
    w = w0.values
    for _ in range(20):
        alpha = alpha_of(grid, P, S, ScalarField(grid, w))
        apply_a, _ = oracle_real_space_system(grid, alpha, -cfg.dt)
        w = apply_a(w)
    assert np.max(np.abs(traj.snapshots[-1][1] - w)) <= 1e-15


def test_fd_preconditioner_iterations_at_c09_config():
    grid = PeriodicGrid(1, 512)
    geom = offgrid(JumpSet1D.symmetric_step(), grid)
    p = FracParams(0.3)
    w0 = initial_perturbation(grid, geom, kind="mode", amplitude=1e-3, taper=True)
    cfg = SolverConfig(dt=2e-3, t_final=0.04, tolerance=1e-12)
    traj = evolve(grid, geom, p, w0, cfg)
    assert len(traj.cg_iterations) == 20
    assert max(traj.cg_iterations) <= 40


def _count_fd_builds(monkeypatch):
    builds = []
    build = evo.linearop.ring_solver

    def counted(faces, c):
        builds.append(1)
        return build(faces, c)

    monkeypatch.setattr(evo.linearop, "ring_solver", counted)
    return builds


def test_stale_fd_factor_converges_on_rough_noise(run_1d, monkeypatch):
    """Large untapered noise moves alpha far from the alpha the factor was
    built on; CG still converges and the mean is still conserved."""
    grid, geom, S = run_1d
    builds = _count_fd_builds(monkeypatch)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=0.5, taper=False, seed=4)
    cfg = SolverConfig(dt=1e-4, t_final=5e-3)
    traj = evolve(grid, geom, P, w0, cfg, singular_field=S)
    mean = np.asarray(traj.mean_u)
    assert len(builds) == 1
    assert max(traj.cg_iterations) < cfg.max_linear_iter
    assert np.max(np.abs(mean - mean[0])) < 1e-10
    assert traj.l2_w[-1] < traj.l2_w[0]


def test_fd_failure_falls_back_to_fft_solve(run_1d, monkeypatch):
    """Where the FD factor fails within max_linear_iter, the step is solved
    again with the FFT preconditioner, which the run keeps from then on.
    The step counts the matvecs of both attempts."""
    grid, geom, _ = run_1d
    p = FracParams(0.3)
    S = precompute_singular_field(grid, geom, p)
    builds = _count_fd_builds(monkeypatch)
    solves = []  # (preconditioner, iterations or None on failure) per CG solve
    real_pcg = evo._pcg

    def recording_pcg(apply_a, b, precond, tol, maxiter, x0=None):
        solves.append((precond, None))
        x, it = real_pcg(apply_a, b, precond, tol, maxiter, x0)
        solves[-1] = (precond, it)
        return x, it

    monkeypatch.setattr(evo, "_pcg", recording_pcg)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=0.5, taper=False, seed=4)
    cfg = SolverConfig(dt=2e-3, t_final=0.02, max_linear_iter=120)
    traj = evolve(grid, geom, p, w0, cfg, singular_field=S)
    iters = traj.cg_iterations
    failed = [i for i, it in enumerate(iters) if it > cfg.max_linear_iter]
    assert len(failed) == 1 and len(builds) == 1
    k = failed[0]  # one solve per step before it, so solve k failed
    assert [it is None for _, it in solves] == [i == k for i in range(len(iters) + 1)]
    # every matvec of the step: the failed attempt's CG iterations and, after
    # step 0, its warm-start residual, then the retry's own matvecs
    assert iters[k] == cfg.max_linear_iter + (k > 0) + solves[k + 1][1]
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
        stepper.advance(coeffs(w), rng.uniform(0.1, 1.0, grid.shape))


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
            cfg = SolverConfig(dt=dt, t_final=steps * dt, scheme=scheme,
                               snapshot_stride=steps, tolerance=1e-12)
            traj = evolve(grid, geom, P, w0, cfg, singular_field=S)
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
    monkeypatch.setattr(evo, "diffusion_coefficient", lambda g, p, s, c: (-np.ones(g.shape), 0.0))
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=1)
    dt = grid.h**2 / 2.0
    cfg = SolverConfig(dt=dt, t_final=500 * dt, scheme="explicit")
    with pytest.raises(BlowUpError) as info:
        evolve(grid, geom, P, w0, cfg, singular_field=S)
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


def test_noise_rejects_a_negative_seed(run_1d):
    """numpy refuses negative seeds with a ValueError; the noise kind turns
    that into a ConfigError, and kinds that ignore the seed accept any."""
    grid, geom, _ = run_1d
    with pytest.raises(ConfigError, match="seed"):
        initial_perturbation(grid, geom, kind="noise", seed=-1)
    sine = initial_perturbation(grid, geom, kind="sine", seed=-1).values
    assert np.array_equal(sine, initial_perturbation(grid, geom, kind="sine").values)


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


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
def test_semi_implicit_step_conserves_the_mean_exactly(dim, n):
    """The k = 0 coefficient is copied, not solved for: sum(w) is kept to
    round-off, and CG runs the iterations it ran before the copy."""
    grid = PeriodicGrid(dim, n)
    rng = np.random.default_rng(11)
    w = ScalarField(grid, rng.standard_normal(grid.shape))
    alpha = rng.uniform(0.05, 1.0, grid.shape)
    cfg = SolverConfig(dt=2e-3)
    stepper = SemiImplicitStepper(grid, cfg)
    got = stepper.advance(coeffs(w), alpha).values
    assert abs(np.sum(got) - np.sum(w.values)) <= 1e-14 * np.sum(np.abs(w.values))

    ops = spectral.spectral_ops(grid)
    field = ScalarField(grid, alpha)
    _, iters = evo._pcg(
        lambda c: c - cfg.dt * spectral.pm_divergence_form(field, c),
        ops.forward(w.values), SemiImplicitStepper(grid, cfg)._precond(alpha),
        cfg.tolerance, cfg.max_linear_iter,
    )
    assert stepper.last_iterations == iters > 10


def _cold_solve(grid, cfg, w, alpha):
    """The step's system solved by `_pcg` from zero with a fresh stepper's
    preconditioner, and its matvec count."""
    ops = spectral.spectral_ops(grid)
    field = ScalarField(grid, alpha)
    b = ops.forward(w.values)
    sol, iters = evo._pcg(
        lambda c: c - cfg.dt * spectral.pm_divergence_form(field, c),
        b, SemiImplicitStepper(grid, cfg)._precond(alpha), cfg.tolerance, cfg.max_linear_iter,
    )
    sol.flat[0] = b.flat[0]
    return ops.inverse(sol), iters


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
def test_first_advance_is_the_cold_solve(dim, n):
    """A fresh stepper has no history, so it passes no guess."""
    grid = PeriodicGrid(dim, n)
    rng = np.random.default_rng(5)
    w = ScalarField(grid, rng.standard_normal(grid.shape))
    alpha = rng.uniform(0.05, 1.0, grid.shape)
    cfg = SolverConfig(dt=2e-3)
    stepper = SemiImplicitStepper(grid, cfg)
    got = stepper.advance(coeffs(w), alpha).values
    want, iters = _cold_solve(grid, cfg, w, alpha)
    assert np.array_equal(got, want)
    assert stepper.last_iterations == iters > 5


def test_warm_start_keeps_the_cold_accuracy(singular_field_2d, circle_64):
    """After four steps of a trajectory the guess is a quartic
    extrapolation; the warm solution still meets ||r|| <= tol ||b||, so it
    lies within 2 tol |b| of the cold one, at fewer matvecs."""
    grid, geom = circle_64
    p = FracParams(0.3)
    cfg = SolverConfig(dt=2e-3)
    stepper = SemiImplicitStepper(grid, cfg)
    w = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=12)
    for _ in range(4):
        w = stepper.advance(coeffs(w), alpha_of(grid, p, singular_field_2d, w))
    alpha = alpha_of(grid, p, singular_field_2d, w)
    got = stepper.advance(coeffs(w), alpha).values
    want, iters = _cold_solve(grid, cfg, w, alpha)
    assert np.linalg.norm(got - want) <= 2.0 * cfg.tolerance * np.linalg.norm(w.values)
    assert stepper.last_iterations < iters


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
def test_unrelated_history_costs_at_most_one_matvec(dim, n):
    """Extrapolating unrelated inputs gives a guess worse than 0; the
    ||r0|| < ||b|| guard drops it after its one residual matvec."""
    grid = PeriodicGrid(dim, n)
    rng = np.random.default_rng(8)
    alpha = rng.uniform(0.05, 1.0, grid.shape)
    cfg = SolverConfig(dt=2e-3)
    stepper = SemiImplicitStepper(grid, cfg)
    for _ in range(4):
        stepper.advance(coeffs(ScalarField(grid, rng.standard_normal(grid.shape))), alpha)
    w = ScalarField(grid, rng.standard_normal(grid.shape))
    got = stepper.advance(coeffs(w), alpha).values
    want, iters = _cold_solve(grid, cfg, w, alpha)
    assert stepper.last_iterations <= iters + 1
    assert np.linalg.norm(got - want) <= 2.0 * cfg.tolerance * np.linalg.norm(w.values)


def test_zero_input_after_history_costs_no_matvec(monkeypatch):
    grid = PeriodicGrid(2, 32)
    rng = np.random.default_rng(4)
    alpha = rng.uniform(0.05, 1.0, grid.shape)
    stepper = SemiImplicitStepper(grid, SolverConfig(dt=2e-3))
    w = ScalarField(grid, rng.standard_normal(grid.shape))
    for _ in range(3):
        w = stepper.advance(coeffs(w), alpha)
    calls = []
    matvec = spectral.pm_divergence_form

    def counted(a, c):
        calls.append(1)
        return matvec(a, c)

    monkeypatch.setattr(spectral, "pm_divergence_form", counted)
    out = stepper.advance(coeffs(ScalarField(grid, np.zeros(grid.shape))), alpha)
    assert not np.any(out.values)
    assert stepper.last_iterations == len(calls) == 0


def test_warm_start_saves_matvecs_on_a_circle(monkeypatch):
    """40 steps of a 2D n = 32 circle run take at least 40% fewer matvecs
    than the same run solved from zero every step."""
    grid = PeriodicGrid(2, 32)
    geom = offgrid(JumpSet2D(Circle((0.0, 0.0), 0.5)), grid)
    p = FracParams(0.8)
    S = precompute_singular_field(grid, geom, p)
    w0 = initial_perturbation(grid, geom, kind="noise", amplitude=1e-3, seed=2)
    cfg = SolverConfig(dt=1e-4, t_final=4e-3)
    warm = evolve(grid, geom, p, w0, cfg, singular_field=S)
    real_pcg = evo._pcg
    monkeypatch.setattr(
        evo, "_pcg", lambda a, b, pc, tol, maxiter, x0=None: real_pcg(a, b, pc, tol, maxiter)
    )
    cold = evolve(grid, geom, p, w0, cfg, singular_field=S)
    assert sum(warm.cg_iterations) <= 0.6 * sum(cold.cg_iterations)
    assert np.allclose(warm.l2_w, cold.l2_w, rtol=1e-8, atol=0.0)


def test_exact_guess_returns_after_its_residual():
    """A constant w is a fixed point of the step and of the extrapolation:
    r0 is exactly 0, and the guess is returned without a CG iteration."""
    grid = PeriodicGrid(2, 32)
    alpha = np.random.default_rng(6).uniform(0.05, 1.0, grid.shape)
    stepper = SemiImplicitStepper(grid, SolverConfig(dt=2e-3))
    w = ScalarField(grid, np.full(grid.shape, 0.25))
    for _ in range(5):
        w = stepper.advance(coeffs(w), alpha)
    assert np.array_equal(w.values, np.full(grid.shape, 0.25))
    assert stepper.last_iterations == 1
