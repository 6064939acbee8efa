"""Time evolution of the regular part w in the H + w splitting.

The step field H never enters a transform: its fractional gradient S comes
from the exact oracle `oracles.step_field` once, at every node. Each step
forward-transforms w once, for the stepper, alpha and the energy. It evolves

    w_t = div(alpha * grad w),   alpha = 1 / (1 + (S + Fw)^2),

where Fw is the grid fractional gradient of w. The flux of H, alpha times
a surface measure on the jump set where alpha vanishes, is dropped: H is
stationary in the weak sense only (its strong residual grows with n).

Default scheme is semi-implicit: alpha frozen at time n, the linear solve
(I - dt * div(alpha grad)) w+ = w done by preconditioned CG, numpy only.
The operator is symmetric negative semidefinite (spectral derivatives with
the odd-multiplier Nyquist convention), so I - dt*L is SPD for every dt
and CG needs no step-size restriction. w is smooth in time for t > 0, so
CG starts from an extrapolation of the previous steps. The divergence
multiplier vanishes at k = 0, so both schemes conserve the mean of w
exactly, up to round-off: the semi-implicit step copies the k = 0
coefficient of w, not solving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigError, LinearAlgebraError
from .geometry import check_values, weight_profile
from .grid import FracParams, PeriodicGrid, ScalarField
from .oracles import step_field
from . import linearop, spectral


MAX_STEPS = 10**6  # round(t_final / dt) ceiling
MAX_LINEAR_ITER = 10_000  # CG iterations per solve; 20x the default
MAX_DT = 1.0  # 10x the decay time 1/pi^2 of the box's slowest mode: a longer step resolves nothing
MAX_SNAPSHOT_FLOATS = 2**27  # 1 GiB of float64 snapshots held by one run


@dataclass
class SolverConfig:
    dt: float = 1e-4
    t_final: float = 0.5
    scheme: str = "semi_implicit"
    tolerance: float = 1e-10
    max_linear_iter: int = 500
    snapshot_stride: int = 50

    def validate_static(self):
        if not (0 < self.dt <= MAX_DT and 0 < self.t_final < np.inf):
            raise ConfigError(f"dt must lie in (0, {MAX_DT:g}] and t_final be finite and positive")
        if self.t_final / self.dt > MAX_STEPS + 0.5:  # round(t_final / dt) > MAX_STEPS
            raise ConfigError(f"t_final / dt exceeds the {MAX_STEPS} step ceiling")
        if not (0.0 < self.tolerance <= 1e-6):
            raise ConfigError("linear-solve tolerance must lie in (0, 1e-6]")
        if self.max_linear_iter < 1 or self.snapshot_stride < 1:
            raise ConfigError("iteration counts and strides must be positive")
        if self.max_linear_iter > MAX_LINEAR_ITER:
            raise ConfigError(f"solver.max_linear_iter exceeds the {MAX_LINEAR_ITER} iteration ceiling")
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")

    def validate(self, grid: PeriodicGrid):
        self.validate_static()
        floats = (round(self.t_final / self.dt) // self.snapshot_stride + 1) * grid.n**grid.dim
        if floats > MAX_SNAPSHOT_FLOATS:
            raise ConfigError(f"{floats} snapshot values exceed the {MAX_SNAPSHOT_FLOATS} ceiling")
        if self.scheme == "explicit":
            bound = grid.h**2 / (2.0 * grid.dim)
            if self.dt > bound:
                raise ConfigError(
                    f"explicit scheme needs dt <= h^2/(2 dim) = {bound:.3e}, "
                    f"got {self.dt:.3e}"
                )


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    l2_w: list = field(default_factory=list)
    linf_u: list = field(default_factory=list)
    mean_u: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    cg_iterations: list = field(default_factory=list)  # per semi-implicit step

    def record(self, t, w: ScalarField, u_values, energy, take_snapshot=False):
        self.times.append(float(t))
        self.l2_w.append(w.l2())
        self.linf_u.append(float(np.max(np.abs(u_values))))
        self.mean_u.append(float(np.mean(u_values)))
        self.energy.append(float(energy))
        if take_snapshot:
            self.snapshots.append((float(t), w.values.copy()))


def precompute_singular_field(
    grid: PeriodicGrid, geom, p: FracParams, offsets=(0.0, 0.0), field=None
) -> np.ndarray:
    """The exact fractional gradient of H at (possibly face-shifted) nodes.

    One route in 1D and 2D: `oracles.step_field` (the kernel series in 1D,
    `EwaldStepField2D` in 2D, accurate at any positive distance from the
    jump set) evaluated at every node; field is that step field, when the
    caller has one. offsets are per-axis node shifts in units of h; the
    assembler uses -1/2 for face grids.
    """
    pts = np.stack([ax + o * grid.h for ax, o in zip(grid.nodes(), offsets)], axis=-1)
    return (step_field(geom, p) if field is None else field)(pts)


def diffusion_coefficient(grid, p, S, c: np.ndarray) -> tuple:
    """alpha of S + fractional gradient of w (signed 1D, magnitude 2D) and
    w's `dirichlet_energy` under it, from the rfftn coefficients c of w
    through one spectral gradient."""
    grad = spectral.gradient(grid, c)
    if grid.dim == 1:
        frac = spectral.frac_derivative_1d(grid, c, p)
    else:
        frac = spectral.frac_gradient_2d(grid, grad, p)
    alpha = spectral.alpha_from_fracfield(S + frac)
    return alpha, dirichlet_energy(grid, grad, alpha)


def dirichlet_energy(grid: PeriodicGrid, grad: list, alpha: np.ndarray) -> float:
    """The energy form a(w, w) = integral of alpha |grad w|^2 over the box,
    from w's spectral `gradient`.

    The product is pointwise, and the integral is the trapezoid rule (a
    plain cell-volume sum on the periodic torus). Cross-check: h^N * w^T A w
    agrees with it to O(h^2) when A is assembled from the same coefficient.
    """
    return float(np.sum(alpha * sum(g**2 for g in grad)) * grid.h**grid.dim)


def _pcg(apply_a, b, precond, tol, maxiter, x0=None):
    """Preconditioned CG on rfftn coefficients. Every inner product is
    `spectral.parseval_dot`, so ||r|| <= tol ||b|| is the real 2-norm rule.
    A guess x0 is the start only if its residual is below ||b||. Returns
    the solution and the matvec count, x0's residual included."""
    dot = spectral.parseval_dot
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = math.sqrt(dot(b, b))
    if norm_b == 0.0:
        return x, 0
    if x0 is not None:
        r0 = b - apply_a(x0)
        norm_r0 = math.sqrt(dot(r0, r0))
        if norm_r0 < norm_b:
            x, r = x0.copy(), r0
            if norm_r0 <= tol * norm_b:
                return x, 1
    z = precond(r)
    pdir = z.copy()
    rz = dot(r, z)
    for it in range(1, maxiter + 1):
        ap = apply_a(pdir)
        alpha = rz / dot(pdir, ap)
        x += alpha * pdir
        r -= alpha * ap
        if math.sqrt(dot(r, r)) <= tol * norm_b:
            return x, it + (x0 is not None)
        z = precond(r)
        rz_new = dot(r, z)
        pdir = z + (rz_new / rz) * pdir
        rz = rz_new
    raise LinearAlgebraError(
        f"CG did not reach tol {tol:g} within {maxiter} iterations"
    )


class SemiImplicitStepper:
    """One (I - dt div(alpha grad)) solve per step by preconditioned CG on
    rfftn coefficients: those of w in, one inverse FFT of the solution out,
    and one `spectral.pm_divergence_form` (2 real FFTs per axis) per iteration.

    2D preconditions with the diagonal solve at mean(alpha), no FFT (a 2D
    five-point factor cost about seven FFT solves and saved no iterations).
    1D uses F (I + dt A_fd)^-1 F^-1, A_fd the conservative FD matrix on face
    means of the first alpha received, factored once by the numpy
    `linearop.ring_solver` (no scipy is loaded): alpha is dominated by
    the fixed singular field, so a stale factor costs iterations, not
    accuracy. If CG fails with it (alpha rough at the grid scale, where A_fd
    weighs the Nyquist modes the spectral operator annihilates), the step
    and the rest of the run use the diagonal solve.

    CG starts from sum_j (-1)^j C(q+1, j+1) b_(n-j), the order-q extrapolation
    through this input and the last q <= 4; a fresh stepper starts cold.
    """

    def __init__(self, grid: PeriodicGrid, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self.last_iterations = 0  # matvecs of the last advance, failures included
        # None: 1D, factor not yet built; False: 2D, or 1D after CG failed with it
        self._fd_solve = None if grid.dim == 1 else False
        self._history = []  # rfftn of the last four inputs w, newest first

    def _precond(self, alpha: np.ndarray):
        g, dt = self.grid, self.cfg.dt
        ops = spectral.spectral_ops(g)
        if self._fd_solve is None:
            solve = linearop.ring_solver(0.5 * (alpha + np.roll(alpha, 1)), dt / g.h**2)
            self._fd_solve = lambda r: ops.forward(solve(ops.inverse(r)))
        if self._fd_solve:
            return self._fd_solve
        inv = 1.0 / (1.0 + dt * float(np.mean(alpha)) * ops.k2)
        return lambda r: r * inv

    def advance(self, b: np.ndarray, alpha: np.ndarray) -> ScalarField:
        g, dt = self.grid, self.cfg.dt
        tol, maxiter = self.cfg.tolerance, self.cfg.max_linear_iter
        ops = spectral.spectral_ops(g)
        alpha_field = ScalarField(g, alpha)

        def apply_a(c):
            return c - dt * spectral.pm_divergence_form(alpha_field, c)

        pts = [b, *self._history]  # newest first
        self._history, q = pts[:4], len(pts) - 1
        x0 = None  # order-q extrapolation through the q + 1 inputs, never of b = 0
        if q and b.any():
            x0 = sum((-1) ** j * math.comb(q + 1, j + 1) * c for j, c in enumerate(pts))
        try:
            sol, self.last_iterations = _pcg(apply_a, b, self._precond(alpha), tol, maxiter, x0)
        except LinearAlgebraError:
            if not self._fd_solve:  # 2D, or 1D already on the diagonal solve
                raise
            self._fd_solve = False
            sol, iters = _pcg(apply_a, b, self._precond(alpha), tol, maxiter, x0)
            self.last_iterations = maxiter + (x0 is not None) + iters
        sol.flat[0] = b.flat[0]  # operator and preconditioners are I at k = 0
        return ScalarField(g, ops.inverse(sol))


def evolve(
    grid: PeriodicGrid,
    geom,
    p: FracParams,
    w0: ScalarField,
    cfg: SolverConfig,
    singular_field: np.ndarray | None = None,
) -> Trajectory:
    """Run round(t_final / dt) steps of the splitting scheme, the count
    `cfg.validate` bounds; returns the recorded trajectory.

    Aborts with BlowUpError if the sup norm of u = H + w ever doubles
    relative to its initial value.
    """
    cfg.validate(grid)
    check_values("perturbation values", w0.values)
    stepper = SemiImplicitStepper(grid, cfg) if cfg.scheme == "semi_implicit" else None
    S = singular_field
    if S is None:
        S = precompute_singular_field(grid, geom, p)
    H = geom.indicator(*grid.nodes())
    steps = round(cfg.t_final / cfg.dt)
    ops = spectral.spectral_ops(grid)
    w = ScalarField(grid, w0.values.copy())
    traj = Trajectory()
    u = H + w.values
    limit = 2.0 * max(1.0, float(np.max(np.abs(u)))) + 1e-12
    for i in range(steps + 1):
        if i:
            if stepper is not None:
                w_next = stepper.advance(c, alpha)
                traj.cg_iterations.append(stepper.last_iterations)
            else:
                flux = spectral.pm_divergence_form(ScalarField(grid, alpha), c)
                w_next = ScalarField(grid, w.values + cfg.dt * ops.inverse(flux))
            u = H + w_next.values
            if float(np.max(np.abs(u))) > limit:
                raise BlowUpError(
                    f"sup norm doubled at step {i} (t={i * cfg.dt:g})",
                    trajectory=traj,
                    last_good=((i - 1) * cfg.dt, w.values),
                )
            w = w_next
        c = ops.forward(w.values)  # the step's one transform of w
        alpha, energy = diffusion_coefficient(grid, p, S, c)
        traj.record(i * cfg.dt, w, u, energy, take_snapshot=(i % cfg.snapshot_stride == 0))
    return traj


def initial_perturbation(
    grid: PeriodicGrid,
    geom,
    kind: str = "sine",
    amplitude: float = 1e-3,
    taper: bool = True,
    seed: int = 0,
    taper_delta: float = 0.1,
) -> ScalarField:
    """Seeded perturbation fields.

    Kinds: "sine" is the default chirp sin(64 pi x^2) (radial in 2D),
    "mode" the lowest odd Fourier mode, "noise" band-limited white noise,
    "none" the zero field. The taper flag multiplies by the capped
    distance weight so the perturbation vanishes at the jump set.
    """
    check_values("perturbation.amplitude", amplitude)
    if kind == "none":
        return ScalarField(grid, np.zeros(grid.shape))
    nodes = grid.nodes()
    if kind == "sine":
        vals = np.sin(64.0 * np.pi * sum(x**2 for x in nodes))
    elif kind == "mode":
        vals = math.prod(np.sin(np.pi * x) for x in nodes)
    elif kind == "noise":
        if seed < 0:
            raise ConfigError(f"seed: noise needs a non-negative seed, got {seed}")
        rng = np.random.default_rng(seed)
        white = rng.standard_normal(grid.shape)
        c = np.fft.fftn(white)
        c[sum(k**2 for k in grid.wavenumbers()) > (grid.n / 8.0) ** 2] = 0.0
        vals = np.fft.ifftn(c).real
    else:
        raise ConfigError(f"unknown perturbation kind {kind!r}")
    if taper:
        vals = vals * weight_profile(geom.distance(*nodes), taper_delta)
    peak = float(np.max(np.abs(vals)))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ScalarField(grid, vals)
