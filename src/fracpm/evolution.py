"""Time evolution of the regular part w in the H + w splitting.

The step field H never enters a transform: its fractional gradient S comes
from the exact oracle `oracles.step_field` once, at every node, and each
step only transforms the smooth part w. The evolved equation is

    w_t = div(alpha * grad w),   alpha = 1 / (1 + (S + Fw)^2),

where Fw is the grid fractional gradient of w. The flux of H, alpha times
a surface measure on the jump set where alpha vanishes, is dropped: H is
stationary in the weak sense only (its strong residual grows with n).

Default scheme is semi-implicit: alpha frozen at time n, the linear solve
(I - dt * div(alpha grad)) w+ = w done by preconditioned CG. The operator
is symmetric negative semidefinite (spectral derivatives with the odd-
multiplier Nyquist convention), so I - dt*L is SPD for every dt and CG
needs no step-size restriction. The divergence multiplier vanishes at
k = 0, so L w has zero mean and an explicit step keeps the mean of w; the
CG solve keeps it to its tolerance (its k = 0 coefficient converges too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import eye as speye
from scipy.sparse.linalg import splu

from .errors import BlowUpError, ConfigError, LinearAlgebraError
from .geometry import weight_profile
from .grid import FracParams, PeriodicGrid, ScalarField
from .oracles import step_field
from . import linearop, spectral


@dataclass
class SolverConfig:
    dt: float = 1e-4
    t_final: float = 0.5
    scheme: str = "semi_implicit"
    tolerance: float = 1e-10
    max_linear_iter: int = 500
    snapshot_stride: int = 50

    def validate_static(self):
        if not (0 < self.dt < np.inf and 0 < self.t_final < np.inf):
            raise ConfigError("dt and t_final must be finite and positive")
        if not (0.0 < self.tolerance <= 1e-6):
            raise ConfigError("linear-solve tolerance must lie in (0, 1e-6]")
        if self.max_linear_iter < 1 or self.snapshot_stride < 1:
            raise ConfigError("iteration counts and strides must be positive")
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")

    def validate(self, grid: PeriodicGrid):
        self.validate_static()
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
    grid: PeriodicGrid, geom, p: FracParams, offsets=(0.0, 0.0)
) -> np.ndarray:
    """The exact fractional gradient of H at (possibly face-shifted) nodes.

    One route in 1D and 2D: `oracles.step_field` (the kernel series in 1D,
    `EwaldStepField2D` in 2D, accurate at any positive distance from the
    jump set) evaluated at every node. offsets are per-axis node shifts in
    units of h; the assembler uses -1/2 for face grids.
    """
    pts = np.stack([ax + o * grid.h for ax, o in zip(grid.nodes(), offsets)], axis=-1)
    return step_field(geom, p)(pts)


def diffusion_coefficient(grid, p, S, w: ScalarField) -> np.ndarray:
    """alpha of S + fractional gradient of w (signed 1D, magnitude 2D)."""
    frac = spectral.frac_derivative_1d if grid.dim == 1 else spectral.frac_gradient_2d
    return spectral.alpha_from_fracfield(S + frac(w, p).values)


def _pcg(apply_a, b, precond, tol, maxiter):
    """Preconditioned CG on rfftn coefficients. Every inner product is
    `spectral.parseval_dot`, so ||r|| <= tol ||b|| is the real 2-norm rule."""
    dot = spectral.parseval_dot
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = math.sqrt(dot(b, b))
    if norm_b == 0.0:
        return x, 0
    z = precond(r)
    pdir = z.copy()
    rz = dot(r, z)
    for it in range(1, maxiter + 1):
        ap = apply_a(pdir)
        alpha = rz / dot(pdir, ap)
        x += alpha * pdir
        r -= alpha * ap
        if math.sqrt(dot(r, r)) <= tol * norm_b:
            return x, it
        z = precond(r)
        rz_new = dot(r, z)
        pdir = z + (rz_new / rz) * pdir
        rz = rz_new
    raise LinearAlgebraError(
        f"CG did not reach tol {tol:g} within {maxiter} iterations"
    )


class SemiImplicitStepper:
    """One (I - dt div(alpha grad)) solve per step by preconditioned CG on
    rfftn coefficients: one FFT of w in, one of the solution out, and one
    `spectral.pm_divergence_form` (2 real FFTs per axis) per iteration.

    2D preconditions with the diagonal solve at mean(alpha), no FFT (a 2D
    five-point factor cost about seven FFT solves and saved no iterations).
    1D uses F (I + dt A_fd)^-1 F^-1, A_fd the conservative FD matrix on face
    means of the first alpha received, factored once: alpha is dominated by
    the fixed singular field, so a stale factor costs iterations, not
    accuracy. If CG fails with it (alpha rough at the grid scale, where A_fd
    weighs the Nyquist modes the spectral operator annihilates), the step
    and the rest of the run use the diagonal solve.
    """

    def __init__(self, grid: PeriodicGrid, cfg: SolverConfig):
        self.grid = grid
        self.cfg = cfg
        self.last_iterations = 0  # CG iterations of the last advance, failures included
        self._fd_solve = None  # False once CG has failed with it

    def _precond(self, alpha: np.ndarray):
        g, dt = self.grid, self.cfg.dt
        ops = spectral.spectral_ops(g)
        if g.dim == 1 and self._fd_solve is None:
            faces = 0.5 * (alpha + np.roll(alpha, 1))
            m = speye(g.n) + dt * linearop.assemble_sparse(g, faces)
            solve = splu(m.tocsc()).solve
            self._fd_solve = lambda r: ops.forward(solve(ops.inverse(r)))
        if self._fd_solve:
            return self._fd_solve
        inv = 1.0 / (1.0 + dt * float(np.mean(alpha)) * ops.k2)
        return lambda r: r * inv

    def advance(self, w: ScalarField, alpha: np.ndarray) -> ScalarField:
        g, dt = self.grid, self.cfg.dt
        tol, maxiter = self.cfg.tolerance, self.cfg.max_linear_iter
        ops = spectral.spectral_ops(g)
        alpha_field = ScalarField(g, alpha)
        b = ops.forward(w.values)

        def apply_a(c):
            return c - dt * spectral.pm_divergence_form(alpha_field, c)

        try:
            sol, self.last_iterations = _pcg(apply_a, b, self._precond(alpha), tol, maxiter)
        except LinearAlgebraError:
            if not self._fd_solve:  # 2D, or 1D already on the diagonal solve
                raise
            self._fd_solve = False
            sol, iters = _pcg(apply_a, b, self._precond(alpha), tol, maxiter)
            self.last_iterations = maxiter + iters
        return ScalarField(g, ops.inverse(sol))


def evolve(
    grid: PeriodicGrid,
    geom,
    p: FracParams,
    w0: ScalarField,
    cfg: SolverConfig,
    n_steps: int | None = None,
    singular_field: np.ndarray | None = None,
) -> Trajectory:
    """Run the splitting scheme; returns the recorded trajectory.

    Aborts with BlowUpError if the sup norm of u = H + w ever doubles
    relative to its initial value.
    """
    cfg.validate(grid)
    S = singular_field
    if S is None:
        S = precompute_singular_field(grid, geom, p)
    H = geom.indicator(*grid.nodes())
    steps = n_steps if n_steps is not None else int(round(cfg.t_final / cfg.dt))
    w = ScalarField(grid, w0.values.copy())
    traj = Trajectory()
    u = H + w.values
    limit = 2.0 * max(1.0, float(np.max(np.abs(u)))) + 1e-12
    alpha = diffusion_coefficient(grid, p, S, w)
    traj.record(0.0, w, u, linearop.dirichlet_energy(w, alpha), take_snapshot=True)
    stepper = SemiImplicitStepper(grid, cfg) if cfg.scheme == "semi_implicit" else None
    w_prev = w
    for i in range(1, steps + 1):
        if stepper is not None:
            w = stepper.advance(w, alpha)
            traj.cg_iterations.append(stepper.last_iterations)
        else:
            ops = spectral.spectral_ops(grid)
            flux = spectral.pm_divergence_form(ScalarField(grid, alpha), ops.forward(w.values))
            w = ScalarField(grid, w.values + cfg.dt * ops.inverse(flux))
        u = H + w.values
        if float(np.max(np.abs(u))) > limit:
            raise BlowUpError(
                f"sup norm doubled at step {i} (t={i * cfg.dt:g})",
                trajectory=traj,
                last_good=((i - 1) * cfg.dt, w_prev.values),
            )
        w_prev = w
        alpha = diffusion_coefficient(grid, p, S, w)
        traj.record(
            i * cfg.dt,
            w,
            u,
            linearop.dirichlet_energy(w, alpha),
            take_snapshot=(i % cfg.snapshot_stride == 0),
        )
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
    if kind == "none":
        return ScalarField(grid, np.zeros(grid.shape))
    nodes = grid.nodes()
    if kind == "sine":
        vals = np.sin(64.0 * np.pi * sum(x**2 for x in nodes))
    elif kind == "mode":
        vals = math.prod(np.sin(np.pi * x) for x in nodes)
    elif kind == "noise":
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


def decay_rate_fit(times, norms, skip_fraction: float = 0.5):
    """Exponential decay rate of a norm history (positive = decaying).

    Fits log(norm) against t on the tail of the run; returns (rate, r2).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(norms, dtype=float)
    keep = y > 0
    t, y = t[keep], y[keep]
    start = int(len(t) * skip_fraction)
    t, y = t[start:], np.log(y[start:])
    if len(t) < 4:
        raise ValueError("not enough samples for a decay fit")
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2) / ss) if ss > 0 else 1.0
    return -float(slope), r2
