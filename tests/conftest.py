"""Shared fixtures.

Geometry fixtures silence the off-grid collision warning: the default
symmetric step sits exactly on faces of every power-of-two grid, so the
quarter-cell shift fires on nearly every construction and would drown
real warnings in the test output.
"""

import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import fracpm
from fracpm.curves import Circle
from fracpm.geometry import JumpSet1D, JumpSet2D, ensure_offgrid, periodic_delta
from fracpm.grid import FracParams, PeriodicGrid

# Hypothesis caches the literals of the code under test in its storage
# directory even with database=None; keep that cache out of the checkout.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "fracpm-hypothesis")
)


def child_peak_mb(code: str) -> float:
    """Run code in a fresh interpreter on this checkout's fracpm and return
    the child's peak resident memory in MB. The child reports VmHWM, not
    ru_maxrss: Linux carries the parent's peak into ru_maxrss across exec,
    and the test process can be larger than the bound."""
    code += "\nprint(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fracpm.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-2]) / 1024.0  # last line "VmHWM: <kB> kB"


def kernel_direct_sum(p, x, n_terms):
    """Partial sum of 2 sum cos(pi k x) / k^eps, the kernel's defining series,
    with a Hann window over the second half of the terms against the
    ripple of a hard cutoff."""
    x = np.atleast_1d(np.mod(np.asarray(x, dtype=float) + 1.0, 2.0) - 1.0)
    out = np.zeros(x.shape)
    block = 2_000_000
    half = n_terms // 2
    for lo in range(1, n_terms + 1, block):
        k = np.arange(lo, min(lo + block, n_terms + 1), dtype=float)
        w = k ** (-p.epsilon)
        mask = k > half
        w[mask] *= 0.5 * (1.0 + np.cos(np.pi * (k[mask] - half) / (n_terms - half)))
        out += 2.0 * np.cos(np.pi * np.outer(x, k)) @ w
    return out


def kernel_mp_reference(p, x, dps=40, a=0.0):
    """The kernel at x - a in arbitrary precision, 2 Re Li_eps(e^{i pi (x - a)}),
    the difference taken exactly."""
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.mpf(p.epsilon)
        return np.array([
            float(2 * mpmath.re(z * mpmath.lerchphi(z, s, 1)))
            for z in (mpmath.expjpi(mpmath.mpf(float(xi)) - mpmath.mpf(a)) for xi in np.ravel(x))
        ]).reshape(np.shape(x))


def kernel_derivative(ev, x, order):
    """d^order G / dx^order, order 1 or 2, of a `ClausenEvaluator`'s kernel:
    its reflection form A |x|^(eps-1) + B sum c_n x^(2n) differentiated term
    by term. An analytic route for the finite-difference checks, valid away
    from x = 0."""
    x = periodic_delta(x, 0.0)
    ax = np.abs(x)
    eps = ev.p.epsilon
    two_n = 2.0 * np.arange(len(ev.coeffs))
    if order == 1:
        sing = ev.A * (eps - 1.0) * ax ** (eps - 2.0) * np.sign(x)
        smooth = x * np.polynomial.polynomial.polyval(x * x, (ev.coeffs * two_n)[1:])
    else:
        sing = ev.A * (eps - 1.0) * (eps - 2.0) * ax ** (eps - 3.0)
        dc2 = (ev.coeffs * two_n * (two_n - 1.0))[1:]
        smooth = np.polynomial.polynomial.polyval(x * x, dc2)
    return sing + ev.B * smooth


def fracH_1d_derivative(geom, p, x, order):
    """x-derivatives of `oracles.fracH_1d`, sum_j s_j G^(order)(x - a_j) / 2,
    through `kernel_derivative`."""
    from fracpm.kernel import ClausenEvaluator

    ev = ClausenEvaluator(p)
    x = np.asarray(x, dtype=float)
    return sum(0.5 * s * kernel_derivative(ev, x - a, order)
               for a, s in zip(geom.positions, geom.jump_sizes()))


def offgrid(geom, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        moved, _ = ensure_offgrid(geom, grid)
    return moved


@pytest.fixture(scope="session")
def step_256():
    grid = PeriodicGrid(1, 256)
    return grid, offgrid(JumpSet1D.symmetric_step(), grid)


@pytest.fixture(scope="session")
def circle_64():
    # radius 0.49 keeps every node off the curve, so the geometry is not
    # shifted and the field keeps the full symmetry of the lattice
    grid = PeriodicGrid(2, 64)
    geom, shifted = ensure_offgrid(JumpSet2D(Circle((0.0, 0.0), 0.49)), grid)
    assert not shifted
    return grid, geom


@pytest.fixture(scope="session")
def singular_field_2d(circle_64):
    from fracpm.evolution import precompute_singular_field

    grid, geom = circle_64
    return precompute_singular_field(grid, geom, FracParams(0.3))


def band_limited(grid, kmax, seed=0):
    """Real random field supported on |k| <= kmax along each axis."""
    rng = np.random.default_rng(seed)
    c = np.fft.fftn(rng.standard_normal(grid.shape))
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    mask = np.abs(k) > kmax
    if grid.dim == 1:
        c[mask] = 0.0
    else:
        c[mask, :] = 0.0
        c[:, mask] = 0.0
    from fracpm.grid import ScalarField

    return ScalarField(grid, np.real(np.fft.ifftn(c)))
