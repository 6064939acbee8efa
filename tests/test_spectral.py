"""Transform conventions and multiplier operators.

The coefficient layout is the documented exp(i pi k x) basis, which
differs from raw FFT indexing by an origin phase because the first node
sits at x = -1, not x = 0. Everything here guards that convention.
"""

import numpy as np
import pytest

from fracpm import spectral as sp
from fracpm.grid import FracParams, PeriodicGrid, ScalarField

from conftest import band_limited


@pytest.mark.parametrize("dim", [1, 2])
def test_nodes_and_wavenumbers_are_per_axis_tuples(dim):
    """One array per axis in every dimension, each of the grid's shape and
    varying along its own axis only: (x,) in 1D, (X, Y) in 2D."""
    grid = PeriodicGrid(dim, 8)
    x = -1.0 + 0.25 * np.arange(8)
    k = np.array([0, 1, 2, 3, -4, -3, -2, -1])
    for got, along in ((grid.nodes(), x), (grid.wavenumbers(), k)):
        assert isinstance(got, tuple) and len(got) == dim
        for a, arr in enumerate(got):
            line = np.reshape(along, [-1 if b == a else 1 for b in range(dim)])
            assert arr.shape == grid.shape
            assert np.array_equal(arr, np.broadcast_to(line, grid.shape))


def test_constant_field_maps_to_zero_mode():
    grid = PeriodicGrid(1, 64)
    c = sp.dft_forward(ScalarField(grid, np.full(64, 2.75)))
    assert abs(c[0] - 2.75) < 1e-14
    assert np.max(np.abs(c[1:])) < 1e-14


def test_coefficients_are_position_true_1d():
    """Summing c(k) exp(i pi k x) off the grid must reproduce the field."""
    grid = PeriodicGrid(1, 256)
    x = grid.axis_nodes()

    def fn(t):
        return np.cos(3 * np.pi * t) + 0.25 * np.sin(7 * np.pi * t)

    c = sp.dft_forward(ScalarField(grid, fn(x)))
    xq = 0.1372
    (k,) = grid.wavenumbers()
    val = np.real(np.sum(c * np.exp(1j * np.pi * k * xq)))
    assert abs(val - fn(xq)) < 1e-12


def test_coefficients_are_position_true_2d():
    grid = PeriodicGrid(2, 32)
    X, Y = grid.nodes()
    f = ScalarField(grid, np.sin(np.pi * X) * np.cos(2 * np.pi * Y))
    c = sp.dft_forward(f)
    kx, ky = grid.wavenumbers()
    xq, yq = 0.31, -0.44
    val = np.real(np.sum(c * np.exp(1j * np.pi * (kx * xq + ky * yq))))
    assert abs(val - np.sin(np.pi * xq) * np.cos(2 * np.pi * yq)) < 1e-12


def test_gradient_analytic_1d():
    grid = PeriodicGrid(1, 128)
    x = grid.axis_nodes()
    (gx,) = sp.gradient(grid, sp.spectral_ops(grid).forward(np.sin(np.pi * x)))
    assert np.max(np.abs(gx - np.pi * np.cos(np.pi * x))) < 1e-12


def test_gradient_analytic_2d():
    grid = PeriodicGrid(2, 32)
    X, Y = grid.nodes()
    c = sp.spectral_ops(grid).forward(np.sin(np.pi * X) * np.cos(2 * np.pi * Y))
    gx, gy = sp.gradient(grid, c)
    assert np.max(np.abs(gx - np.pi * np.cos(np.pi * X) * np.cos(2 * np.pi * Y))) < 1e-12
    assert np.max(np.abs(gy + 2 * np.pi * np.sin(np.pi * X) * np.sin(2 * np.pi * Y))) < 1e-12


def test_frac_multiplier_properties():
    # half-spectrum layout k = 0..128; the k < 0 half is implied by the
    # conjugate symmetry of a real field, so m is odd by construction
    grid = PeriodicGrid(1, 256)
    p = FracParams(0.7)
    m = sp.spectral_ops(grid, p.epsilon).frac
    k = np.arange(129)
    assert m.shape == (129,) and not m.flags.writeable
    assert m[0] == 0.0
    body = slice(1, 128)
    assert np.all(m[body].real == 0.0) and np.all(m[body].imag > 0.0)
    mags = np.pi * k[body] ** (1.0 - p.epsilon)
    assert np.max(np.abs(np.abs(m[body]) - mags)) < 1e-11
    assert m[128] == 0.0  # Nyquist


def _complex_fft_reference(grid, eps):
    """The full complex-FFT formulas: multipliers on grid.wavenumbers(),
    real part of the inverse transform. An independent oracle for the
    cached real-FFT operators."""
    k = grid.wavenumbers()
    absk = np.sqrt(sum(ka**2 for ka in k))
    smooth = np.zeros_like(absk)
    smooth[absk > 0] = absk[absk > 0] ** (-eps)

    def apply(mult, values):
        return np.fft.ifftn(mult * np.fft.fftn(values)).real

    def grad(values):
        return [apply(1j * np.pi * ka, values) for ka in k]

    def div(fields):
        c = sum(1j * np.pi * ka * np.fft.fftn(f) for ka, f in zip(k, fields))
        return np.fft.ifftn(c).real

    return {
        "grad": grad,
        "pm": lambda alpha, w: div([alpha * g for g in grad(w)]),
        "frac_1d": lambda w: apply(1j * np.pi * k[0] * smooth, w),
        "frac_2d": lambda w: apply(
            smooth, np.sqrt(sum(g**2 for g in grad(w)))
        ),
    }


def _test_fields(grid, seed):
    """A white-noise field and one with all its energy on Nyquist planes."""
    rng = np.random.default_rng(seed)
    nyq = np.pi * (grid.n // 2)
    if grid.dim == 1:
        x = grid.axis_nodes()
        return rng.standard_normal(grid.shape), np.cos(nyq * x)
    X, Y = grid.nodes()
    on_nyquist = (
        np.cos(nyq * X) * np.sin(3 * np.pi * Y)
        + np.cos(2 * np.pi * X) * np.cos(nyq * Y)
        + np.cos(nyq * X) * np.cos(nyq * Y)
    )
    return rng.standard_normal(grid.shape), on_nyquist


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_real_fft_operators_match_complex_fft(dim, n):
    grid = PeriodicGrid(dim, n)
    p = FracParams(0.3)
    ref = _complex_fft_reference(grid, p.epsilon)
    rng = np.random.default_rng(dim)
    alpha = rng.uniform(0.05, 1.0, grid.shape)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    fields = _test_fields(grid, seed=n)
    for values in fields:
        ops = sp.spectral_ops(grid)
        c = ops.forward(values)
        grad = sp.gradient(grid, c)
        for got, want in zip(grad, ref["grad"](values)):
            close(got, want)
        pm = sp.pm_divergence_form(ScalarField(grid, alpha), c)
        close(ops.inverse(pm), ref["pm"](alpha, values))
        if dim == 1:
            close(sp.frac_derivative_1d(grid, c, p), ref["frac_1d"](values))
        else:
            close(sp.frac_gradient_2d(grid, grad, p), ref["frac_2d"](values))


@pytest.mark.parametrize("k", [1, 5, 17])
def test_frac_derivative_of_single_mode(k):
    grid = PeriodicGrid(1, 256)
    p = FracParams(0.7)
    x = grid.axis_nodes()
    out = sp.frac_derivative_1d(grid, sp.spectral_ops(grid).forward(np.cos(k * np.pi * x)), p)
    expect = -np.pi * k ** (1.0 - p.epsilon) * np.sin(k * np.pi * x)
    assert np.max(np.abs(out - expect)) < 1e-11


def test_nyquist_mode_is_annihilated():
    # odd multiplier at the unpaired mode: the image must be real, hence zero
    grid = PeriodicGrid(1, 256)
    c = sp.spectral_ops(grid).forward(np.cos(np.pi * 128 * grid.axis_nodes()))
    out = sp.frac_derivative_1d(grid, c, FracParams(0.7))
    assert np.max(np.abs(out)) < 1e-15


def test_divergence_form_reduces_to_laplacian():
    grid = PeriodicGrid(1, 256)
    u = band_limited(grid, 32, seed=7)
    (k,) = grid.wavenumbers()
    lap = np.real(np.fft.ifft(-((np.pi * k) ** 2) * np.fft.fft(u.values)))
    ops = sp.spectral_ops(grid)
    pm = ops.inverse(sp.pm_divergence_form(ScalarField(grid, np.ones(256)), ops.forward(u.values)))
    assert np.max(np.abs(pm - lap)) < 1e-9


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [4, 6, 64])
def test_parseval_dot_is_n_times_the_real_dot(dim, n):
    """The CG inner product on rfftn coefficients is the nodal dot product
    times the node count N, the Nyquist column included."""
    grid = PeriodicGrid(dim, n)
    ops = sp.spectral_ops(grid)
    rng = np.random.default_rng(10 * n + dim)
    u, v = rng.standard_normal((2, *grid.shape))
    want = n**dim * float(np.sum(u * v))
    got = sp.parseval_dot(ops.forward(u), ops.forward(v))
    assert abs(got - want) <= 1e-12 * n**dim * np.linalg.norm(u) * np.linalg.norm(v)
    assert sp.parseval_dot(ops.forward(u), ops.forward(u)) == pytest.approx(
        n**dim * float(np.sum(u * u)), rel=1e-12
    )
