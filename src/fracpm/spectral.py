"""Spectral operators on the periodic box.

The fractional gradient is defined through Fourier multipliers on integer
wavevectors k of the basis e^{i pi k . x}:

* 1D: the multiplier i*pi*k / |k|^epsilon (zero at k = 0), a genuinely
  directional object of order 1 - epsilon;
* 2D: |grad u| is formed pointwise first, then the scalar smoothing
  multiplier |k|^{-epsilon} is applied (k = 0 component removed).

The diffusion coefficient is alpha(v) = 1 / (1 + v^2) evaluated on the
fractional-gradient magnitude. The divergence-form operator div(alpha *
grad w) maps rfftn coefficients to rfftn coefficients through first-order
spectral derivatives and the pointwise product in physical space.

Real output: all first-order multipliers here are odd in k, so on an even
grid they would map the (real) Nyquist coefficient of a real field to an
imaginary one. They are zero on the Nyquist plane of their axis instead,
which is exactly what taking the real part of a complex inverse FFT did.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import FracParams, PeriodicGrid, ScalarField


def _origin_phase(grid: PeriodicGrid) -> np.ndarray:
    """(-1)^(sum k): nodes start at x = -1, not 0, so the e^{i pi k x}
    basis differs from the FFT index basis by this real unit phase."""
    return 1.0 - 2.0 * (np.abs(sum(grid.wavenumbers())).astype(int) % 2)


def dft_forward(f: ScalarField) -> np.ndarray:
    """Hat coefficients in the e^{i pi k x} basis, complex, in FFT layout;
    a constant c maps to c at k = 0. Unlike the raw FFT layout these are
    position-true: summing c(k) e^{i pi k x} at arbitrary x reconstructs
    the band-limited field."""
    norm = f.grid.n ** f.grid.dim
    return _origin_phase(f.grid) * np.fft.fftn(f.values) / norm


class SpectralOps:
    """Real-FFT transforms and multipliers of one grid (rfftn layout),
    cached per (grid, epsilon) by `spectral_ops` and shared: all read-only.
    deriv[a] = i pi k_a, zero on the Nyquist plane of axis a; k2 = pi^2 |k|^2;
    with epsilon, smooth = |k|^-eps and frac = i pi k_x |k|^-eps (0 at k = 0).
    """

    def __init__(self, grid: PeriodicGrid, epsilon: float | None = None):
        n, self.shape = grid.n, grid.shape
        full_axes = [np.fft.fftfreq(n, d=1.0 / n)] * (grid.dim - 1)
        k = np.meshgrid(*full_axes, np.arange(n // 2 + 1.0), indexing="ij")
        self.deriv = [np.where(np.abs(ka) == n // 2, 0j, 1j * np.pi * ka) for ka in k]
        absk2 = sum(ka * ka for ka in k)
        self.k2, absk = np.pi**2 * absk2, np.sqrt(absk2)
        arrays = [*self.deriv, self.k2]
        if epsilon is not None:
            self.smooth = np.zeros_like(absk)
            self.smooth[absk > 0] = absk[absk > 0] ** (-epsilon)
            self.frac = self.deriv[0] * self.smooth
            arrays += [self.smooth, self.frac]
        for a in arrays:
            a.flags.writeable = False

    # rfftn / irfftn as their 1D calls: numpy's n-dimensional wrappers add
    # several microseconds per call, and the stepping path makes tens of
    # thousands of calls
    def forward(self, values: np.ndarray) -> np.ndarray:
        c = np.fft.rfft(values)
        for axis in range(values.ndim - 1):
            c = np.fft.fft(c, axis=axis)
        return c

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        for axis in range(coeffs.ndim - 1):
            coeffs = np.fft.ifft(coeffs, axis=axis)
        return np.fft.irfft(coeffs, n=self.shape[-1])


@functools.lru_cache(maxsize=64)
def spectral_ops(grid: PeriodicGrid, epsilon: float | None = None) -> SpectralOps:
    return SpectralOps(grid, epsilon)


def frac_derivative_1d(grid: PeriodicGrid, c: np.ndarray, p: FracParams) -> np.ndarray:
    """Fractional derivative of order 1 - epsilon of a 1D field, from its
    rfftn coefficients c."""
    if grid.dim != 1:
        raise ValueError("frac_derivative_1d expects a 1D field")
    ops = spectral_ops(grid, p.epsilon)
    return ops.inverse(ops.frac * c)


def gradient(grid: PeriodicGrid, c: np.ndarray) -> list:
    """First-order spectral partial derivatives of a field from its rfftn
    coefficients c, one real array per axis."""
    ops = spectral_ops(grid)
    return [ops.inverse(m * c) for m in ops.deriv]


def frac_gradient_2d(grid: PeriodicGrid, grad: list, p: FracParams) -> np.ndarray:
    """Fractional gradient magnitude in 2D: |k|^{-eps} smoothing of |grad f|,
    from the field's `gradient`.

    The k = 0 mode of the smoothed quantity is dropped by the multiplier, so
    the result is mean-free by construction.
    """
    gx, gy = grad  # two axes: a 1D gradient does not unpack
    mag = np.sqrt(gx**2 + gy**2)
    ops = spectral_ops(grid, p.epsilon)
    return ops.inverse(ops.smooth * ops.forward(mag))


def alpha_from_fracfield(v: np.ndarray) -> np.ndarray:
    """Diffusion coefficient alpha = 1 / (1 + v^2), elementwise; 0, its
    exact limit, where v^2 overflows."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + v * v)


def pm_divergence_form(alpha: ScalarField, c: np.ndarray) -> np.ndarray:
    """rfftn coefficients of div(alpha * grad w) from those of w, c:
    sum_a m_a F(alpha F^-1(m_a c)), 2 real FFTs per axis.

    The outer divergence multiplier vanishes at k = 0, so the result has
    exactly zero mean coefficient.
    """
    ops = spectral_ops(alpha.grid)
    return sum(m * ops.forward(alpha.values * ops.inverse(m * c)) for m in ops.deriv)


def parseval_dot(a: np.ndarray, b: np.ndarray) -> float:
    """N u.v from the rfftn coefficients of real u, v on N nodes (even n):
    the k_last = 0 and Nyquist columns count once, every other one twice."""
    ends = a.shape[-1] - 1
    return 2.0 * np.vdot(a, b).real - np.vdot(a[..., ::ends], b[..., ::ends]).real
