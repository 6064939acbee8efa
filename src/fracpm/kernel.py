"""The periodic singular kernel G_eps.

G_eps(x) = 2 * sum_{k>=1} cos(pi k x) / k^eps  on the period [-1, 1).

Production evaluation uses the exact reflection form

    G_eps(x) = A |x|^(eps-1) + B * sum_{n>=0} c_n x^(2n),

    A  = 2 Gamma(1-eps) sin(pi eps / 2) pi^(eps-1)
    B  = 2^(1+eps) pi^(eps-1) sin(pi eps / 2)
    c_n = zeta(2n+1-eps) * Gamma(2n+1-eps) / (2n)! / 4^n

obtained from the zeta functional equation; c_0 < 0 < c_n for n >= 1, the
series converges on |x| <= 1 with ratio ~ x^2/4 per term, and the singular
prefactor A is explicit. Every zeta value, zeta(1 - eps) in (0, 1)
included, comes from `special.zeta` (no mpmath scalar), and
Gamma(2n+1-eps) / (2n)! is a running product, so no two large log-gammas
cancel.

The tests cross-check it on two independent slow routes: a tapered direct
partial sum of the defining series, and mpmath's polylogarithm
2 Re Li_eps(e^{i pi x}) in arbitrary precision.
"""

from __future__ import annotations

import numpy as np

from .geometry import periodic_delta
from .grid import FracParams
from .special import gamma, zeta

_SERIES_TERMS = 72


class ClausenEvaluator:
    """Evaluates G_eps anywhere on the period.

    The evaluator wraps its argument into [-1, 1) with `periodic_delta`,
    which leaves x in (-1, 1) untouched; the kernel is even, with an
    integrable power singularity at x = 0 (evaluating exactly at a jump
    returns +inf by design, callers keep a positive distance).
    """

    def __init__(self, p: FracParams):
        self.p = p
        eps = p.epsilon
        sin_half = np.sin(np.pi * eps / 2.0)
        self.A = 2.0 * gamma(1.0 - eps) * sin_half * np.pi ** (eps - 1.0)
        self.B = 2.0 ** (1.0 + eps) * np.pi ** (eps - 1.0) * sin_half
        n = np.arange(_SERIES_TERMS)
        j = np.arange(1.0, 2 * _SERIES_TERMS - 1)
        ratio = gamma(1.0 - eps) * np.cumprod(np.append(1.0, (j - eps) / j))[::2]
        self.coeffs = zeta(2.0 * n + 1.0 - eps) * ratio * 0.25**n

    def values(self, x) -> np.ndarray:
        x = periodic_delta(x, 0.0)
        ax = np.abs(x)
        eps = self.p.epsilon
        with np.errstate(divide="ignore"):
            sing = np.where(ax > 0, ax ** (eps - 1.0), np.inf)
        smooth = np.polynomial.polynomial.polyval(x * x, self.coeffs)
        return self.A * sing + self.B * smooth


def kernel_at_one(p: FracParams) -> float:
    """Closed form G_eps(1) = -2 * eta(eps) (alternating zeta)."""
    eps = p.epsilon
    return float(-2.0 * (1.0 - 2.0 ** (1.0 - eps)) * zeta(eps))


def series_frac_derivative(modes, p: FracParams, x) -> np.ndarray:
    """Mode-by-mode oracle for the 1D fractional derivative.

    Sums c(k) * (i pi k / |k|^eps) * e^{i pi k x} over the resolved modes
    (the Nyquist mode is skipped, matching the real-part convention of the
    grid operator). `modes` are the complex hat coefficients of
    `spectral.dft_forward`, length n in FFT layout; x may be any points.
    """
    x = np.asarray(x, dtype=float)
    n = modes.shape[0]
    ks = np.fft.fftfreq(n, d=1.0 / n)
    total = np.zeros(x.shape, dtype=complex)
    for j, k in enumerate(ks):
        if k == 0 or k == -n // 2:
            continue
        m = 1j * np.pi * k * abs(k) ** (-p.epsilon)
        total += modes[j] * m * np.exp(1j * np.pi * k * x)
    return total.real
