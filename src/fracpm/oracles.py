"""Closed-form oracles for step fields and the flatness criterion.

These never touch a grid: they evaluate the fractional gradient of an exact
piecewise-constant field through the singular kernel, so they stay accurate
arbitrarily close to the jump set where any grid transform has long since
drowned in Gibbs ripple.
"""

from __future__ import annotations

import numpy as np
from scipy.special import beta as beta_fn

from .geometry import JumpSet1D
from .grid import FracParams
from .kernel import ClausenEvaluator
from .spectral import alpha_from_fracfield


def fracH_1d(geom: JumpSet1D, p: FracParams, x) -> np.ndarray:
    """Fractional derivative of order 1-eps of a periodic step field.

    For jumps of size s_j at a_j this is sum_j s_j * G_eps(x - a_j) / 2;
    the 1/2 comes from the hat-coefficient normalization on the period
    [-1, 1) and is pinned by a cross-check against the grid operator.
    """
    ev = ClausenEvaluator(p)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for a, s in zip(geom.positions, geom.jump_sizes()):
        out += 0.5 * s * ev.values(x - a)
    return out


def fracH_1d_derivative(geom: JumpSet1D, p: FracParams, x, order: int = 1):
    """Analytic x-derivatives of fracH_1d (independent route for FD checks)."""
    ev = ClausenEvaluator(p)
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for a, s in zip(geom.positions, geom.jump_sizes()):
        out += 0.5 * s * ev.derivative(x - a, order)
    return out


def step_field(geom, p: FracParams):
    """pts -> F(pts), the exact step field of a jump set.

    pts is shaped (..., dim) and F comes back shaped pts.shape[:-1]. In 1D
    this is the kernel series; in 2D the Ewald evaluator of the curve,
    built once and reused for every call, times |jump|.
    """
    if isinstance(geom, JumpSet1D):
        return lambda pts: fracH_1d(geom, p, np.squeeze(pts, -1))
    from .curves import EwaldStepField2D

    ev = EwaldStepField2D(geom.curve, p)
    jump = abs(geom.jump)
    return lambda pts: jump * ev.evaluate(pts, want=("field",))["field"]


def alpha_H(geom, p: FracParams, x) -> np.ndarray:
    """alpha = 1/(1 + F^2) on the exact step field F at points shaped
    (..., dim), without derivatives."""
    return alpha_from_fracfield(step_field(geom, p)(np.asarray(x, dtype=float)))


def alpha_H_and_derivatives(geom, p: FracParams, x, fd_fraction: float = 1.0 / 64.0):
    """alpha = 1/(1 + F^2) on the step field F, and its second differences.

    x has shape (..., dim). second is the sum over the axes of the central
    second differences: alpha'' in 1D, the five-point Laplacian in 2D (not a
    derivative along the ray). Every stencil step is h = fd_fraction * d(x),
    tied to the local distance so the stencil never straddles the jump set.
    epsilon = 1/2 is rejected: the sign analysis this feeds degenerates
    there.

    Returns (alpha, second).
    """
    p = FracParams(p.epsilon, forbid_half=True)
    field = step_field(geom, p)

    def alpha_at(pts):
        return alpha_from_fracfield(field(pts))

    x = np.asarray(x, dtype=float)
    h = fd_fraction * geom.distance(*np.moveaxis(x, -1, 0))
    alpha = alpha_at(x)
    pairs = 0.0
    for e in np.eye(x.shape[-1]):
        step = h[..., None] * e
        pairs = pairs + alpha_at(x + step) + alpha_at(x - step)
    return alpha, (pairs - 2.0 * x.shape[-1] * alpha) / (h * h)


def beta_condition(p: FracParams, method: str = "beta") -> float:
    """The flatness criterion value; zero exactly at eps = 1/2.

    method="beta" evaluates (3/2) B(1/2, (3-eps)/2) - (1/2) B(1/2, (1-eps)/2);
    method="quadrature" integrates the two defining profile integrals
    numerically (after the y = tan(theta) substitution), an independent
    route whose agreement with the closed form is pinned by tests.
    """
    eps = p.epsilon
    if method == "beta":
        return float(
            1.5 * beta_fn(0.5, (3.0 - eps) / 2.0)
            - 0.5 * beta_fn(0.5, (1.0 - eps) / 2.0)
        )
    if method == "quadrature":
        from scipy.integrate import quad

        # After u = pi/2 - t both integrands are u^power * (smooth), and
        # the power is taken by the algebraic-weight rule; adaptive
        # subdivision alone stalls near 1e-10 on the singular one, while
        # the acceptance pin for route agreement is 1e-10.
        first, _ = quad(
            lambda u: np.sinc(u / np.pi) ** (2.0 - eps),
            0.0,
            np.pi / 2.0,
            weight="alg",
            wvar=(2.0 - eps, 0.0),
            epsabs=1e-13,
            epsrel=1e-13,
        )
        second, _ = quad(
            lambda u: np.sinc(u / np.pi) ** (-eps),
            0.0,
            np.pi / 2.0,
            weight="alg",
            wvar=(-eps, 0.0),
            epsabs=1e-13,
            epsrel=1e-13,
        )
        return float(3.0 * first - second)
    raise ValueError(f"unknown method {method!r}")
