"""Closed-form oracles for step fields and the flatness criterion.

These never touch a grid: they evaluate the fractional gradient of an exact
piecewise-constant field through the singular kernel, so they stay accurate
arbitrarily close to the jump set where any grid transform has long since
drowned in Gibbs ripple.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
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
    """x -> F(x), the exact step field of a 1D jump set or a 2D jump curve.

    In 2D the Ewald evaluator is built once and reused for every call; a
    JumpSet2D contributes |jump| as a prefactor, a bare curve a unit jump.
    """
    if isinstance(geom, JumpSet1D):
        return lambda x: fracH_1d(geom, p, x)
    from .curves import EwaldStepField2D

    curve = getattr(geom, "curve", geom)
    jump = abs(float(getattr(geom, "jump", 1.0)))
    ev = EwaldStepField2D(curve, p)
    return lambda pts: jump * ev.evaluate(pts, want=("field",))["field"]


def alpha_H(geom, p: FracParams, x) -> np.ndarray:
    """alpha = 1/(1 + F^2) on the exact step field F, without derivatives.

    x is an array of points in 1D, or an array shaped (..., 2) in 2D.
    """
    return alpha_from_fracfield(step_field(geom, p)(np.asarray(x, dtype=float)))


def alpha_H_and_derivatives(geom, p: FracParams, x, fd_fraction: float = 1.0 / 64.0):
    """alpha = 1/(1 + F^2) on the step field F, with two FD derivatives.

    Every stencil step is h = fd_fraction * d(x), tied to the local distance
    so the stencil never straddles the jump set. epsilon = 1/2 is rejected:
    the sign analysis these derivatives feed degenerates there.

    * 1D: x is an array of points; d_alpha and dd_alpha are the central
      first and second differences along the coordinate.
    * 2D: x has shape (..., 2); d_alpha is the central-difference gradient
      vector, shape (..., 2), and dd_alpha is the five-point Laplacian
      (steps h along both coordinate axes), not a derivative along the ray.

    Returns (alpha, d_alpha, dd_alpha).
    """
    p = FracParams(p.epsilon, forbid_half=True)
    field = step_field(geom, p)

    def alpha_at(pts):
        return alpha_from_fracfield(field(pts))

    x = np.asarray(x, dtype=float)
    if isinstance(geom, JumpSet1D):
        h = fd_fraction * geom.distance(x)
        a_mid = alpha_at(x)
        a_plus = alpha_at(x + h)
        a_minus = alpha_at(x - h)
        d_alpha = (a_plus - a_minus) / (2.0 * h)
        dd_alpha = (a_plus - 2.0 * a_mid + a_minus) / (h * h)
        return a_mid, d_alpha, dd_alpha

    h = fd_fraction * geom.distance(x[..., 0], x[..., 1])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    hh = h[..., None]
    a_mid = alpha_at(x)
    a_e = alpha_at(x + hh * e1)
    a_w = alpha_at(x - hh * e1)
    a_n = alpha_at(x + hh * e2)
    a_s = alpha_at(x - hh * e2)
    grad = np.stack([(a_e - a_w) / (2.0 * h), (a_n - a_s) / (2.0 * h)], axis=-1)
    lap = (a_e + a_w + a_n + a_s - 4.0 * a_mid) / (h * h)
    return a_mid, grad, lap


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
