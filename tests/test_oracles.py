import numpy as np
import pytest

from conftest import fracH_1d_derivative, kernel_mp_reference
from fracpm.geometry import JumpSet1D, probe_distances
from fracpm.grid import FracParams
from fracpm.oracles import (
    alpha_H,
    alpha_H_and_derivatives,
    beta_condition,
    fracH_1d,
)

STEP = JumpSet1D.symmetric_step()
X = np.array([-0.9, -0.3, 0.05, 0.21, 0.4, 0.77])


def test_step_field_matches_mpmath_route():
    # same jump decomposition, but the kernel evaluated through mpmath
    # polylogs instead of the accelerated series split
    p = FracParams(0.3)
    sizes = STEP.jump_sizes()
    ref = sum(
        0.5 * sizes[i] * kernel_mp_reference(p, X - STEP.positions[i]) for i in range(2)
    )
    assert np.max(np.abs(fracH_1d(STEP, p, X) - ref)) < 1e-12


@pytest.mark.parametrize("eps", [0.3, 0.9])
def test_step_field_near_the_jump_matches_mpmath_to_round_off(eps):
    # C02's probes; the reference takes x - a exactly, so only the kernel's
    # own rounding separates the two
    p = FracParams(eps)
    x = 0.5 + probe_distances(1e-4, 1e-2, 32)
    ref = sum(0.5 * s * kernel_mp_reference(p, x, dps=25, a=a)
              for a, s in zip(STEP.positions, STEP.jump_sizes()))
    assert np.max(np.abs(fracH_1d(STEP, p, x) / ref - 1.0)) < 1e-14


def test_step_field_on_a_jump_is_refused():
    from fracpm.errors import ConfigError

    with pytest.raises(ConfigError, match="lies on a jump"):
        fracH_1d(STEP, FracParams(0.3), np.array([0.1, 2.5]))  # 2.5 is the jump at 0.5


def test_step_field_is_odd():
    p = FracParams(0.45)
    x = np.array([0.05, 0.2, 0.35, 0.9])
    assert np.max(np.abs(fracH_1d(STEP, p, -x) + fracH_1d(STEP, p, x))) < 1e-13


def test_step_field_diverges_at_jump():
    p = FracParams(0.3)
    d = np.array([1e-6, 1e-5, 1e-4])
    vals = np.abs(fracH_1d(STEP, p, 0.5 + d))
    assert np.all(np.diff(vals) < 0)
    slope = np.diff(np.log(vals)) / np.diff(np.log(d))
    assert np.max(np.abs(slope - (p.epsilon - 1.0))) < 5e-3


@pytest.mark.parametrize("order", [1, 2])
def test_step_field_derivatives_match_fd(order):
    p = FracParams(0.7)
    x = np.array([0.1, 0.3, 0.8])
    h = 1e-5
    if order == 1:
        fd = (fracH_1d(STEP, p, x + h) - fracH_1d(STEP, p, x - h)) / (2 * h)
        tol = 1e-6
    else:
        fd = (
            fracH_1d(STEP, p, x + h)
            - 2 * fracH_1d(STEP, p, x)
            + fracH_1d(STEP, p, x - h)
        ) / h**2
        tol = 1e-2
    assert np.max(np.abs(fracH_1d_derivative(STEP, p, x, order) - fd)) < tol


def test_alpha_is_reciprocal_of_one_plus_field_squared():
    p = FracParams(0.3)
    x = 0.5 + np.array([1e-3, 3e-3, 1e-2])
    alpha, _ = alpha_H_and_derivatives(STEP, p, x[:, None])
    f = fracH_1d(STEP, p, x)
    assert np.max(np.abs(alpha - 1.0 / (1.0 + f * f))) < 1e-14


def test_alpha_without_derivatives_matches_the_stencil_centre():
    p = FracParams(0.55)
    x = STEP.outward_point(probe_distances(1e-4, 1e-2, 12))
    alpha, _ = alpha_H_and_derivatives(STEP, p, x)
    assert np.array_equal(alpha_H(STEP, p, x), alpha)


def test_alpha_second_derivative_against_analytic_route():
    # alpha'' of 1/(1+F^2) from the analytic kernel derivatives, at the
    # eps where the pointwise sign of alpha'' reverses inside the window
    p = FracParams(0.55)
    x = 0.5 + probe_distances(1e-3, 1e-2, 8)
    _, dd_alpha = alpha_H_and_derivatives(STEP, p, x[:, None])
    f = fracH_1d(STEP, p, x)
    f1 = fracH_1d_derivative(STEP, p, x, 1)
    f2 = fracH_1d_derivative(STEP, p, x, 2)
    q = 1.0 + f * f
    exact = -2.0 * (f1 * f1 + f * f2) / q**2 + 8.0 * (f * f1) ** 2 / q**3
    assert np.max(np.abs(dd_alpha - exact) / np.abs(exact)) < 1e-3


@pytest.mark.parametrize("dim", [1, 2])
def test_stencil_in_one_call_equals_a_call_per_point_set(dim):
    """alpha_H_and_derivatives evaluates the step field it is given once,
    on all 1 + 2 dim stencil point sets; alpha and the second differences
    are those of one call per set, bit for bit."""
    from fracpm.curves import Circle
    from fracpm.geometry import JumpSet2D
    from fracpm.oracles import FD_FRACTION, step_field
    from fracpm.spectral import alpha_from_fracfield

    geom = STEP if dim == 1 else JumpSet2D(Circle((0.01, 0.0), 0.5))
    p = FracParams(0.3)
    x = geom.outward_point(probe_distances(1e-3, 1e-2, 8), angle=0.37)
    field = step_field(geom, p)
    calls = []
    alpha, second = alpha_H_and_derivatives(
        geom, p, x, lambda pts: calls.append(pts.shape) or field(pts)
    )
    assert calls == [(1 + 2 * dim, *x.shape)]
    h = FD_FRACTION * geom.distance(*np.moveaxis(x, -1, 0))
    pairs = 0.0
    for e in np.eye(dim):
        step = h[..., None] * e
        pairs = pairs + alpha_from_fracfield(field(x + step)) + alpha_from_fracfield(field(x - step))
    assert np.array_equal(alpha, alpha_from_fracfield(field(x)))
    assert np.array_equal(second, (pairs - 2.0 * dim * alpha) / (h * h))


def test_alpha_rejects_the_excluded_parameter():
    from fracpm.errors import ExcludedParameterError

    with pytest.raises(ExcludedParameterError):
        alpha_H_and_derivatives(STEP, FracParams(0.5), np.array([[0.6]]))


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.45, 0.55, 0.7, 0.9])
def test_beta_routes_agree(eps):
    p = FracParams(eps)
    gap = abs(beta_condition(p, "beta") - beta_condition(p, "quadrature"))
    assert gap < 1e-10


def test_beta_vanishes_exactly_at_half():
    assert abs(beta_condition(FracParams(0.5))) < 1e-14


@pytest.mark.parametrize("eps,sign", [(0.2, 1.0), (0.4, 1.0), (0.6, -1.0), (0.8, -1.0)])
def test_beta_sign_flips_at_half(eps, sign):
    assert sign * beta_condition(FracParams(eps)) > 0.0
