import numpy as np
import pytest

from conftest import kernel_derivative, kernel_direct_sum, kernel_mp_reference
from fracpm.grid import FracParams, PeriodicGrid, ScalarField
from fracpm.kernel import ClausenEvaluator, kernel_at_one, series_frac_derivative
from fracpm.spectral import dft_forward

SAMPLE_X = np.linspace(0.07, 1.93, 9)


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_values_match_mpmath(eps):
    p = FracParams(eps)
    ref = kernel_mp_reference(p, SAMPLE_X)
    gap = np.max(np.abs(ClausenEvaluator(p).values(SAMPLE_X) - ref))
    assert gap < 1e-12


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_values_match_tapered_direct_sum(eps):
    # slow route: 2e5 cosine terms with the smooth tail taper
    p = FracParams(eps)
    ref = kernel_direct_sum(p, SAMPLE_X, 200000)
    gap = np.max(np.abs(ClausenEvaluator(p).values(SAMPLE_X) - ref))
    assert gap < 1e-9


def test_kernel_at_one_matches_series():
    p = FracParams(0.45)
    ev = ClausenEvaluator(p)
    assert abs(kernel_at_one(p) - float(ev.values(np.array([1.0]))[0])) < 1e-13


def test_even_symmetry_and_periodicity():
    ev = ClausenEvaluator(FracParams(0.6))
    x = np.array([0.11, 0.37, 0.81])
    assert np.max(np.abs(ev.values(x) - ev.values(-x))) < 1e-13
    assert np.max(np.abs(ev.values(x) - ev.values(x + 2.0))) < 1e-13


def test_singular_growth_toward_zero():
    """Values must blow up like |x|^(eps-1) as x -> 0."""
    ev = ClausenEvaluator(FracParams(0.3))
    d = np.array([1e-7, 1e-6, 1e-5])
    v = ev.values(d)
    assert np.all(np.diff(v) < 0)
    slopes = np.diff(np.log(v)) / np.diff(np.log(d))
    # the smooth remainder pollutes the slope like d^(1-eps)
    assert np.max(np.abs(slopes - (0.3 - 1.0))) < 1e-3


def test_derivative_matches_finite_differences():
    ev = ClausenEvaluator(FracParams(0.7))
    x = np.array([0.3, 0.82, 1.4])
    h = 1e-5
    fd1 = (ev.values(x + h) - ev.values(x - h)) / (2 * h)
    fd2 = (ev.values(x + h) - 2 * ev.values(x) + ev.values(x - h)) / h**2
    assert np.max(np.abs(kernel_derivative(ev, x, 1) - fd1)) < 1e-7
    assert np.max(np.abs(kernel_derivative(ev, x, 2) - fd2)) < 1e-3


def test_series_frac_derivative_of_single_cosine():
    # the k=1 cosine maps to -pi*sin(pi x) for every order parameter
    grid = PeriodicGrid(1, 256)
    f = ScalarField(grid, np.cos(np.pi * grid.axis_nodes()))
    coeffs = dft_forward(f)
    x = np.array([0.137, -0.61, 0.9])
    for eps in (0.25, 0.5, 0.75):
        got = series_frac_derivative(coeffs, FracParams(eps), x)
        assert np.max(np.abs(got - (-np.pi * np.sin(np.pi * x)))) < 1e-12
