"""fracpm.special against scipy.special and mpmath, the test-only oracles.

Tolerances are in ulps of 1 (ULP = 2.2e-16) or relative, fixed from the
accuracy each algorithm promises: zeta 2e-15 relative, J0 1e-15 absolute,
Q 4 ulps absolute. scipy's own J0 loses ulps of x in its phase (about 6e-15
at x = 3200) and its Q is up to 7 ulps from mpmath on this grid, so the
scipy comparisons allow that much more.
"""

import mpmath
import numpy as np
import pytest
import scipy.special as sc

from fracpm.grid import FracParams
from fracpm.kernel import ClausenEvaluator
from fracpm.special import Q_ZERO_FROM, GammaQ, beta, j0, zeta

mpmath.mp.dps = 30
ULP = np.finfo(float).eps
EPS_GRID = np.arange(1, 10) / 10.0


def mp_array(fn, xs):
    return np.array([float(fn(mpmath.mpf(float(x)))) for x in np.ravel(xs)])


@pytest.mark.parametrize("eps", EPS_GRID)
def test_zeta_at_the_kernel_arguments(eps):
    s = np.array([1.0 - eps, eps] + [2.0 * k + 1.0 - eps for k in range(1, 72)])
    got = zeta(s)
    assert np.max(np.abs(got / mp_array(mpmath.zeta, s) - 1.0)) <= 2e-15
    assert np.max(np.abs(got[2:] / sc.zeta(s[2:]) - 1.0)) <= 2e-15


def test_j0_on_0_to_3200():
    x = np.concatenate([np.linspace(0.0, 40.0, 801), np.linspace(40.0, 3200.0, 801)[1:]])
    got = j0(x)
    assert np.max(np.abs(got - mp_array(lambda v: mpmath.besselj(0, v), x))) <= 1e-15
    assert np.max(np.abs(got - sc.j0(x))) <= 1e-14
    grid = x[:1600].reshape(32, 50)  # any shape, small and large arguments mixed
    assert np.array_equal(j0(grid), got[:1600].reshape(32, 50))
    assert np.array_equal(j0(-x), got)


@pytest.mark.parametrize("eps", EPS_GRID)
def test_gamma_q_within_ulps_of_one(eps):
    # dense over the table, [0, 48], sparse beyond, where Q < 1e-21 is dropped
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 30), np.linspace(0.0, 50.0, 301)[1:],
                        np.linspace(50.0, 400.0, 15)[1:]])
    for a in (eps / 2.0, 1.0 - eps / 2.0):
        got = GammaQ(a)(x)
        # 1 - P at 30 digits is exact to double precision, and faster in mpmath below 50
        exact = mp_array(lambda v: 1 - mpmath.gammainc(a, 0, v, regularized=True) if v < 50
                         else mpmath.gammainc(a, v, mpmath.inf, regularized=True), x)
        assert np.max(np.abs(got - exact)) <= 4 * ULP, a
        assert np.max(np.abs(got - sc.gammaincc(a, x))) <= 16 * ULP, a


def test_gamma_q_is_exactly_zero_from_its_top():
    """Q is +0.0 from Q_ZERO_FROM = 48 up, also where x / cell width passes
    the index range (about 2.9e17) and at inf; 47.99 keeps its table value,
    and a scalar x takes the same route."""
    top = np.array([Q_ZERO_FROM, 1e18, 1e300, np.inf])
    for a, below in ((0.15, 8.471186329692977e-24), (0.6, 2.038276978316161e-22),
                     (1.0, 1.4394872198948339e-21)):
        q = GammaQ(a)
        got = q(np.concatenate([[47.99], top]))
        assert got[0] == below and float(q(47.99)) == below
        assert np.array_equal(got[1:], np.zeros(4)) and not np.signbit(got[1:]).any()
        assert float(q(0.5)) == q(np.array([0.5]))[0]


def test_beta_matches_scipy():
    for eps in EPS_GRID:
        for b in ((3.0 - eps) / 2.0, (1.0 - eps) / 2.0):
            assert beta(0.5, b) == pytest.approx(sc.beta(0.5, b), rel=1e-14)


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.55, 0.7, 0.9])
def test_clausen_coefficients_unchanged(eps):
    """Each c_n is within 1e-14 of its exact value. The former scipy/mpmath
    route differenced two log-gammas and is itself up to 3e-13 off for
    n >= 13, where c_n x^(2n) < 4^-13; the series it sums on |x| <= 1 is
    within 1e-14 of the new one, relative to its largest value."""
    c = ClausenEvaluator(FracParams(eps)).coeffs
    e = mpmath.mpf(eps)
    exact = np.array([
        float(mpmath.zeta(2 * k + 1 - e) * mpmath.gamma(2 * k + 1 - e)
              / mpmath.factorial(2 * k) / mpmath.mpf(4) ** k)
        for k in range(c.size)
    ])
    assert np.max(np.abs(c / exact - 1.0)) <= 1e-14
    n = np.arange(c.size)
    z = np.append(float(mpmath.zeta(1 - e)), sc.zeta(2.0 * n[1:] + 1.0 - eps))
    former = z * np.exp(sc.gammaln(2.0 * n + 1.0 - eps) - sc.gammaln(2.0 * n + 1.0)) * 0.25**n
    x2 = np.linspace(0.0, 1.0, 101) ** 2
    new, old = (np.polynomial.polynomial.polyval(x2, cc) for cc in (c, former))
    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))
