import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpm.curves import Circle, SplineCurve
from fracpm.errors import ConfigError
from fracpm.geometry import (
    JumpSet1D,
    JumpSet2D,
    ensure_offgrid,
    exponent_fit,
    periodic_delta,
    power_constant_fit,
    probe_distances,
    weight_profile,
)
from fracpm.grid import PeriodicGrid
from fracpm.linearop import component_indicators


def test_weight_profile_plateau_and_identity():
    delta = 0.1
    d = np.array([0.0, 0.03, 0.09, 0.21, 0.5, 0.99])
    w = weight_profile(d, delta)
    assert np.allclose(w[:3], d[:3], atol=1e-15)
    assert np.allclose(w[3:], 1.0, atol=1e-15)


def test_weight_profile_blend_is_c3():
    """Fit the exact blend polynomial from sampled values and check that
    value and first three derivatives match both branches at the knots."""
    delta = 0.1
    s = np.linspace(0.02, 0.98, 24)  # strictly inside the blend region
    y = weight_profile(delta * (1.0 + s), delta)
    poly = np.polynomial.Polynomial.fit(s, y, 7).convert()
    resid = np.max(np.abs(poly(s) - y))
    assert resid < 1e-12  # the blend really is a degree-7 polynomial
    derivs = [poly.deriv(m) for m in range(4)]
    # at s=0: value delta, slope delta in s (slope 1 in d), higher zero
    left = [derivs[m](0.0) for m in range(4)]
    assert abs(left[0] - delta) < 1e-9
    assert abs(left[1] - delta) < 1e-7
    assert abs(left[2]) < 1e-5 and abs(left[3]) < 1e-3
    # at s=1: value 1, all derivatives zero
    right = [derivs[m](1.0) for m in range(4)]
    assert abs(right[0] - 1.0) < 1e-9
    assert abs(right[1]) < 1e-7
    assert abs(right[2]) < 1e-5 and abs(right[3]) < 1e-3


@settings(max_examples=40, deadline=None)
@given(delta=st.floats(0.02, 0.4))
def test_weight_profile_monotone(delta):
    d = np.linspace(0.0, 3.0 * delta, 400)
    w = weight_profile(d, delta)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.all((w >= -1e-15) & (w <= 1.0 + 1e-12))


def test_weight_profile_rejects_bad_delta():
    with pytest.raises(ConfigError):
        weight_profile(np.array([0.1]), 0.0)


def test_periodic_delta_wraps_shortest_way():
    assert abs(periodic_delta(1.9, -1.9) - (-0.2)) < 1e-14
    assert abs(periodic_delta(0.3, -0.2) - 0.5) < 1e-14
    assert abs(periodic_delta(-0.99, 0.99) - 0.02) < 1e-14


def test_probe_distances_geometric():
    d = probe_distances(1e-4, 1e-2, 32)
    assert len(d) == 32
    assert abs(d[0] - 1e-4) < 1e-18 and abs(d[-1] - 1e-2) < 1e-16
    ratios = d[1:] / d[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12


def test_exponent_fit_recovers_pure_power():
    d = probe_distances(1e-4, 1e-2, 20)
    slope, r2, n_used = exponent_fit(d, 3.7 * d**-0.42)
    assert abs(slope - (-0.42)) < 1e-10
    assert r2 > 1.0 - 1e-12
    assert n_used == 20


def test_exponent_fit_requires_two_decades():
    from fracpm.errors import ExcludedParameterError

    d = probe_distances(1e-3, 5e-2, 16)
    with pytest.raises(ExcludedParameterError):
        exponent_fit(d, d**2)


@pytest.mark.parametrize(
    "a,s,c", [(3.7, -0.42, -2.5), (0.26, -0.7, -0.34), (8.4, -0.1, -8.75), (0.8, 1.4, 0.01)]
)
def test_power_constant_fit_recovers_power_plus_constant(a, s, c):
    d = probe_distances(1e-4, 1e-2, 32)
    slope, amplitude, constant, rel_rms, n_used = power_constant_fit(d, a * d**s + c)
    assert abs(slope - s) < 1e-8
    assert abs(amplitude - a) < 1e-7 * a
    assert abs(constant - c) < 1e-7 * max(abs(c), a)
    assert rel_rms < 1e-9
    assert n_used == 32


def test_power_constant_fit_requires_eight_samples():
    from fracpm.errors import ExcludedParameterError

    d = probe_distances(1e-4, 1e-2, 7)
    with pytest.raises(ExcludedParameterError):
        power_constant_fit(d, d**-0.5 + 1.0)
    d = probe_distances(1e-4, 1e-2, 32)
    vals = d**-0.5 + 1.0
    vals[1:-1:3] = np.nan  # 22 finite samples over the full span: still fits
    assert power_constant_fit(d, vals)[4] == 22
    vals[1:-1] = np.nan  # only the two end points left
    with pytest.raises(ExcludedParameterError):
        power_constant_fit(d, vals)


def test_power_constant_fit_requires_two_decades():
    from fracpm.errors import ExcludedParameterError

    d = probe_distances(1e-3, 5e-2, 16)
    with pytest.raises(ExcludedParameterError):
        power_constant_fit(d, d**2 + 1.0)


def test_jump_set_indicator_distance_components():
    geom = JumpSet1D.symmetric_step()
    x = np.array([-0.9, -0.5 + 1e-9, 0.0, 0.49, 0.51])
    ind = geom.indicator(x)
    assert list(ind) == [0.0, 1.0, 1.0, 1.0, 0.0]
    assert geom.component_count() == 2
    d = geom.distance(np.array([0.0, 0.6, -0.95]))
    assert np.allclose(d, [0.5, 0.1, 0.45], atol=1e-14)
    assert np.max(np.abs(geom.jump_sizes() - np.array([1.0, -1.0]))) == 0.0


def _jump_set(kind):
    if kind == "three-jumps":
        return JumpSet1D((-0.61, 0.07, 0.43), (1.0, -0.5, 0.25))
    if kind == "circle":
        return JumpSet2D(Circle((0.1, -0.05), 0.45), 0.3, -0.7)
    th = 2.0 * np.pi * np.arange(7) / 7
    return JumpSet2D(SplineCurve(np.stack([0.5 * np.cos(th), 0.4 * np.sin(th)], -1)), -2.0, 1.5)


@pytest.mark.parametrize("kind", ["three-jumps", "circle", "spline"])
def test_jump_sets_share_one_interface(kind):
    """In 1D and 2D alike: the component columns partition the nodes, the
    indicator is the value of each node's component, and outward points,
    shaped (..., dim), lie at distance d."""
    geom = _jump_set(kind)
    grid = PeriodicGrid(1 if kind == "three-jumps" else 2, 64)
    nodes = grid.nodes()
    label = geom.label(*nodes)
    ind = component_indicators(grid, geom)
    assert ind.shape == (grid.n**grid.dim, geom.component_count())
    assert np.array_equal(ind.sum(axis=1), np.ones(ind.shape[0]))
    assert np.all(ind.sum(axis=0) > 0)
    assert np.array_equal(ind.argmax(axis=1), label.ravel())
    assert np.array_equal(geom.indicator(*nodes), np.asarray(geom.values)[label])
    d = np.geomspace(1e-8, 1e-1, 15)
    for angle in (0.37, 2.0):
        pts = geom.outward_point(d, angle=angle)
        assert pts.shape == (d.size, grid.dim)
        assert np.max(np.abs(geom.distance(*np.moveaxis(pts, -1, 0)) - d)) < 1e-12


def test_ensure_offgrid_1d_checks_faces_as_well_as_nodes():
    """A jump on a face midpoint but on no node is shifted; jumps on the
    h/4 sub-lattice touch neither and are left alone."""
    grid = PeriodicGrid(1, 16)
    h = grid.h
    on_face = JumpSet1D((-1.0 + 3.5 * h, 0.3), (1.0, 0.0))
    assert np.min(on_face.distance(grid.axis_nodes())) > 0.25 * h
    with pytest.warns(UserWarning, match=r"translating by \(h/4\)"):
        moved, shifted = ensure_offgrid(on_face, grid)
    assert shifted and moved.positions[0] == -1.0 + 3.75 * h

    quarter = JumpSet1D((-1.0 + 3.25 * h, -1.0 + 10.75 * h), (1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again, shifted2 = ensure_offgrid(quarter, grid)
    assert not shifted2 and again is quarter


def test_ensure_offgrid_rechecks_each_shift():
    """A shift that lands a jump on the lattice is not taken: the next of
    h/4, h/8 and 3h/8 is, and the warning names it; if all three collide
    the jump set is rejected."""
    grid = PeriodicGrid(1, 16)
    h = grid.h
    quarter_off = JumpSet1D((-h / 4.0, 0.0), (1.0, 0.0))  # h/4 moves -h/4 onto 0
    with pytest.warns(UserWarning, match=r"translating by \(h/8\) = 0.015625 "):
        moved, shifted = ensure_offgrid(quarter_off, grid)
    assert shifted and moved.positions == (-h / 8.0, h / 8.0)

    stuck = JumpSet1D((-3.0 * h / 8.0, -h / 4.0, -h / 8.0, 0.0), (1.0, 0.0, 1.0, 0.0))
    with pytest.raises(ConfigError, match="h/4, h/8 and 3h/8"):
        ensure_offgrid(stuck, grid)


def test_ensure_offgrid_shifts_by_quarter_cell():
    grid = PeriodicGrid(1, 256)
    geom = JumpSet1D.symmetric_step()
    with pytest.warns(UserWarning):
        moved, shifted = ensure_offgrid(geom, grid)
    assert shifted
    assert np.allclose(
        np.asarray(moved.positions) - np.asarray(geom.positions),
        grid.h / 4.0,
        atol=1e-15,
    )
    # second pass is a no-op
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again, shifted2 = ensure_offgrid(moved, grid)
    assert not shifted2
    assert again is moved

